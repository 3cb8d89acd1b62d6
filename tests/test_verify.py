"""Every `higgsdt verify` suite runs in tier-1, and each keeps its count.

The suites are the one statement of the headline properties (integrality,
the rank-1 closed form, the zeta-value form, stabilization, the count on the
line, ...); this file runs them and pins how many real checks each makes,
so a check cannot silently turn informational or disappear.
"""

import json
import random
from pathlib import Path

import pytest

from higgsdt import dt
from higgsdt.dt import CurveParams, idt_orbits
from higgsdt.verify import SUITES, run_suites

# counted checks (ok is not None) per suite
COUNTED = {"partitions": 4, "explog": 4, "hooks": 2, "rank1": 3,
           "integrality": 4, "alt": 6, "stabilization": 4, "fprops": 6,
           "oracle": 13, "numeric": 3, "degrees": 0}


@pytest.mark.parametrize("name", list(SUITES))
def test_suite_passes_with_its_check_count(name):
    results, failures = run_suites([name])
    failed = [r.label for r in results if r.ok is False]
    assert not failed and failures == 0, failed
    assert all(r.suite == name for r in results)
    assert sum(1 for r in results if r.ok is not None) == COUNTED[name]


def test_counts_cover_every_suite_and_match_the_benchmark_golden():
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    assert set(COUNTED) == set(SUITES)
    assert sum(COUNTED.values()) == json.loads(golden.read_text())["verify-all"]["checks"]


# -- one run shares its series terms and IDT tables (dt.shared) ---------------


def _lines(results):
    return [(r.suite, r.label, r.ok, r.detail) for r in results]


@pytest.fixture(scope="module")
def alone():
    """Each suite's lines from a run of that suite alone."""
    return {name: _lines(run_suites([name])[0]) for name in SUITES}


def _orders():
    # the default order asks integrality (rank 4) before degrees (rank 3)
    # of the same curves; shuffled as perfbench shuffles them, seeds 1 and
    # 2 ask degrees first, so their tables are rebuilt at the higher order
    yield "default", list(SUITES)
    yield "reversed", list(SUITES)[::-1]
    for seed in (1, 2):
        names = list(SUITES)
        random.Random(seed).shuffle(names)
        assert names.index("degrees") < names.index("integrality")
        yield "seed%d" % seed, names


@pytest.mark.parametrize("order", [names for _, names in _orders()],
                         ids=[name for name, _ in _orders()])
def test_each_suite_gives_its_lines_alone_and_in_a_shared_run(order, alone):
    results, failures = run_suites(order)
    assert failures == 0
    assert _lines(results) == [line for name in order for line in alone[name]]


def _counting_zstar_terms(monkeypatch):
    built = []
    zstar = dt._zstar_term
    monkeypatch.setattr(dt, "_zstar_term",
                        lambda cp, lam, table: built.append(lam) or zstar(cp, lam, table))
    return built


CP = CurveParams(genus=1, ell=1)
WEIGHT_3 = 1 + 2 + 3     # partitions of weight 1, 2 and 3


def test_nothing_is_shared_outside_a_run(monkeypatch):
    built = _counting_zstar_terms(monkeypatch)
    first = idt_orbits(CP, 3)
    assert len(built) == WEIGHT_3
    assert idt_orbits(CP, 3) == first
    assert len(built) == 2 * WEIGHT_3
    assert dt._shared is None


def test_a_run_builds_each_term_and_table_once_and_keeps_nothing(monkeypatch):
    built = _counting_zstar_terms(monkeypatch)
    seen = {}

    def twice():
        first = idt_orbits(CP, 3)
        seen["after one"] = len(built)
        again, lower = idt_orbits(CP, 3), idt_orbits(CP, 2)
        seen["after three"] = len(built)
        higher = idt_orbits(CP, 4)     # rebuilt, its terms of weight <= 3 served
        seen["after four"] = len(built)
        seen["memo"] = dt._shared
        return [("served table is the built one", again == first
                 and lower == {r: first[r] for r in (1, 2)}
                 and {r: higher[r] for r in (1, 2, 3)} == first)]

    monkeypatch.setitem(SUITES, "twice", ("build a table twice", twice))
    results, failures = run_suites(["twice"])
    assert failures == 0 and [r.ok for r in results] == [True]
    assert seen["after one"] == seen["after three"] == WEIGHT_3
    assert seen["after four"] == WEIGHT_3 + 5
    memo = seen["memo"]
    assert (memo.tables_built, memo.tables_served) == (2, 2)
    assert (memo.terms_built, memo.terms_served) == (WEIGHT_3 + 5, WEIGHT_3)
    assert dt._shared is None and memo.terms == {} and memo.tables == {}


def test_a_run_that_raises_keeps_nothing(monkeypatch):
    seen = {}

    def raising():
        idt_orbits(CP, 2)
        seen["memo"] = dt._shared
        raise RuntimeError("suite failed")

    monkeypatch.setitem(SUITES, "raising", ("build, then raise", raising))
    with pytest.raises(RuntimeError, match="suite failed"):
        run_suites(["raising"])
    memo = seen["memo"]
    assert memo.tables_built == 1 and memo.terms_built == 3
    assert dt._shared is None and memo.terms == {} and memo.tables == {}
    built = _counting_zstar_terms(monkeypatch)
    idt_orbits(CP, 2)
    assert len(built) == 3


@pytest.mark.parametrize("names", [["alt"], ["integrality", "alt"]], ids="+".join)
def test_a_mutant_zeta_value_term_still_fails_in_a_shared_run(names, monkeypatch):
    # as in test_dt's test_substitution_identity_check_can_fail, the
    # prefactor's twist off by one; integrality first fills the memo with
    # the genus-0 twist-1 main terms that alt compares against
    alt = dt._alt_h_term
    monkeypatch.setattr(dt, "_alt_h_term", lambda c, lam, table: alt(
        CurveParams(genus=c.genus, ell=c.ell + 1), lam, table))
    results, failures = run_suites(names)
    termwise = [r.ok for r in results if r.label.startswith("termwise substitution")]
    assert termwise == [False, False, False]
    assert failures >= 3
