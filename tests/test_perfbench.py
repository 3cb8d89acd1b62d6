"""The benchmark's traced mode against the library it is rebuilt from.

perfbench/worker.py's traced mode rebuilds each workload from public higgsdt
names that the package itself no longer calls: `idt_star(series=)`,
`dt.zstar_series` and the `dt.enumerate_partitions` global it patches,
`LaurentPoly.has_integer_coefficients`, `HalfPowerValue.sign`, `.half` and
`.body`, `moduli_volume(idt_poly=)` and `cli.poly_pairs`; its traced
verify-all patches `verify.stack_volume_p1` and `oracle_p1.semistable_count`
by name and calls `verify.run_suites` once per suite.  These tests run the
traced workloads, and verify-all's untraced body, in-process and hold them to
the benchmark's goldens, so a change to any of those names fails here rather
than only in a benchmark run.  The worker is imported as it is, with
perfbench/ on sys.path.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, PERFBENCH)
    bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import spans
        import worker
    finally:
        sys.path.remove(PERFBENCH)
        sys.dont_write_bytecode = bytecode
    return worker, worker.load_golden(), spans.Tracer


def test_traced_compute_deep_holds_its_golden(bench):
    worker, golden, tracer = bench
    attempted, failed, fingerprint, _, metrics = worker.compute_traced(
        "compute-deep", 0, golden, tracer("compute-deep"))
    # eight ranks and the swell self-check at genus 1
    assert (attempted, failed) == (9, 0)
    assert fingerprint == golden["compute-deep"]["sha256"]
    assert metrics["partitions.count"] > 0


def test_traced_oracle_rank2_holds_its_golden(bench):
    worker, golden, tracer = bench
    attempted, failed, volumes, _, _ = worker.oracle_traced(
        "oracle-rank2", 0, golden, tracer("oracle-rank2"))
    assert (attempted, failed) == (4, 0)
    _, points = worker.oracle_plan(0)
    assert volumes == [golden["oracle-rank2"]["%d,%d" % p] for p in points]


def test_verify_all_bodies_hold_their_golden(bench):
    # the traced body patches verify and oracle_p1 names and runs each suite
    # alone; both bodies must count every check and fail none
    worker, golden, tracer = bench
    plain = worker.verify_body("verify-all", 0, golden)
    traced = worker.verify_traced("verify-all", 0, golden, tracer("verify-all"))
    for attempted, failed, counts in (plain, traced[:3]):
        assert (attempted, failed) == (49, 0)
        assert counts == [golden["verify-all"]["checks"], 0]
    assert traced[4] == {"verify.checks": 49, "verify.failed": 0}
