"""Every `higgsdt verify` suite runs in tier-1, and each keeps its count.

The suites are the one statement of the headline properties (integrality,
the rank-1 closed form, the zeta-value form, stabilization, the count on the
line, ...); this file runs them and pins how many real checks each makes,
so a check cannot silently turn informational or disappear.
"""

import json
from pathlib import Path

import pytest

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
