import hashlib
import json

import pytest

from higgsdt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "0", "--ell", "1",
                       "--rmax", "2")
    assert code == 0
    assert "curve: genus 0, twist degree 1, twisted mode" in out
    assert "rank 1" in out and "rank 2" in out
    assert "invariant      -1" in out
    assert "volume (d=1)" in out


def test_compute_json_schema(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "0", "--ell", "1",
                       "--rmax", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["params"] == {"genus": 0, "ell": 1, "mode": "twisted",
                                 "rmax": 2}
    assert [e["r"] for e in payload["results"]] == [1, 2]
    for entry in payload["results"]:
        assert set(entry) == {"r", "idt", "idt_t1", "omega", "volume"}
        assert set(entry["omega"]) == {"sign", "half_power_exponent", "poly"}
        assert entry["volume"] is not None
    assert payload["results"][0]["idt"] == [["1", "-1"]]


def test_compute_json_canonical(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "1", "--canonical",
                       "--rmax", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["mode"] == "canonical"
    assert payload["params"]["ell"] == 0
    entry = payload["results"][0]
    assert entry["volume"] is None
    assert "A" in entry


def test_compute_csv(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "0", "--ell", "2",
                       "--rmax", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,field,monomial,coefficient"
    assert all(ln.startswith("1,") for ln in lines[1:])
    assert "1,idt,1,1" in lines  # rank-1 invariant is +1 for even twist


def test_compute_latex(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "1", "--ell", "1",
                       "--rmax", "1", "--format", "latex")
    assert code == 0
    assert "\\alpha_{1}" in out


def test_compute_empty_table(capsys):
    code, out, _ = run(capsys, "compute", "--genus", "0", "--ell", "1",
                       "--rmax", "0")
    assert code == 0
    assert "(empty table: rmax = 0)" in out


def test_compute_output_is_stable(capsys):
    _, first, _ = run(capsys, "compute", "--genus", "1", "--ell", "1",
                      "--rmax", "2", "--format", "json")
    _, second, _ = run(capsys, "compute", "--genus", "1", "--ell", "1",
                       "--rmax", "2", "--format", "json")
    assert first == second


def test_compute_usage_errors(capsys):
    for argv in (["compute", "--genus", "1"],
                 ["compute", "--genus", "0", "--canonical"],
                 ["compute", "--genus", "2", "--canonical", "--ell", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    assert "partitions" in out and "oracle" in out


def test_verify_subset(capsys):
    code, out, err = run(capsys, "verify", "--suite", "partitions",
                         "--suite", "explog")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 2
    assert "0 failed" in err


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_oracle_match(capsys):
    code, out, _ = run(capsys, "oracle-p1", "--rank", "1", "--deg", "0",
                       "--ell", "1", "--q", "2")
    assert code == 0
    assert "MATCH" in out and "MISMATCH" not in out


def test_oracle_rank_two_past_the_old_enumeration_cap(capsys):
    code, out, _ = run(capsys, "oracle-p1", "--rank", "2", "--deg", "1",
                       "--ell", "4", "--q", "9")
    assert code == 0
    assert "MATCH" in out and "MISMATCH" not in out


def test_oracle_rejects_bad_field(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle-p1", "--rank", "1", "--deg", "0", "--ell", "1",
              "--q", "6"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_specialize_by_trace(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "2", "--trace", "0",
                       "--ell", "1", "--rmax", "2")
    assert code == 0
    assert "point counts [3, 9, 9]" in out
    assert "rank 1 value at t = 1: -3" in out
    assert "rank 2 value at t = 1:" in out


def test_specialize_by_eigenvalue(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "4", "--weil", "2j",
                       "--ell", "1", "--rmax", "1")
    assert code == 0
    assert "rank 1 value at t = 1: -5" in out


def test_specialize_canonical_counts_points(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "2", "--trace", "1",
                       "--canonical", "--rmax", "2")
    assert code == 0
    assert "rank 1 value at t = 1: 2" in out
    assert "rank 2 value at t = 1: 2" in out


def test_specialize_needs_curve_data(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["specialize", "--q0", "2"])
    assert exc.value.code == 2
    capsys.readouterr()


# sha256 of `compute --format json` output (with its trailing newline), taken
# before the integer-scaled log replaced the rational one; any kernel change
# must reproduce these bytes exactly.  (0, 1, 8) and (3, 5, 3) are the
# benchmark's compute workloads, copied from perfbench/golden.json.
COMPUTE_JSON_SHA256 = {
    (0, 1, 5): "1f90a8ef8863ce1210444da367ddc06c3f67449611eaef4465862cfaf8dfdca6",
    (0, 1, 8): "9288f3fe48962faffd097d44b4fc35479cd33da03c491c7b02d22dc3b8032e0c",
    (1, 1, 3): "33d0aae46295db83d07580e3cd6d0acc5e9d6e672bf334c6ec1a04fddb2625e7",
    (2, 3, 2): "ed41a5148895db0453b9c98afb694004e5cc7800803d12d662399af3be5beb0e",
    (3, 5, 3): "bebbdfe7672da99345ac204652932f8b786eb3aa83de13cba7b6c09ab83c2eed",
}


@pytest.mark.parametrize("genus,ell,rmax", sorted(COMPUTE_JSON_SHA256))
def test_compute_json_bytes_are_pinned(capsys, genus, ell, rmax):
    code, out, _ = run(capsys, "compute", "--genus", str(genus), "--ell",
                       str(ell), "--rmax", str(rmax), "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == COMPUTE_JSON_SHA256[(genus, ell, rmax)]


def test_specialize_refuses_non_prime_power(capsys):
    code, out, err = run(capsys, "specialize", "--q0", "6", "--trace", "0")
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [
        "higgsdt specialize: error: q0 must be a prime power, got 6"]


def test_specialize_reports_drift_in_one_line(capsys):
    code, out, err = run(capsys, "specialize", "--q0", "10007", "--trace", "1",
                         "--rmax", "3")
    assert code == 1
    assert "rank 2 value at t = 1:" in out and "rank 3" not in out
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("higgsdt specialize: value cannot be certified:")


def test_specialize_does_not_mask_kernel_errors(capsys, monkeypatch):
    # only user input is reported as rejected; a ValueError from the
    # evaluation itself is a bug and must surface as a traceback
    def broken(poly, zd):
        raise ValueError("kernel bug")
    monkeypatch.setattr("higgsdt.cli.specialize_integer", broken)
    with pytest.raises(ValueError, match="kernel bug"):
        main(["specialize", "--q0", "2", "--trace", "0", "--rmax", "1"])


def test_specialize_refuses_counts_past_double_precision(capsys):
    code, out, err = run(capsys, "specialize", "--q0", "134217689", "--trace", "1",
                         "--rmax", "1")
    assert code == 1
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("higgsdt specialize: value cannot be certified:")
