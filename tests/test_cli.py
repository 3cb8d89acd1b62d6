import ast
import hashlib
import json
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from higgsdt.algebra import var_table
from higgsdt.cli import main
from higgsdt.verify import SUITES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CLI = SRC / "higgsdt" / "cli.py"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refusal(capsys, *argv):
    """stdout and stderr of a command that is refused: SystemExit(2)."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    return captured.out, captured.err


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


# bad values: exactly one stderr line naming the command, exit 2, no usage
# line and never a traceback
REFUSALS = {
    "compute --genus -1 --ell 1": "higgsdt compute: error: genus must be nonnegative",
    "compute --genus 0 --ell -3":
        "higgsdt compute: error: twisted mode needs ell > 2g - 2 (got p = -1)",
    "compute --genus 1 --ell 0":
        "higgsdt compute: error: twisted mode needs ell > 2g - 2 (got p = 0)",
    "compute --genus 0 --canonical": "higgsdt compute: error: canonical mode needs genus >= 1",
    "compute --genus 1": "higgsdt compute: error: --ell is required in twisted mode",
    "compute --genus 2 --canonical --ell 3":
        "higgsdt compute: error: canonical twist degree is fixed at 2g - 2 = 2",
    "oracle-p1 --rank 2 --deg 0 --ell 1 --q 3":
        "higgsdt oracle-p1: error: rank and degree must be coprime, got (2, 0)",
    "oracle-p1 --rank 2 --deg 1 --ell -1 --q 3":
        "higgsdt oracle-p1: error: twist degree must be nonnegative",
    "verify --suite nope":
        "higgsdt verify: error: unknown suites: nope (have %s)" % ", ".join(sorted(SUITES)),
    "specialize --q0 4 --trace 0 --canonical --ell 5 --rmax 1":
        "higgsdt specialize: error: canonical twist degree is fixed at 2g - 2 = 0",
}


@pytest.mark.parametrize("argv", list(REFUSALS))
def test_bad_values_are_refused_in_one_line(capsys, argv):
    out, err = refusal(capsys, *argv.split())
    assert out == ""
    assert err.splitlines() == [REFUSALS[argv]]


# argparse's own errors keep argparse's form: the usage line, then the reason
USAGE_ERRORS = {
    "compute --genus 0 --ell 1 --rmax -2":
        "higgsdt compute: error: argument --rmax: must be a nonnegative integer, got '-2'",
    "specialize --q0 4 --trace 1 --rmax -1":
        "higgsdt specialize: error: argument --rmax: must be a nonnegative integer, got '-1'",
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS))
def test_usage_errors_keep_argparse_form(capsys, argv):
    out, err = refusal(capsys, *argv.split())
    assert out == "" and err.startswith("usage: ")
    assert err.splitlines()[-1] == USAGE_ERRORS[argv]


# a twist past the packed exponent range: refused by the command, exit 2
OVERSIZED = {
    "compute --genus 0 --ell 3000000000 --rmax 2":
        "higgsdt compute: error: exponent 3000000002 outside [-2^30, 2^30)",
    "specialize --q0 5 --trace 1 --ell 3000000000 --rmax 2":
        "higgsdt specialize: error: exponent 3000000000 outside [-2^30, 2^30)",
}


@pytest.mark.parametrize("argv", list(OVERSIZED))
def test_oversized_twist_is_refused_in_one_line(capsys, argv):
    out, err = refusal(capsys, *argv.split())
    assert out == "" and "Traceback" not in err
    assert err.splitlines() == [OVERSIZED[argv]]


def test_one_refusal_path():
    # only _refuse ends a command with exit 2 or writes "error:"; argparse's
    # own usage errors are raised inside parse_args, not here
    tree = ast.parse(CLI.read_text())
    helper = next(f for f in tree.body
                  if isinstance(f, ast.FunctionDef) and f.name == "_refuse")
    # the helper's body and the docstrings, which write nothing
    inside = {id(node) for node in ast.walk(helper)}
    inside |= {id(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    exits, writes, returns = [], [], []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("exit", "error")):
            exits.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and "error:" in str(node.value):
            writes.append(node.value)
        elif isinstance(node, ast.Return) and ast.unparse(node) == "return 2":
            returns.append(node.lineno)
    assert exits == ["sys.exit(main())"]
    assert writes == [] and returns == []


def test_one_render_path():
    # one function sorts a polynomial's terms and formats its monomials, and
    # json is written from templates, never through the json encoder
    tree = ast.parse(CLI.read_text())
    sorts, formats, encodes = set(), set(), []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            call = ast.unparse(node.func)
            if call.endswith("sorted_terms") or (
                    call == "sorted" and ".terms" in ast.unparse(node.args[0])):
                sorts.add(fn.name)
            elif call.endswith(("format_monomials", "format_exps")):
                formats.add(fn.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in (
                "dumps", "encode_basestring", "encode_basestring_ascii"):
            encodes.append(ast.unparse(node))
    assert sorts == formats and len(sorts) == 1
    assert encodes == []


def test_json_strings_need_no_escaping():
    # the json template writes monomials and coefficients between quotes as
    # they are; json.dumps must agree for every string they can be
    rng = random.Random(21)
    strings = [str(c) for c in range(-1000, 1001)]
    strings += [str(rng.randrange(-10 ** 40, 10 ** 40)) for _ in range(200)]
    for genus in range(4):
        table = var_table(genus)
        keys = [table.pack([rng.randint(-40, 40) for _ in range(table.arity)])
                for _ in range(300)] + [table.zero_exps()]
        monos = table.format_monomials(keys)
        assert monos[-1] == "1" and any("^-" in m for m in monos)
        strings += monos
    for s in strings:
        assert json.dumps(s) == '"%s"' % s


def test_closed_stdout_exits_quietly():
    # a reader that stops after one line of about 400 kB, far more than a
    # pipe holds: no traceback, exit status 1
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "higgsdt.cli", "compute", "--genus", "2",
            "--ell", "3", "--rmax", "4", "--format", "csv"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          env=env) as proc:
        assert proc.stdout.readline() == b"r,field,monomial,coefficient\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""  # in particular no traceback


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


def test_verify_timings_go_to_stderr_before_the_summary(capsys):
    suites = ("--suite", "partitions", "--suite", "hooks")
    code, out, err = run(capsys, "verify", *suites)
    assert code == 0 and err == "6 checks, 0 failed\n"
    code, timed_out, timed_err = run(capsys, "verify", "--timings", *suites)
    assert code == 0 and timed_out == out
    lines = timed_err.splitlines()
    assert lines[-1] == "6 checks, 0 failed"
    # neither suite builds a series term or an IDT table
    assert lines[-2] == "SHARED  idt tables built 0, served 0; terms built 0, served 0"
    assert [line.split()[:2] for line in lines[:-2]] == [
        ["TIME", "[partitions]"], ["TIME", "[hooks]"]]
    for line in lines[:-2]:
        assert re.fullmatch(r"TIME  \[\w+\] \d+\.\d{3} s", line), line


def test_verify_timings_count_what_the_run_shares(capsys):
    # rank1 builds 23 tables to rank 1 or 3, from 27 terms and one served
    # (canonical genus 1 asks for rank 1, then rank 3); integrality asks
    # four of those curves for rank 3 or 4, which rebuilds their tables
    # from 35 new terms and serves the 4 of weight 1; degrees reads three
    # of them to rank 3 off those tables
    suites = ("--suite", "rank1", "--suite", "integrality", "--suite", "degrees")
    code, out, err = run(capsys, "verify", *suites)
    code_t, timed_out, timed_err = run(capsys, "verify", "--timings", *suites)
    assert code == code_t == 0 and timed_out == out
    lines = timed_err.splitlines()
    assert err == lines[-1] + "\n" == "7 checks, 0 failed\n"
    assert lines[-2] == "SHARED  idt tables built 27, served 3; terms built 62, served 5"
    assert [line.split()[0] for line in lines[:-2]] == ["TIME"] * 3


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
    refusal(capsys, "oracle-p1", "--rank", "1", "--deg", "0", "--ell", "1", "--q", "6")


def test_specialize_by_trace(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "2", "--trace", "0",
                       "--ell", "1", "--rmax", "2")
    assert code == 0
    assert "point counts [3, 9, 9]" in out
    assert "rank 1 value at t = 1: -3" in out
    assert "rank 2 value at t = 1:" in out


def test_specialize_by_eigenvalue(capsys):
    # L = 1 + 4 t^2: the eigenvalues are +-2i
    code, out, _ = run(capsys, "specialize", "--q0", "4", "--lpoly", "0",
                       "--ell", "1", "--rmax", "1")
    assert code == 0
    assert "rank 1 value at t = 1: -5" in out


def test_specialize_lpoly_takes_negative_coefficients(capsys):
    by_trace = run(capsys, "specialize", "--q0", "3", "--trace", "1", "--rmax", "2")
    by_lpoly = run(capsys, "specialize", "--q0", "3", "--lpoly", "-1", "--rmax", "2")
    assert by_trace == by_lpoly
    assert by_lpoly[0] == 0 and "rank 2 value at t = 1: 12" in by_lpoly[1]
    # genus 2, beta = 1 and 0: L = (1 - t + 2 t^2)(1 + 2 t^2); rank 1 is
    # -prod_i (q0 + 1 - beta_i)
    code, out, _ = run(capsys, "specialize", "--q0", "2", "--lpoly", "-1", "4",
                       "--ell", "3", "--rmax", "1")
    assert code == 0
    assert "point counts [2, 12, 14]" in out
    assert "rank 1 value at t = 1: -6" in out


@pytest.mark.parametrize("args, values", [
    ("--q0 2 --lpoly -1 4 --ell 3 --rmax 3", [-6, 210, -42984]),
    ("--q0 3 --lpoly 0 0 0 --ell 5 --rmax 2", [-28, 103152]),
])
def test_specialize_values_past_genus_one(capsys, args, values):
    code, out, _ = run(capsys, "specialize", *args.split())
    assert code == 0
    assert out.splitlines()[1:] == ["rank %d value at t = 1: %d" % (r, v)
                                    for r, v in enumerate(values, start=1)]


def test_specialize_takes_exactly_one_curve(capsys):
    _, err = refusal(capsys, "specialize", "--q0", "3", "--trace", "1", "--lpoly", "-1")
    assert "not allowed with argument" in err


def test_specialize_canonical_counts_points(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "2", "--trace", "1",
                       "--canonical", "--rmax", "2")
    assert code == 0
    assert "rank 1 value at t = 1: 2" in out
    assert "rank 2 value at t = 1: 2" in out


def test_specialize_needs_curve_data(capsys):
    refusal(capsys, "specialize", "--q0", "2")


# sha256 of `compute --format json` output (with its trailing newline), taken
# before the integer-scaled log replaced the rational one; any kernel change
# must reproduce these bytes exactly.  (0, 1, 8) and (3, 5, 3) are the
# benchmark's compute workloads, copied from perfbench/golden.json; with
# (1, 1, 6) and (2, 3, 4) they make up the whole benchmark grid.
COMPUTE_JSON_SHA256 = {
    (0, 1, 5): "1f90a8ef8863ce1210444da367ddc06c3f67449611eaef4465862cfaf8dfdca6",
    (0, 1, 8): "9288f3fe48962faffd097d44b4fc35479cd33da03c491c7b02d22dc3b8032e0c",
    (1, 1, 3): "33d0aae46295db83d07580e3cd6d0acc5e9d6e672bf334c6ec1a04fddb2625e7",
    (1, 1, 6): "714515f211d193ad411b13ef35a5337686a612bd013a91bb9dc98f0e713ec7fa",
    (2, 3, 2): "ed41a5148895db0453b9c98afb694004e5cc7800803d12d662399af3be5beb0e",
    (2, 3, 4): "c3e34e66d59daa6795b787014cba2a948d1af492fffd9fe202786cf73c12d256",
    (3, 5, 3): "bebbdfe7672da99345ac204652932f8b786eb3aa83de13cba7b6c09ab83c2eed",
}


@pytest.mark.parametrize("genus,ell,rmax", sorted(COMPUTE_JSON_SHA256))
def test_compute_json_bytes_are_pinned(capsys, genus, ell, rmax):
    code, out, _ = run(capsys, "compute", "--genus", str(genus), "--ell",
                       str(ell), "--rmax", str(rmax), "--format", "json")
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == COMPUTE_JSON_SHA256[(genus, ell, rmax)]


# sha256 of `compute` output in the other formats (trailing newline included),
# taken before text and latex shared one renderer; a refactor must reproduce
# these bytes exactly.
COMPUTE_RENDER_SHA256 = {
    (0, 1, 4, "text"): "bbb2eee7c1e776c085e3ba135cda836866789f2a8d68b60d8606b6fa6741a19c",
    (0, 1, 4, "latex"): "154f68151ffc4ea4227d8a6e6eb13a9c348681dd8b217efba13d66686ea9566e",
    (0, 1, 4, "csv"): "78004aa5a089339378b362659334e23495c7fbd71f5d127d767699dfca7a4379",
    (1, 1, 3, "text"): "32873d2592354d24027a838c40d961b2aeaf132b61dd22b1ecd81cccb9b41993",
    (1, 1, 3, "latex"): "0755ac0714f5d8992e88d3e34fc0ae250422399af844601a7b4eee8304848d3c",
    (1, 1, 3, "csv"): "fd3f06dc1c19fc73bcf5ae6b70bdfa04a4ae0fa49115f8cd67972217c9c59242",
    (2, 3, 2, "text"): "65106f6a96db46158e36d21d36f9fbe04247877c890f29245d2342032e61a5e8",
    (2, 3, 2, "latex"): "e906f59f2373571c86fae81a0a67ae3d92eee71691a414c2bd5157ab9bf8d804",
    (2, 3, 2, "csv"): "48a943177914aca993e98d9e7d842611005d39c133543e45a1f8e7930936de35",
    (1, "canonical", 2, "text"): "034a4db1b6c25454253c1ee6a70b390f5b6ecee694e5e7791f48e7cc733ab6c3",
    (1, "canonical", 2, "latex"): "5713bbf038bf62caaec86173039f3ac21742dfac59100b22ddff199ea7a6b144",
    (1, "canonical", 2, "csv"): "ab0464f24e47978e70ef0627ba25febeb0c9d10058ea852bd4b8043dbb1c54ac",
    (1, "canonical", 2, "json"): "98f76a12ed2a12f240f4a6a02e6116cdbcb44e752380501f50a78442a1ef5214",
    # taken before compute rendered every format from one list of pairs:
    # the empty table, three a-variables and the A key at genus 2
    (0, 1, 0, "text"): "5dc33e60164eb20f6fa86803661d9576ea33d4a7e7929bb002c3573fe94c18a9",
    (0, 1, 0, "latex"): "5dc33e60164eb20f6fa86803661d9576ea33d4a7e7929bb002c3573fe94c18a9",
    (0, 1, 0, "csv"): "6b13154cc76a270f958ca4fc4f4f15fda96e19f9694f0406c06aee76ebc884a2",
    (0, 1, 0, "json"): "0a39372d45ccaad0cb1d2b05b954b9a4cc722f1b07d0508367cdb186342063de",
    (3, 5, 2, "text"): "3f583ae9cf22c3c1010a1a0868e7389f549e888fb34219eeac8c682b0eb98ba4",
    (3, 5, 2, "latex"): "2a59cbe63a9c104c58718ea1bb85dbc4c7f0830ca717da0e8d002a1b4fbdb58b",
    (3, 5, 2, "csv"): "a05a67b68fa638774e00f54d05c9d5504c7a545ba119d3ce259285b12d894712",
    (2, "canonical", 2, "text"): "4bf1171f9226bd59ffa8ee10ae82d421c585087b5b73de0473dd2efc156030d7",
    (2, "canonical", 2, "latex"): "d1c4e6778783d265b8c1427e50e0ac7ead514fcf9cb0fe43db418102490dbd88",
    (2, "canonical", 2, "csv"): "ef7a27393a4f1c839375a28e1fc80ff12bd15f6d56f39af6a0d5d03a706c3e3d",
    (2, "canonical", 2, "json"): "82d1011037e647cfe26c4c7f60ea3d2587cf078bfc789f9f430a8ccd04ec9a22",
}


@pytest.mark.parametrize("genus,twist,rmax,fmt", list(COMPUTE_RENDER_SHA256))
def test_compute_render_bytes_are_pinned(capsys, genus, twist, rmax, fmt):
    curve = ["--canonical"] if twist == "canonical" else ["--ell", str(twist)]
    code, out, _ = run(capsys, "compute", "--genus", str(genus), *curve,
                       "--rmax", str(rmax), "--format", fmt)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == COMPUTE_RENDER_SHA256[(genus, twist, rmax, fmt)]


def test_specialize_refuses_non_prime_power(capsys):
    out, err = refusal(capsys, "specialize", "--q0", "6", "--trace", "0")
    assert out == ""
    assert err.strip().splitlines() == [
        "higgsdt specialize: error: q0 must be a prime power, got 6"]


@pytest.mark.parametrize("lpoly", [("-5", "12"), ("0", "5")])
def test_specialize_refuses_non_curves(capsys, lpoly):
    # both meet |c_k| <= C(2g, k) q0^(k/2) but their beta-polynomials,
    # x^2 - 5x + 8 and x^2 + 1, have complex roots; they used to print point
    # counts [-2, 4, 34] and [3, 15, 9]
    out, err = refusal(capsys, "specialize", "--q0", "2", "--lpoly", *lpoly,
                       "--ell", "3", "--rmax", "1")
    assert out == ""
    assert err.strip().splitlines() == [
        "higgsdt specialize: error: L-polynomial coefficients [%s, %s] at q0 = 2 "
        "are no curve's: some a_i + q0/a_i is not real in "
        "[-2 sqrt(q0), 2 sqrt(q0)]" % lpoly]


def test_specialize_refuses_an_undecided_q0(capsys):
    # 2^89 - 1 is prime, but past 3.317e24 Miller-Rabin with the bases up to
    # 41 proves nothing, so it is refused rather than guessed
    q0 = 2 ** 89 - 1
    out, err = refusal(capsys, "specialize", "--q0", str(q0), "--trace", "1",
                       "--rmax", "1")
    assert out == ""
    assert err.strip().splitlines() == [
        "higgsdt specialize: error: cannot decide whether %d is a prime power: "
        "%d passes every Miller-Rabin base up to 41, which proves primality "
        "only below 3317044064679887385961981" % (q0, q0)]


def test_specialize_reports_drift_in_one_line(capsys):
    # rank 3 at q0 = 10007 is about 1e16, past what a double holds exactly
    code, out, err = run(capsys, "specialize", "--q0", "10007", "--trace", "1",
                         "--rmax", "3")
    assert code == 0 and err == ""
    assert "rank 3 value at t = 1: -10029031615332793" in out


def test_specialize_is_exact_where_floats_refused(capsys):
    code, out, _ = run(capsys, "specialize", "--q0", "1009", "--trace", "1",
                       "--ell", "1", "--rmax", "3")
    assert code == 0
    assert "rank 3 value at t = 1: -1037517184371" in out
    code, out, _ = run(capsys, "specialize", "--q0", "1000003", "--trace", "1",
                       "--rmax", "1")
    assert code == 0
    assert out.splitlines() == [
        "curve over F_1000003 with point counts "
        "[1000003, 1000008000015, 1000009000030000036]",
        "rank 1 value at t = 1: -1000003"]


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
    assert code == 0 and err == ""
    assert "point counts [134217689, 18014388308936099, " in out
    assert "rank 1 value at t = 1: -134217689" in out
