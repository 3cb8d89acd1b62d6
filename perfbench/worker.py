"""One measured repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|body|traced

run.py starts this with PYTHONPATH pointing at the checkout's src/ and
HIGGSDT_THREADS unset.  Every mode imports higgsdt and runs a warm-up that
shares no input with the workload, while a timer signal samples the host's
speed; it notes the moment it was ready and times the host calibration loop.
"setup" stops there.  "body" times the untraced workload
while a timer signal samples the host's speed; "traced" runs the same
workload rebuilt from public higgsdt calls with a span around each layer.
The last stdout line is one JSON object for run.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction as Q

from spans import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))

COMPUTE = {"compute-deep": (0, 1, 8), "compute-wide": (3, 5, 3)}   # genus, ell, rmax
ORACLE_POINTS = ((1, 4), (1, 5), (2, 3), (3, 2))                     # (ell, q), rank 2
ORACLE_DEGREES = (1, 3, -1, 5)


def load_golden():
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


PROBE_REF_S = 0.0007      # the probe's time on a quiet reference host
CALIB_PROBES = 50
_PROBE_POLY = {(i, j, k): i - j + k for i in range(4) for j in range(4) for k in range(3)}


def probe():
    """A fixed pure-Python loop: sparse multiplication of two small
    integer-keyed dicts, the kernel's idiom in miniature, so it slows down with
    the host in step with the workloads.  It shares no code with higgsdt."""
    out = {}
    for ea, ca in _PROBE_POLY.items():
        for eb, cb in _PROBE_POLY.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def calibrate():
    """host.calib_s: seconds for CALIB_PROBES probes in a row."""
    start = time.perf_counter()
    for _ in range(CALIB_PROBES):
        probe()
    return time.perf_counter() - start


class HostClock:
    """Samples the host's speed while a body runs.

    A timer signal interrupts the body every `period` seconds of wall time and
    runs one probe.  `stolen` is the time the probes took, to be subtracted
    from the body's time; `factor()` is PROBE_REF_S over the mean probe time,
    which turns measured seconds into seconds on the reference host.
    """

    def __init__(self, period=0.1):
        self.period = period
        self.samples = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def stolen(self):
        return sum(self.samples)

    def factor(self):
        return PROBE_REF_S * len(self.samples) / self.stolen if self.samples else None


def oracle_plan(seed):
    """Degree d and the order of the oracle points.  The groupoid volume does
    not depend on d (degree-shift invariance), so the goldens do not either."""
    rng = random.Random(seed)
    d = rng.choice(ORACLE_DEGREES)
    points = list(ORACLE_POINTS)
    rng.shuffle(points)
    return d, points


def verify_order(seed):
    from higgsdt.verify import SUITES
    names = list(SUITES)
    random.Random(seed).shuffle(names)
    return names


# -- compute ------------------------------------------------------------------


def check_compute(name, text, golden):
    """(attempted, failed): one operation per rank, each held to its golden."""
    rmax = COMPUTE[name][2]
    gold = golden[name]
    try:
        results = json.loads(text)["results"]
    except (ValueError, KeyError):
        return rmax, rmax
    got = {e.get("r"): digest(json.dumps(e)) for e in results}
    failed = sum(1 for r in range(1, rmax + 1) if got.get(r) != gold["ranks"][str(r)])
    if not failed and digest(text) != gold["sha256"]:
        failed = 1
    return rmax, failed


def compute_body(name, seed, golden):
    from higgsdt import cli
    genus, ell, rmax = COMPUTE[name]
    argv = ["compute", "--genus", str(genus), "--ell", str(ell),
            "--rmax", str(rmax), "--format", "json"]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli.main(argv)
    except Exception:
        traceback.print_exc()
        return rmax, rmax, None
    if status:
        return rmax, rmax, None
    text = buf.getvalue()
    return check_compute(name, text, golden) + (digest(text),)


def clearing_chain(cp, log_series, rmax):
    """(q - 1)(1 - t) times each log coefficient, denominator cleared: the
    public-call form of idt_star's last step."""
    from higgsdt import IntegralityError, LaurentPoly
    table = cp.table()
    one = table.one()
    clearer = ((table.monomial(table.exps(q=1)) - one)
               * (one - table.monomial(table.exps(t=1))))
    polys = {}
    for r in range(1, rmax + 1):
        poly = log_series.coeffs[r].mul_poly(clearer).clear_denominator()
        if not poly.has_integer_coefficients():
            raise IntegralityError("coefficient r=%d has non-integer coefficients" % r)
        polys[r] = LaurentPoly(table, {e: int(c) for e, c in poly.terms.items()})
    return polys


def render_json(cp, rmax, polys):
    """compute --format json output for a twisted curve, from public calls."""
    from higgsdt import moduli_volume, omega
    from higgsdt.cli import SCHEMA_VERSION, poly_pairs
    results = []
    for r in sorted(polys):
        poly = polys[r]
        hp = omega(cp, r, idt_poly=poly)
        results.append({
            "r": r,
            "idt": poly_pairs(poly),
            "idt_t1": poly_pairs(poly.set_var_one("t")),
            "omega": {"sign": hp.sign, "half_power_exponent": hp.half,
                      "poly": poly_pairs(hp.body)},
            "volume": poly_pairs(moduli_volume(cp, r, 1, idt_poly=poly)),
        })
    payload = {"schema_version": SCHEMA_VERSION,
               "params": {"genus": cp.genus, "ell": cp.ell, "mode": cp.mode,
                          "rmax": rmax},
               "results": results}
    return json.dumps(payload, indent=2) + "\n"


def sizes(coeffs):
    """(numerator terms, denominator factors) summed over series coefficients."""
    return (sum(len(c.num.terms) for c in coeffs), sum(len(c.den) for c in coeffs))


def coeff_bits(polys):
    """Largest bit length of a numerator or denominator of any coefficient."""
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for p in polys for c in p.terms.values()), default=0)


def compute_traced(name, seed, golden, tracer):
    from higgsdt import CurveParams, dt, enumerate_partitions, pleth_log
    genus, ell, rmax = COMPUTE[name]
    cp = CurveParams(genus=genus, ell=ell)

    def enumerate_traced(n):
        with tracer.span("partitions.enumerate"):
            parts = enumerate_partitions(n)
        tracer.add("partitions.count", len(parts))
        return parts

    start = time.perf_counter()
    try:
        with patched(dt, "enumerate_partitions", enumerate_traced):
            Z = tracer.call("dt.series", dt.zstar_series, cp, rmax)
        L = tracer.call("series.pleth_log", pleth_log, Z)
        with tracer.span("algebra.clear"):
            polys = clearing_chain(cp, L, rmax)
        with tracer.span("cli.render"):
            text = render_json(cp, rmax, polys)
    except Exception:
        traceback.print_exc()
        return rmax, rmax, None, time.perf_counter() - start, {}
    attempted, failed = check_compute(name, text, golden)
    wall = time.perf_counter() - start

    zs = Z.coeffs[1:rmax + 1]
    ls = L.coeffs[1:rmax + 1]
    metrics = {"partitions.count": tracer.counts["partitions.count"]}
    metrics["dt.series_num_terms"], metrics["dt.series_den_factors"] = sizes(zs)
    metrics["series.log_num_terms"], metrics["series.log_den_factors"] = sizes(ls)
    metrics["series.log_coeff_bits_max"] = coeff_bits(c.num for c in ls)
    metrics["algebra.idt_terms"] = sum(len(p.terms) for p in polys.values())
    metrics["algebra.idt_coeff_bits_max"] = coeff_bits(polys.values())
    if not swell_check():
        failed += 1
    return attempted + 1, failed, digest(text), wall, metrics


SWELL = {"series": (3493, 10), "log": (979, 2)}   # Z_5 and Log coefficient 5


def swell_check():
    """At genus 1, twist 1, rank 5 the counters must read the known swell
    figures, and the public clearing chain must equal idt_star."""
    from higgsdt import CurveParams, idt_star, pleth_log
    from higgsdt.dt import zstar_series
    cp = CurveParams(genus=1, ell=1)
    try:
        Z = zstar_series(cp, 5)
        L = pleth_log(Z)
        ok = (sizes([Z.coeffs[5]]) == SWELL["series"]
              and sizes([L.coeffs[5]]) == SWELL["log"]
              and clearing_chain(cp, L, 5) == idt_star(cp, 5, series=Z))
    except Exception:
        traceback.print_exc()
        return False
    if not ok:
        print("swell self-check failed at genus 1, twist 1, rank 5", file=sys.stderr)
    return ok


# -- oracle -------------------------------------------------------------------


def golden_volume(golden, ell, q):
    return Q(golden["oracle-rank2"]["%d,%d" % (ell, q)])


def oracle_body(name, seed, golden):
    from higgsdt import compare_with_formula
    d, points = oracle_plan(seed)
    failed = 0
    volumes = []
    for ell, q in points:
        try:
            count, formula, equal = compare_with_formula(2, d, ell, q)
        except Exception:
            traceback.print_exc()
            failed += 1
            volumes.append(None)
            continue
        volumes.append(str(count))
        if not equal or count != golden_volume(golden, ell, q):
            failed += 1
    return len(points), failed, volumes


def traced_stack_volume(d, ell, q, tracer):
    """stack_volume_p1 at rank 2, rebuilt from semistable_count and aut_count:
    every splitting type up to the spread bound ell, then on until the first
    type past it that counts empty (the boundary type)."""
    from higgsdt.oracle_p1 import aut_count, semistable_count
    volume = Q(0)
    s = d % 2
    while True:
        typ = ((d + s) // 2, (d - s) // 2)
        count = tracer.call("oracle_p1.semistable_count", semistable_count, typ, ell, q)
        tracer.add("oracle_p1.types", 1)
        tracer.add("oracle_p1.matrix_space",
                   q ** sum(max(0, ell + bi - bj + 1) for bi in typ for bj in typ))
        tracer.add("oracle_p1.semistable", count)
        if s > ell and count == 0:
            return volume
        volume += Q(count, aut_count(typ, q))
        s += 2
        if s > ell + 10:
            raise ArithmeticError("spread window refuses to close at s = %d" % s)


def oracle_traced(name, seed, golden, tracer):
    from higgsdt.oracle_p1 import formula_volume_p1
    d, points = oracle_plan(seed)
    failed = 0
    volumes = []
    start = time.perf_counter()
    for ell, q in points:
        try:
            with tracer.span("oracle_p1.stack_volume"):
                volume = traced_stack_volume(d, ell, q, tracer)
            formula = tracer.call("oracle_p1.formula", formula_volume_p1, 2, d, ell, q)
        except Exception:
            traceback.print_exc()
            failed += 1
            volumes.append(None)
            continue
        volumes.append(str(volume))
        if volume != formula or volume != golden_volume(golden, ell, q):
            failed += 1
    wall = time.perf_counter() - start
    metrics = {k: tracer.counts.get(k, 0) for k in
               ("oracle_p1.types", "oracle_p1.matrix_space", "oracle_p1.semistable")}
    space = metrics["oracle_p1.matrix_space"]
    metrics["oracle_p1.semistable_ratio"] = metrics["oracle_p1.semistable"] / space if space else 0
    return len(points), failed, volumes, wall, metrics


# -- verify -------------------------------------------------------------------


def verify_body(name, seed, golden):
    from higgsdt.verify import run_suites
    want = golden["verify-all"]["checks"]
    try:
        results, failures = run_suites(verify_order(seed))
    except Exception:
        traceback.print_exc()
        return want, want, None
    counted = sum(1 for r in results if r.ok is not None)
    return max(counted, want), failures + abs(counted - want), [counted, failures]


def verify_traced(name, seed, golden, tracer):
    from higgsdt import oracle_p1, verify
    want = golden["verify-all"]["checks"]
    stack_volume = tracer.wrap("oracle_p1.stack_volume", oracle_p1.stack_volume_p1)
    counted = failures = 0
    start = time.perf_counter()
    try:
        with patched(oracle_p1, "semistable_count",
                     tracer.wrap("oracle_p1.semistable_count", oracle_p1.semistable_count)), \
             patched(oracle_p1, "stack_volume_p1", stack_volume), \
             patched(verify, "stack_volume_p1", stack_volume):
            for suite in verify_order(seed):
                with tracer.span("verify." + suite):
                    results, f = verify.run_suites([suite])
                counted += sum(1 for r in results if r.ok is not None)
                failures += f
    except Exception:
        traceback.print_exc()
        return want, want, None, time.perf_counter() - start, {}
    wall = time.perf_counter() - start
    metrics = {"verify.checks": counted, "verify.failed": failures}
    return max(counted, want), failures + abs(counted - want), [counted, failures], wall, metrics


# -- entry point --------------------------------------------------------------


WORKLOADS = {
    # name: (warm-up, untraced body, traced body)
    "compute-deep": (lambda h: h.idt_star(h.CurveParams(genus=0, ell=1), 1),
                     compute_body, compute_traced),
    "compute-wide": (lambda h: h.idt_star(h.CurveParams(genus=3, ell=5), 1),
                     compute_body, compute_traced),
    "oracle-rank2": (lambda h: h.compare_with_formula(1, 0, 1, 7),
                     oracle_body, oracle_traced),
    "verify-all": (lambda h: h.idt_star(h.CurveParams(genus=0, ell=5), 1),
                   verify_body, verify_traced),
}


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "body", "traced"))
    ap.add_argument("--spans", help="file the traced mode writes its spans to")
    args = ap.parse_args()

    warm_up, body, traced = WORKLOADS[args.workload]
    # set-up is ~0.1 s, so its host speed is sampled every 10 ms
    with HostClock(period=0.01) as clock:
        import higgsdt
        warm_up(higgsdt)
    out = {"ready": time.monotonic() - clock.stolen, "calib_s": calibrate()}
    out["setup_factor"] = clock.factor() or PROBE_REF_S * CALIB_PROBES / out["calib_s"]
    if args.mode != "setup":
        golden = load_golden()
        if args.mode == "body":
            cpu0 = cpu_seconds()
            start = time.perf_counter()
            with HostClock() as clock:
                attempted, failed, fingerprint = body(args.workload, args.seed, golden)
            out["wall_s"] = time.perf_counter() - start - clock.stolen
            out["cpu_s"] = cpu_seconds() - cpu0 - clock.stolen
            out["host_factor"] = clock.factor() or out["setup_factor"]
        else:
            tracer = Tracer("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
            attempted, failed, fingerprint, out["wall_s"], metrics = traced(
                args.workload, args.seed, golden, tracer)
            metrics.update({name + "_s": t for name, t in tracer.self_times().items()})
            out["metrics"] = metrics
            if args.spans:
                tracer.dump(args.spans)
        out.update(attempted=attempted, failed=failed, fingerprint=fingerprint,
                   rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
