"""Benchmark command for higgsdt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports higgsdt from ./src and reads
the metric names and units from ./BENCHMARK.json.  Every repetition of the
workload runs in a fresh interpreter (perfbench/worker.py) with
HIGGSDT_THREADS unset.  Repetitions follow each other, one at a time, for S
seconds: another starts while at least half of it fits in the S seconds, and
there is always at least one.  With --trace 1 each repetition is a pair: one
untraced worker and one traced worker, whose outputs must agree.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  End-to-end times are in reference-host seconds: the
measured time scaled by the host speed sampled while it was measured (see
perfbench/README.md).  The lines before it repeat the figures for people,
with the measured seconds, the Python version, nproc and the git commit.
Exit status 1, with no result line, means the benchmark could not run: no
sources, a worker that crashed or a run past its time limit.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import WORKLOADS

ROOT = os.getcwd()
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SETUP_SPAWNS = 6     # setup-only interpreters per run, beside those that also measure
RUN_LIMIT = 170      # seconds; a run must end within 180


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read BENCHMARK.json: %s" % e)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def spawn(args, mode, env, deadline, spans=None):
    """Run one worker to completion; its JSON result plus setup_s, the time
    from spawning the interpreter to the end of its warm-up."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker ran past the %d s run limit" % (mode, RUN_LIMIT))
    if proc.returncode:
        raise BenchError("%s worker exited with status %d" % (mode, proc.returncode))
    try:
        out = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError("%s worker printed no result" % mode)
    out["setup_s"] = out["ready"] - start
    return out


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest():
    """sha256 over src/higgsdt's Python files: names the code in any checkout."""
    h = hashlib.sha256()
    base = os.path.join(ROOT, "src", "higgsdt")
    for name in sorted(os.listdir(base)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(base, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def measure(args, env):
    """(setup workers, repetitions); a repetition is [body] or [body, traced]."""
    deadline = time.monotonic() + RUN_LIMIT
    setups = [spawn(args, "setup", env, deadline) for _ in range(SETUP_SPAWNS)]
    out_dir = os.path.join(ROOT, ".perfbench_out")
    if args.trace:
        os.makedirs(out_dir, exist_ok=True)
    reps = []
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        rep = [spawn(args, "body", env, deadline)]
        if args.trace:
            spans = os.path.join(out_dir, "spans-%s-seed%d-rep%d.jsonl"
                                 % (args.workload, args.seed, len(reps)))
            rep.append(spawn(args, "traced", env, deadline, spans=spans))
        reps.append(rep)
        now = time.monotonic()
        took = now - start
        # start another repetition while at least half of it fits in the budget
        if now - begin + took / 2 > args.seconds or now + took > deadline:
            return setups, reps


def run(args):
    end_to_end, per_layer = load_spec()
    if not os.path.isfile(os.path.join(ROOT, "src", "higgsdt", "__init__.py")):
        raise BenchError("no higgsdt sources at ./src/higgsdt; "
                         "run from the root of a checkout")
    env = dict(os.environ)
    env.pop("HIGGSDT_THREADS", None)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")

    setups, reps = measure(args, env)
    workers = [w for rep in reps for w in rep]
    bodies = [rep[0] for rep in reps]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    agree = all(rep[0]["fingerprint"] is not None
                and all(w["fingerprint"] == rep[0]["fingerprint"] for w in rep)
                for rep in reps)
    median = statistics.median
    measured = {
        "wall_s": median(b["wall_s"] for b in bodies),
        "cpu_s": median(b["cpu_s"] for b in bodies),
        "setup_s": median(w["setup_s"] for w in setups + workers),
    }
    e2e = {
        "wall_s": median(b["wall_s"] * b["host_factor"] for b in bodies),
        "cpu_s": median(b["cpu_s"] * b["host_factor"] for b in bodies),
        "setup_s": median(w["setup_s"] * w["setup_factor"] for w in setups + workers),
        "peak_rss_mb": max(b["rss_mb"] for b in bodies),
        "ok_ratio": 1 - failed / attempted,
    }
    if set(e2e) != set(end_to_end):
        raise BenchError("BENCHMARK.json end_to_end names do not match the benchmark")

    print("workload %s, seed %d, %d repetition(s), %d setup samples"
          % (args.workload, args.seed, len(reps), len(setups) + len(workers)))
    if args.workload.startswith("compute"):
        print("compute inputs are fixed grid points: the seed does not affect them")
    print("python %s, nproc %d, commit %s, src/higgsdt sha256 %s"
          % (platform.python_version(), len(os.sched_getaffinity(0)),
             git_commit(), source_digest()))
    print("fail_ratio %.6g (%d failed of %d attempted)%s"
          % (failed / attempted, failed, attempted,
             "" if agree else "; traced and untraced outputs DIFFER"))
    print("times are in reference-host seconds; measured seconds in brackets")
    for name, value in e2e.items():
        extra = " (measured %.6g s)" % measured[name] if name in measured else ""
        print("%-34s %.6g %s%s" % (name, value, end_to_end[name], extra))

    if not args.trace:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in end_to_end.items()}
    else:
        traced = [rep[1] for rep in reps]
        layers = {"host.calib_s": median(w["calib_s"] for w in workers),
                  "bench.trace_overhead_s": median(t["wall_s"] - b["wall_s"]
                                                   for b, t in zip(bodies, traced))}
        for name in set().union(*(t["metrics"] for t in traced)):
            if name not in per_layer:
                raise BenchError("metric %s is missing from BENCHMARK.json" % name)
            layers[name] = median(t["metrics"].get(name, 0) for t in traced)
        metrics = {n: {"value": layers.get(n, 0), "unit": u} for n, u in per_layer.items()}
        for name, m in metrics.items():
            print("%-34s %.6g %s" % (name, m["value"], m["unit"]))
        if args.workload.startswith("compute"):
            covered = sum(layers.get(n, 0) for n in (
                "dt.series_s", "series.pleth_log_s", "algebra.clear_s",
                "partitions.enumerate_s", "cli.render_s"))
            print("layer self times add up to %.6g s; untraced wall_s measured %.6g s"
                  % (covered, measured["wall_s"]))

    print(json.dumps({"correct": failed == 0 and agree, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main():
    ap = argparse.ArgumentParser(description="higgsdt benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
