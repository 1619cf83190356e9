"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload fp_walk|f2_morse|cli_run|all --seed N \
                         --seconds S --trace 0|1

Run from the root of a checkout.  Each iteration is a fresh Python process
(`bench/workloads.py`) with jobs = 1, so set-up and peak memory are measured
per process.  Iterations repeat the same inputs until the next one would end
after S seconds (at least one runs).

--trace 0 reports the end-to-end metrics, medians over the iterations:
wall_s (workload time after set-up), cpu_s (user + sys of the process and
its children over that time), setup_s (process start through imports,
build_space and config validation; SETUP_PROBES extra set-up-only processes
add samples), peak_rss_mb.  --trace 1 runs one traced iteration, then
untraced ones for the overhead, and reports the per-layer metrics of
`tracer.LAYERS`.  Every iteration's verdicts are checked against their
expectations, and the digest of its results must match every other
iteration's, traced or not, and every earlier run of the same code and seed
in this checkout (kept in .bench_out/digests.json).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload untraced
and traced, for a full report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5
RUN_LIMIT_S = 170   # a run must end well within 180 s, whatever hangs


class RunError(Exception):
    """An iteration process failed outright (crash, timeout, no result)."""


def code_hash():
    """Hash of the program and benchmark sources: digests must repeat
    across every run of the same code and seed."""
    h = hashlib.sha256()
    for p in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def spawn(workload, seed, run_dir, limit, tag, *flags):
    """Run one iteration process, killed at monotonic time `limit`; returns
    its result with setup_s and the parent-side elapsed time added."""
    result = run_dir / f"result-{tag}.json"
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--run-dir", str(run_dir), "--result", str(result),
           *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(limit - t0, 1.0))
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload} iteration killed at the {RUN_LIMIT_S} s run limit") from None
    elapsed = time.monotonic() - t0
    if proc.returncode != 0 or not result.exists():
        raise RunError(f"{workload} iteration exited {proc.returncode}:\n"
                       f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
    res = json.loads(result.read_text())
    res["setup_s"] = res["t_ready"] - t0
    res["elapsed_s"] = elapsed
    if res.get("error"):
        print(f"# {workload} iteration raised:\n{res['error']}", file=sys.stderr)
    return res


def iterate(workload, seed, run_dir, deadline, limit):
    """Untraced iterations until the next one would pass the deadline."""
    runs = []
    while True:
        runs.append(spawn(workload, seed, run_dir, limit, str(len(runs))))
        typical = statistics.median(r["elapsed_s"] for r in runs)
        if time.monotonic() + typical > deadline:
            return runs


class Outcome:
    """Verdict checks and digests gathered over one run's iterations."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = set()
        self.recorded = {}   # statistical verdicts reported, not counted

    def add(self, res, label):
        self.digests.add(res["digest"])
        self.recorded.update(res["recorded"])
        if res.get("error"):
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: raised {res['error'].splitlines()[-1]}")
        for name, ok in res["checks"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{label}: {name} did not match its expectation")


def check_digest(outcome, workload, seed):
    """Digests must agree within the run and with earlier runs of this code."""
    if len(outcome.digests) != 1:
        outcome.problems.append(f"digests differ between iterations: {sorted(outcome.digests)}")
        return None
    (d,) = outcome.digests
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{code_hash()}:{workload}:{seed}"
    if known.setdefault(key, d) != d:
        outcome.problems.append(f"digest {d} differs from {known[key]} of an earlier "
                                f"run of the same code and seed")
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return d


def measure(workload, seed, seconds, traced):
    """One run of a workload; returns (outcome, metrics)."""
    wl = WORKLOADS[workload]
    run_dir = OUT / "runs" / f"{workload}-s{seed}-t{int(traced)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl.write_inputs(seed, run_dir)
        start = time.monotonic()
        deadline, limit = start + seconds, start + RUN_LIMIT_S
        outcome = Outcome()
        if traced:
            tr = spawn(workload, seed, run_dir, limit, "traced", "--trace")
            outcome.add(tr, "traced iteration")
        else:
            setups = [spawn(workload, seed, run_dir, limit, f"setup{i}", "--setup-only")
                      for i in range(SETUP_PROBES)]
        runs = iterate(workload, seed, run_dir, deadline, limit)
        for i, res in enumerate(runs):
            outcome.add(res, f"iteration {i}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    d = check_digest(outcome, workload, seed)
    n = len(runs)
    if traced:
        table = tr["trace"]
        table["measured"]["trace.overhead_s"] = (
            tr["wall_s"] - statistics.median(r["wall_s"] for r in runs))
        (OUT / "traces").mkdir(exist_ok=True)
        (OUT / "traces" / f"{workload}-s{seed}.json").write_text(
            json.dumps(table, indent=1, sort_keys=True) + "\n")
        values = tracer.layer_metrics(table)
        units = {name: unit for name, unit, *_ in tracer.LAYERS}
        for span in wl.required_calls:
            if not table["spans"].get(span, {}).get("calls"):
                outcome.problems.append(f"trace: {span} recorded no calls")
        print(f"# {workload} seed {seed}: traced wall {tr['wall_s']:.3f} s, "
              f"{n} untraced iterations, digest {d}")
    else:
        med = {k: statistics.median(r[k] for r in runs)
               for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        med["setup_s"] = statistics.median(r["setup_s"] for r in setups + runs)
        values = {name: med[name] for name, _ in END_TO_END}
        units = dict(END_TO_END)
        walls = " ".join(f"{r['wall_s']:.3f}" for r in runs)
        print(f"# {workload} seed {seed}: wall_s of the {n} iterations {walls}; "
              f"{len(setups) + n} set-up samples; digest {d}")
    print(f"# {workload}: {outcome.failed} of {outcome.attempted} verdict checks failed; "
          "recorded, not checked: " + ", ".join(
              f"{k} {'pass' if ok else 'FAIL'}" for k, ok in outcome.recorded.items()))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"{workload} {k} {m['value']!r} {m['unit']}")
    for p in outcome.problems:
        print(f"# PROBLEM {workload}: {p}", file=sys.stderr)
    return outcome, metrics


def check_declared():
    """The metric names here must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", [n for n, _ in END_TO_END]),
                       ("per_layer", [n for n, *_ in tracer.LAYERS])):
        declared = [m["name"] for m in spec[key]]
        if sorted(declared) != sorted(names):
            raise SystemExit(f"BENCHMARK.json {key} does not match the benchmark: "
                             f"{sorted(set(declared) ^ set(names))}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "coarselab" / "__init__.py").is_file():
        print(f"error: no coarselab sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    check_declared()

    if args.workload == "all":
        plan = [(w, t) for w in WORKLOADS for t in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    OUT.mkdir(exist_ok=True)
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload, traced in plan:
        try:
            outcome, got = measure(workload, args.seed, args.seconds, traced)
        except RunError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        attempted += outcome.attempted
        failed += outcome.failed
        correct = correct and not outcome.problems
        prefix = f"{workload}/" if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
