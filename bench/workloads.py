"""The benchmark's three workloads; one iteration runs in one fresh process.

    python3 bench/workloads.py --workload W --seed N --run-dir DIR --result FILE
                               [--trace] [--setup-only]

The process imports coarselab from the checkout's ``src/``, builds the
workload's space (and, for cli_run, validates the generated config), notes
the time -- that is the end of set-up -- then runs the workload once and
writes timings, verdict checks and a digest of the results to FILE as JSON.
`bench/run.py` drives it; nothing here is meant to be imported by the program.

Every workload is a scaled-down replica of an acceptance test or of the
runner, calling the same public functions.  Program seeds are the
acceptance-test seeds plus 1000 * N for benchmark seed N, so seed 0 replays
the acceptance seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FREE_PRODUCT = "free_product(grid(2), free_group(1))"


def program_seed(acceptance_seed, n):
    return acceptance_seed + 1000 * n


def digest(payload):
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class Workload:
    name = ""
    spec = ""
    # spans that must record calls in the traced run; each is called directly
    # by the workload, or is the one layer the workload exists to measure
    required_calls = ()

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = Path(run_dir)

    @classmethod
    def write_inputs(cls, seed, run_dir):
        """Inputs the parent generates once per run (none by default)."""

    def setup(self):
        from coarselab import space
        self.sp = space.build_space(self.spec)

    def run(self):
        """Run once.  Returns a dict: `checks`, (label, matched its
        expectation) pairs that count as operations; `recorded`, the same for
        statistical verdicts that fail on some seeds at this scale, reported
        but not counted; `payload`, the results to digest; `out_bytes`."""
        raise NotImplementedError


class FpWalk(Workload):
    """Acceptance test 7, scaled down: walk statistics on Z^2 * Z."""

    name = "fp_walk"
    spec = FREE_PRODUCT
    required_calls = ("space.is_quasi_geodesic", "space.distances_along_path",
                      "relhyp.lift_coned_geodesic", "relhyp.excursion_profile",
                      "randwalk.peripheral_projection_growth",
                      "morse.test_kappa_morse")
    GROWTH_WALKS, GROWTH_STEPS = 200, 2 ** 12
    SUB_WALKS, SUB_STEPS = 3, 2 ** 11
    MORSE_PROXIES, MORSE_PROBES = 1, 6

    def run(self):
        from coarselab import morse, randwalk, sublinear
        sp, klog = self.sp, sublinear.by_tag("log")
        mu = randwalk.uniform_generator_measure(sp)
        walk_seed = program_seed(2, self.seed)
        checks, out = [], {}

        big = randwalk.sample_paths(sp, mu, self.GROWTH_STEPS, self.GROWTH_WALKS,
                                    walk_seed)
        _, v = randwalk.peripheral_projection_growth(big, lo=2 ** 7,
                                                     hi=self.GROWTH_STEPS)
        checks.append(("peripheral_projection_growth", bool(v)))
        out["growth"] = v.to_json()

        sub = randwalk.sample_paths(sp, mu, self.SUB_STEPS, self.SUB_WALKS,
                                    walk_seed)
        proxies = [randwalk.limit_ray_proxy(sp, p) for p in sub]
        for i, p in enumerate(proxies):
            checks.append((f"proxy[{i}] lift certified (1, 0)",
                           tuple(p.constants) == (1, 0)))
        out["proxies"] = [(len(p.path_seg), p.constants, p.stability)
                          for p in proxies]

        # tracking_sublinear compares two medians that are 0 or 1 at this
        # ensemble size (at n = 1 and n = N/2); it failed on 11 of 31 seeds
        # here, and on 5 of 20 even with 12 walks
        rows, v_lin, v_log2 = randwalk.tracking_profile(sub, proxies)
        recorded = [("tracking_sublinear", bool(v_lin))]
        checks.append(("tracking_log2", bool(v_log2)))
        out["tracking"] = (rows, v_lin.to_json(), v_log2.to_json())

        full, v = randwalk.excursion_of_walk_ray(sp, sub, klog)
        checks.append(("walk_ray_excursion", bool(v)))
        out["excursion"] = (full, v.to_json())

        out["morse"] = []
        for i, proxy in enumerate(proxies[:self.MORSE_PROXIES]):
            v = morse.test_kappa_morse(sp, proxy.path_seg, klog, klog, 300, 900,
                                       1.5, 0, self.MORSE_PROBES,
                                       seed=program_seed(3, self.seed),
                                       gauge=morse.MorseGauge.constant(15.0))
            checks.append((f"kappa_morse proxy[{i}]", bool(v)))
            out["morse"].append(v.to_json())
        return {"checks": checks, "recorded": recorded, "payload": out, "out_bytes": 0}


class F2Morse(Workload):
    """Acceptance test 3, scaled down: the derived-gauge chain on F_2."""

    name = "f2_morse"
    spec = "free_group(2)"
    required_calls = ("space.is_quasi_geodesic", "space.nearest_point_projection",
                      "morse.test_kappa_contracting", "morse.fit_kappa_projection",
                      "morse.test_kappa_morse")
    PROBES = 12

    def run(self):
        from coarselab import morse, space, sublinear
        f2, k1 = self.sp, sublinear.by_tag("1")
        short, axis = space.axis_ray(f2, 600), space.axis_ray(f2, 3000)

        def proj(x):
            return tuple(space.nearest_point_projection(f2, x, short))

        checks, out = [], {}
        cc, cv = morse.test_kappa_contracting(f2, short, proj, k1, 0.5, 120,
                                              seed=program_seed(7, self.seed))
        pc, pv = morse.fit_kappa_projection(f2, short, proj, k1, 80,
                                            seed=program_seed(5, self.seed))
        checks.append(("kappa_contracting", bool(cv)))
        checks.append(("kappa_projection", bool(pv)))
        # on a tree, nearest points on a geodesic are unique and shared by
        # close pairs, so these constants are exact for every seed
        checks.append(("C2 = 0, D1 = 1, D2 = 0", (cc.C2, pc.D1, pc.D2) == (0.0, 1.0, 0.0)))
        out["fits"] = (cv.to_json(), pv.to_json())
        out["morse"] = []
        d2 = max(pc.D2, 0.0)
        checked = 0
        for q in (1.5, 2, 3):
            for Q in (0, 4):
                der = morse.derive_gauge(q, Q, cc.C1, cc.C2, pc.D1, d2, k1)
                gauge = morse.derived_gauge(cc.C1, cc.C2, pc.D1, d2, k1)
                r = max(160.0, 2.0 * der.m_Z)
                v = morse.test_kappa_morse(f2, axis, k1, k1, r, r + 400.0, q, Q,
                                           self.PROBES,
                                           seed=program_seed(2, self.seed),
                                           gauge=gauge)
                checks.append((f"kappa_morse ({q}, {Q})", bool(v)))
                checked += v.parameters.get("checked", 0)
                out["morse"].append((der.m_Z, v.to_json()))
        # acceptance test 3 asks for 95% of 200 probes per test to be checked;
        # at 12 probes per test the same share is asked of all 72 together
        checks.append(("kappa_morse checked >= 95% of probes",
                       checked >= 0.95 * 6 * self.PROBES))
        return {"checks": checks, "recorded": [], "payload": out, "out_bytes": 0}


CLI_CONFIG = """\
[experiment]
seed = {seed}
space = {space}

[walk]
statistic = drift
n = 4096
count = 400
lo = 0.5
hi = 0.7

[excursion]
syllables = 400
sizes = log
kappa = log

[distance_formula]
k = 5
k2 = 10
pairs = 2000
radius = 30

[surgery]
fixtures = 30

[gauge]
"""
CLI_SECTIONS = ("excursion", "walk", "gauge", "surgery", "distance_formula")
CLI_FILES = ("summary.json", "walk_stats.csv", "excursion.csv")


class CliRun(Workload):
    """`coarselab run --jobs 1` on a generated config, into a fresh directory."""

    name = "cli_run"
    spec = FREE_PRODUCT
    required_calls = ("cli.validate_config", "cli.run_experiment",
                      "space.is_quasi_geodesic", "randwalk.ensemble_stats",
                      "relhyp.fit_distance_formula", "morse.surgery",
                      *(f"cli.section.{s}" for s in CLI_SECTIONS))

    @classmethod
    def write_inputs(cls, seed, run_dir):
        (Path(run_dir) / "exp.ini").write_text(
            CLI_CONFIG.format(seed=program_seed(11, seed), space=cls.spec))

    def setup(self):
        from coarselab import cli
        super().setup()
        self.config = self.run_dir / "exp.ini"
        cli.validate_config(str(self.config))

    def run(self):
        from coarselab import cli
        out_dir = self.run_dir / f"out-{os.getpid()}"
        code = cli.main(["run", "--config", str(self.config), "--jobs", "1",
                         "--out", str(out_dir)])
        summary = json.loads((out_dir / "summary.json").read_text())
        checks = [("exit code 0 exactly when summary.json is ok",
                   (code == 0) == summary["ok"])]
        records = {r["section"]: r for r in summary["results"]}
        recorded = []
        for sec in CLI_SECTIONS:
            rec = records.get(sec, {"error": "missing"})
            checks.append((f"[{sec}] ran without error", "error" not in rec))
            # the distance-formula stability verdict, |M(k2) - M(k)| / M(k)
            # < 0.10, failed on 3 of 31 seeds (2 of 30 at 500 pairs)
            (recorded if sec == "distance_formula" else checks).append(
                (f"[{sec}] verdict", rec.get("ok", False)))
        for name in CLI_FILES[1:]:
            head = (out_dir / name).read_text().split("\n", 1)[0]
            checks.append((f"{name} header", head.startswith("# coarse-lab v")))
        files = sorted(p for p in out_dir.rglob("*") if p.is_file())
        out = {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in files}
        return {"checks": checks, "recorded": recorded, "payload": out,
                "out_bytes": sum(p.stat().st_size for p in files)}


WORKLOADS = {w.name: w for w in (FpWalk, F2Morse, CliRun)}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import coarselab
    from coarselab import cli, morse, randwalk, relhyp, space, sublinear  # noqa: F401
    if Path(coarselab.__file__).resolve().parent != SRC / "coarselab":
        raise SystemExit(f"imported coarselab from {coarselab.__file__}, not {SRC}")
    wl = WORKLOADS[args.workload](args.seed, args.run_dir)
    wl.setup()
    result = {"t_ready": time.monotonic()}

    if not args.setup_only:
        tracer = None
        if args.trace:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0, t0 = _cpu_s(), time.monotonic()
        try:
            got = wl.run()
            error = None
        except Exception:  # reported as a failed operation, never raised past
            got = {"checks": [], "recorded": [], "payload": None, "out_bytes": 0}
            error = traceback.format_exc()
        t1 = time.monotonic()
        result.update(
            wall_s=t1 - t0, cpu_s=_cpu_s() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            checks=got["checks"], recorded=got["recorded"],
            digest=digest(got["payload"]), error=error)
        if tracer is not None:
            from tracer import push_rate
            table = tracer.table(t1 - t0)
            table["measured"] = {
                "cli.out_bytes": got["out_bytes"],
                "space.push_rate.free_group": push_rate(space.build_space("free_group(2)")),
                "space.push_rate.free_product": push_rate(space.build_space(FREE_PRODUCT)),
            }
            result["trace"] = table
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
