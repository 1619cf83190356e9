"""Span tracer for the benchmark's traced pass, and the per-layer metrics.

The tracer wraps, from outside the program, the public functions of every
coarselab module plus a few hot methods, and records one span per call:
its name, its duration and the span that caused it.  Spans are folded into
per-name totals (calls, inclusive time, self time = span time minus child
spans) and per-(parent, child) edges as they close, so memory stays flat
however many calls a workload makes; the folded table is written out when
the traced run ends.

Modules bind each other's functions by name (``from .space import
is_quasi_geodesic``), so wrapping ``space.is_quasi_geodesic`` alone would miss
every call made from ``morse`` or ``relhyp``.  `Tracer.install` therefore
patches every binding site -- each module global, and each value of a
module-level dict (the runner's section table), that refers to a wrapped
function -- and then checks that no original is left reachable.
"""

from __future__ import annotations

import functools
import inspect
from collections import Counter
import random
import statistics
import sys
import time

MODULES = ("space", "sublinear", "morse", "relhyp", "randwalk", "cli")

# (module, class, method) wrapped on the class, named module.Class.method
METHODS = (("space", "PathSeg", "vertex"),
           ("space", "PathSeg", "vertex_list"),
           ("randwalk", "SamplePath", "positions_at"))

# the runner's section table: cli._RUNNERS[name] is traced as cli.section.name
SECTIONS = ("excursion", "walk", "gauge", "surgery", "distance_formula")

QG = "space.is_quasi_geodesic"


# ---------------------------------------------------------------------------
# work counters recorded at span boundaries
#
# A probe's `after` hook gets the tracer, the bound arguments (defaults
# applied), the result and whatever its `before` hook returned at entry, and
# returns counter increments.  Arguments are read by name with .get, so a
# later signature change reads as a zero counter instead of a crash.

def _qg_counts(_tracer, a, result, _ctx):
    path = a.get("path")
    n = len(path) if path is not None else 0
    pairs = n * (n - 1) // 2
    budget = a.get("pair_budget")
    # the anchor-sampling fallback runs exactly when pairs exceed the budget
    return {"vertices": n, "pairs": pairs, "failed": int(not result),
            "sampled_calls": int(budget is not None and pairs > budget)}


def _vertex_counts(_tracer, a, _result, _ctx):
    seg, i = a["self"], a.get("i", 0)
    letters = getattr(seg, "letters", None)
    if getattr(seg, "_vertices", None) is not None or letters is None:
        return {}
    return {"letters_replayed": i if 0 <= i <= len(letters) else len(letters)}


def _unreplayed_steps(_tracer, a):
    return sum(p.length for p in a.get("paths", ())
               if getattr(p, "_stats", None) is None)


PROBES = {
    QG: (None, _qg_counts),
    "space.distances_along_path": (None, lambda t, a, r, x: {"vertices": len(r)}),
    "space.PathSeg.vertex": (None, _vertex_counts),
    "relhyp.coned_distance": (None, lambda t, a, r, x: {"edges": r.value}),
    "relhyp.lift_coned_geodesic": (None, lambda t, a, r, x: {
        "letters": len(r[0]) - 1, "non_geodesic": int(tuple(r[1]) != (1, 0))}),
    "relhyp.excursion_profile": (None, lambda t, a, r, x: {"rows": len(r[0])}),
    "relhyp.fit_distance_formula":
        (None, lambda t, a, r, x: {"pairs": len(a.get("pairs", ()))}),
    # nested certifications per probe returned: the wasted-work ratio
    "morse.probe_family": (lambda t, a: t.calls(QG), lambda t, a, r, x: {
        "probes": len(r), "certify_calls": t.calls(QG) - x}),
    "morse.test_kappa_morse": (None, lambda t, a, r, x: {
        "requested": a.get("probes", 0),
        "checked": r.parameters.get("checked", 0)}),
    "morse.test_kappa_contracting": (None, lambda t, a, r, x: {
        "eligible": r[1].parameters.get("eligible", 0)}),
    "randwalk.ensemble_stats": (_unreplayed_steps, lambda t, a, r, x: {"steps": x}),
    "randwalk.SamplePath.positions_at":
        (None, lambda t, a, r, x: {"steps": a["self"].length}),
}


class Tracer:
    """Folds spans into per-name and per-edge totals as they close."""

    def __init__(self):
        self.spans = {}      # name -> [calls, inclusive_s, self_s]
        self.edges = {}      # (parent, name) -> [calls, inclusive_s]
        self.counters = {}   # name -> Counter of work done
        self._stack = [[0.0, "bench.root"]]   # [child_s, name] per open span
        self._wrapped = {}   # original function -> wrapper

    def calls(self, name):
        rec = self.spans.get(name)
        return rec[0] if rec else 0

    def wrap(self, name, fn):
        before, after = PROBES.get(name, (None, None))
        sig = inspect.signature(fn) if after else None
        counts = self.counters.setdefault(name, Counter())
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if after:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                ctx = before(tracer, a) if before else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dur
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                edge = edges.get((parent[1], name))
                if edge is None:
                    edge = edges[(parent[1], name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dur
            if after:
                counts.update(after(tracer, a, result, ctx))
            return result

        functools.update_wrapper(traced, fn)
        self._wrapped[fn] = traced
        return traced

    def install(self, package="coarselab"):
        """Wrap every traced function and method at each of its binding sites."""
        mods = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self.wrap(f"{short}.{attr}", obj)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}",
                                         cls.__dict__[meth]))
        runners = mods["cli"]._RUNNERS
        for sec in SECTIONS:
            runners[sec] = self.wrap(f"cli.section.{sec}", runners[sec])
        for where, container, key, obj in self._bindings(package):
            container[key] = self._wrapped[obj]
        missed = [where for where, *_ in self._bindings(package)]
        if missed:
            raise RuntimeError(f"tracer left unwrapped bindings: {missed}")

    def _bindings(self, package):
        """(where, container, key, original) for each module global, or value
        of a module-level dict, that still refers to a wrapped original."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    yield f"{name}.{attr}", vars(mod), attr, obj
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if inspect.isfunction(v) and v in self._wrapped:
                            yield f"{name}.{attr}[{k!r}]", obj, k, v

    def table(self, wall_s):
        """The folded spans, counters and edges as plain JSON data; the root
        span covers the traced wall time `wall_s`."""
        spans = {n: {"calls": c, "total_s": t, "self_s": s}
                 for n, (c, t, s) in sorted(self.spans.items()) if c}
        spans["bench.root"] = {"calls": 1, "total_s": wall_s,
                               "self_s": wall_s - self._stack[0][0]}
        return {
            "spans": spans,
            "counters": {n: dict(c) for n, c in sorted(self.counters.items()) if c},
            "edges": [{"parent": p, "name": n, "calls": c, "total_s": t}
                      for (p, n), (c, t) in sorted(self.edges.items())],
        }


# ---------------------------------------------------------------------------
# accumulator push rate

PUSH_LETTERS = 1 << 20
PUSH_BLOCK = 1 << 12   # restart the accumulator per block, like a 2^12-step walk
PUSH_SEED = 20110348
PUSH_REPS = 3


def push_rate(sp):
    """Letters per second through sp.right_acc on a fixed seeded stream
    (median of PUSH_REPS passes)."""
    rng = random.Random(PUSH_SEED)
    gens = sp.gens
    letters = [rng.choice(gens) for _ in range(PUSH_LETTERS)]
    rates = []
    for _ in range(PUSH_REPS):
        t0 = time.perf_counter()
        for b in range(0, PUSH_LETTERS, PUSH_BLOCK):
            acc = sp.right_acc()
            push = acc.push
            for g in letters[b:b + PUSH_BLOCK]:
                push(g)
        rates.append(PUSH_LETTERS / (time.perf_counter() - t0))
    return statistics.median(rates)


# ---------------------------------------------------------------------------
# per-layer metrics.  The traced run reports every one of them, named
# <span>.<metric>; each row also says which end-to-end metric the layer
# should move and on which workload.

def _span(field):
    return lambda t, n: t["spans"].get(n, {}).get(field, 0)


def _count(key):
    return lambda t, n: t["counters"].get(n, {}).get(key, 0)


def _ratio(num, den):
    def f(t, n):
        d = den(t, n)
        return num(t, n) / d if d else 0.0
    return f


def _measured(t, n):
    return t["measured"][n]


# metric -> (unit, better, extractor(table, span)); any other metric name is
# a work counter of that name
KINDS = {
    "calls": ("count", "lower", _span("calls")),
    "self_s": ("s", "lower", _span("self_s")),
    "total_s": ("s", "lower", _span("total_s")),
    "fail_share": ("share", "lower", _ratio(_count("failed"), _span("calls"))),
    "vertices_per_s": ("1/s", "higher", _ratio(_count("vertices"), _span("self_s"))),
    "steps_per_s": ("1/s", "higher", _ratio(_count("steps"), _span("self_s"))),
    "certify_per_probe": ("ratio", "lower",
                          _ratio(_count("certify_calls"), _count("probes"))),
    "checked_share": ("share", "higher", _ratio(_count("checked"), _count("requested"))),
    "eligible": ("count", "higher", _count("eligible")),
    "free_group": ("letters/s", "higher", lambda t, n: _measured(t, n + ".free_group")),
    "free_product": ("letters/s", "higher",
                     lambda t, n: _measured(t, n + ".free_product")),
    "out_bytes": ("B", "lower", lambda t, n: _measured(t, n + ".out_bytes")),
    "overhead_s": ("s", "lower", lambda t, n: _measured(t, n + ".overhead_s")),
}

WALK = "wall_s on fp_walk and cli_run"
LAYER_SPECS = (
    (QG, ("calls", "self_s", "vertices", "pairs", "sampled_calls", "fail_share"),
     "wall_s on f2_morse (about 99%), fp_walk (lift certification), cli_run (surgery)"),
    ("space.distances_along_path", ("calls", "self_s", "vertices", "vertices_per_s"),
     "wall_s on fp_walk (sweeps in _neighborhood_margins); about 0 on f2_morse"),
    ("space.PathSeg.vertex", ("calls", "self_s", "letters_replayed"),
     "wall_s on fp_walk and cli_run ([excursion], through coset_runs)"),
    ("space.PathSeg.vertex_list", ("calls", "self_s"), "wall_s on fp_walk and cli_run"),
    ("space.distance_to_set", ("calls", "self_s"),
     "wall_s on f2_morse (contraction/projection fits) and cli_run (surgery)"),
    ("space.nearest_point_projection", ("calls", "self_s"),
     "wall_s on f2_morse (contraction/projection fits) and cli_run (surgery)"),
    ("space.push_rate", ("free_group", "free_product"),
     "wall_s on every workload (fixed seeded stream of 2^20 letters)"),
    ("relhyp.coned_distance", ("calls", "self_s", "edges"), WALK + "; 0 on f2_morse"),
    ("relhyp.lift_coned_geodesic", ("calls", "self_s", "letters", "non_geodesic"),
     WALK + "; 0 on f2_morse"),
    ("relhyp.excursion_profile", ("calls", "self_s", "rows"), WALK + "; 0 on f2_morse"),
    ("relhyp.coset_runs", ("calls", "self_s"), WALK + "; 0 on f2_morse"),
    ("relhyp.fit_distance_formula", ("calls", "self_s", "pairs"),
     "wall_s on cli_run ([distance_formula])"),
    ("morse.probe_family", ("calls", "self_s", "probes", "certify_per_probe"),
     "wall_s on f2_morse and fp_walk"),
    ("morse.test_kappa_morse", ("calls", "self_s", "checked_share"),
     "wall_s on f2_morse and fp_walk"),
    ("morse.test_kappa_contracting", ("self_s", "eligible"), "wall_s on f2_morse"),
    ("morse.fit_kappa_projection", ("self_s",), "wall_s on f2_morse"),
    ("morse.surgery", ("calls", "self_s"), "wall_s on cli_run ([surgery])"),
    ("randwalk.ensemble_stats", ("calls", "self_s", "steps", "steps_per_s"),
     "wall_s on cli_run (drift) and fp_walk (growth); peak_rss_mb on cli_run; "
     "0 on f2_morse"),
    ("randwalk.SamplePath.positions_at", ("calls", "self_s", "steps"),
     "wall_s on fp_walk (proxies) and cli_run; 0 on f2_morse"),
    *((f"randwalk.{f}", ("self_s",), WALK)
      for f in ("limit_ray_proxy", "tracking_profile", "excursion_of_walk_ray",
                "peripheral_projection_growth", "drift", "write_walk_stats_csv")),
    ("sublinear.evaluate", ("calls", "self_s"),
     "wall_s on fp_walk (one call per path vertex in neighbourhood checks)"),
    ("cli.validate_config", ("self_s",), "setup_s and wall_s on cli_run"),
    ("cli.run_experiment", ("self_s",),
     "wall_s on cli_run (orchestration and JSON only, sections excluded)"),
    *((f"cli.section.{s}", ("total_s",), f"wall_s on cli_run (the [{s}] section)")
      for s in SECTIONS),
    ("cli", ("out_bytes",), "wall_s on cli_run (CSV/JSON writing)"),
    ("bench.root", ("self_s",),
     "nothing: benchmark code, and program code it calls outside any span"),
    ("trace", ("overhead_s",), "nothing: traced wall minus the untraced median wall"),
)

# (metric name, unit, better, extractor, span, moves)
LAYERS = tuple(
    (f"{span}.{m}",) + KINDS.get(m, ("count", "lower", _count(m))) + (span, moves)
    for span, metrics, moves in LAYER_SPECS for m in metrics)


def layer_metrics(table):
    """Every per-layer metric from a traced run's folded table."""
    return {name: fn(table, span) for name, _unit, _better, fn, span, _ in LAYERS}
