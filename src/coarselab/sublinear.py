"""Sublinear gauge functions and the scalar lemmas about them.

A *sublinear function* here is a concave, nondecreasing function
kappa: [0, inf) -> [1, inf) with kappa(t)/t -> 0.  These gauges control
every error term in the rest of the package, so this module keeps them
honest: it can repair a raw candidate into a concave majorant
(`concavify`), verify the scaling inequality kappa(lambda*t) <= lambda*kappa(t),
decide "D is small compared to r" (D <= r / (2 kappa(r))), and compute
estimation constants

    m(c) = sup_t  kappa(t + c*kappa(t)) / kappa(t),

which is finite for every sublinear kappa: once kappa(t0) <= t0 we have
kappa(t + c*kappa(t)) <= kappa((1+c) t) <= (1+c) kappa(t), so the grid
supremum plus a tail monotonicity check settles the value.

Every scan is one array pass over the cached, read-only `log_grid`.  Its
values are fn's own, mapped point by point and clamped to >= 1 like
`evaluate`, so they equal `evaluate` bit for bit; a gauge's values on the
grid itself are computed once.  Numpy only compares and reduces them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, Inconclusive, NotSublinear

TOL = 1e-9
DEFAULT_GRID_CAP = 1.0e6
DEFAULT_GRID_POINTS = 512


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a float array, without the numpy.ma import that the
    first np.unique call of a process pays."""
    a = np.sort(a)
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


@functools.lru_cache(maxsize=8)
def log_grid(cap: float = DEFAULT_GRID_CAP) -> np.ndarray:
    """Log-spaced scan grid on [0, cap], anchored so that 0 and 1 are exact.

    Built once per cap and shared by every scan, so it is read-only."""
    g = np.geomspace(1e-3, cap, DEFAULT_GRID_POINTS)
    g = _sorted_unique(np.concatenate(([0.0, 1.0], g)))
    g.flags.writeable = False
    return g


@dataclass(frozen=True)
class SublinearFn:
    """An evaluable sublinear gauge.

    Immutable after construction; all operations on it are pure.  The
    ``grid_cap`` field bounds the argument range of every numeric scan
    performed on this function.
    """

    fn: Callable[[float], float]
    tag: str
    grid_cap: float = DEFAULT_GRID_CAP
    # fn's values before the clamp at each t of a float array, bit for bit,
    # for a gauge with such a form; scans then call no Python fn per point
    points: Callable[[np.ndarray], Iterable[float]] | None = None

    def __repr__(self) -> str:
        return f"SublinearFn({self.tag!r})"


def evaluate(f: SublinearFn, t: float) -> float:
    """Evaluate f at t >= 0.  Result is clamped to >= 1 per the definition."""
    if t < 0:
        raise DomainError(f"sublinear functions are defined on t >= 0, got {t}")
    v = f.fn(t)
    return v if v >= 1.0 else 1.0


def _evaluate_points(f: SublinearFn, ts: np.ndarray) -> np.ndarray:
    """evaluate(f, t) for each t of the float array ts, through f.points
    where f has it and one fn call per point otherwise."""
    vals = f.points(ts) if f.points else map(f.fn, ts.tolist())
    vs = np.fromiter(vals, dtype=float, count=len(ts))
    return np.where(vs >= 1.0, vs, 1.0)


@functools.lru_cache(maxsize=16)
def _on_log_grid(f: SublinearFn) -> np.ndarray:
    """evaluate(f, t) at each t of log_grid(f.grid_cap), point by point and
    once per gauge: the values every scan on that grid starts from."""
    vs = _evaluate_points(f, log_grid(f.grid_cap))
    vs.flags.writeable = False
    return vs


def _upper_concave_hull(ts: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Values of the least concave majorant of the points (ts, vs) at ts.

    Monotone-chain upper hull; ts must be strictly increasing.
    """
    hull: list[int] = []
    for i in range(len(ts)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # pop i1 if it lies below the chord i0 -> i
            cross = (ts[i1] - ts[i0]) * (vs[i] - vs[i0]) - (ts[i] - ts[i0]) * (vs[i1] - vs[i0])
            if cross >= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    out = np.empty_like(vs)
    for a, b in zip(hull, hull[1:]):
        seg = slice(a, b + 1)
        out[seg] = vs[a] + (vs[b] - vs[a]) * (ts[seg] - ts[a]) / (ts[b] - ts[a])
    out[hull[-1]:] = vs[hull[-1]]
    return out


def _check_sublinear_on_grid(ts: np.ndarray, vs: np.ndarray) -> None:
    """Reject raw values vs at ts whose ratio vs/ts is nondecreasing at the
    tail.

    This is a falsifier, not a proof of sublinearity: a ratio that still
    oscillates at the tail (e.g. a dyadic staircase) passes, while any
    function whose ratio has stopped decreasing (linear and worse) fails.
    """
    at_tail = ts >= 1.0
    tail = ts[at_tail]
    if len(tail) < 8:
        raise DomainError("grid too coarse to witness sublinearity")
    ratios = vs[at_tail] / tail
    q = max(len(ratios) // 4, 4)
    window = ratios[-q:]
    if not np.any(np.diff(window) < -TOL):
        worst = float(tail[-q:][np.argmax(window)])
        raise NotSublinear(
            f"ratio f(t)/t never decreases on the grid tail (max at t={worst:g})",
            witness=(worst, float(window.max())),
        )


def concavify(raw: Callable[[float], float], grid: Sequence[float] | None = None,
              tag: str = "concavified") -> SublinearFn:
    """Discrete concave majorant of a raw sublinear candidate.

    Returns a SublinearFn interpolating the least concave majorant on the
    grid, with raw values clipped to >= 1 first.  The multiplicative gap
    C = max(hull/raw) is recorded on the result as ``concavify_ratio``.
    Rejects raw functions that are not sublinear on the grid.
    """
    ts = _sorted_unique(np.asarray(grid if grid is not None else log_grid(),
                                   dtype=float))
    # one pass of raw over the grid feeds both the check and the hull
    vs = np.maximum(np.fromiter(map(raw, ts.tolist()), dtype=float,
                                count=len(ts)), 1.0)
    _check_sublinear_on_grid(ts, vs)
    hull = _upper_concave_hull(ts, vs)
    # concave majorant of nondecreasing-at-scale data can still dip on noisy
    # input; a running max keeps monotonicity without raising the hull gap
    hull = np.maximum.accumulate(hull)
    ratio = float(np.max(hull / vs))
    cap = float(ts[-1])
    t_arr = ts
    h_arr = hull
    last_slope = 0.0
    if len(ts) >= 2 and ts[-1] > ts[-2]:
        last_slope = float((hull[-1] - hull[-2]) / (ts[-1] - ts[-2]))

    def _eval(t: float, _t=t_arr, _h=h_arr, _cap=cap, _sl=last_slope) -> float:
        if t <= _t[0]:
            return float(_h[0])
        if t >= _cap:
            return float(_h[-1] + _sl * (t - _cap))
        return float(np.interp(t, _t, _h))

    out = SublinearFn(_eval, tag, grid_cap=cap)
    object.__setattr__(out, "concavify_ratio", ratio)
    return out


def check_scaling(f: SublinearFn, lam: float) -> tuple[bool, float]:
    """Verify kappa(lambda t) <= lambda kappa(t) on the log grid up to
    f.grid_cap.

    Returns (verdict, worst ratio f(lam t) / (lam f(t))).
    """
    if lam <= 1:
        raise DomainError(f"scaling lemma needs lambda > 1, got {lam}")
    lhs = _evaluate_points(f, lam * log_grid(f.grid_cap))
    rhs = lam * _on_log_grid(f)
    return not np.any(lhs > rhs + TOL), max(0.0, float(np.max(lhs / rhs)))


def small_compared(D: float, r: float, f: SublinearFn) -> bool:
    """D is small compared to radius r when D <= r / (2 kappa(r))."""
    if r <= 0:
        raise DomainError(f"radius must be positive, got {r}")
    return D <= r / (2.0 * evaluate(f, r))


@dataclass(frozen=True)
class EstimationConstant:
    """Output of the sublinear estimation: sup_t f(t + c f(t))/f(t)."""

    c: float
    m: float
    witness_t: float

    def __post_init__(self):
        if self.m < 1.0 - TOL:
            raise DomainError(f"estimation constant below 1: {self.m}")


def estimation_constant(f: SublinearFn, c: float) -> EstimationConstant:
    """Compute m = sup_t f(t + c f(t))/f(t) by a scan of the cached log grid
    up to f.grid_cap, plus a tail check.

    The supremum is finite: for t >= t0 with f(t0) <= t0 the scaling lemma
    gives f(t + c f(t)) <= f((1+c) t) <= (1+c) f(t).  We require such a t0
    inside the grid and a nonincreasing ratio on the final grid quarter;
    otherwise the scan is inconclusive and the tail profile is raised.
    """
    if c < 0:
        raise DomainError(f"estimation constant needs c >= 0, got {c}")
    ts, ft = log_grid(f.grid_cap), _on_log_grid(f)
    ratios = _evaluate_points(f, ts + c * ft) / ft
    i_best = int(np.argmax(ratios))
    m = float(ratios[i_best])

    # tail sanity: a crossing point f(t0) <= t0 must exist below the cap, and
    # the ratio must have stopped growing on the last quarter of the grid
    if not np.any((ts > 0) & (ft <= ts)):
        raise Inconclusive(
            f"no t <= {ts[-1]:g} with f(t) <= t; cannot bound the tail",
            detail=list(zip(ts[-8:], ratios[-8:])),
        )
    q = max(len(ts) // 4, 2)
    tail = ratios[-q:]
    if np.any(np.diff(tail) > TOL * max(1.0, m)):
        raise Inconclusive(
            "estimation ratio still growing at the grid tail",
            detail=list(zip(ts[-q:], tail)),
        )
    return EstimationConstant(c=c, m=max(m, 1.0), witness_t=float(ts[i_best]))


# --- canonical family ------------------------------------------------------

def _kappa_one() -> SublinearFn:
    return SublinearFn(lambda t: 1.0, "1")


def _kappa_log() -> SublinearFn:
    # points adds e in float64 and takes math.log of each sum, as fn does
    return SublinearFn(lambda t: max(1.0, math.log(math.e + t)), "log",
                       points=lambda ts: map(math.log, (math.e + ts).tolist()))


def _kappa_sqrt() -> SublinearFn:
    return SublinearFn(lambda t: max(1.0, math.sqrt(t)), "sqrt")


def _kappa_log_pow(p: int) -> SublinearFn:
    # log^p is not concave near 0 for p >= 3, so repair through concavify
    raw = lambda t: max(1.0, math.log(math.e + t)) ** p
    return concavify(raw, tag=f"log^{p}")


# config tag -> constructor; by_tag builds a gauge on its first lookup only
_CONSTRUCTORS: dict[str, Callable[[], SublinearFn]] = {
    "1": _kappa_one,
    "log": _kappa_log,
    "sqrt": _kappa_sqrt,
    "log^2": lambda: _kappa_log_pow(2),
    "log^3": lambda: _kappa_log_pow(3),
}
_GAUGES: dict[str, SublinearFn] = {}


def registry() -> dict[str, SublinearFn]:
    """The canonical gauge family, keyed by config tag."""
    return {tag: by_tag(tag) for tag in _CONSTRUCTORS}


def by_tag(tag: str) -> SublinearFn:
    """Look up a canonical gauge by its config tag; DomainError if unknown."""
    f = _GAUGES.get(tag)
    if f is None:
        try:
            make = _CONSTRUCTORS[tag]
        except KeyError:
            raise DomainError(
                f"unknown kappa tag {tag!r}; known: {sorted(_CONSTRUCTORS)}"
            ) from None
        f = _GAUGES[tag] = make()
    return f


def from_table(path: str, tag: str = "table") -> SublinearFn:
    """Custom gauge from a text file of '<t> <value>' pairs.

    Values are linearly interpolated, then concavified; beyond the last
    tabulated point the function is held constant (still sublinear).
    """
    pts = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            t, v = line.split()
            pts.append((float(t), float(v)))
    if len(pts) < 2:
        raise DomainError(f"need at least two table points in {path}")
    pts.sort()
    ts = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])

    def raw(t, _t=ts, _v=vs):
        if t >= _t[-1]:
            return float(_v[-1])
        return float(np.interp(t, _t, _v))

    # concavify sorts the grid and drops repeats
    grid = np.concatenate((log_grid(float(ts[-1]) if ts[-1] > 1 else 10.0), ts))
    return concavify(raw, grid=grid, tag=tag)
