"""Empirical Morse/contraction testers and the gauge constant calculus.

The two central quantified definitions — kappa-Morse (quasi-geodesics that
end near Z stay in the m*kappa neighborhood) and kappa-weakly contracting
(projections of nearby pairs have sublinear diameter) — are realized as
falsifiers: seeded families of adversarial probes/pairs are generated and
the defining inequality is measured on each.  A pass therefore means "not
falsified at this budget", while every fail carries a replayable witness.

The module also implements the exact constant stack that turns contraction
constants into a Morse gauge:

    m0 = max{(q(qC2+q+1)+Q)/C1, 2C2(D1+1)/(q-1), Q}
    m1 = q(C2+1)(D1+1)
    m3 = m0*m1*(1+m2) + A*m2
    m_Z(q,Q) = (q*m3 + Q + m0) * m4

with m2, m4 sublinear estimation constants and A the least constant
swallowing the chained kappa-error terms (see `derive_gauge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import space as _sp
from .errors import (CertificationError, DomainError, GenerationError,
                     Inconclusive, NotSublinear, PreconditionError)
from .seeds import derive_seed, rng_for
from .space import (PathSeg, distance_to_set, distances_to_set,
                    first_time_at_norm, is_quasi_geodesic)
from .sublinear import TOL, estimation_constant, evaluate, small_compared

#: octave-over-octave growth slope (log2) above which a ratio counts as
#: genuinely growing rather than bounded
BAND_SLOPE = 0.25

#: ratio d/r at the horizon below which two rays, or walks and their proxy
#: rays, count as traveling together
TRACK_RATIO = 0.05


# ---------------------------------------------------------------------------
# result and constant containers

class Verdict:
    """Pass/fail outcome with a replayable witness or a measured margin."""

    def __init__(self, passed, test="", margin=None, witness=None,
                 parameters=None, seed=None, space=""):
        self.passed = bool(passed)
        self.test = test
        self.margin = margin
        self.witness = witness or {}
        self.parameters = parameters or {}
        self.seed = seed
        self.space = space

    def __bool__(self):
        return self.passed

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"Verdict({self.test}: {state}, margin={self.margin})"

    def to_json(self):
        wit = dict(self.witness)
        if "path" in wit and isinstance(wit["path"], PathSeg):
            wit["path"] = json_safe(wit["path"])
        return {
            "test": self.test,
            "space": self.space,
            "parameters": self.parameters,
            "pass": self.passed,
            "margin": self.margin,
            "witness_path": wit.get("path"),
            "witness": {k: v for k, v in wit.items() if k != "path"},
            "seed": self.seed,
        }


def json_safe(x):
    """`x` as plain JSON values: a PathSeg becomes the reprs of its
    vertices, tuples become lists, numpy values Python ones, dict keys
    strings, and any other object its repr."""
    if isinstance(x, PathSeg):
        return [repr(v) for v in x.vertex_list()]
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    if isinstance(x, dict):
        return {str(k): json_safe(v) for k, v in x.items()}
    if hasattr(x, "tolist"):  # numpy arrays and scalars
        return x.tolist()
    if x is None or isinstance(x, (str, int, float)):
        return x
    return repr(x)


@dataclass(frozen=True)
class ContractionConstants:
    C1: float
    C2: float

    def __post_init__(self):
        if not 0 < self.C1 <= 1:
            raise DomainError(f"need 0 < C1 <= 1, got {self.C1}")
        if self.C2 < 0:
            raise DomainError(f"need C2 >= 0, got {self.C2}")


@dataclass(frozen=True)
class ProjectionConstants:
    D1: float
    D2: float


class MorseGauge:
    """An evaluable gauge (q, Q) -> m, normalized so m >= max(q, Q)."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, q, Q):
        return max(self._fn(q, Q), q, Q)

    @classmethod
    def constant(cls, M):
        return cls(lambda q, Q: M)


# ---------------------------------------------------------------------------
# neighborhoods and the two transfer lemmas

def in_kappa_neighborhood(sp, x, Z, m, kappa):
    """x lies in N_kappa(Z, m), i.e. d(x, Z) <= m * kappa(||x||)."""
    return distance_to_set(sp, x, Z) <= m * evaluate(kappa, sp.norm(x)) + TOL


def _neighborhood_margins(sp, path, Z, m, kappa, bound=None):
    """(worst margin, first index attaining it) of the N_kappa(Z, m)
    condition along a path.  `bound` maps a norm to m * kappa(norm); a
    caller that checks several paths at one m passes them all one dict, so
    kappa is evaluated once per distinct norm."""
    norms = path.norms()
    bound = {} if bound is None else bound
    for nv in set(norms).difference(bound):
        bound[nv] = m * evaluate(kappa, nv)
    margins = [bound[nv] - d
               for d, nv in zip(distances_to_set(sp, path, Z), norms)]
    worst = min(margins)
    return worst, margins.index(worst)


def symmetry_transfer(sp, alpha, beta, m, kappa):
    """If beta is in N_kappa(alpha, m) and alpha is geodesic, then alpha is
    in N_kappa(beta, 2m) over the common norm range."""
    if not is_quasi_geodesic(alpha, 1, 0):
        raise PreconditionError("alpha is not geodesic")
    pre_margin, pre_i = _neighborhood_margins(sp, beta, alpha, m, kappa)
    if pre_margin < -TOL:
        raise PreconditionError(
            f"beta leaves N_kappa(alpha, {m}) at index {pre_i}",
            witness=pre_i)
    r_max = max(beta.norms())
    # cut alpha where the endpoint of beta stops being informative
    cutoff = r_max - 2 * m * evaluate(kappa, r_max)
    norms = alpha.norms()
    upto = len(norms)
    for i, nv in enumerate(norms):
        if nv > cutoff:
            upto = max(i, 1)
            break
    margin, bad_i = _neighborhood_margins(sp, alpha.prefix(upto), beta, 2 * m, kappa)
    return Verdict(margin >= -TOL, test="symmetry_transfer", margin=margin,
                   witness={} if margin >= -TOL else {"index": bad_i},
                   parameters={"m": m, "kappa": kappa.tag}, space=sp.kind)


def fellow_traveling_profile(sp, alpha, beta, horizon):
    """Ratios d(alpha_r, beta_r)/r for r = 1..horizon plus the equivalence
    verdict: tail below TRACK_RATIO and decaying across dyadic bands."""
    ratios = []
    for r in range(1, horizon + 1):
        try:
            a = alpha.vertex(first_time_at_norm(alpha, r))
            b = beta.vertex(first_time_at_norm(beta, r))
        except DomainError:
            raise DomainError(f"horizon {horizon} not attained (norm {r} missing)")
        ratios.append(sp.dist(a, b) / r)
    tail = ratios[horizon // 2:]
    tail_max = max(tail) if tail else 0.0
    # last three dyadic bands: (h/8, h/4], (h/4, h/2], (h/2, h]
    bands = []
    hi = horizon
    for _ in range(3):
        lo = hi // 2
        bands.append(max(ratios[lo:hi], default=0.0))
        hi = lo
    bands.reverse()
    decreasing = all(b2 < b1 - TOL for b1, b2 in zip(bands, bands[1:]))
    equivalent = tail_max <= TRACK_RATIO and (decreasing or tail_max <= TOL)
    verdict = Verdict(equivalent, test="fellow_traveling",
                      margin=TRACK_RATIO - tail_max,
                      parameters={"horizon": horizon, "bands": bands},
                      space=sp.kind)
    return ratios, verdict


# ---------------------------------------------------------------------------
# probe families

def _random_walk_vertex(sp, rng, steps, start=None):
    if sp.is_group:
        gens = sp.gens
        return PathSeg(sp, start=start, letters=[
            rng.choice(gens) for _ in range(steps)]).endpoint()
    v = start if start is not None else sp.basepoint
    for _ in range(steps):
        v = rng.choice(sp.sorted_neighbors(v))
    return v


def _straight_vertex(sp, rng, steps, start=None):
    """Endpoint of a straight generator power (graph spaces fall back to a
    walk that never backtracks, the closest available analogue)."""
    if sp.is_group:
        return PathSeg(sp, start=start,
                       letters=[rng.choice(sp.gens)] * steps).endpoint()
    v = start if start is not None else sp.basepoint
    prev = None
    for _ in range(steps):
        options = [w for w in sp.sorted_neighbors(v) if w != prev]
        if not options:
            options = sp.sorted_neighbors(v)
        prev, v = v, rng.choice(options)
    return v


def _insert_detours(sp, base, rng, depth, n_detours, q):
    """`base` with out-and-back excursions of the given depth inserted at
    distinct positions, never inside one another.  Group paths go out along
    one generator; other paths take a walk that does not backtrack and
    retrace it.

    For x, y on excursions whose base positions are P apart, d(x, y) >=
    P - h_x - h_y (h the height of each above its base vertex), and the
    path from x to y is P plus the other excursions between them plus the
    steps of their own, so each end costs at most depth (1 + 1/q) of slack,
    at a tip.  With depth <= qQ/2 the (q, Q) lower bound thus holds for
    every pair once P >= 2 depth q / (q - 1); a drawn position closer than
    that to an earlier one is dropped, and for q = 1 only the first
    excursion stays.
    """
    spacing = math.ceil(2 * depth * q / (q - 1)) if q > 1 else math.inf
    items = base.step_letters() if sp.is_group else base.vertex_list()
    sites = {}
    for _ in range(n_detours):
        if sp.is_group:
            pos = rng.randrange(len(items) + 1)
            g = rng.choice(sp.gens)
            exc = [g] * depth + [sp.gen_inv(g)] * depth
        else:
            pos = rng.randrange(len(items))
            v = cur = items[pos]
            walk, prev = [], None
            for _ in range(depth):
                options = [w for w in sp.sorted_neighbors(cur) if w != prev]
                if not options:
                    options = sp.sorted_neighbors(cur)
                prev, cur = cur, rng.choice(options)
                walk.append(cur)
            exc, pos = walk + walk[:-1][::-1] + [v], pos + 1
        if all(abs(pos - p) >= spacing for p in sites):
            sites[pos] = exc
    out = list(items)
    for pos in sorted(sites, reverse=True):
        out[pos:pos] = sites[pos]
    if sp.is_group:
        # the excursions go out and back, so the end is the base's
        return PathSeg(sp, start=sp.basepoint, letters=out,
                       end=base.endpoint())
    return PathSeg(sp, vertices=out)


def probe_family(sp, target, q, Q, count, seed):
    """`count` certified (q', Q')-quasi-geodesics from the base point to the
    target vertex, q' <= q, Q' <= Q.

    Kinds rotate deterministically with the probe index: the lexicographic
    geodesic, detour insertions (depth limited by floor(qQ/2), which is what
    an out-and-back excursion can afford, and spaced so that no two add
    up), and L-shapes through a random waypoint.  Every probe is checked by
    is_quasi_geodesic before it is returned; a probe that cannot be
    certified after the retry budget raises GenerationError.
    """
    if q < 1:
        raise DomainError(f"need q >= 1, got {q}")
    # every geodesic probe is this one path, and so is every detour base:
    # it only ever records the same (q, Q) and the same norms
    geo = sp.geodesic(sp.basepoint, target)
    if q == 1 and Q == 0:
        return [geo]
    probes = []
    max_depth = max(0, int(q * Q / 2))
    for i in range(count):
        rng = rng_for(seed, i)
        made = None
        for attempt in range(6):
            kind = (i + attempt) % 3
            if kind == 0 or max_depth == 0 and kind == 1:
                cand = geo
            elif kind == 1:
                depth = rng.randint(1, max_depth)
                n_det = rng.randint(1, max(1, len(geo) // 40 + 1))
                cand = _insert_detours(sp, geo, rng, depth, n_det, q)
            else:
                # L-shape: geodesic through a waypoint off the direct route
                budget = max(1, min(int((q - 1) * sp.norm(target) / 2 + Q), 40))
                w = _random_walk_vertex(sp, rng, rng.randint(1, budget))
                leg1 = sp.geodesic(sp.basepoint, w)
                leg2 = sp.geodesic(w, target)
                if sp.is_group:
                    cand = PathSeg(sp, start=sp.basepoint,
                                   letters=leg1.step_letters() + leg2.step_letters(),
                                   end=target)
                else:
                    cand = PathSeg(sp, vertices=leg1.vertex_list()
                                   + leg2.vertex_list()[1:])
            if is_quasi_geodesic(cand, q, Q):
                cand.q, cand.Q = q, Q
                made = cand
                break
        if made is None:
            raise GenerationError(
                f"could not certify a ({q}, {Q})-probe for index {i}")
        probes.append(made)
    return probes


# ---------------------------------------------------------------------------
# the two testers

def _reject_non_sublinear(kappa):
    """Cheap decay check so plainly linear gauges are refused up front."""
    cap = kappa.grid_cap
    lo = max(evaluate(kappa, cap / 16) / (cap / 16), 1e-300)
    hi = evaluate(kappa, cap) / cap
    # concavity forces the ratio down by 1/16 per decade-of-16; anything
    # that keeps more than 3/4 of it is (at least) linear
    if hi > 0.75 * lo:
        raise NotSublinear(
            f"kappa {kappa.tag!r} does not decay: kappa(t)/t stays near "
            f"{hi:g} at t={cap:g}")


def test_kappa_morse(sp, Z, kappa, kappa_prime, r, R, q, Q, probes, seed,
                     gauge):
    """Falsify the kappa-Morse condition for Z at radius r with entry radius R.

    Probes are (q, Q)-quasi-geodesics built to end on Z at norm R, then
    perturbed within kappa'(R) so the entry condition d(beta_R, Z) <=
    kappa'(R) is nonvacuous.  Each eligible probe must keep its norm-r
    prefix inside N_kappa(Z, gauge(q, Q)).
    """
    _reject_non_sublinear(kappa)
    m = gauge(q, Q)
    if R < r:
        raise PreconditionError(f"need R >= r, got r={r}, R={R}",
                                witness={"r": r, "R": R})
    if not small_compared(m, r, kappa):
        limit = r / (2 * evaluate(kappa, r))
        raise PreconditionError(
            f"gauge value {m} is not small compared to r={r} "
            f"(bound {limit:g})", witness={"m": m, "r": r, "bound": limit})
    t_R = first_time_at_norm(Z, R)
    z_R = Z.vertex(t_R)
    fam = probe_family(sp, z_R, q, Q, probes, seed)
    perturb_budget = int(evaluate(kappa_prime, R))
    checked = 0
    worst = math.inf
    bound = {}
    for i, beta in enumerate(fam):
        rng = rng_for(seed, i, 1)
        if perturb_budget > 0 and i % 2 == 1 and beta.letters is not None:
            extra = [rng.choice(sp.gens)
                     for _ in range(rng.randint(0, perturb_budget))]
            if extra:
                end = PathSeg(sp, start=beta.endpoint(), letters=extra)
                cand = PathSeg(sp, start=beta.start,
                               letters=beta.letters + extra, end=end.endpoint())
                if is_quasi_geodesic(cand, q, Q):
                    beta = cand
        try:
            i_R = first_time_at_norm(beta, R)
        except DomainError:
            continue
        entry = distance_to_set(sp, beta.vertex(i_R), Z)
        if entry > evaluate(kappa_prime, R) + TOL:
            continue
        checked += 1
        i_r = first_time_at_norm(beta, r)
        prefix = beta.prefix(i_r + 1)
        margin, bad_i = _neighborhood_margins(sp, prefix, Z, m, kappa, bound)
        worst = min(worst, margin)
        if margin < -TOL:
            return Verdict(False, test="kappa_morse", margin=margin,
                           witness={"probe_index": i, "exit_index": bad_i,
                                    "path": prefix},
                           parameters={"r": r, "R": R, "q": q, "Q": Q,
                                       "m": m, "kappa": kappa.tag},
                           seed=seed, space=sp.kind)
    if checked == 0:
        raise Inconclusive("no probe satisfied the entry condition "
                           f"d(beta_R, Z) <= kappa'({R})")
    return Verdict(True, test="kappa_morse", margin=worst,
                   parameters={"r": r, "R": R, "q": q, "Q": Q, "m": m,
                               "kappa": kappa.tag, "checked": checked},
                   seed=seed, space=sp.kind)


def _diam(sp, points):
    pts = list(points)
    best = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = sp.dist(pts[i], pts[j])
            if d > best:
                best = d
    return best


def _band_trend_fail(band_maxes):
    """True when the ratio envelope keeps growing across dyadic norm bands.

    Bands are octaves of the relevant norm, so a ratio growing like a
    power t^alpha gains alpha in log2 per band while a bounded ratio's
    fitted slope hovers near zero (even when it creeps up toward its
    bound).  The least-squares slope of log2(running band max) against
    band index decides: slope > BAND_SLOPE means growth.  The running max
    smooths bands whose samples happened to draw weak witnesses, and the
    first populated band is excluded so a single early jump to a bounded
    plateau does not masquerade as a trend.
    """
    vals = [v for v in band_maxes if v is not None]
    env = []
    best = 0.0
    for v in vals:
        best = max(best, v)
        env.append(best)
    pts = [(i, math.log2(v)) for i, v in enumerate(env) if v > TOL]
    pts = pts[1:]
    if len(pts) < 3:
        return False
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    n = len(pts)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    denom = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
    return slope > BAND_SLOPE


def _default_pair_points(sp, Z, rng, samples):
    """Base points for contraction pairs at dyadic length scales.

    Random walks alone are too diffusive to expose linear projection
    growth (the flat negative controls would pass), so pure generator
    powers g^L are mixed in: they sit at distance L from most targets and
    their nearby partners sweep out genuinely wide projections.
    """
    out = []
    lengths = []
    L = 4
    while L <= 256:
        lengths.append(L)
        L *= 2
    for i in range(samples):
        length = lengths[i % len(lengths)]
        if i % 2 == 0:
            out.append(_random_walk_vertex(sp, rng, length))
        else:
            out.append(_straight_vertex(sp, rng, length))
    return out


def test_kappa_contracting(sp, Z, proj, kappa, C1, samples, seed,
                           points=None):
    """Fit C2 for the kappa-weakly-contracting condition and judge stability.

    Over sampled pairs (x, y) with d(x, y) <= C1 * d(x, Z), the ratio
    diam(proj(x) u proj(y)) / kappa(||x||) is collected into dyadic bands of
    ||x||; C2 is the overall max and the verdict fails when the band maxima
    keep growing (flat directions produce linearly growing projections, so
    the envelope trend is decisive).  `points` may supply adversarial base
    points; otherwise the seeded default sampler is used.
    """
    if not 0 < C1 <= 1:
        raise DomainError(f"need 0 < C1 <= 1, got {C1}")
    rng = rng_for(seed, 0)
    xs = list(points) if points is not None else _default_pair_points(sp, Z, rng, samples)
    band_ratio = {}
    eligible = 0
    C2 = 0.0
    for i, x in enumerate(xs):
        dxz = distance_to_set(sp, x, Z)
        if dxz <= 0:
            continue
        radius = int(C1 * dxz)
        if radius < 1:
            continue
        prng = rng_for(seed, i, 7)
        # the condition quantifies over every nearby y, so each base point
        # is paired with a straight sweep in every generator direction (the
        # widest partners) plus one random walk
        candidates = [_random_walk_vertex(sp, prng, prng.randint(1, radius),
                                          start=x)]
        if sp.is_group:
            candidates += [PathSeg(sp, start=x, letters=[g] * radius).endpoint()
                           for g in sp.gens]
        else:
            candidates.append(_straight_vertex(sp, prng, radius, start=x))
        px = proj(x)
        counted = False
        for y in candidates:
            if sp.dist(x, y) > C1 * dxz:
                continue
            counted = True
            py = proj(y)
            ratio = _diam(sp, set(px) | set(py)) / evaluate(kappa, sp.norm(x))
            C2 = max(C2, ratio)
            band = sp.norm(x).bit_length()
            band_ratio[band] = max(band_ratio.get(band, 0.0), ratio)
        eligible += counted
    if eligible < 10 or len(band_ratio) < 3:
        raise Inconclusive(
            f"only {eligible} eligible pairs across {len(band_ratio)} bands")
    bands = [band_ratio[b] for b in sorted(band_ratio)]
    failed = _band_trend_fail(bands)
    verdict = Verdict(not failed, test="kappa_contracting",
                      margin=None if failed else C2,
                      witness={"bands": bands} if failed else {},
                      parameters={"C1": C1, "C2": C2, "kappa": kappa.tag,
                                  "eligible": eligible, "bands": bands},
                      seed=seed, space=sp.kind)
    return ContractionConstants(C1=C1, C2=C2 if C2 > 0 else 0.0), verdict


D1_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0)
D2_CAP = 50.0


def fit_kappa_projection(sp, Z, proj, kappa, samples, seed):
    """Least (D1, D2) with diam({z} u proj(x)) <= D1 d(x,z) + D2 kappa(||x||).

    D1 is scanned over a fixed grid (smallest first) and D2 is the induced
    max residual; the first grid value whose D2 stays below the cap wins.
    The corollary bound diam({x} u proj(x)) <= (D1+1) d(x,Z) + D2 kappa(||x||)
    is then asserted on the same sample.
    """
    xs = _default_pair_points(sp, Z, rng_for(seed, 3), samples)
    z_verts = Z.vertex_list()
    constraints = []  # (diam, d(x,z), kappa(||x||))
    corollary = []    # (diam({x} u proj x), d(x, Z), kappa(||x||))
    for i, x in enumerate(xs):
        px = proj(x)
        kx = evaluate(kappa, sp.norm(x))
        zrng = rng_for(seed, i, 11)
        for z in (zrng.choice(z_verts) for _ in range(3)):
            diam = _diam(sp, set(px) | {z})
            constraints.append((diam, sp.dist(x, z), kx))
        corollary.append((_diam(sp, set(px) | {x}),
                          distance_to_set(sp, x, Z), kx))
    fitted = None
    for D1 in D1_GRID:
        D2 = max((diam - D1 * dxz) / kx for diam, dxz, kx in constraints)
        D2 = max(D2, 0.0)
        if D2 <= D2_CAP:
            fitted = ProjectionConstants(D1=D1, D2=D2)
            break
    if fitted is None:
        worst = max(constraints, key=lambda c: (c[0] - D1_GRID[-1] * c[1]) / c[2])
        return (ProjectionConstants(D1=math.inf, D2=math.inf),
                Verdict(False, test="kappa_projection", witness={"constraint": worst},
                        parameters={"kappa": kappa.tag}, seed=seed, space=sp.kind))
    slack = min((fitted.D1 + 1) * dxZ + fitted.D2 * kx - diam
                for diam, dxZ, kx in corollary)
    return fitted, Verdict(slack >= -TOL, test="kappa_projection", margin=slack,
                           parameters={"D1": fitted.D1, "D2": fitted.D2,
                                       "kappa": kappa.tag},
                           seed=seed, space=sp.kind)


# ---------------------------------------------------------------------------
# surgery

def surgery(sp, gamma, alpha, r, R):
    """Splice the norm-(r/2) prefix of alpha onto the tail of gamma.

    gamma must be a geodesic attaining norm R with d(gamma_r, alpha) <= r/2.
    The output equals alpha up to norm r/2, equals gamma outside B(o, R),
    and is certified (9q, Q) where (q, Q) are alpha's constants.

    The splice from alpha's vertex a at norm r/2 to gamma's vertex b at
    norm R is a geodesic that takes every step shrinking the norm first: it
    descends from a, each step one nearer both o and b, then follows the
    geodesic to b.  Taken in that order it stays inside B(o, max(|a|, |b|))
    on free groups, grids and free products of them.  The geodesic from a
    to b alone need not: a grid syllable spelled axis by axis can grow one
    coordinate before it shrinks another.
    """
    if not is_quasi_geodesic(gamma, 1, 0):
        raise PreconditionError("gamma is not geodesic")
    q = alpha.q if alpha.q is not None else 1
    Q = alpha.Q if alpha.Q is not None else 0
    t_r = first_time_at_norm(gamma, r)
    gamma_r = gamma.vertex(t_r)
    d_entry = distance_to_set(sp, gamma_r, alpha)
    if d_entry > r / 2:
        raise PreconditionError(
            f"d(gamma_r, alpha) = {d_entry} > r/2 = {r / 2}")
    t_half = first_time_at_norm(alpha, r // 2)
    t_R = first_time_at_norm(gamma, R)
    a_half = alpha.vertex(t_half)
    g_R = gamma.vertex(t_R)
    # descend from a_half while some step is one nearer both o and g_R
    w, down = a_half, []
    while True:
        nw, dw = sp.norm(w), sp.dist(w, g_R)
        for g in sp.gens:
            v = sp.mul_gen(w, g)
            if sp.norm(v) < nw and sp.dist(v, g_R) < dw:
                w = v
                down.append(g)
                break
        else:
            break
    middle = PathSeg(sp, start=a_half,
                     letters=down + sp.geodesic(w, g_R).step_letters())
    # middle must stay inside B(o, R) so the outside-of-B(o,R) clause holds
    if max(middle.norms()) > R:
        raise CertificationError("splice geodesic leaves B(o, R); raise R")
    prefix_letters = alpha.prefix(t_half + 1).step_letters()
    letters = prefix_letters + middle.letters + gamma.step_letters()[t_R:]
    out = PathSeg(sp, start=alpha.start, letters=letters, q=9 * q, Q=Q)
    check = is_quasi_geodesic(out, 9 * q, Q)
    if not check:
        raise CertificationError(
            f"spliced path fails (9q, Q) = ({9 * q}, {Q}) certification; "
            "raise R", witness=check.witness)
    return out


# ---------------------------------------------------------------------------
# cone sets

#: (q, Q) ladder sampled when a definition quantifies over all constants
QG_LADDER = ((1, 0), (1.5, 2), (2, 4), (3, 8))


def cone_membership(sp, candidate, beta, r, gauge, kappa, probes, seed):
    """Does the candidate vertex lie in the cone set U(beta, r)?

    For a candidate of norm < r the answer is an immediate False per the
    definition.  Otherwise, for each (q, Q) on the sampled ladder whose
    gauge value is small compared to r, every probe alpha to the candidate
    must keep its norm-r prefix inside N_kappa(beta, gauge(q, Q)).
    """
    if sp.norm(candidate) < r:
        return Verdict(False, test="cone_membership",
                       witness={"reason": f"norm {sp.norm(candidate)} < r = {r}"},
                       parameters={"r": r}, seed=seed, space=sp.kind)
    worst = math.inf
    tested = 0
    for li, (q, Q) in enumerate(QG_LADDER):
        m = gauge(q, Q)
        if not small_compared(m, r, kappa):
            continue
        bound = {}
        fam = probe_family(sp, candidate, q, Q, probes, derive_seed(seed, li))
        for i, alpha in enumerate(fam):
            tested += 1
            try:
                i_r = first_time_at_norm(alpha, r)
            except DomainError:
                continue
            prefix = alpha.prefix(i_r + 1)
            margin, bad_i = _neighborhood_margins(sp, prefix, beta, m, kappa,
                                                  bound)
            worst = min(worst, margin)
            if margin < -TOL:
                return Verdict(False, test="cone_membership", margin=margin,
                               witness={"q": q, "Q": Q, "probe_index": i,
                                        "exit_index": bad_i, "path": prefix},
                               parameters={"r": r, "m": m, "kappa": kappa.tag},
                               seed=seed, space=sp.kind)
    if tested == 0:
        raise Inconclusive(f"no (q, Q) on the ladder is admissible at r={r}")
    return Verdict(True, test="cone_membership", margin=worst,
                   parameters={"r": r, "kappa": kappa.tag, "tested": tested},
                   seed=seed, space=sp.kind)


# ---------------------------------------------------------------------------
# the derived constant stack

@dataclass(frozen=True)
class GaugeDerivation:
    """Full audit trail of the contraction-to-Morse constant computation."""

    q: float
    Q: float
    C1: float
    C2: float
    D1: float
    D2: float
    kappa_tag: str
    m0: float
    m1: float
    C3: float
    A: float
    m2: float
    m3: float
    m4: float
    m_Z: float


def derive_gauge(q, Q, C1, C2, D1, D2, kappa):
    """Compute the Morse gauge m_Z(q, Q) from contraction and projection
    constants, following the constant stack in this module's docstring.

    A (the error-swallowing constant) is the least value with

      q(C2+1)D2*(kappa(eta_0)+kappa(eta_l)) + Q
        + (C2^2 D2 / (m0(q+1))) * kappa(eta_{l-1})  <=  A * kappa(s)

    after bounding each kappa(eta_i) <= 2*C3*kappa(s) + kappa(2*C3) with the
    conservative quasi-geodesic norm bound C3 = q^2 + qQ + Q; the supremum
    of the resulting ratio is attained on the scan grid since the ratio is
    nonincreasing in s.
    """
    if q <= 1:
        raise DomainError(f"gauge derivation needs q > 1, got {q}")
    if not 0 < C1 <= 0.5:
        raise DomainError(f"gauge derivation assumes 0 < C1 <= 1/2, got {C1}")
    for name, c in (("Q", Q), ("C2", C2), ("D1", D1), ("D2", D2)):
        if c < 0:
            raise DomainError(f"gauge derivation needs {name} >= 0, got {c}")
    m0 = max((q * (q * C2 + q + 1) + Q) / C1,
             2 * C2 * (D1 + 1) / (q - 1),
             Q)
    m1 = q * (C2 + 1) * (D1 + 1)
    C3 = q * q + q * Q + Q
    a = 2 * q * (C2 + 1) * D2 + (C2 * C2 * D2) / (m0 * (q + 1))
    kap_2C3 = evaluate(kappa, 2 * C3)
    # ratio (a*(2*C3*kappa(s) + kappa(2*C3)) + Q) / kappa(s) decreases in s
    A = a * (2 * C3 * evaluate(kappa, 0.0) + kap_2C3) + Q
    A = A / evaluate(kappa, 0.0)
    m2 = estimation_constant(kappa, 2 * q * m0 * m1 + q * A + Q).m
    m3 = m0 * m1 * (1 + m2) + A * m2
    m4 = estimation_constant(kappa, q * m3 + Q).m
    m_Z = (q * m3 + Q + m0) * m4
    return GaugeDerivation(q=q, Q=Q, C1=C1, C2=C2, D1=D1, D2=D2,
                           kappa_tag=kappa.tag, m0=m0, m1=m1, C3=C3, A=A,
                           m2=m2, m3=m3, m4=m4, m_Z=m_Z)


def derived_gauge(C1, C2, D1, D2, kappa):
    """MorseGauge closing over the constants: (q, Q) -> m_Z(q, Q)."""
    fn = lambda q, Q: derive_gauge(q, Q, C1, C2, D1, D2, kappa).m_Z
    return MorseGauge(fn)


# ---------------------------------------------------------------------------
# projection diameter profiles

ENVELOPE_ORDER = ("1", "log", "log^2", "sqrt")


def projection_diameter_profile(sp, Z, proj, ball_specs, seed,
                                cap=_sp.DEFAULT_BALL_CAP):
    """Projection diameters of sampled balls, with a sublinear envelope fit.

    Each ball spec is (center, radius); balls meeting Z are skipped with a
    note.  Returns (rows, fit) where rows are (radius, ||center||, diam) and
    fit maps each candidate envelope tag to its fitted constant, plus the
    first candidate whose band maxima stay stable (None when even sqrt
    fails, e.g. on the flat negative control).
    """
    from .sublinear import by_tag
    rows = []
    skipped = []
    for center, radius in ball_specs:
        if distance_to_set(sp, center, Z) <= radius:
            skipped.append((center, radius, "ball intersects Z"))
            continue
        b = sp.ball(center, radius, cap=cap)
        union = set()
        for v in b:
            union.update(proj(v))
        rows.append((radius, sp.norm(center), _diam(sp, union)))
    fit = {}
    chosen = None
    for tag in ENVELOPE_ORDER:
        kap = by_tag(tag)
        consts = [diam / evaluate(kap, nc) for _, nc, diam in rows]
        fit[tag] = max(consts) if consts else 0.0
        if chosen is None and rows:
            band = {}
            for (_, nc, diam), c in zip(rows, consts):
                bkey = int(nc).bit_length()
                band[bkey] = max(band.get(bkey, 0.0), c)
            seq = [band[k] for k in sorted(band)]
            if not _band_trend_fail(seq):
                chosen = tag
    return rows, {"constants": fit, "envelope": chosen, "skipped": skipped}
