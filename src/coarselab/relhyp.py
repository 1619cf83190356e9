"""Relatively hyperbolic machinery for the built-in free products.

The groups here are free products whose grid factors of rank >= 2 act as
peripheral subgroups (free products are hyperbolic relative to their
factors, and the grid factors are the only non-hyperbolic ones).  Syllable
normal form makes everything exactly computable:

* the coned-off metric d_Ghat charges 1 per peripheral syllable (a coset
  shortcut edge) and full length per free syllable;
* the nearest-point projection to a peripheral coset is the entry vertex
  of the normal form, so coset distances d_P read off syllable norms;
* deep components of geodesics are the syllable blocks, fattened by D.

Every closed form in this module is cross-checked against BFS oracles on
small balls by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import morse as _morse
from .errors import CertificationError, DomainError, PreconditionError
from .morse import Verdict, _band_trend_fail
from .seeds import rng_for
from .space import (FreeProductSpace, GridSpace, PathSeg, _norms_along,
                    distance_to_set, is_quasi_geodesic, syllable_oracles)
from .sublinear import evaluate


def require_relhyp(sp):
    """The space must be a free product with at least one grid factor of
    rank >= 2 (the peripheral structure everything here relies on)."""
    if not isinstance(sp, FreeProductSpace):
        raise DomainError(f"not a free product: {getattr(sp, 'kind', sp)!r}")
    if not peripheral_indices(sp):
        raise DomainError(f"{sp.kind} has no peripheral (grid, rank >= 2) factor")
    return sp


def peripheral_indices(sp):
    return tuple(i for i, f in enumerate(sp.factors)
                 if isinstance(f, GridSpace) and f.d >= 2)


# ---------------------------------------------------------------------------
# normal forms and the two metrics

def normal_form(sp, word):
    """Canonical syllable form of a generator word (or an element as-is).

    Vertices of a FreeProductSpace *are* normal forms, so a string is
    parsed and an element is returned unchanged; either way the result is
    the unique alternating syllable tuple.
    """
    if isinstance(word, str):
        return sp.parse_word(word)
    return tuple(word)


@dataclass(frozen=True)
class PeripheralCoset:
    """Left coset rep * P_i; rep is the minimal-length representative
    (its last syllable is never in factor i)."""

    factor: int
    rep: tuple

    def __post_init__(self):
        if self.rep and self.rep[-1][0] == self.factor:
            raise DomainError("coset representative ends in its own factor")


def coset_of(sp, v, i):
    """The P_i-coset containing the vertex v."""
    rep = v[:-1] if v and v[-1][0] == i else v
    return PeripheralCoset(factor=i, rep=rep)


def _coned_costs(sp):
    """Per-factor syllable costs of d_Ghat: a peripheral syllable is one
    coset shortcut, a free syllable costs its length."""
    pers = set(peripheral_indices(sp))
    return tuple((lambda e: 1) if i in pers else f.norm
                 for i, f in enumerate(sp.factors))


def coned_norm(sp, v):
    """d_Ghat(o, v): 1 per peripheral syllable, full length otherwise."""
    costs = _coned_costs(sp)
    return sum(costs[i](e) for i, e in v)


@dataclass
class ConedMetricReport:
    """d_Ghat value plus one realizing path, edge by edge.

    Each entry is ("edge", u, v) for an ordinary Cayley edge or
    ("shortcut", u, v, coset) for a coset shortcut; the number of entries
    equals the reported distance.
    """

    value: int
    edges: list


def coned_distance(sp, x, y):
    require_relhyp(sp)
    pers = set(peripheral_indices(sp))
    z = sp.mul(sp.inv(x), y)
    edges = []
    cur = x
    for i, e in z:
        f = sp.factors[i]
        if i in pers and f.norm(e) > 1:
            nxt = sp.mul(cur, ((i, e),))
            edges.append(("shortcut", cur, nxt, coset_of(sp, nxt, i)))
            cur = nxt
        else:
            for g in f.geodesic(f.identity, e).step_letters():
                nxt = sp.mul_gen(cur, (i, g))
                edges.append(("edge", cur, nxt))
                cur = nxt
    value = coned_norm(sp, z)
    assert len(edges) == value
    return ConedMetricReport(value=value, edges=edges)


def coned_dist(sp, x, y):
    """Just the number: d_Ghat(x, y) by the syllable closed form."""
    return coned_norm(sp, sp.mul(sp.inv(x), y))


def coned_dist_to_coset(sp, v, P):
    """d_Ghat(v, P): drop the entry syllable's cost if v opens with one."""
    z = sp.mul(sp.inv(P.rep), v)
    d = coned_norm(sp, z)
    if z and z[0][0] == P.factor:
        d -= _coned_costs(sp)[P.factor](z[0][1])
    return d


class ConedBallOracle:
    """BFS oracle for d_Ghat on a finite ball, for cross-validation.

    The coned graph restricted to a G-ball around the base point: ordinary
    Cayley edges plus, per peripheral factor, complete adjacency within
    each coset (a shortcut is one edge to any coset mate).  Coned geodesics
    between x and y travel through normal-form prefixes, so a ball of
    radius ||x|| + ||y|| contains some realizing path and the restricted
    BFS is exact for such pairs.
    """

    def __init__(self, sp, radius, cap=2_000_000):
        require_relhyp(sp)
        self.sp = sp
        self.radius = radius
        self.vertices = set(sp.ball((), radius, cap=cap))
        self._cosets = {}
        for i in peripheral_indices(sp):
            groups = {}
            for v in self.vertices:
                groups.setdefault(coset_of(sp, v, i), []).append(v)
            self._cosets[i] = groups

    def distances_from(self, x):
        sp = self.sp
        if x not in self.vertices:
            raise DomainError("source outside the oracle ball")
        dist = {x: 0}
        frontier = [x]
        spent = set()   # cosets already fully expanded
        while frontier:
            nxt = []
            for v in frontier:
                moves = [sp.mul_gen(v, g) for g in sp.gens]
                for i, groups in self._cosets.items():
                    P = coset_of(sp, v, i)
                    if (i, P) not in spent:
                        spent.add((i, P))
                        moves.extend(groups.get(P, ()))
                for w in moves:
                    if w in self.vertices and w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist


# ---------------------------------------------------------------------------
# coset projections and peripheral distances

def coset_projection(sp, x, P):
    """Nearest-point set of x on the coset (a singleton in free products:
    the entry vertex of the normal form, or the representative itself)."""
    z = sp.mul(sp.inv(P.rep), x)
    if z and z[0][0] == P.factor:
        return [sp.mul(P.rep, (z[0],))]
    return [P.rep]


def peripheral_distance(sp, x, y, P):
    """d_P(x, y) = d_G(pi_P(x), pi_P(y))."""
    return sp.dist(coset_projection(sp, x, P)[0], coset_projection(sp, y, P)[0])


def peripheral_distances(sp, x, y):
    """All cosets with d_P(x, y) > 0, mapped to d_P(x, y).

    These are exactly the cosets the normal form of x^-1 y travels through
    with a peripheral syllable, and d_P equals that syllable's norm.
    """
    pers = set(peripheral_indices(sp))
    z = sp.mul(sp.inv(x), y)
    out = {}
    prefix = x
    for syl in z:
        i, e = syl
        if i in pers:
            P = coset_of(sp, prefix, i)
            out[P] = sp.factors[i].norm(e)
        prefix = sp.mul(prefix, (syl,))
    return out


# ---------------------------------------------------------------------------
# distance formula

@dataclass
class DistanceFormulaFit:
    M: float
    A: float
    K: int
    residuals: list  # (x, y, d_G, S)


def fit_distance_formula(sp, pairs, K, constants=None, additive_cap=20.0):
    """Least (M, A) with S/M - A <= d_G(x,y) <= M*S + A over the sample,
    where S = sum_P floor_K(d_P(x,y)) + d_Ghat(x,y).

    M is minimized first (any additive slack up to `additive_cap` may be
    spent), then A is the least additive constant valid for that M; both
    are closed-form maxima over the per-pair constraints.
    """
    require_relhyp(sp)
    K0 = constants.K0 if constants is not None else 1
    if K < K0:
        raise PreconditionError(f"K = {K} below the configured K0 = {K0}")
    if len(pairs) < 2:
        raise DomainError("sample too small for a distance-formula fit")
    rows = []
    for x, y in pairs:
        d = sp.dist(x, y)
        S = sum(v for v in peripheral_distances(sp, x, y).values() if v >= K)
        S += coned_dist(sp, x, y)
        rows.append((x, y, d, S))
    M = 1.0
    for _, _, d, S in rows:
        if S > 0:
            M = max(M, (d - additive_cap) / S)
        M = max(M, S / (d + additive_cap))
    A = 0.0
    for _, _, d, S in rows:
        A = max(A, d - M * S, S / M - d)
    return DistanceFormulaFit(M=M, A=max(A, 0.0), K=K, residuals=rows)


# ---------------------------------------------------------------------------
# lifts

def _edge_step(sp, u, v):
    """u^-1 v for the endpoints of one coned edge.  v is u times one
    syllable, so all but their last syllables agree and are dropped first:
    O(1) instead of O(|u|).  Any other pair gets the whole product."""
    k = min(len(u), len(v)) - 1
    if k <= 0 or u[:k] != v[:k]:
        k = 0
    return sp.mul(sp.inv(u[k:]), v[k:])


def lift_coned_geodesic(sp, report, start=None):
    """Replace each shortcut edge of a coned path by a factor geodesic.

    Returns (PathSeg, (q0, Q0)) where the constants are the smallest pair
    on a fixed ladder that certifies the lift; in free products normal-form
    lifts are genuine geodesics, so (1, 0) is the expected outcome.
    """
    letters = []
    origin = start if start is not None else (report.edges[0][1] if report.edges else ())
    for edge in report.edges:
        if edge[0] == "shortcut":
            _, u, v, _coset = edge
            z = _edge_step(sp, u, v)
            for i, e in z:
                f = sp.factors[i]
                for g in f.geodesic(f.identity, e).step_letters():
                    letters.append((i, g))
        else:
            _, u, v = edge
            z = _edge_step(sp, u, v)
            (i, e), = z
            letters.append((i, e))
    path = PathSeg(sp, start=origin, letters=letters)
    oracles = syllable_oracles(path)
    if oracles is not None:
        path.dist_fn, path.dist_along = oracles
    for q0, Q0 in ((1, 0), (1.5, 2), (2, 4), (3, 8)):
        check = is_quasi_geodesic(path, q0, Q0)
        if check:
            path.q, path.Q = q0, Q0
            return path, (q0, Q0)
    raise CertificationError(
        "lift failed certification at (3, 8)", witness=check.witness)


# ---------------------------------------------------------------------------
# deep components

@dataclass
class DeepComponent:
    start: int   # vertex index on the geodesic, inclusive
    end: int     # vertex index, inclusive
    coset: PeripheralCoset


@dataclass
class DeepDecomposition:
    components: list
    D: float
    R: float
    t: float

    def transition_indices(self, length):
        deep = set()
        for c in self.components:
            deep.update(range(c.start, c.end + 1))
        return [i for i in range(length) if i not in deep]


def _syllable_blocks(sp, path):
    """(factor, first_vertex_idx, last_vertex_idx) per syllable of a
    normal-form geodesic; letters of one syllable are always contiguous."""
    letters = path.step_letters()
    blocks = []
    for j, (i, _g) in enumerate(letters):
        if blocks and blocks[-1][0] == i:
            blocks[-1][2] = j + 1
        else:
            blocks.append([i, j, j + 1])
    return blocks


def coset_runs(sp, geodesic, D):
    """(start, end, coset) vertex ranges of gamma inside N_D(P), one per
    peripheral syllable block, fattened by D on both sides."""
    require_relhyp(sp)
    pers = set(peripheral_indices(sp))
    n = len(geodesic)
    blocks = [b for b in _syllable_blocks(sp, geodesic) if b[0] in pers]
    entries = geodesic.vertices_at(first + 1 for _, first, _ in blocks)
    runs = []
    for (i, first, last), v in zip(blocks, entries):
        coset = coset_of(sp, v, i)
        runs.append((max(0, first - int(D)), min(n - 1, last + int(D)), coset))
    return runs


def deep_components(sp, geodesic, D, R, t=3.0):
    """Maximal (D, R)-deep ranges of a geodesic with their cosets.

    A point is deep when it sits strictly more than R inside a coset run
    (runs clipped by the ends of the path are not trimmed there, matching
    a ray prefix).  Components of distinct cosets are disjoint whenever
    R >= D (asserted), and each lies within the t*D-neighborhood of its
    coset.
    """
    n = len(geodesic)
    comps = []
    for run_a, run_b, coset in coset_runs(sp, geodesic, D):
        a = run_a + int(R) + 1 if run_a > 0 else run_a
        b = run_b - int(R) - 1 if run_b < n - 1 else run_b
        if a > b:
            continue
        comps.append(DeepComponent(start=a, end=b, coset=coset))
    for c1, c2 in zip(comps, comps[1:]):
        if c2.start <= c1.end and c1.coset != c2.coset:
            raise CertificationError(
                f"deep components overlap at indices {c2.start}..{c1.end}; "
                f"use R >= D (got D={D}, R={R})")
    return DeepDecomposition(components=comps, D=D, R=R, t=t)


# ---------------------------------------------------------------------------
# excursions

def excursion_ray(sp, syllable_count, sizes, direction=(1, 0)):
    """Fixture ray: k-th peripheral syllable of size sizes(k), separated by
    single free-factor letters.  Requires the default grid*free layout."""
    require_relhyp(sp)
    pers = peripheral_indices(sp)
    i = pers[0]
    free = next(j for j in range(len(sp.factors)) if j not in pers)
    fgen = sp.factors[free].gens[0]
    step = tuple(direction) if sp.factors[i].d == len(direction) else (1,) + (0,) * (sp.factors[i].d - 1)
    letters = []
    for k in range(1, syllable_count + 1):
        letters.extend([(i, step)] * max(0, int(sizes(k))))
        letters.append((free, fgen))
    return PathSeg(sp, letters=letters, q=1, Q=0)


def excursion_profile(sp, gamma, D0, kappa):
    """Excursion table of a geodesic prefix: one row per peripheral coset
    met by its D0-neighborhood, with the fitted E_gamma and a verdict.

    Rows are (coset, excursion diameter, coned norm of the coset, ratio
    excursion / kappa(coned norm)); E_gamma is the max ratio and the
    verdict passes iff the ratio envelope is stable across dyadic bands of
    the coned norm.
    """
    rows = []
    for a, b, coset in coset_runs(sp, gamma, D0):
        # run endpoints on a geodesic realize the diameter
        exc = gamma.dist_between(a, b)
        cn = coned_dist_to_coset(sp, (), coset)
        ratio = exc / evaluate(kappa, cn)
        rows.append((coset, exc, cn, ratio))
    E = max((r[3] for r in rows), default=0.0)
    band = {}
    for _, _, cn, ratio in rows:
        key = int(cn).bit_length()
        band[key] = max(band.get(key, 0.0), ratio)
    bands = [band[k] for k in sorted(band)]
    ok = not _band_trend_fail(bands)
    verdict = Verdict(ok, test="kappa_excursion", margin=E if ok else None,
                      witness={} if ok else {"bands": bands},
                      parameters={"D0": D0, "kappa": kappa.tag,
                                  "E_gamma": E, "bands": bands},
                      space=sp.kind)
    return rows, E, verdict


# ---------------------------------------------------------------------------
# constants and the big projection

@dataclass(frozen=True)
class RelHypConstants:
    """Space-level constants, fitted once per group and then frozen.

    D0: geodesic bounded-geodesic-image radius (0 here: free-product
        geodesics pass exactly through the coset projections).
    L0: peripheral distance forcing every coned geodesic through the coset.
    R0: hyperbolicity thinness radius of the coned graph; R1 = 1 + 4*R0.
    L:  slack in the projection-bound inequalities, asserted on samples.
    K0: least admissible clip for the distance formula.
    """

    D0: float = 0.0
    L0: float = 1.0
    R0: float = 1.0
    L: float = 4.0
    K0: int = 1

    @property
    def R1(self):
        return 1.0 + 4.0 * self.R0


def default_constants(sp):
    require_relhyp(sp)
    return RelHypConstants()


def coned_distances_along_path(sp, x, path):
    """d_Ghat(x, path(j)) for every j, in one incremental syllable sweep.

    d_Ghat(x, v) is the coned cost of x^-1 v, and x^-1 (v g) = (x^-1 v) g,
    so a right accumulator priced by coned syllable costs, started at
    x^-1 * path.start, reads off every distance.
    """
    acc = sp.right_acc(sp.mul(sp.inv(x), path.start), costs=_coned_costs(sp))
    return _norms_along(acc, path.step_letters())


def coned_nearest_index(sp, gamma, x):
    """Index of pi_gamma(x), the d_Ghat nearest-point projection, with ties
    broken toward the smaller path index."""
    ds = coned_distances_along_path(sp, x, gamma)
    best = min(ds)
    return ds.index(best)


@dataclass
class BigProjection:
    points: list            # vertices of gamma
    pi_index: int           # index of pi_gamma(x) on gamma
    cosets: list            # the P in P_{gamma,x}, possibly empty


class ProjectionOracle:
    """Precomputed Pi_gamma machinery for one ray prefix.

    Projecting many points onto the same gamma dominates the contraction
    tests, so the coset runs, the gamma vertex list, and each run's coned
    position are computed once here.  A run contributes its excursion
    segment when its coset sits within coned distance R1 of pi_gamma(x);
    since each run's representative lies on gamma, that coned distance is
    |coned position of the run - coned position of pi_gamma(x)| up to the
    run's span in Ghat, evaluated directly per query instead.
    """

    def __init__(self, sp, gamma, constants):
        require_relhyp(sp)
        self.sp = sp
        self.gamma = gamma
        self.constants = constants
        self.runs = coset_runs(sp, gamma, constants.D0)
        self._verts = gamma.vertex_list()
        self._rep_inv = [sp.inv(c.rep) for _, _, c in self.runs]
        self._costs = _coned_costs(sp)

    def _coned_to_coset(self, idx, v):
        coset = self.runs[idx][2]
        z = self.sp.mul(self._rep_inv[idx], v)
        d = sum(self._costs[i](e) for i, e in z)
        if z and z[0][0] == coset.factor:
            d -= self._costs[coset.factor](z[0][1])
        return d

    def project(self, x):
        j = coned_nearest_index(self.sp, self.gamma, x)
        pivot = self._verts[j]
        points = []
        cosets = []
        for idx, (a, b, coset) in enumerate(self.runs):
            if self._coned_to_coset(idx, pivot) <= self.constants.R1:
                cosets.append(coset)
                points.extend(self._verts[a:b + 1])
        if not points:
            points = [pivot]
        return BigProjection(points=points, pi_index=j, cosets=cosets)


def big_projection(sp, gamma, x, constants, oracle=None):
    """The coarse projection onto gamma built from peripheral excursions.

    pi_gamma(x) is the coned nearest point; every peripheral coset that
    meets the D0-neighborhood of gamma within coned distance R1 of it
    contributes its whole excursion segment.  With no such coset the
    projection degenerates to {pi_gamma(x)}.
    """
    if oracle is None:
        oracle = ProjectionOracle(sp, gamma, constants)
    return oracle.project(x)


def nearest_transition_past(sp, gamma, x, constants):
    """c_{gamma,y}(x): the first transition point of gamma at or past every
    deep component contributed by P_{gamma,x}."""
    bp = big_projection(sp, gamma, x, constants)
    if not bp.cosets:
        return gamma.vertex(bp.pi_index)
    dd = deep_components(sp, gamma, D=constants.D0,
                         R=0 if constants.D0 == 0 else constants.D0)
    last = max(c.end for c in dd.components if c.coset in set(bp.cosets))
    deep = set()
    for c in dd.components:
        deep.update(range(c.start, c.end + 1))
    for k in range(last, len(gamma)):
        if k not in deep:
            return gamma.vertex(k)
    raise DomainError("gamma too short: no transition point past the deep "
                      "components feeding the projection")


def test_excursion_contracting(sp, gamma, kappa, samples, seed,
                               constants=None, C1=0.5, D2_band_check=True):
    """Excursion rays should be kappa-weakly contracting under Pi_gamma.

    Preconditions the excursion profile, then runs the generic contraction
    tester with the big projection.  Additionally asserts the coned-level
    bound: sampled pairs x, y with d_G(x, y) <= C1 * d_G(x, gamma) have
    d_Ghat(Pi(x), Pi(y)) bounded (no growth across norm bands).
    """
    require_relhyp(sp)
    constants = constants if constants is not None else default_constants(sp)
    _, _, pre = excursion_profile(sp, gamma, constants.D0, kappa)
    if not pre:
        raise PreconditionError(
            f"gamma does not have kappa-excursion for kappa = {kappa.tag}",
            witness=pre.parameters.get("bands"))
    oracle = ProjectionOracle(sp, gamma, constants)
    proj = lambda v: oracle.project(v).points
    cc, verdict = _morse.test_kappa_contracting(
        sp, gamma, proj, kappa, C1, samples, seed)
    if verdict and D2_band_check:
        rng = rng_for(seed, 17)
        band = {}
        pts = _morse._default_pair_points(sp, gamma, rng, samples)
        for i, x in enumerate(pts):
            dxg = distance_to_set(sp, x, gamma)
            radius = int(C1 * dxg)
            if radius < 1:
                continue
            prng = rng_for(seed, i, 19)
            y = _morse._straight_vertex(sp, prng, radius, start=x)
            bx = oracle.project(x)
            by = oracle.project(y)
            dhat = max(coned_dist(sp, p, q2)
                       for p in (bx.points[0], bx.points[-1])
                       for q2 in (by.points[0], by.points[-1]))
            key = int(sp.norm(x)).bit_length()
            band[key] = max(band.get(key, 0), dhat)
        bands = [band[k] for k in sorted(band)]
        if _band_trend_fail(bands):
            verdict = Verdict(False, test="excursion_contracting",
                              witness={"coned_bands": bands},
                              parameters=verdict.parameters, seed=seed,
                              space=sp.kind)
    verdict.test = "excursion_contracting"
    return cc, verdict
