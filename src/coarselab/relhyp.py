"""Relatively hyperbolic machinery for the built-in free products.

The groups here are free products whose grid factors of rank >= 2 act as
peripheral subgroups (free products are hyperbolic relative to their
factors, and the grid factors are the only non-hyperbolic ones).
FreeProductSpace owns these facts: its `peripheral` indices and its
`coned_costs` syllable cost table, both fixed when the space is built, and
`cost_between`, which prices the normal form of x^-1 y without building
it.  Syllable normal form makes everything exactly computable:

* the coned-off metric d_Ghat charges 1 per peripheral syllable (a coset
  shortcut edge) and full length per free syllable;
* the nearest-point projection to a peripheral coset is the entry vertex
  of the normal form, so coset distances d_P read off syllable norms;
* deep components of geodesics are the syllable blocks, fattened by D.

Every closed form in this module is cross-checked against BFS oracles on
small balls by the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import morse as _morse
from .errors import CertificationError, DomainError, PreconditionError
from .morse import Verdict, _band_trend_fail
from .seeds import rng_for
from .space import (FreeProductSpace, _norms_along, _shared, distance_to_set,
                    is_quasi_geodesic)
from .sublinear import evaluate


def require_relhyp(sp):
    """The space must be a free product with at least one grid factor of
    rank >= 2 (the peripheral structure everything here relies on)."""
    if not isinstance(sp, FreeProductSpace):
        raise DomainError(f"not a free product: {getattr(sp, 'kind', sp)!r}")
    if not sp.peripheral:
        raise DomainError(f"{sp.kind} has no peripheral (grid, rank >= 2) factor")
    return sp


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


def coned_norm(sp, v):
    """d_Ghat(o, v): 1 per peripheral syllable, full length otherwise."""
    costs = sp.coned_costs
    return sum(costs[i](e) for i, e in v)


@dataclass
class ConedMetricReport:
    """d_Ghat(start, end), read off the normal form of start^-1 end.

    `syllables` is that normal form and `value` its coned cost (coned_norm).
    `edges` spells, on demand, the coned geodesic that realizes the value:
    ("edge", u, v, g) for an ordinary Cayley edge, v = u g for the
    generator g, or ("shortcut", u, v, coset, syllable) for a coset
    shortcut, v = u (syllable); there are `value` entries.  Its lift is
    the normal-form geodesic from start to end (lift_coned_geodesic).
    """

    sp: FreeProductSpace
    value: int
    start: tuple
    end: tuple
    syllables: tuple

    @property
    def edges(self):
        sp = self.sp
        edges = []
        cur = self.start
        for i, e in self.syllables:
            f = sp.factors[i]
            if i in sp.peripheral and f.norm(e) > 1:
                nxt = sp.mul(cur, ((i, e),))
                edges.append(("shortcut", cur, nxt, coset_of(sp, nxt, i), (i, e)))
                cur = nxt
            else:
                for g in f.geodesic_letters(f.identity, e):
                    nxt = sp.mul_gen(cur, (i, g))
                    edges.append(("edge", cur, nxt, (i, g)))
                    cur = nxt
        return edges


def coned_distance(sp, x, y):
    """d_Ghat(x, y) as a ConedMetricReport: one product z = x^-1 y, valued
    by its coned cost."""
    require_relhyp(sp)
    z = sp.mul(sp.inv(x), y)
    return ConedMetricReport(sp=sp, value=coned_norm(sp, z), start=x, end=y,
                             syllables=z)


def coned_dist(sp, x, y):
    """Just the number: d_Ghat(x, y), the coned cost of x^-1 y."""
    return sp.cost_between(x, y, sp.coned_costs)


def _entry(v, P):
    """The first syllable of rep^-1 v when it lies in P's factor, else
    None.  As rep never ends in P's factor, that happens only when v
    extends rep by a syllable of P's factor."""
    n = len(P.rep)
    if len(v) > n and v[n][0] == P.factor and v[:n] == P.rep:
        return v[n]
    return None


def coned_dist_to_coset(sp, v, P):
    """d_Ghat(v, P): the coned cost of rep^-1 v, less that of its first
    syllable when it lies in P's factor."""
    d = sp.cost_between(P.rep, v, sp.coned_costs)
    entry = _entry(v, P)
    if entry is not None:
        d -= sp.coned_costs[P.factor](entry[1])
    return d


# ---------------------------------------------------------------------------
# coset projections and peripheral distances

def coset_projection(sp, x, P):
    """Nearest-point set of x on the coset (a singleton in free products:
    the entry vertex of the normal form, or the representative itself)."""
    entry = _entry(x, P)
    return [P.rep if entry is None else P.rep + (entry,)]


def peripheral_distance(sp, x, y, P):
    """d_P(x, y) = d_G(pi_P(x), pi_P(y))."""
    return sp.dist(coset_projection(sp, x, P)[0], coset_projection(sp, y, P)[0])


def peripheral_distances(sp, x, y):
    """All cosets with d_P(x, y) > 0, mapped to d_P(x, y).

    These are exactly the cosets the normal form of x^-1 y travels through
    with a peripheral syllable, and d_P equals that syllable's norm.
    """
    out = {}
    prefix = list(x)   # the running product x * (syllables so far)
    for syl in sp.mul(sp.inv(x), y):
        i, e = syl
        if i in sp.peripheral:
            out[coset_of(sp, tuple(prefix), i)] = sp.factors[i].norm(e)
        sp._push_syllable(prefix, syl)
    return out


# ---------------------------------------------------------------------------
# distance formula

@dataclass
class DistanceFormulaFit:
    M: float
    A: float
    K: int
    residuals: list  # (x, y, d_G, S)


def _formula_terms(sp, pairs):
    """Per pair (d_G(x, y), d_Ghat(x, y), the d_P(x, y) > 0), from one
    product z = x^-1 y and one pass over its syllables: d_G is the sum of
    their norms, d_Ghat the sum of their coned costs, and the d_P are the
    norms of the peripheral ones (one coset each, as in
    peripheral_distances)."""
    pers, costs = sp.peripheral, sp.coned_costs
    out = []
    for x, y in pairs:
        d = c = 0
        ps = []
        for i, e in sp.mul(sp.inv(x), y):
            n = sp.factors[i].norm(e)
            d += n
            c += costs[i](e)
            if i in pers:
                ps.append(n)
        out.append((d, c, ps))
    return out


def fit_distance_formula(sp, pairs, K, constants=None, terms=None):
    """Least (M, A) with S/M - A <= d_G(x,y) <= M*S + A over the sample,
    where S = sum_P floor_K(d_P(x,y)) + d_Ghat(x,y).

    M is minimized first (any additive slack up to 20 may be spent), then
    A is the least additive constant valid for that M; both are
    closed-form maxima over the per-pair constraints.

    `terms` is _formula_terms(sp, pairs), passed by a caller that fits the
    same pairs at several K; it is computed here otherwise.
    """
    require_relhyp(sp)
    K0 = constants.K0 if constants is not None else 1
    if K < K0:
        raise PreconditionError(f"K = {K} below the configured K0 = {K0}")
    if len(pairs) < 2:
        raise DomainError("sample too small for a distance-formula fit")
    if terms is None:
        terms = _formula_terms(sp, pairs)
    rows = [(x, y, d, c + sum(n for n in ps if n >= K))
            for (x, y), (d, c, ps) in zip(pairs, terms)]
    M = 1.0
    for _, _, d, S in rows:
        if S > 0:
            M = max(M, (d - 20.0) / S)
        M = max(M, S / (d + 20.0))
    A = 0.0
    for _, _, d, S in rows:
        A = max(A, d - M * S, S / M - d)
    return DistanceFormulaFit(M=M, A=max(A, 0.0), K=K, residuals=rows)


# ---------------------------------------------------------------------------
# lifts

def lift_coned_geodesic(sp, report):
    """The lift of the coned geodesic of `report`, each shortcut replaced
    by a factor geodesic: the normal-form geodesic sp.geodesic(start, end).

    Returns (PathSeg, (1, 0)).  The path is certified once, by
    is_quasi_geodesic at (1, 0), which takes its geodesic shortcut (from o
    the path records its norms 0, 1, ..., n); a failure raises
    CertificationError with the witness.  A lift from o carries the
    closed-form hook that sp.geodesic attaches there.
    """
    path = sp.geodesic(report.start, report.end)
    check = is_quasi_geodesic(path, 1, 0)
    if not check:
        raise CertificationError("lift of a coned geodesic is not a geodesic",
                                 witness=check.witness)
    return path, (1, 0)


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
    peripheral syllable block, fattened by D on both sides.

    The coset of a block is that of the vertex after its first letter.
    When the letter blocks spell the syllables of the endpoint's normal
    form after those of the start (lifts, axis rays and excursion rays
    do), that vertex is the endpoint's normal form cut before the block's
    syllable, plus one letter; so every representative is a prefix slice
    of the one endpoint tuple, and the letters are swept once.  This holds
    exactly when the endpoint has len(start) + (number of blocks)
    syllables.  Any other path keeps the per-block route: one forward
    sweep that builds the whole vertex after each block's first letter,
    whose cost grows with the square of the syllable count.
    """
    require_relhyp(sp)
    n = len(geodesic)
    blocks = _syllable_blocks(sp, geodesic)
    nf = geodesic.endpoint()
    base = len(nf) - len(blocks)
    peripheral = [(k, b) for k, b in enumerate(blocks) if b[0] in sp.peripheral]
    if base == len(geodesic.start):
        cosets = [PeripheralCoset(factor=i, rep=nf[:base + k])
                  for k, (i, _, _) in peripheral]
    else:
        entries = geodesic.vertices_at(first + 1 for _, (_, first, _) in peripheral)
        cosets = [coset_of(sp, v, i) for (_, (i, _, _)), v in zip(peripheral, entries)]
    return [(max(0, first - int(D)), min(n - 1, last + int(D)), coset)
            for (_, (_, first, last)), coset in zip(peripheral, cosets)]


def deep_components(sp, geodesic, D, R):
    """Maximal (D, R)-deep ranges of a geodesic with their cosets.

    A point is deep when it sits strictly more than R inside a coset run
    (runs clipped by the ends of the path are not trimmed there, matching
    a ray prefix).  Components of distinct cosets are disjoint whenever
    R >= D (asserted), and each lies within the 3D-neighborhood of its
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
    return DeepDecomposition(components=comps, D=D, R=R)


# ---------------------------------------------------------------------------
# excursions

def excursion_ray(sp, syllable_count, sizes):
    """Fixture ray: the geodesic from o to the normal form whose k-th
    syllable (sizes(k), 0, ...) in the first peripheral factor is followed
    by one letter of the first other factor (a size of 0 merges two)."""
    require_relhyp(sp)
    i = sp.peripheral[0]
    zeros = (0,) * (sp.factors[i].d - 1)
    free = next(j for j in range(len(sp.factors)) if j not in sp.peripheral)
    fgen = sp.factors[free].gens[0]
    w = []
    for k in range(1, syllable_count + 1):
        n = int(sizes(k))
        if n > 0:
            w.append((i, (n,) + zeros))
        sp._push_syllable(w, (free, fgen))
    return sp.geodesic(sp.identity, tuple(w))


def excursion_profile(sp, gamma, D0, kappa):
    """Excursion table of a geodesic prefix: one row per peripheral coset
    met by its D0-neighborhood, with the fitted E_gamma and a verdict.

    Rows are (coset, excursion diameter, coned norm of the coset, ratio
    excursion / kappa(coned norm)); E_gamma is the max ratio and the
    verdict passes iff the ratio envelope is stable across dyadic bands of
    the coned norm.

    d_Ghat(o, P) is the coned norm of P's minimal representative, whose
    last syllable is never in P's factor.  The representatives of
    coset_runs on a normal-form path are growing prefixes of one tuple, so
    one running sum of coned syllable costs over it prices them all; a
    representative that does not extend the previous one (the fallback
    route of coset_runs) restarts the sum.
    """
    costs = sp.coned_costs
    prev, sums = (), [0]   # sums[k]: coned norm of prev[:k]
    rows = []
    for a, b, coset in coset_runs(sp, gamma, D0):
        # run endpoints on a geodesic realize the diameter
        exc = gamma.dist_between(a, b)
        rep = coset.rep
        if rep[:len(prev)] != prev:
            prev, sums = (), [0]
        for i, e in rep[len(prev):]:
            sums.append(sums[-1] + costs[i](e))
        prev = rep
        cn = sums[len(rep)]
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
    acc = sp.right_acc(sp.mul(sp.inv(x), path.start), costs=sp.coned_costs)
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
    tests, so the coset runs and the gamma vertex list are computed once
    here.  A run contributes its excursion segment when its coset sits
    within coned distance R1 of pi_gamma(x) (_coset_dists).
    """

    def __init__(self, sp, gamma, constants):
        require_relhyp(sp)
        self.sp = sp
        self.gamma = gamma
        self.constants = constants
        self.runs = coset_runs(sp, gamma, constants.D0)
        self._verts = gamma.vertex_list()
        # the run representatives are prefixes of the endpoint's normal
        # form on the paths coset_runs sweeps once; _sums[m] is the coned
        # norm of its first m syllables
        self._nf = nf = gamma.endpoint()
        self._sums = list(itertools.accumulate(
            (sp.coned_costs[i](e) for i, e in nf), initial=0))
        self._prefix = [P.rep == nf[:len(P.rep)] for _, _, P in self.runs]

    def _coset_dists(self, v):
        """d_Ghat(v, P), as coned_dist_to_coset prices it, for the coset P
        of each run.  For P.rep = nf[:m], with v sharing J leading
        syllables with nf: when m <= J, rep^-1 v is v[m:], less its entry
        syllable; otherwise it is nf[J:m]^-1 v[J:], whose two facing
        syllables merge when they share a factor, whatever m is.  So one
        running coned sum over v and the sums of nf price every run."""
        sp, costs, nf, sums = self.sp, self.sp.coned_costs, self._nf, self._sums
        J = _shared(nf, v)
        run = list(itertools.accumulate((costs[i](e) for i, e in v), initial=0))
        rest = run[-1] - run[J]
        if J < len(nf) and J < len(v) and nf[J][0] == v[J][0]:
            (i, u), (_, w) = nf[J], v[J]
            f = sp.factors[i]
            rest += costs[i](f.mul(f.inv(u), w)) - costs[i](u) - costs[i](w)
        out = []
        for (_, _, P), prefix in zip(self.runs, self._prefix):
            m = len(P.rep)
            if not prefix:
                out.append(coned_dist_to_coset(sp, v, P))
            elif m > J:
                out.append(sums[m] - sums[J] + rest)
            elif m < len(v) and v[m][0] == P.factor:
                out.append(run[-1] - run[m + 1])
            else:
                out.append(run[-1] - run[m])
        return out

    def project(self, x):
        j = coned_nearest_index(self.sp, self.gamma, x)
        pivot = self._verts[j]
        points = []
        cosets = []
        for (a, b, coset), d in zip(self.runs, self._coset_dists(pivot)):
            if d <= self.constants.R1:
                cosets.append(coset)
                points.extend(self._verts[a:b + 1])
        if not points:
            points = [pivot]
        return BigProjection(points=points, pi_index=j, cosets=cosets)


def big_projection(sp, gamma, x, constants):
    """The coarse projection onto gamma built from peripheral excursions.

    pi_gamma(x) is the coned nearest point; every peripheral coset that
    meets the D0-neighborhood of gamma within coned distance R1 of it
    contributes its whole excursion segment.  With no such coset the
    projection degenerates to {pi_gamma(x)}.
    """
    return ProjectionOracle(sp, gamma, constants).project(x)


def nearest_transition_past(sp, gamma, x, constants):
    """c_{gamma,y}(x): the first transition point of gamma at or past every
    deep component contributed by P_{gamma,x}."""
    bp = big_projection(sp, gamma, x, constants)
    if not bp.cosets:
        return gamma.vertex(bp.pi_index)
    dd = deep_components(sp, gamma, D=constants.D0, R=constants.D0)
    last = max(c.end for c in dd.components if c.coset in bp.cosets)
    for k in dd.transition_indices(len(gamma)):
        if k >= last:
            return gamma.vertex(k)
    raise DomainError("gamma too short: no transition point past the deep "
                      "components feeding the projection")


def test_excursion_contracting(sp, gamma, kappa, samples, seed):
    """Excursion rays should be kappa-weakly contracting under Pi_gamma.

    Preconditions the excursion profile, then runs the generic contraction
    tester with the big projection.  Additionally asserts the coned-level
    bound: sampled pairs x, y with d_G(x, y) <= C1 * d_G(x, gamma) have
    d_Ghat(Pi(x), Pi(y)) bounded (no growth across norm bands).  C1 is
    0.5 and the constants are the space's defaults.
    """
    constants = default_constants(sp)
    _, _, pre = excursion_profile(sp, gamma, constants.D0, kappa)
    if not pre:
        raise PreconditionError(
            f"gamma does not have kappa-excursion for kappa = {kappa.tag}",
            witness=pre.parameters.get("bands"))
    oracle = ProjectionOracle(sp, gamma, constants)
    proj = lambda v: oracle.project(v).points
    C1 = 0.5
    cc, verdict = _morse.test_kappa_contracting(
        sp, gamma, proj, kappa, C1, samples, seed)
    if verdict:
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
