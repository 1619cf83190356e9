"""Independent brute-force oracles used to pin expected values.

Everything here is built from the adjacency relation alone (sp.neighbors),
deliberately avoiding the closed-form norm/distance/projection code under
test.  Slow on purpose.
"""

import bisect
import itertools
import random
from collections import deque

from coarselab.errors import DomainError
from coarselab.relhyp import coned_norm, coset_of, require_relhyp
from coarselab.seeds import rng_for
from coarselab.space import DEFAULT_BALL_CAP, FreeProductSpace
from coarselab.sublinear import evaluate


def bfs_ball(sp, center, radius):
    """vertex -> graph distance from center, for the whole radius ball."""
    seen = {center: 0}
    frontier = deque([center])
    while frontier:
        u = frontier.popleft()
        du = seen[u]
        if du == radius:
            continue
        for w in sp.neighbors(u):
            if w not in seen:
                seen[w] = du + 1
                frontier.append(w)
    return seen


def bfs_dist(sp, x, y, cap=10 ** 6):
    if x == y:
        return 0
    seen = {x: 0}
    frontier = deque([x])
    while frontier:
        u = frontier.popleft()
        for w in sp.neighbors(u):
            if w == y:
                return seen[u] + 1
            if w not in seen:
                seen[w] = seen[u] + 1
                frontier.append(w)
        if len(seen) > cap:
            raise RuntimeError("bfs_dist cap exceeded")
    raise RuntimeError("not connected")


def bidirectional_bfs_dist(sp, x, y):
    """d(x, y) by BFS from both ends, one whole layer at a time on the
    smaller frontier.  With the two sides explored to depths a and b, a
    shortest path longer than a + b passes a vertex at depth a + 1 from x
    that the other side has seen, so the first layer that reaches the
    other side holds the distance: the least of its meeting sums."""
    if x == y:
        return 0
    seen, frontiers = ({x: 0}, {y: 0}), ([x], [y])
    while frontiers[0] and frontiers[1]:
        k = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        mine, other = seen[k], seen[1 - k]
        best, nxt = None, []
        for u in frontiers[k]:
            du = mine[u] + 1
            for w in sp.neighbors(u):
                if w in other and (best is None or du + other[w] < best):
                    best = du + other[w]
                if w not in mine:
                    mine[w] = du
                    nxt.append(w)
        if best is not None:
            return best
        frontiers[k][:] = nxt
    raise RuntimeError("not connected")


def self_check(sp, radius=4, cap=DEFAULT_BALL_CAP, rng=None):
    """Light invariant audit on a small ball: symmetry of the neighbor
    relation, metric axioms on sampled triples, and norm consistency."""
    rng = rng or random.Random(0)
    b = sp.ball(sp.basepoint, radius, cap=cap)
    verts = sorted(b, key=sp.vertex_key)
    for v in verts:
        for w in sp.neighbors(v):
            assert v in sp.neighbors(w), f"asymmetric edge {v!r} ~ {w!r}"
        assert sp.norm(v) == b[v], f"norm mismatch at {v!r}"
    for _ in range(200):
        x, y, z = (rng.choice(verts) for _ in range(3))
        dxy, dyx = sp.dist(x, y), sp.dist(y, x)
        assert dxy == dyx, f"asymmetric metric on {x!r}, {y!r}"
        assert sp.dist(x, z) <= dxy + sp.dist(y, z), "triangle inequality"
        assert (dxy == 0) == (x == y)
    return True


def all_pairs_quasi_geodesic(sp, vertices, q, Q):
    """(ok, margin, witness) of the (q, Q)-quasi-geodesic inequalities over
    every index pair s < t, in order, keeping the first pair of least slack.

    Distances come from sp.dist (pinned to BFS by test_space); the point
    here is the exhaustive loop, not the metric.
    """
    worst, witness = float("inf"), None
    for s in range(len(vertices)):
        for t in range(s + 1, len(vertices)):
            d = sp.dist(vertices[s], vertices[t])
            slack = min(q * (t - s) + Q - d, d - ((t - s) / q - Q))
            if slack < worst:
                worst, witness = slack, (s, t, d)
    ok = worst >= -1e-9
    return ok, worst, None if ok else witness


def sweep_projection(sp, x, vertices):
    """The argmin set of sp.dist(x, .) over `vertices`, sorted by
    sp.vertex_key: a nearest-point projection by one distance per target
    vertex."""
    ds = [sp.dist(x, v) for v in vertices]
    best = min(ds)
    return sorted({v for v, d in zip(vertices, ds) if d == best},
                  key=sp.vertex_key)


# ---------------------------------------------------------------------------
# random walks, stepped by group multiplication

def step_draws(seed, m, cum):
    """Step-table indices of the first m draws of random.Random(seed): one
    random() call each, placed by bisect_left on the running sums `cum`
    (len(cum) for a draw past the last sum)."""
    rng = random.Random(seed)
    return [bisect.bisect_left(cum, rng.random()) for _ in range(m)]


def walk_positions(sp, mu, n, seed):
    """[w_0, ..., w_n] of the walk with step measure mu seeded by `seed`.

    One random.Random(seed) draw per step picks a support element by
    bisect_left on the running sums of the probabilities, and one sp.mul
    multiplies it on the right.  A free-product generator letter is the
    one-syllable element it spells.
    """
    rng = random.Random(seed)
    elements = [(e,) if isinstance(sp, FreeProductSpace) and e in sp.gens
                else e for e, _ in mu.support]
    sums = list(itertools.accumulate(p for _, p in mu.support))
    out = [sp.identity]
    for _ in range(n):
        i = min(bisect.bisect_left(sums, rng.random()), len(sums) - 1)
        out.append(sp.mul(out[-1], elements[i]))
    return out


def random_pairs(sp, count, radius, seed):
    """The runner's distance-formula sample: pair i draws, from
    rng_for(seed, 13, i), a step count in [0, radius] and then one
    generator per step for each of its two walks, and each step is one
    sp.mul by that generator."""
    pairs = []
    for i in range(count):
        rng = rng_for(seed, 13, i)
        ends = []
        for _ in range(2):
            w = sp.identity
            for _ in range(rng.randint(0, radius)):
                g = rng.choice(sp.gens)
                w = sp.mul(w, (g,) if isinstance(sp, FreeProductSpace) else g)
            ends.append(w)
        pairs.append(tuple(ends))
    return pairs


# ---------------------------------------------------------------------------
# free-product cosets, reimplemented from the definition

def grid_factor_indices(sp):
    """Indices of factors that are grids of dimension >= 2."""
    out = []
    for i, f in enumerate(sp.factors):
        if f.kind.startswith("grid(") and f.d >= 2:
            out.append(i)
    return out


def coset_key(v, i):
    """(i, prefix) identifying the i-coset of v: strip one trailing
    i-syllable if present."""
    if v and v[-1][0] == i:
        return (i, v[:-1])
    return (i, v)


def coset_members(sp, i, prefix, universe):
    """All universe vertices lying in the coset prefix * factor_i."""
    return [v for v in universe if coset_key(v, i) == (i, prefix)]


def coset_runs_by_block(sp, path, D):
    """relhyp.coset_runs by its definition: one run per maximal block of
    peripheral letters, fattened by D and clipped to the path, whose coset
    is that of the vertex after the block's first letter.  Every such
    vertex is replayed from the start of the path."""
    pers = sp.peripheral
    letters = path.step_letters()
    n = len(path)
    runs = []
    first = 0
    while first < len(letters):
        i = letters[first][0]
        last = first
        while last < len(letters) and letters[last][0] == i:
            last += 1
        if i in pers:
            runs.append((max(0, first - int(D)), min(n - 1, last + int(D)),
                         coset_of(sp, path.vertex(first + 1), i)))
        first = last
    return runs


def excursion_rows_by_block(sp, path, D0, kappa):
    """The rows of relhyp.excursion_profile by their definition: the
    distance between the ends of each run of coset_runs_by_block, and the
    coned norm of its coset representative from relhyp.coned_norm."""
    rows = []
    for a, b, coset in coset_runs_by_block(sp, path, D0):
        exc = sp.dist(path.vertex(a), path.vertex(b))
        cn = coned_norm(sp, coset.rep)
        rows.append((coset, exc, cn, exc / evaluate(kappa, cn)))
    return rows


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
        for i in sp.peripheral:
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


def _coset_members(universe, peripherals):
    """coset_key -> the members of `universe` in that peripheral coset."""
    byc = {}
    for v in universe:
        for i in peripherals:
            byc.setdefault(coset_key(v, i), []).append(v)
    return byc


def naive_coned_dist(sp, x, y, universe, peripherals):
    """BFS in the coned graph restricted to `universe`: ordinary edges plus
    unit-cost jumps between members of one peripheral coset."""
    byc = _coset_members(universe, peripherals)
    uni = set(universe)
    seen = {x: 0}
    frontier = deque([x])
    while frontier:
        u = frontier.popleft()
        if u == y:
            return seen[u]
        nxt = [w for w in sp.neighbors(u) if w in uni]
        for i in peripherals:
            nxt.extend(byc.get(coset_key(u, i), ()))
        for w in nxt:
            if w != u and w not in seen:
                seen[w] = seen[u] + 1
                frontier.append(w)
    raise RuntimeError("not coned-connected inside the universe")


class NaiveConedBFS:
    """The coned graph of naive_coned_dist with its coset map built once:
    distances_from(x) is one BFS that answers every pair (x, y) at once."""

    def __init__(self, sp, universe, peripherals):
        self.sp = sp
        self.peripherals = peripherals
        self.universe = set(universe)
        self.byc = _coset_members(universe, peripherals)

    def distances_from(self, x):
        seen = {x: 0}
        frontier = deque([x])
        while frontier:
            u = frontier.popleft()
            nxt = [w for w in self.sp.neighbors(u) if w in self.universe]
            for i in self.peripherals:
                nxt.extend(self.byc.get(coset_key(u, i), ()))
            for w in nxt:
                if w != u and w not in seen:
                    seen[w] = seen[u] + 1
                    frontier.append(w)
        return seen


def brute_coset_projection(sp, x, i, prefix, reach):
    """argmin of d(x, .) over the coset prefix * factor_i, by brute
    enumeration of factor elements with norm <= reach."""
    f = sp.factors[i]
    members = []
    ball = bfs_ball(f, f.identity, reach)
    for e in ball:
        if e == f.identity:
            members.append(prefix)
        else:
            members.append(sp.mul(prefix, ((i, e),)))
    best = None
    arg = []
    for p in members:
        d = sp.dist(x, p)
        if best is None or d < best:
            best, arg = d, [p]
        elif d == best:
            arg.append(p)
    return sorted(arg, key=sp.vertex_key), best


# ---------------------------------------------------------------------------
# sublinear-function oracles

def brute_estimation_constant(fn, c, ts):
    """sup over the grid of f(t + c f(t)) / f(t)."""
    best, arg = 0.0, 0.0
    for t in ts:
        v = fn(t + c * fn(t)) / fn(t)
        if v > best:
            best, arg = v, t
    return best, arg


def staircase(t):
    """2^floor(log2(1+t)), clipped to >= 1: a canonical non-concave input."""
    import math
    return max(1.0, 2.0 ** math.floor(math.log2(1.0 + t)))
