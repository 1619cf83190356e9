"""Independent brute-force oracles used to pin expected values.

Everything here is built from the adjacency relation alone (sp.neighbors),
deliberately avoiding the closed-form norm/distance/projection code under
test.  Slow on purpose.
"""

from collections import deque


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


def naive_coned_dist(sp, x, y, universe, peripherals):
    """BFS in the coned graph restricted to `universe`: ordinary edges plus
    unit-cost jumps between members of one peripheral coset."""
    byc = {}
    for v in universe:
        for i in peripherals:
            byc.setdefault(coset_key(v, i), []).append(v)
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
