"""Proper geodesic metric spaces realized as locally finite graphs.

Every space exposes the same oracle surface: a symmetric neighbor relation,
a base point, an exact norm/distance (closed form where the space admits
one, BFS otherwise), deterministic geodesics, ball enumeration, and
nearest-point projections.  Built-in kinds:

  * ``free_group(k)``   -- the 2k-regular tree (reduced words),
  * ``grid(d)``         -- Z^d with the l^1 word metric,
  * ``free_product(..)``-- free products of the above via syllable normal
                           forms (distance = sum of factor norms),
  * ``loopy_ray(N)``    -- a geodesic ray with a loop of arm length n^2 and
                           span n attached for each 2 <= n <= N.

Group-structured spaces additionally provide right accumulators (w <- w*g
for one generator g in O(1) amortized) so that norms and distances along
long unit-speed paths cost O(length) overall instead of O(length^2).  A
distance d(x, v) is the norm of x^-1 v, so one right sweep started at
x^-1 * (path start) covers every vertex of a letter path.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque

import numpy as np

from .errors import DomainError

DEFAULT_BALL_CAP = 10_000


# ---------------------------------------------------------------------------
# paths

class PathSeg:
    """A finite vertex sequence, optionally a unit-speed graph path.

    For group spaces a unit-speed path is stored as a start vertex plus a
    letter sequence (one generator per edge); vertices are materialized on
    demand.  General paths store their vertices outright; either way
    consecutive vertices are at distance at most 1.  The optional (q, Q)
    fields are a quasi-geodesic certificate attached by the caller once
    is_quasi_geodesic has checked every pair of vertices.
    """

    def __init__(self, sp, vertices=None, start=None, letters=None,
                 q=None, Q=None):
        self.sp = sp
        self.q = q
        self.Q = Q
        self._norms = None
        if letters is not None:
            if start is None:
                start = sp.basepoint
            self.start = start
            self.letters = list(letters)
            self._vertices = None
        else:
            if vertices is None or len(vertices) == 0:
                raise DomainError("a path needs at least one vertex")
            self._vertices = list(vertices)
            self.start = self._vertices[0]
            self.letters = None

    def __len__(self):
        if self._vertices is not None:
            return len(self._vertices)
        return len(self.letters) + 1

    def vertex(self, i):
        if self._vertices is not None:
            return self._vertices[i]
        acc = self.sp.right_acc(self.start)
        for g in self.letters[:i]:
            acc.push(g)
        return acc.value()

    def vertices_at(self, indices):
        """Yield vertex i for each i of the non-decreasing `indices`, all
        from one sweep of the letters (each `vertex(i)` replays i letters)."""
        if self._vertices is not None:
            for i in indices:
                yield self._vertices[i]
            return
        acc = self.sp.right_acc(self.start)
        done = 0
        for i in indices:
            if i < done:
                raise DomainError("vertices_at needs non-decreasing indices")
            for g in self.letters[done:i]:
                acc.push(g)
            done = i
            yield acc.value()

    def dist_between(self, a, b):
        """d(vertex a, vertex b) for a <= b; on a letter path this is the
        norm of the letters between them, so nothing before a is replayed."""
        if self.letters is None:
            return self.sp.dist(self._vertices[a], self._vertices[b])
        acc = self.sp.right_acc()
        for g in self.letters[a:b]:
            acc.push(g)
        return acc.norm

    def vertex_list(self):
        """Materialize all vertices (use sparingly on long paths)."""
        if self._vertices is None:
            out = []
            acc = self.sp.right_acc(self.start)
            out.append(acc.value())
            for g in self.letters:
                acc.push(g)
                out.append(acc.value())
            self._vertices = out
        return self._vertices

    def norms(self):
        """Norm of every vertex, computed in one linear sweep."""
        if self._norms is None:
            if self.letters is not None:
                self._norms = _norms_along(self.sp.right_acc(self.start),
                                           self.letters)
            else:
                self._norms = [self.sp.norm(v) for v in self._vertices]
        return self._norms

    def endpoint(self):
        if self._vertices is not None:
            return self._vertices[-1]
        return self.vertex(len(self.letters))

    def prefix(self, n_vertices):
        """The sub-path on the first n_vertices vertices."""
        if self._vertices is not None:
            return PathSeg(self.sp, vertices=self._vertices[:n_vertices],
                           q=self.q, Q=self.Q)
        return PathSeg(self.sp, start=self.start,
                       letters=self.letters[:n_vertices - 1],
                       q=self.q, Q=self.Q)

    def step_letters(self):
        """Generator letters along the path (derived for vertex-form paths)."""
        if self.letters is not None:
            return list(self.letters)
        vs = self._vertices
        return [self.sp.step_generator(u, v) for u, v in zip(vs, vs[1:])]


# ---------------------------------------------------------------------------
# base classes

class GraphSpace:
    """Base oracle surface; concrete kinds override with closed forms."""

    kind = "abstract"
    is_group = False

    @property
    def basepoint(self):
        raise NotImplementedError

    def neighbors(self, v):
        raise NotImplementedError

    def vertex_key(self, v):
        """Total order on vertices used for every deterministic tie-break."""
        raise NotImplementedError

    def sorted_neighbors(self, v):
        return sorted(self.neighbors(v), key=self.vertex_key)

    def norm(self, v):
        return self.dist(self.basepoint, v)

    def dist(self, x, y):
        raise NotImplementedError

    def ball(self, center, r, cap=DEFAULT_BALL_CAP):
        """Exactly {v : d(center, v) <= r}, by BFS; DomainError beyond cap."""
        seen = {center: 0}
        frontier = deque([center])
        while frontier:
            u = frontier.popleft()
            du = seen[u]
            if du == r:
                continue
            for w in self.neighbors(u):
                if w not in seen:
                    seen[w] = du + 1
                    if len(seen) > cap:
                        raise DomainError(
                            f"ball({r}) exceeds the {cap}-vertex enumeration cap")
                    frontier.append(w)
        return seen

    def geodesic(self, x, y):
        """Deterministic shortest path by greedy descent on the exact metric.

        At each step the lexicographically least neighbor (by vertex_key)
        that decreases d(., y) is taken, so ties always break the same way.
        """
        path = [x]
        cur = x
        d = self.dist(x, y)
        while d > 0:
            for w in self.sorted_neighbors(cur):
                dw = self.dist(w, y)
                if dw == d - 1:
                    cur = w
                    d = dw
                    break
            else:
                raise DomainError("metric oracle inconsistent with neighbors")
            path.append(cur)
        return PathSeg(self, vertices=path, q=1, Q=0)


class GroupSpace(GraphSpace):
    """A Cayley graph: vertices are group elements in canonical form."""

    is_group = True

    @property
    def identity(self):
        raise NotImplementedError

    @property
    def basepoint(self):
        return self.identity

    @property
    def gens(self):
        """Symmetrized generator list, in canonical (tie-break) order."""
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def neighbors(self, v):
        out = []
        for g in self.gens:
            w = self.mul_gen(v, g)
            if w != v:
                out.append(w)
        return out

    def mul_gen(self, v, g):
        return self.mul(v, g)

    def gen_inv(self, g):
        """The inverse of the generator g, as a generator."""
        return self.inv(g)

    def dist(self, x, y):
        return self.norm(self.mul(self.inv(x), y))

    def step_generator(self, u, v):
        """The generator g with v = u*g, for adjacent u, v."""
        for g in self.gens:
            if self.mul_gen(u, g) == v:
                return g
        raise DomainError("vertices are not adjacent")

    class _GenericAcc:
        """Fallback accumulator: tracks the element and re-derives the norm.

        Costs one norm query per push; closed-form spaces override with
        O(1) amortized versions.
        """
        __slots__ = ("sp", "cur", "norm")

        def __init__(self, sp, start):
            self.sp = sp
            self.cur = start
            self.norm = sp.norm(start)

        def push(self, g):
            self.cur = self.sp.mul_gen(self.cur, g)
            self.norm = self.sp.norm(self.cur)

        def value(self):
            return self.cur

    def right_acc(self, start=None):
        return self._GenericAcc(self, start if start is not None else self.identity)


# ---------------------------------------------------------------------------
# free groups

class FreeGroupSpace(GroupSpace):
    """F_k as reduced words; letters are +-1..+-k, vertex = tuple of letters."""

    def __init__(self, k):
        if k < 1:
            raise DomainError(f"free_group needs k >= 1, got {k}")
        self.k = k
        self.kind = f"free_group({k})"
        # canonical generator order: a, a^-1, b, b^-1, ...; generators are
        # one-letter elements so they compose with mul like any element
        letters = tuple(itertools.chain.from_iterable((i, -i) for i in range(1, k + 1)))
        self._gens = tuple((g,) for g in letters)
        self._letter_rank = {g: r for r, g in enumerate(letters)}

    @property
    def identity(self):
        return ()

    @property
    def gens(self):
        return self._gens

    def is_identity(self, x):
        return x == ()

    def mul(self, x, y):
        out = list(x)
        for g in y:
            if out and out[-1] == -g:
                out.pop()
            else:
                out.append(g)
        return tuple(out)

    def mul_gen(self, v, g):
        (letter,) = g
        if v and v[-1] == -letter:
            return v[:-1]
        return v + (letter,)

    def inv(self, x):
        return tuple(-g for g in reversed(x))

    def norm(self, v):
        return len(v)

    def dist(self, x, y):
        # cancel the common prefix, no need to build x^-1 y
        i = 0
        m = min(len(x), len(y))
        while i < m and x[i] == y[i]:
            i += 1
        return (len(x) - i) + (len(y) - i)

    def vertex_key(self, v):
        return (len(v), tuple(self._letter_rank[g] for g in v))

    def step_generator(self, u, v):
        if len(v) == len(u) + 1:
            return (v[-1],)
        if len(u) == len(v) + 1:
            return (-u[-1],)
        raise DomainError("vertices are not adjacent")

    class _RightAcc:
        __slots__ = ("stack",)

        def __init__(self, start):
            self.stack = list(start)

        def push(self, g):
            (letter,) = g
            s = self.stack
            if s and s[-1] == -letter:
                s.pop()
            else:
                s.append(letter)

        @property
        def norm(self):
            return len(self.stack)

        def value(self):
            return tuple(self.stack)

    def right_acc(self, start=None):
        return self._RightAcc(start if start is not None else ())

    def geodesic(self, x, y):
        i = 0
        m = min(len(x), len(y))
        while i < m and x[i] == y[i]:
            i += 1
        letters = [(-g,) for g in reversed(x[i:])] + [(g,) for g in y[i:]]
        return PathSeg(self, start=x, letters=letters, q=1, Q=0)

    def parse_word(self, word):
        """Letters like 'a b A c' (capitals are inverses) -> group element."""
        out = self.right_acc()
        for tok in word.split():
            base = tok.lower()
            idx = ord(base) - ord("a") + 1
            if not (1 <= idx <= self.k) or len(base) != 1:
                raise DomainError(f"unknown generator {tok!r} for {self.kind}")
            out.push((-idx,) if tok.isupper() else (idx,))
        return out.value()


# ---------------------------------------------------------------------------
# grids

class GridSpace(GroupSpace):
    """Z^d with the standard generators; vertex = coordinate tuple."""

    def __init__(self, d):
        if d < 1:
            raise DomainError(f"grid needs d >= 1, got {d}")
        self.d = d
        self.kind = f"grid({d})"
        gens = []
        for i in range(d):
            e = [0] * d
            e[i] = 1
            gens.append(tuple(e))
            e = [0] * d
            e[i] = -1
            gens.append(tuple(e))
        self._gens = tuple(gens)

    @property
    def identity(self):
        return (0,) * self.d

    @property
    def gens(self):
        return self._gens

    def is_identity(self, x):
        return all(c == 0 for c in x)

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def norm(self, v):
        return sum(abs(c) for c in v)

    def dist(self, x, y):
        return sum(abs(a - b) for a, b in zip(x, y))

    def vertex_key(self, v):
        return (self.norm(v), v)

    def step_generator(self, u, v):
        g = tuple(b - a for a, b in zip(u, v))
        if sum(abs(c) for c in g) != 1:
            raise DomainError("vertices are not adjacent")
        return g

    class _Acc:
        __slots__ = ("coords", "norm")

        def __init__(self, start):
            self.coords = list(start)
            self.norm = sum(abs(c) for c in start)

        def push(self, g):
            for i, gi in enumerate(g):
                if gi:
                    c = self.coords[i]
                    self.norm += abs(c + gi) - abs(c)
                    self.coords[i] = c + gi

        def value(self):
            return tuple(self.coords)

    def right_acc(self, start=None):
        return self._Acc(start if start is not None else self.identity)

    def geodesic(self, x, y):
        """Axis-ordered staircase: move coordinate 0 first, then 1, etc."""
        letters = []
        for i in range(self.d):
            delta = y[i] - x[i]
            step = [0] * self.d
            step[i] = 1 if delta > 0 else -1
            letters.extend([tuple(step)] * abs(delta))
        return PathSeg(self, start=x, letters=letters, q=1, Q=0)


# ---------------------------------------------------------------------------
# free products

class FreeProductSpace(GroupSpace):
    """Free product of grid/free-group factors, in syllable normal form.

    A vertex is a tuple of syllables (factor_index, nontrivial factor
    element) with distinct adjacent indices.  The word metric for the union
    of the factor generating sets is the sum of factor norms over syllables,
    which is exactly the graph metric of the Cayley graph.
    """

    def __init__(self, factors):
        if len(factors) < 2:
            raise DomainError("free_product needs at least two factors")
        for f in factors:
            if not isinstance(f, (GridSpace, FreeGroupSpace)):
                raise DomainError(f"unsupported free-product factor {f!r}")
        self.factors = tuple(factors)
        self.kind = "free_product(" + ", ".join(f.kind for f in factors) + ")"
        self._gens = tuple((i, g) for i, f in enumerate(factors) for g in f.gens)
        # per-factor syllable costs of the word metric (see _RightAcc)
        self._word_costs = tuple(f.norm for f in self.factors)

    @property
    def identity(self):
        return ()

    @property
    def gens(self):
        return self._gens

    def is_identity(self, x):
        return x == ()

    def syllable_norm(self, syl):
        i, e = syl
        return self.factors[i].norm(e)

    def mul(self, x, y):
        out = list(x)
        for syl in y:
            self._push_syllable(out, syl)
        return tuple(out)

    def _push_syllable(self, out, syl):
        i, e = syl
        while out and out[-1][0] == i:
            f = self.factors[i]
            merged = f.mul(out.pop()[1], e)
            if f.is_identity(merged):
                return
            i, e = i, merged
            break
        out.append((i, e))

    def mul_gen(self, v, g):
        i, ge = g
        f = self.factors[i]
        if v and v[-1][0] == i:
            merged = f.mul(v[-1][1], ge)
            if f.is_identity(merged):
                return v[:-1]
            return v[:-1] + ((i, merged),)
        return v + ((i, ge),)

    def inv(self, x):
        return tuple((i, self.factors[i].inv(e)) for i, e in reversed(x))

    def gen_inv(self, g):
        i, e = g
        return (i, self.factors[i].inv(e))

    def norm(self, v):
        return sum(self.factors[i].norm(e) for i, e in v)

    def dist(self, x, y):
        # cancel the common syllable prefix directly
        j = 0
        m = min(len(x), len(y))
        while j < m and x[j] == y[j]:
            j += 1
        d = sum(self.syllable_norm(s) for s in x[j:]) \
            + sum(self.syllable_norm(s) for s in y[j:])
        if j < m and x[j][0] == y[j][0]:
            f = self.factors[x[j][0]]
            d -= f.norm(x[j][1]) + f.norm(y[j][1])
            d += f.dist(x[j][1], y[j][1])
        return d

    def vertex_key(self, v):
        return (self.norm(v), tuple((i, self.factors[i].vertex_key(e))
                                    for i, e in v))

    class _RightAcc:
        """w <- w*g on the syllable stack of w, one [factor, element, cost]
        entry per syllable; `norm` is the total cost.

        costs[i] prices a factor-i syllable: the factor norm for the word
        metric, or the coned cost of relhyp.  A single generator costs 1
        under both, which is what a fresh syllable is charged.
        """
        __slots__ = ("factors", "costs", "stack", "norm")

        def __init__(self, sp, start, costs):
            self.factors = sp.factors
            self.costs = costs
            self.stack = [[i, e, costs[i](e)] for i, e in start]
            self.norm = sum(s[2] for s in self.stack)

        def push(self, g):
            i, ge = g
            s = self.stack
            if s and s[-1][0] == i:
                f = self.factors[i]
                top = s[-1]
                merged = f.mul(top[1], ge)
                self.norm -= top[2]
                if f.is_identity(merged):
                    s.pop()
                else:
                    top[1] = merged
                    top[2] = self.costs[i](merged)
                    self.norm += top[2]
            else:
                s.append([i, ge, 1])
                self.norm += 1

        def value(self):
            return tuple((i, e) for i, e, _ in self.stack)

    def right_acc(self, start=None, costs=None):
        """Syllable-stack accumulator; `costs` is a per-factor syllable cost
        table, the word norms unless given."""
        return self._RightAcc(self, start if start is not None else (),
                              costs if costs is not None else self._word_costs)

    def geodesic(self, x, y):
        z = self.mul(self.inv(x), y)
        letters = []
        for i, e in z:
            f = self.factors[i]
            for fg in f.geodesic(f.identity, e).step_letters():
                letters.append((i, fg))
        return PathSeg(self, start=x, letters=letters, q=1, Q=0)

    def parse_word(self, word):
        """Tokens 'f<i>:<gen>' or letters a,b for factor 0 / t for factor 1
        when the layout is the default grid(2) * free_group(1)."""
        acc = self.right_acc()
        shorthand = {}
        if (len(self.factors) == 2 and isinstance(self.factors[0], GridSpace)
                and self.factors[0].d == 2):
            shorthand = {"a": (0, (1, 0)), "A": (0, (-1, 0)),
                         "b": (0, (0, 1)), "B": (0, (0, -1))}
            f1 = self.factors[1]
            if isinstance(f1, FreeGroupSpace) and f1.k == 1:
                shorthand["t"] = (1, (1,))
                shorthand["T"] = (1, (-1,))
        for tok in word.split():
            if tok not in shorthand:
                raise DomainError(f"unknown generator {tok!r} for {self.kind}")
            acc.push(shorthand[tok])
        return acc.value()


# ---------------------------------------------------------------------------
# the loopy ray

class LoopyRaySpace(GraphSpace):
    """A geodesic ray with a loop for each 2 <= n <= N.

    Loop n is a circle of two arms, each of length n^2, attached to the ray
    at positions a_n and a_n + n (span n); the far point of the loop is the
    apex x_n.  Attachments a_2 = 4, a_{n+1} = a_n + n + 2 keep the spans
    disjoint with a one-vertex gap.  Vertices:

        ("r", k)          ray position k >= 0
        ("x", n)          apex of loop n
        ("a", n, s, j)    arm vertex, side s in {0,1}, 1 <= j <= n^2 - 1,
                          j = distance from the foot on that side
    """

    def __init__(self, N):
        if N < 2:
            raise DomainError(f"loopy_ray needs N >= 2, got {N}")
        self.N = N
        self.kind = f"loopy_ray({N})"
        self.attach = {}
        a = 4
        for n in range(2, N + 1):
            self.attach[n] = a
            a = a + n + 2
        self._foot = {}
        for n, an in self.attach.items():
            self._foot[an] = (n, 0)
            self._foot[an + n] = (n, 1)

    @property
    def basepoint(self):
        return ("r", 0)

    def apex(self, n):
        if not 2 <= n <= self.N:
            raise DomainError(f"no loop {n} in {self.kind}")
        return ("x", n)

    def ray_prefix(self, length):
        """The underlying geodesic ray gamma up to position `length`."""
        seg = PathSeg(self, vertices=[("r", k) for k in range(length + 1)],
                      q=1, Q=0)
        seg.dist_fn = lambda v: self._dist_to_ray(v, length)
        return seg

    def neighbors(self, v):
        out = []
        if v[0] == "r":
            k = v[1]
            if k > 0:
                out.append(("r", k - 1))
            out.append(("r", k + 1))
            if k in self._foot:
                n, side = self._foot[k]
                out.append(("a", n, side, 1))
        elif v[0] == "x":
            n = v[1]
            out.append(("a", n, 0, n * n - 1))
            out.append(("a", n, 1, n * n - 1))
        else:
            _, n, side, j = v
            an = self.attach[n]
            foot = ("r", an if side == 0 else an + n)
            out.append(foot if j == 1 else ("a", n, side, j - 1))
            out.append(("x", n) if j == n * n - 1 else ("a", n, side, j + 1))
        return out

    def _portals(self, v):
        """(ray position, cost) pairs through which v reaches the ray."""
        if v[0] == "r":
            return ((v[1], 0),)
        if v[0] == "x":
            n = v[1]
            an = self.attach[n]
            nn = n * n
            return ((an, nn), (an + n, nn))
        _, n, side, j = v
        an = self.attach[n]
        nn = n * n
        if side == 0:
            return ((an, j), (an + n, 2 * nn - j))
        return ((an, 2 * nn - j), (an + n, j))

    @staticmethod
    def _loop_coord(v):
        """Position along the loop circle, measured from foot 0."""
        if v[0] == "x":
            return v[1] * v[1]
        _, n, side, j = v
        return j if side == 0 else 2 * n * n - j

    def _loop_index(self, v):
        return v[1] if v[0] in ("x", "a") else None

    def dist(self, x, y):
        nx, ny = self._loop_index(x), self._loop_index(y)
        best = None
        if nx is not None and nx == ny:
            # direct route around the loop circle (the span side is covered
            # by the portal route below)
            best = abs(self._loop_coord(x) - self._loop_coord(y))
        for (px, cx) in self._portals(x):
            for (py, cy) in self._portals(y):
                d = cx + abs(px - py) + cy
                if best is None or d < best:
                    best = d
        return best

    def norm(self, v):
        return min(c + p for p, c in self._portals(v))

    def _dist_to_ray(self, v, length):
        best = None
        for p, c in self._portals(v):
            d = c + max(0, p - length)
            if best is None or d < best:
                best = d
        return best

    def vertex_key(self, v):
        return (self.norm(v), v)


# ---------------------------------------------------------------------------
# spec parsing and the operation layer

def build_space(spec):
    """Instantiate a space from a spec string or pass through an instance.

    Grammar: ``free_group(k)``, ``grid(d)``, ``loopy_ray(N)``,
    ``free_product(<spec>, <spec>, ...)``.
    """
    if isinstance(spec, GraphSpace):
        return spec
    s = spec.strip()
    head, _, rest = s.partition("(")
    head = head.strip()
    if not rest.endswith(")"):
        raise DomainError(f"malformed space spec {spec!r}")
    body = rest[:-1].strip()
    if head == "free_group":
        return FreeGroupSpace(int(body))
    if head == "grid":
        return GridSpace(int(body))
    if head == "loopy_ray":
        return LoopyRaySpace(int(body))
    if head == "free_product":
        parts = _split_args(body)
        return FreeProductSpace([build_space(p) for p in parts])
    raise DomainError(f"unknown space kind {head!r}")


def _split_args(body):
    parts, depth, cur = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            depth += ch == "("
            depth -= ch == ")"
            cur.append(ch)
    if cur:
        parts.append("".join(cur).strip())
    return parts


def enumerate_target(sp, Z):
    """The vertex list behind a projection target (PathSeg or iterable)."""
    if isinstance(Z, PathSeg):
        return Z.vertex_list()
    return list(Z)


def _norms_along(acc, letters):
    """acc.norm before and after pushing each letter, in order."""
    out = [acc.norm]
    for g in letters:
        acc.push(g)
        out.append(acc.norm)
    return out


def distances_along_path(sp, x, path):
    """d(x, v) for every vertex v of `path`, in one linear sweep.

    On group spaces d(x, v) = ||x^-1 v|| and x^-1 (v g) = (x^-1 v) g, so a
    right accumulator started at x^-1 * path.start and pushed with each
    letter of the path reads off every distance.  Other paths and spaces
    fall back to one distance query per vertex.
    """
    if sp.is_group and isinstance(path, PathSeg) and path.letters is not None:
        return _norms_along(sp.right_acc(sp.mul(sp.inv(x), path.start)),
                            path.letters)
    vs = path.vertex_list() if isinstance(path, PathSeg) else list(path)
    return [sp.dist(x, v) for v in vs]


def distance_to_set(sp, x, Z):
    """Exact d(x, Z); honors a closed-form `dist_fn` on PathSeg targets."""
    fn = getattr(Z, "dist_fn", None)
    if fn is not None:
        return fn(x)
    ds = distances_along_path(sp, x, Z)
    if not ds:
        raise DomainError("empty projection target")
    return min(ds)


def nearest_point_projection(sp, x, Z):
    """The full argmin set of d(x, .) over Z, sorted deterministically."""
    vs = enumerate_target(sp, Z)
    if not vs:
        raise DomainError("empty projection target")
    ds = distances_along_path(sp, x, Z if isinstance(Z, PathSeg) else vs)
    best = min(ds)
    out = sorted({v for v, d in zip(vs, ds) if d == best}, key=sp.vertex_key)
    return out


class QGCheck:
    """Result of a quasi-geodesic certification."""

    def __init__(self, ok, witness=None, margin=0.0):
        self.ok = ok
        self.witness = witness  # (s, t, d) of the worst violating pair
        self.margin = margin    # worst slack (negative margin == violation)

    def __bool__(self):
        return self.ok


def path_metric(path):
    """The metric on the vertices of `path` as a vectorized kernel:
    dist(s, t) maps index arrays s, t to the array of d(v_s, v_t).

    Free groups and free products read the path into a tree once
    (_PathTree); grids take l^1 norms of coordinate differences; every
    other space asks sp.dist pair by pair.
    """
    sp = path.sp
    if isinstance(sp, (FreeGroupSpace, FreeProductSpace)):
        return _PathTree(path).dist
    if isinstance(sp, GridSpace):
        if path.letters is not None:
            xs = np.cumsum(np.array([path.start, *path.letters],
                                    dtype=np.int64), axis=0)
        else:
            xs = np.array(path.vertex_list(), dtype=np.int64)
        return lambda s, t: np.abs(xs[s] - xs[t]).sum(axis=1)
    vs = path.vertex_list()
    return lambda s, t: np.array(
        [sp.dist(vs[i], vs[j]) for i, j in zip(s.tolist(), t.tolist())],
        dtype=np.int64)


class _PathTree:
    """The vertices a free-group or free-product path visits, as a tree
    rooted at the path start.

    Write u_t = v_0^-1 v_t.  A node is a normal-form prefix of some u_t,
    one free-group letter (weight 1) or one whole grid syllable (weight its
    l^1 norm) longer than its parent.  Every prefix of a vertex the path
    reaches is reached before it (the Cayley graph is a tree of factor
    graphs glued at cut points), so for the nodes a, b of v_s, v_t

        d(v_s, v_t) = depth(a) + depth(b) - 2 depth(lca(a, b)),

    depths weighted, except where the children of the LCA towards a and b
    are two grid syllables x, y of one factor: the factor route between
    them is |x - y|_1, not |x|_1 + |y|_1.  Weights are positive, so the
    LCA is the shallowest node of the Euler tour between a and b (Bender
    and Farach-Colton, "The LCA problem revisited", 2000), read off sparse
    tables; the tour steps just before its first and just after its last
    visit there are the two children.  The least depth along the path
    itself is no LCA: a path can climb above it and come back.
    """

    def __init__(self, path):
        sp = path.sp
        factors = (sp,) if isinstance(sp, FreeGroupSpace) else sp.factors
        grid = [isinstance(f, GridSpace) for f in factors]
        parent, factor, elem, depth = [0], [-1], [None], [0]
        child = {}
        cur = 0
        at = [cur]  # node of each path vertex
        for g in path.step_letters():
            i, e = (0, g) if len(factors) == 1 else g
            base = cur
            if grid[i]:
                if factor[cur] == i:
                    base = parent[cur]
                    e = tuple(a + b for a, b in zip(elem[cur], e))
                if not any(e):
                    cur = base
                    at.append(cur)
                    continue
            else:
                (e,) = e
                if factor[cur] == i and elem[cur] == -e:
                    cur = parent[cur]
                    at.append(cur)
                    continue
            cur = child.get((base, i, e))
            if cur is None:
                cur = child[(base, i, e)] = len(parent)
                parent.append(base)
                factor.append(i)
                elem.append(e)
                depth.append(depth[base]
                             + (sum(map(abs, e)) if grid[i] else 1))
            at.append(cur)

        # Euler tour of the node tree, children in age order (a node is
        # always younger than its parent): a node's subtree takes 2 size - 1
        # steps from its first visit, then the tour is back at its parent.
        # Flat arrays, and no lookup table, keep the peak memory down.
        del child
        at = np.array(at, dtype=np.int64)
        n_nodes = len(parent)
        size = array("q", [1]) * n_nodes
        for v in range(n_nodes - 1, 0, -1):
            size[parent[v]] += size[v]
        first, free = array("q", [0]) * n_nodes, array("q", [1]) * n_nodes
        for v in range(1, n_nodes):
            u = parent[v]
            first[v] = first[u] + free[u]
            free[u] += 2 * size[v]
        del free
        parent, size, first = np.array(parent), np.array(size), np.array(first)
        node_depth = np.array(depth, dtype=np.int64)
        self.tour = np.empty(2 * len(parent) - 1, dtype=np.int64)
        self.tour[first] = np.arange(len(parent))
        self.tour[first[1:] + 2 * size[1:] - 1] = parent[1:]
        self.key = node_depth[self.tour]
        self.lg = np.zeros(len(self.tour) + 1, dtype=np.int64)
        for k in range(1, len(self.tour).bit_length()):
            self.lg[1 << k:] += 1
        self.left = _argmin_table(self.key, leftmost=True)
        self.pos = first[at]
        self.vdepth = node_depth[at]
        self.swaps = any(grid[i] for i in set(factor[1:]))
        if self.swaps:
            self.right = _argmin_table(self.key, leftmost=False)
            self.node_depth = node_depth
            self.grid_node = np.array([i >= 0 and grid[i] for i in factor])
            self.factor = np.array(factor, dtype=np.int64)
            dims = max(f.d for f, is_grid in zip(factors, grid) if is_grid)
            self.coords = np.zeros((len(parent), dims), dtype=np.int64)
            for v, (i, e) in enumerate(zip(factor, elem)):
                if i >= 0 and grid[i]:
                    self.coords[v, :len(e)] = e

    def _argmin(self, table, leftmost, lo, hi):
        k = self.lg[hi - lo + 1]
        a, b = table[k, lo], table[k, hi - (1 << k) + 1]
        ka, kb = self.key[a], self.key[b]
        return np.where(ka <= kb if leftmost else ka < kb, a, b)

    def dist(self, s, t):
        ps, pt = self.pos[s], self.pos[t]
        lo, hi = np.minimum(ps, pt), np.maximum(ps, pt)
        p = self._argmin(self.left, True, lo, hi)
        d = self.vdepth[s] + self.vdepth[t] - 2 * self.key[p]
        if self.swaps:
            r = self._argmin(self.right, False, lo, hi)
            a, b = self.tour[p - 1], self.tour[np.minimum(r + 1, hi)]
            sw = (p > lo) & (r < hi) & (self.factor[a] == self.factor[b]) \
                & self.grid_node[a]
            if sw.any():
                a, b, lca = a[sw], b[sw], self.key[p[sw]]
                d[sw] += np.abs(self.coords[a] - self.coords[b]).sum(axis=1) \
                    - (self.node_depth[a] + self.node_depth[b] - 2 * lca)
        return d


def _argmin_table(key, leftmost):
    """Sparse table: row k, column i holds the position of the least key in
    key[i : i + 2^k] (the leftmost or the rightmost one on ties)."""
    m = len(key)
    table = np.zeros((m.bit_length(), m), dtype=np.int32)
    table[0] = np.arange(m)
    k, h = 1, 1
    while 2 * h <= m:
        a, b = table[k - 1, :m - 2 * h + 1], table[k - 1, h:m - h + 1]
        ka, kb = key[a], key[b]
        table[k, :m - 2 * h + 1] = np.where(ka <= kb if leftmost else ka < kb,
                                            a, b)
        k, h = k + 1, 2 * h
    return table


def is_quasi_geodesic(path, q, Q):
    """Check (1/q)|s-t| - Q <= d(path(s), path(t)) <= q|s-t| + Q over every
    pair of vertices, exactly, at any length.

    Consecutive vertices must be at most 1 apart (DomainError otherwise),
    so d(v_s, v_t) <= t - s and the upper bound always holds; the margin is
    the least lo(s, t) = d(v_s, v_t) - ((t - s)/q - Q) over s < t, and the
    witness (s, t, d) of a failure is the lexicographically first pair
    attaining it, as an all-pairs loop would report.

    A geodesic path (d(v_0, v_{n-1}) = n - 1) has d = t - s for every
    pair, so its least slack is at t - s = 1.  Otherwise, since
    lo(s, t + j) >= lo(s, t) - j(1 + 1/q), all anchors s advance together
    in numpy rounds, each jumping to the first t whose bound can still
    reach the least slack seen so far.  A skipped pair is strictly above
    that, so no pair that could tie the minimum is missed, and a round
    holds one pair per anchor.
    """
    if q < 1 or Q < 0:
        raise DomainError(f"need q >= 1 and Q >= 0, got ({q}, {Q})")
    n = len(path)
    if n <= 1:
        return QGCheck(True, margin=float("inf"))
    dist = path_metric(path)
    S = np.arange(n - 1)
    T = S + 1
    d = dist(S, T)
    if d.max() > 1:
        s = int(np.argmax(d > 1))
        raise DomainError(f"path vertices {s} and {s + 1} are "
                          f"{int(d[s])} apart")
    if dist(S[:1], np.array([n - 1]))[0] == n - 1:
        return QGCheck(True, margin=float(1 - (1 / q - Q)))

    worst, witness = float("inf"), None
    reach = 1 + 1 / q
    while True:
        lo = d - ((T - S) / q - Q)
        i = int(np.argmin(lo))
        if lo[i] < worst or lo[i] == worst and (S[i], T[i]) < witness[:2]:
            worst = float(lo[i])
            witness = (int(S[i]), int(T[i]), int(d[i]))
        T = T + np.maximum(1, np.ceil((lo - worst) / reach - 1e-9)
                           ).astype(np.int64)
        keep = T < n
        S, T = S[keep], T[keep]
        if not S.size:
            break
        d = dist(S, T)
    ok = worst >= -1e-9
    return QGCheck(ok, witness=None if ok else witness, margin=worst)


def first_time_at_norm(path, r):
    """Least index t with ||path(t)|| == r; DomainError if never attained."""
    for i, nv in enumerate(path.norms()):
        if nv == r:
            return i
    raise DomainError(f"path never attains norm {r}")


def change_generators(sp, new_gens, radius=8, cap=200_000):
    """Compare the word metrics of two generating sets of the same group.

    Returns (wrapped space, measured (k, K)) where k is the worst mutual
    distortion max(d_old/d_new, d_new/d_old) over the radius-`radius` ball
    of the original graph.  new_gens must generate: BFS in the new graph
    has to reach every old generator.
    """
    if not isinstance(sp, (FreeGroupSpace, GridSpace)):
        raise DomainError("change_generators supports free_group and grid kinds")
    closure = set(new_gens) | {sp.inv(g) for g in new_gens}
    wrapped = _RegeneratedSpace(sp, sorted(closure, key=sp.vertex_key))
    probe = wrapped.ball(sp.identity, 2 * max(sp.norm(g) for g in closure) + 2,
                         cap=cap)
    for g in sp.gens:
        if g not in probe:
            raise DomainError("new set does not generate (old generator "
                              f"{g!r} unreachable at small radius)")
    old_ball = sp.ball(sp.identity, radius, cap=cap)
    k = 1.0
    for v, d_old in old_ball.items():
        if v == sp.identity:
            continue
        d_new = wrapped.norm(v)
        k = max(k, d_old / d_new, d_new / d_old)
    return wrapped, (k, 0)


class _RegeneratedSpace(GroupSpace):
    """The same group with a different symmetric generating set.

    There is no closed form for distances here; they are computed by
    memoized bidirectional BFS, which stays cheap at the small radii these
    comparison spaces are used at.
    """

    def __init__(self, base, gens):
        self.base = base
        self._gens = tuple(gens)
        self.kind = base.kind + "+regen"
        self._norm_memo = {base.identity: 0}

    @property
    def identity(self):
        return self.base.identity

    @property
    def gens(self):
        return self._gens

    def mul(self, x, y):
        return self.base.mul(x, y)

    def inv(self, x):
        return self.base.inv(x)

    def vertex_key(self, v):
        return self.base.vertex_key(v)

    def dist(self, x, y, budget=300_000):
        return self.norm(self.mul(self.inv(x), y), budget=budget)

    def norm(self, v, budget=300_000):
        got = self._norm_memo.get(v)
        if got is not None:
            return got
        # level-synchronized bidirectional BFS between identity and v;
        # keep expanding until the two explored radii certify the minimum
        side_a = {self.identity: 0}
        side_b = {v: 0}
        fa, fb = [self.identity], [v]
        depth_a = depth_b = 0
        best = None
        while True:
            if best is not None and depth_a + depth_b + 1 >= best:
                break
            if not fa and not fb:
                raise DomainError("unreachable vertex")
            if (len(fa) <= len(fb) and fa) or not fb:
                side, other, frontier = side_a, side_b, fa
                depth_a += 1
                depth = depth_a
            else:
                side, other, frontier = side_b, side_a, fb
                depth_b += 1
                depth = depth_b
            nxt = []
            for u in frontier:
                for g in self._gens:
                    w = self.mul(u, g)
                    if w in other:
                        cand = depth + other[w]
                        if best is None or cand < best:
                            best = cand
                    if w not in side:
                        side[w] = depth
                        nxt.append(w)
            frontier[:] = nxt
            if len(side_a) + len(side_b) > budget:
                raise DomainError("distance BFS budget exceeded")
            if depth_a + depth_b > 64:
                raise DomainError("distance search too deep")
        self._norm_memo[v] = best
        return best


def self_check(sp, radius=4, cap=DEFAULT_BALL_CAP, rng=None):
    """Light invariant audit on a small ball: symmetry of the neighbor
    relation, metric axioms on sampled triples, and norm consistency."""
    import random
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


# ---------------------------------------------------------------------------
# axis rays with fast distance oracles

def axis_ray(sp, length, gen=None):
    """The ray g, g^2, ..., g^length as a PathSeg with fast distance oracles.

    `gen` defaults to the first generator.  The returned path carries
    ``dist_fn(x)`` (exact distance from a vertex to the ray prefix) on free
    groups, grids and free products, and ``dist_along(path)`` (the same for
    every vertex of a path, without a sweep over the ray per vertex) on the
    free groups and free products among them.  On grids dist_fn is O(d)
    per vertex, so calling it per vertex is already linear.
    """
    if not sp.is_group:
        raise DomainError("axis_ray needs a group space")
    g = gen if gen is not None else sp.gens[0]
    seg = PathSeg(sp, start=sp.identity, letters=[g] * length, q=1, Q=0)

    if isinstance(sp, FreeGroupSpace):
        letter = g[0]

        def dist_fn(x, _l=letter, _L=length):
            m = 0
            for c in x:
                if c != _l:
                    break
                m += 1
            return len(x) - min(m, _L)

        def dist_along(path, _l=letter, _L=length):
            out = []
            stack = []
            m = 0  # leading run of _l in the current reduced word
            start = path.start
            letters = ([(c,) for c in start] + list(path.letters)
                       if path.letters is not None
                       else [(c,) for c in start] + path.step_letters())
            base = len(start)
            for k, gg in enumerate(letters):
                c = gg[0]
                if stack and stack[-1] == -c:
                    stack.pop()
                    if len(stack) < m:
                        m = len(stack)
                else:
                    if len(stack) == m and c == _l:
                        m += 1
                    stack.append(c)
                if k >= base - 1:
                    out.append(len(stack) - min(m, _L))
            if base == 0:
                out.insert(0, 0)
            return out

        seg.dist_fn = dist_fn
        seg.dist_along = dist_along
        return seg

    if isinstance(sp, FreeProductSpace):
        seg.dist_fn, seg.dist_along = syllable_oracles(seg)
        return seg

    if isinstance(sp, GridSpace):
        axis = next(i for i, c in enumerate(g) if c != 0)
        sign = 1 if g[axis] > 0 else -1

        def dist_fn(x, _L=length):
            along = x[axis] * sign
            off = sum(abs(c) for i, c in enumerate(x) if i != axis)
            if along < 0:
                return off - along
            if along > _L:
                return off + along - _L
            return off

        seg.dist_fn = dist_fn
        return seg

    return seg



def syllable_oracles(Z):
    """(dist_fn, dist_along) in closed form for a free-product path from o
    that reads one normal-form word s_1 ... s_m syllable by syllable, each
    syllable along a factor geodesic (axis rays and the lifts of relhyp
    do); None for any other path.

    Let x = u_1 ... u_k in normal form share exactly c leading syllables
    with s.  Every vertex of Z outside the stretch of s_{c+1} is at least
    as far from x as the vertex s_1 ... s_c, which is at distance
    ||x|| - (|s_1| + ... + |s_c|).  Inside that stretch a vertex
    s_1 ... s_c p is closer only when u_{c+1} lies in the same factor, by
    ||u_{c+1}|| - min_p d(p, u_{c+1}) over the factor geodesic's vertices
    p.  Along a path the shared prefix moves only at the top syllable, so
    each vertex costs one scan of a single syllable of Z, not a sweep of Z.
    """
    sp = Z.sp
    if not isinstance(sp, FreeProductSpace) or Z.letters is None \
            or Z.start != sp.identity:
        return None
    syllables, stretches, before = [], [], [0]
    for i, g in Z.letters:
        f = sp.factors[i]
        if not syllables or syllables[-1][0] != i:
            syllables.append((i, f.identity))
            stretches.append([f.identity])
            before.append(before[-1])
        e = f.mul(syllables[-1][1], g)
        if f.norm(e) != len(stretches[-1]):
            return None  # this syllable is not read along a geodesic
        syllables[-1] = (i, e)
        stretches[-1].append(e)
        before[-1] += 1
    s = tuple(syllables)
    m = len(s)

    def dist_along(path):
        acc = sp.right_acc(path.start)
        stack = acc.stack  # [factor, element, norm] per syllable of x
        c = 0  # how many leading syllables x shares with s
        while c < min(len(stack), m) and (stack[c][0], stack[c][1]) == s[c]:
            c += 1

        def dist():
            d = acc.norm - before[c]
            if c < len(stack) and c < m and stack[c][0] == s[c][0]:
                i, e, n = stack[c]
                d += min(sp.factors[i].dist(p, e) for p in stretches[c]) - n
            return d

        out = [dist()]
        for g in (path.letters if path.letters is not None
                  else path.step_letters()):
            acc.push(g)
            # a push changes only the top syllable
            n = len(stack)
            c = min(c, n - 1) if n else 0
            if n and c == n - 1 and n <= m \
                    and (stack[-1][0], stack[-1][1]) == s[n - 1]:
                c = n
            out.append(dist())
        return out

    def dist_fn(x):
        return dist_along(PathSeg(sp, start=x, letters=()))[0]

    return dist_fn, dist_along
