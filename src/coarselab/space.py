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
for one generator g) so that norms and distances along long unit-speed
paths cost O(length) overall instead of O(length^2): free groups and free
products keep a stack in O(1) amortized per push, and every other group
space, grids included, uses the generic one (GroupSpace._GenericAcc),
which re-derives the norm after each push.  A distance d(x, v) is the
norm of x^-1 v, so one right sweep started at x^-1 * (path start) covers
every vertex of a letter path.  `_pushes` is the one replay of letters on
an accumulator: every vertex, norm and distance read off a letter path,
and every word spelled letter by letter, goes through it (only
_TreeTarget.dist_along inlines its own copy), and it holds the one push
rule of free groups and free products, under the word and the coned
costs alike.  Letters are generators: a free-product letter that is not
one raises DomainError.
"""

from __future__ import annotations

import itertools
from array import array
from collections import deque
from operator import add, itemgetter

import numpy as np

from .errors import CertificationError, DomainError

DEFAULT_BALL_CAP = 10_000


# ---------------------------------------------------------------------------
# paths

class PathSeg:
    """A finite vertex sequence, optionally a unit-speed graph path.

    For group spaces a unit-speed path is stored as a start vertex plus a
    letter sequence (one generator per edge); vertices are materialized on
    demand, each reader replaying the letters through `_pushes`, where a
    free-product letter that is not a generator raises DomainError.
    General paths store their vertices outright; either way consecutive
    vertices are at distance at most 1.  A vertex index outside
    0..len - 1, or a prefix of fewer than one vertex, raises IndexError.
    The constructor copies the letters or vertices, and nothing changes
    them afterwards.  The optional (q, Q) fields are a quasi-geodesic
    certificate attached by the caller once is_quasi_geodesic has checked
    every pair of vertices.

    `hook` answers for the path as a target Z in closed form, or is None
    unless its builder attached one: geodesics from o on free groups and
    free products (axis rays, lifts and excursion rays among them), grid
    axis rays and loopy-ray prefixes.  hook.dist_along(path) lists d(v, Z)
    over the vertices v of `path`, read by distances_to_set.
    hook.nearest(x) is the sorted argmin set of d(x, .) over Z, read by
    nearest_point_projection; hook.nearest is None where there is no closed
    form (grid axes, loopy-ray prefixes).

    `end` is the last vertex of a letter path, when its builder knows it
    (geodesics, lifts and probes do); `endpoint()` and `vertex()` at the
    last index read it, and otherwise the first `endpoint()` call replays
    the letters.  is_quasi_geodesic reads it to tell a geodesic path.
    `norms` is the list of vertex norms, when its builder knows it; see
    `norms()` for who records them later.
    """

    def __init__(self, sp, vertices=None, start=None, letters=None,
                 q=None, Q=None, end=None, norms=None):
        self.sp = sp
        self.q = q
        self.Q = Q
        self.hook = None
        self._norms = norms
        self._end = end
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

    def _check(self, i):
        if not 0 <= i < len(self):
            raise IndexError(f"no vertex {i} on a {len(self)}-vertex path")

    def vertex(self, i):
        self._check(i)
        if self._vertices is not None:
            return self._vertices[i]
        if i == len(self.letters) and self._end is not None:
            return self._end
        norms, sp = self._norms, self.sp
        if self.start == () and norms is not None and norms[i] == i:
            # from the identity, norm i after i letters means none cancels:
            # vertex i is its letters, grouped into syllables on a free
            # product (each run of one factor is a syllable)
            if isinstance(sp, FreeGroupSpace):
                return sp._word(self.letters[:i])
            if isinstance(sp, FreeProductSpace):
                return tuple((j, sp.factors[j]._word([g for _, g in run]))
                             for j, run in itertools.groupby(self.letters[:i],
                                                             key=itemgetter(0)))
        return next(self.vertices_at((i,)))

    def vertices_at(self, indices):
        """Yield vertex i for each i of the non-decreasing `indices`, all
        from one sweep of the letters (each `vertex(i)` replays i letters).
        A decreasing index raises DomainError on either form."""
        vs = self._vertices
        acc = None if vs is not None else self.sp.right_acc(self.start)
        done = 0
        for i in indices:
            self._check(i)
            if i < done:
                raise DomainError("vertices_at needs non-decreasing indices")
            if acc is None:
                yield vs[i]
            else:
                deque(_pushes(acc, self.letters[done:i]), maxlen=0)
                yield acc.value()
            done = i

    def dist_between(self, a, b):
        """d(vertex a, vertex b) for a <= b (IndexError otherwise); on a
        letter path this is the norm of the letters between them, so
        nothing before a is replayed."""
        if not 0 <= a <= b < len(self):
            raise IndexError(f"no vertex pair ({a}, {b}) on a "
                             f"{len(self)}-vertex path")
        if self.letters is None:
            return self.sp.dist(self._vertices[a], self._vertices[b])
        return _norms_along(self.sp.right_acc(), self.letters[a:b])[-1]

    def vertex_list(self):
        """Materialize all vertices (use sparingly on long paths)."""
        if self._vertices is None:
            acc = self.sp.right_acc(self.start)
            self._vertices = [acc.value(), *(
                acc.value() for _ in _pushes(acc, self.letters))]
        return self._vertices

    def norms(self):
        """Norm of every vertex, computed in one linear sweep unless some
        reader of the path recorded them first: geodesics from the base
        point (group geodesics, and is_quasi_geodesic's geodesic test), the
        path tree of path_metric, and prefix(), which slices its parent's.
        The geodesic test and the path tree learn d(v_0, v_t), the norm only
        on a path that starts at the base point, so they record nothing
        elsewhere.  is_quasi_geodesic's norm bound calls this method on a
        path from the base point, so its sweep is recorded as well;
        elsewhere it sweeps d(v_0, .) and records nothing."""
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
        if self._end is None:
            acc = self.sp.right_acc(self.start)
            deque(_pushes(acc, self.letters), maxlen=0)
            self._end = acc.value()
        return self._end

    def prefix(self, n_vertices):
        """The sub-path on the first n_vertices vertices, all of them past
        the end; IndexError when n_vertices < 1."""
        if n_vertices < 1:
            raise IndexError(f"no {n_vertices}-vertex prefix of a path")
        norms = self._norms[:n_vertices] if self._norms is not None else None
        if self._vertices is not None:
            return PathSeg(self.sp, vertices=self._vertices[:n_vertices],
                           q=self.q, Q=self.Q, norms=norms)
        return PathSeg(self.sp, start=self.start,
                       letters=self.letters[:n_vertices - 1],
                       q=self.q, Q=self.Q, norms=norms)

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

        Costs one norm query per push.  Free groups and free products
        override it with O(1) amortized stacks; grids (O(d) per norm) and
        regenerated spaces use it as it is.
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

    def _geodesic_seg(self, x, y, letters):
        """The geodesic from x to y that reads `letters`; from the identity
        its norms are 0, 1, ..., len(letters)."""
        norms = list(range(len(letters) + 1)) if x == self.identity else None
        return PathSeg(self, start=x, letters=letters, q=1, Q=0, end=y,
                       norms=norms)


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

    def inv(self, x):
        return tuple(-g for g in reversed(x))

    def norm(self, v):
        return len(v)

    def dist(self, x, y):
        # cancel the common prefix, no need to build x^-1 y
        return len(x) + len(y) - 2 * _shared(x, y)

    def vertex_key(self, v):
        return (len(v), tuple(self._letter_rank[g] for g in v))

    class _RightAcc:
        __slots__ = ("stack",)

        def __init__(self, start):
            self.stack = list(start)

        def push(self, g):
            deque(_pushes(self, (g,)), maxlen=0)

        @property
        def norm(self):
            return len(self.stack)

        def value(self):
            return tuple(self.stack)

    def right_acc(self, start=None):
        return self._RightAcc(start if start is not None else ())

    def geodesic_letters(self, x, y):
        """The letters of the reduced word x^-1 y."""
        i = _shared(x, y)
        return [(-g,) for g in reversed(x[i:])] + [(g,) for g in y[i:]]

    def geodesic(self, x, y):
        """The reduced word from x to y; from o it carries the closed-form
        hook of the tree (_TreeTarget)."""
        seg = self._geodesic_seg(x, y, self.geodesic_letters(x, y))
        if x == ():
            seg.hook = _TreeTarget(y)
        return seg

    def _word(self, letters):
        """The element of generator letters of which none cancels."""
        return tuple(itertools.chain.from_iterable(letters))

    def parse_word(self, word):
        """Letters like 'a b A c' (capitals are inverses) -> group element."""
        letters = []
        for tok in word.split():
            base = tok.lower()
            idx = ord(base) - ord("a") + 1
            if not (1 <= idx <= self.k) or len(base) != 1:
                raise DomainError(f"unknown generator {tok!r} for {self.kind}")
            letters.append((-idx,) if tok.isupper() else (idx,))
        return PathSeg(self, letters=letters).endpoint()


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

    def _word(self, letters):
        """The element of generator letters: their coordinate sums."""
        return tuple(map(sum, zip(*letters)))

    def geodesic_letters(self, x, y):
        """Axis-ordered staircase: move coordinate 0 first, then 1, etc."""
        letters = []
        for i in range(self.d):
            delta = y[i] - x[i]
            step = [0] * self.d
            step[i] = 1 if delta > 0 else -1
            letters.extend([tuple(step)] * abs(delta))
        return letters

    def geodesic(self, x, y):
        return self._geodesic_seg(x, y, self.geodesic_letters(x, y))


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
                raise DomainError("unsupported free-product factor "
                                  f"{getattr(f, 'kind', f)}")
        self.factors = tuple(factors)
        self.kind = "free_product(" + ", ".join(f.kind for f in factors) + ")"
        self._gens = tuple((i, g) for i, f in enumerate(factors) for g in f.gens)
        # the peripheral factors are the grid factors of rank >= 2; the
        # per-factor syllable costs (see _RightAcc) are the factor norms for
        # the word metric, and for the coned-off metric of relhyp 1 per
        # peripheral syllable (one coset shortcut) and the length otherwise
        self.peripheral = tuple(i for i, f in enumerate(self.factors)
                                if isinstance(f, GridSpace) and f.d >= 2)
        self._word_costs = tuple(f.norm for f in self.factors)
        self.coned_costs = tuple((lambda e: 1) if i in self.peripheral
                                 else f.norm for i, f in enumerate(self.factors))
        # what each generator does to a syllable, read by _pushes under
        # both cost tables: (i, c, s) moves coordinate c of a grid factor i
        # by the sign s, and (i, None, a) appends the letter a to a free
        # factor i.  Either way the syllable's factor norm moves by +-1, and
        # so does its cost, unless the syllable is flat: flat[i] holds for a
        # peripheral factor under the coned costs, whose syllable costs 1
        # until it empties.  _flat is that mask for (word, coned) costs.
        self._moves = {(i, g): (i, None, g[0]) if isinstance(f, FreeGroupSpace)
                       else (i, next(c for c, x in enumerate(g) if x), sum(g))
                       for i, f in enumerate(self.factors) for g in f.gens}
        self._flat = ((False,) * len(self.factors),
                      tuple(i in self.peripheral for i in range(len(self.factors))))

    @property
    def identity(self):
        return ()

    @property
    def gens(self):
        return self._gens

    def mul(self, x, y):
        out = list(x)
        for syl in y:
            self._push_syllable(out, syl)
        return tuple(out)

    def _push_syllable(self, out, syl):
        i, e = syl
        if out and out[-1][0] == i:
            f = self.factors[i]
            e = f.mul(out.pop()[1], e)
            if f.is_identity(e):
                return
        out.append((i, e))

    def mul_gen(self, v, g):
        return self.mul(v, (g,))

    def inv(self, x):
        return tuple((i, self.factors[i].inv(e)) for i, e in reversed(x))

    def gen_inv(self, g):
        i, e = g
        return (i, self.factors[i].inv(e))

    def norm(self, v):
        return sum(self.factors[i].norm(e) for i, e in v)

    def dist(self, x, y):
        return self.cost_between(x, y, self._word_costs)

    def cost_between(self, x, y, costs):
        """The cost of the normal form of x^-1 y under the per-factor
        syllable costs `costs`, priced without building it.  Past the
        common syllable prefix of x and y, with a and b their rests, it
        spells a^-1 then b, the two facing syllables a[0]^-1 b[0] merged
        when they share a factor; a syllable costs what its inverse does."""
        j = _shared(x, y)
        a, b = x[j:], y[j:]
        d = sum(costs[i](e) for i, e in a) + sum(costs[i](e) for i, e in b)
        if a and b and a[0][0] == b[0][0]:
            (i, u), (_, v) = a[0], b[0]
            f = self.factors[i]
            d += costs[i](f.mul(f.inv(u), v)) - costs[i](u) - costs[i](v)
        return d

    def vertex_key(self, v):
        return (self.norm(v), tuple((i, self.factors[i].vertex_key(e))
                                    for i, e in v))

    class _RightAcc:
        """w <- w*g on the syllable stack of w, one [factor, element, factor
        norm] entry per syllable; `norm` is the total cost under the word
        costs or the coned costs of relhyp (DomainError for any other
        table).  A letter is a generator; _pushes raises DomainError on any
        other."""
        __slots__ = ("moves", "flat", "stack", "norm")

        def __init__(self, sp, start, costs):
            coned = costs is sp.coned_costs
            if not coned and costs is not sp._word_costs:
                raise DomainError("a free-product accumulator prices "
                                  "syllables by the word or the coned costs")
            self.moves, self.flat = sp._moves, sp._flat[coned]
            self.stack = [[i, e, sp._word_costs[i](e)] for i, e in start]
            self.norm = sum(1 if self.flat[i] else n for i, _, n in self.stack)

        def push(self, g):
            deque(_pushes(self, (g,)), maxlen=0)

        def value(self):
            return tuple((i, e) for i, e, _ in self.stack)

    def right_acc(self, start=None, costs=None):
        """Syllable-stack accumulator priced by `costs`, the word costs
        unless given, or `coned_costs`; one move table serves both."""
        return self._RightAcc(self, start if start is not None else (),
                              costs if costs is not None else self._word_costs)

    def geodesic(self, x, y):
        """The normal form of x^-1 y spelled syllable by syllable, each
        along its factor's geodesic letters; from o it carries the
        closed-form hook of its syllables (_SyllableTarget)."""
        letters = []
        for i, e in self.mul(self.inv(x), y):
            f = self.factors[i]
            letters.extend((i, g) for g in f.geodesic_letters(f.identity, e))
        seg = self._geodesic_seg(x, y, letters)
        if x == ():
            seg.hook = _SyllableTarget(self, y)
        return seg

    def parse_word(self, word):
        """Letters a, b for factor 0 and t for factor 1 (capitals are
        inverses) -> group element; only the default layout grid(2) *
        free_group(1) has them."""
        shorthand = {}
        if (len(self.factors) == 2 and isinstance(self.factors[0], GridSpace)
                and self.factors[0].d == 2):
            shorthand = {"a": (0, (1, 0)), "A": (0, (-1, 0)),
                         "b": (0, (0, 1)), "B": (0, (0, -1))}
            f1 = self.factors[1]
            if isinstance(f1, FreeGroupSpace) and f1.k == 1:
                shorthand["t"] = (1, (1,))
                shorthand["T"] = (1, (-1,))
        letters = []
        for tok in word.split():
            if tok not in shorthand:
                raise DomainError(f"unknown generator {tok!r} for {self.kind}")
            letters.append(shorthand[tok])
        return PathSeg(self, letters=letters).endpoint()


# ---------------------------------------------------------------------------
# the flat encoding

class FlatCode:
    """Elements of a free group, a grid or a free product of them as words
    of rows (atom, integer vector), an atom being a copy of Z^width.

    F_k is the free product of k copies of Z, and its word norm is the l^1
    norm of those syllables: free_group(k) is k atoms of width 1, and a run
    a_j^n of a reduced word is the row (j - 1, (n,)).  grid(d) is one atom
    of width d.  A free product concatenates the atoms of its factors.  In
    normal form no row is zero and no two adjacent rows share an atom.
    Per atom: `owner` (the factor in a free product, else 0), `widths`,
    `letter` (j for a_j, 0 on a grid) and `peripheral` (a bool array, set
    on the factors in a free product's `peripheral` only).  Any other
    space raises DomainError.
    """

    def __init__(self, sp):
        self.sp = sp
        self.product = isinstance(sp, FreeProductSpace)
        if not (self.product or isinstance(sp, (FreeGroupSpace, GridSpace))):
            raise DomainError(f"{sp.kind} has no flat encoding: walks run on "
                              "free groups, grids and free products of them")
        self.first, atoms = [], []    # first atom of each factor
        for i, f in enumerate(sp.factors if self.product else (sp,)):
            self.first.append(len(atoms))
            if isinstance(f, GridSpace):
                atoms.append((i, f.d, 0, self.product and i in sp.peripheral))
            else:
                atoms += [(i, 1, j, False) for j in range(1, f.k + 1)]
        self.owner, self.widths, self.letter, per = zip(*atoms)
        self.peripheral = np.array(per)
        self.peripheral.flags.writeable = False
        self.width = max(self.widths)
        self.split = len(atoms) > len(self.first)   # some F_k with k >= 2

    def columns(self, xs):
        """The rows of the elements xs, in order, as (atom array, list of
        vector columns, row count per element), each vector zero-padded to
        the widest atom."""
        pad, rows, counts = self.width, [], []
        for x in xs:
            n = len(rows)
            for i, e in x if self.product else ((0, x),):
                a = self.first[i]
                if self.letter[a]:
                    for g, run in itertools.groupby(e):
                        k = sum(1 for _ in run)
                        rows.append((a + abs(g) - 1, k if g > 0 else -k,
                                     *(0,) * (pad - 1)))
                elif any(e):
                    rows.append((a, *e, *(0,) * (pad - len(e))))
            counts.append(len(rows) - n)
        a = np.array(rows, dtype=np.int64).reshape(-1, pad + 1)
        return (a[:, 0].copy(), [a[:, c].copy() for c in range(1, pad + 1)],
                np.array(counts))

    def decode(self, rows, pack):
        """(factor index, factor element) of each row given as (atom,
        packed vector), packed by the FlatPack `pack` into one integer;
        equal rows are decoded once."""
        rows, memo = list(rows), {}
        for row in set(rows):
            a, x = row
            v = pack.digits(x, self.widths[a])
            g = self.letter[a]
            memo[row] = (self.owner[a], tuple(v) if not g else
                         (g,) * v[0] if v[0] > 0 else (-g,) * -v[0])
        return list(map(memo.__getitem__, rows))

    def element(self, parts):
        """The element of the decoded rows of a normal form: adjacent atoms
        of one free-group factor make one syllable, and no rows make the
        identity (on a grid, the zero vector)."""
        if self.split:
            parts = [(i, tuple(itertools.chain.from_iterable(e for _, e in run)))
                     for i, run in itertools.groupby(parts, key=itemgetter(0))]
        if self.product:
            return tuple(parts)
        return parts[0][1] if parts else self.sp.identity

    def walk_pairs(self, walk, index, count):
        """The ends (x, y) of `count` pairs of generator walks, and per pair
        (d(x, y), the coned norm of x^-1 y, the norms of its peripheral
        rows in order); the steps are given as `index`, indices into the
        space's `gens`, of walk ids `walk`, non-decreasing, walks 2 p and
        2 p + 1 being pair p.

        One reduce_flat call takes three blocks per pair to normal form:
        x, y, and x^-1 y spelled as the steps of x reversed and inverted
        (every atom is abelian, so a row inverts by negating its vector),
        then the steps of y.  The third block's rows give the terms: a
        row's norm is the l^1 norm of its vector, and its coned norm is 1
        on a peripheral atom and the norm otherwise."""
        fac, cols, _ = self.columns((g,) if self.product else g
                                    for g in self.sp.gens)
        n = len(walk)
        lens = np.bincount(walk, minlength=2 * count)
        pair, step = walk // 2, np.arange(n)
        first = (np.cumsum(lens) - lens)[0::2][pair]   # where x starts
        lx, k = lens[0::2][pair], step - first
        in_x = k < lx
        # pair p's rows start at 2 first: the steps of x and y, then the
        # third block, those of x reversed and those of y
        here = first + step
        copy = 2 * first + lx + lens[1::2][pair] + np.where(in_x, lx - 1 - k, k)
        rows, block = np.empty(2 * n, np.int64), np.empty(2 * n, np.int64)
        rows[here] = rows[copy] = index
        block[here], block[copy] = walk + pair, 3 * pair + 2
        sign = np.ones(2 * n, np.int64)
        sign[copy[in_x]] = -1
        pack = FlatPack(len(cols), 2 * n, 1)
        block, fac, words = reduce_flat(block, fac[rows],
                                        [w[rows] * sign for w in pack.pack(cols)])
        xy = block % 3 < 2
        bounds = np.searchsorted(block[xy],
                                 np.arange(2 * count + 1) * 3 // 2).tolist()
        parts = self.decode(zip(fac[xy].tolist(),
                                pack.join([w[xy] for w in words])), pack)
        ends = [self.element(parts[a:b]) for a, b in zip(bounds, bounds[1:])]
        z = ~xy
        norm = sum(np.abs(c) for c in pack.unpack([w[z] for w in words]))
        per, which = self.peripheral[fac[z]], block[z] // 3
        d, c = (np.bincount(which, weights=x, minlength=count)
                .astype(np.int64).tolist() for x in (norm, np.where(per, 1, norm)))
        cut = np.searchsorted(which[per], np.arange(count + 1)).tolist()
        pn = norm[per].tolist()
        return (list(zip(ends[0::2], ends[1::2])),
                [(a, b, pn[lo:hi]) for a, b, lo, hi in zip(d, c, cut, cut[1:])])


class FlatPack:
    """Flat vectors packed into int64 words as balanced base-2^bits digits,
    one digit per vector column, least significant first.

    `bits` is the bit length of rows * bound, plus 2: a sum of at most
    `rows` vectors whose coordinates are at most `bound` in absolute value
    has every digit d within |d| < 2^(bits - 1), so it is the packed sum of
    the vectors, and it is 0 exactly when every digit is.  A word holds
    62 // bits digits; wider vectors spill into further words.
    """

    __slots__ = ("width", "bits", "per", "_halves")

    def __init__(self, width, rows, bound):
        self.width = width
        self.bits = (rows * bound).bit_length() + 2
        self.per = 62 // self.bits
        if not self.per:
            raise DomainError(f"{rows} flat rows with coordinates up to "
                              f"{bound} overflow a 62-bit digit")
        # _halves[n]: 2^(bits - 1) in each of the first n digit fields
        half = 1 << self.bits - 1
        self._halves = list(itertools.accumulate(
            (half << self.bits * c for c in range(max(width, self.per))),
            initial=0))

    def pack(self, cols):
        """Integer vector columns -> the list of int64 words."""
        b, per = self.bits, self.per
        return [sum(c * (1 << b * j) for j, c in enumerate(cols[i:i + per]))
                for i in range(0, len(cols), per)]

    def join(self, words):
        """The packed rows as Python ints, the spill words of a row joined
        into one integer with the same digits."""
        if len(words) == 1:
            return _int_items(words[0])
        step = self.bits * self.per
        return [sum(x << step * i for i, x in enumerate(xs))
                for xs in zip(*(w.tolist() for w in words))]

    def digits(self, x, n):
        """The first n digits of x: a joined int, or one int64 word array.

        Adding 2^(bits-1) to each digit makes every digit field of x a
        plain unsigned one, without carries between fields."""
        b, half = self.bits, 1 << self.bits - 1
        mask = (1 << b) - 1
        y = x + self._halves[n]
        return [((y >> b * c) & mask) - half for c in range(n)]

    def unpack(self, words):
        """The vector columns of a list of int64 words."""
        per = self.per
        return [c for i, w in enumerate(words)
                for c in self.digits(w, min(per, self.width - i * per))]


def _int_items(a):
    """An integer array as an array('q'): it copies in one pass and, like
    a list, gives Python ints, slices and appends."""
    return array("q", a.astype(np.int64, copy=False).tobytes())


def reduce_flat(block, fac, words):
    """Reduce flat words (FlatCode), one word per block.

    Each row is one syllable: its block (`block`, non-decreasing), its
    atom (`fac`) and its vector, packed by a FlatPack into the int64
    `words` (one array per word); no row is zero.  Every atom is abelian,
    so a pass that sums each run of adjacent rows of one atom within a
    block and then drops the zero sums leaves each block's product
    unchanged; passes repeat until no two adjacent rows of a block share an
    atom.  The rows left are each block's product in normal form, in
    order.  A pass finds the run ends with one compare of adjacent keys,
    and a run's sum is a difference of the packed cumulative sums at run
    ends.

    Returns (block, fac, words) of the reduced rows.
    """
    width = int(fac.max()) + 1 if len(fac) else 1
    key = block * width + fac
    while len(key) > 1:
        last = np.empty(len(key), dtype=bool)
        last[-1] = True
        np.not_equal(key[:-1], key[1:], out=last[:-1])
        ends = np.flatnonzero(last)
        if len(ends) == len(key):
            break
        sums = [np.cumsum(w)[ends] for w in words]
        for s in sums:
            s[1:] -= s[:-1]
        keep = sums[0] != 0
        for s in sums[1:]:
            keep |= s != 0
        key, words = key[ends][keep], [s[keep] for s in sums]
    return key // width, key % width, words


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
        seg.hook = _Pointwise(lambda v: self._dist_to_ray(v, length))
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
        return min(c + max(0, p - length) for p, c in self._portals(v))

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


def _pushes(acc, letters):
    """Push each letter onto acc in order, yielding acc.norm after each:
    the one replay of letters in the package."""
    if isinstance(acc, FreeGroupSpace._RightAcc):
        # the push of a free-group accumulator, inlined: no method call
        # per letter
        stack = acc.stack
        for (letter,) in letters:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
            yield len(stack)
        return
    if isinstance(acc, FreeProductSpace._RightAcc):
        # the push of a free-product accumulator, inlined: a generator moves
        # its syllable's factor norm by +-1, with no factor mul, is_identity
        # or norm call, and the total cost by the same step, except inside a
        # flat syllable, where only opening or emptying it moves the cost.
        # The [factor, element, factor norm] stack and acc.norm stay current
        # after each letter, for readers such as _SyllableTarget.dist_along.
        moves, flat, stack = acc.moves, acc.flat, acc.stack
        for g in letters:
            m = moves.get(g)
            if m is None:
                raise DomainError(f"letter {g!r} is not a generator")
            i, c, a = m
            top = stack[-1] if stack else None
            if top is None or top[0] != i:
                stack.append([i, g[1], 1])
                step = 1
            else:
                e, n = top[1], top[2]
                if c is None:               # a free letter
                    step = -1 if e[-1] == -a else 1
                    e = e + g[1] if step > 0 else e[:-1]
                else:                       # a grid coordinate
                    step = -1 if e[c] * a < 0 else 1
                    e = tuple(map(add, e, g[1]))
                if n + step:
                    top[1], top[2] = e, n + step
                    if flat[i]:
                        step = 0
                else:
                    stack.pop()
            acc.norm += step
            yield acc.norm
        return
    for g in letters:
        acc.push(g)
        yield acc.norm


def _norms_along(acc, letters):
    """acc.norm before and after pushing each letter, in order."""
    return [acc.norm, *_pushes(acc, letters)]


def distances_along_path(sp, x, path):
    """d(x, v) for every vertex v of the PathSeg `path`, in one linear sweep.

    On group spaces d(x, v) = ||x^-1 v|| and x^-1 (v g) = (x^-1 v) g, so a
    right accumulator started at x^-1 * path.start and pushed with each
    letter of the path reads off every distance.  Vertex-form paths and
    other spaces fall back to one distance query per vertex.
    """
    if sp.is_group and path.letters is not None:
        return _norms_along(sp.right_acc(sp.mul(sp.inv(x), path.start)),
                            path.letters)
    return [sp.dist(x, v) for v in path.vertex_list()]


def distances_to_set(sp, path, Z):
    """d(v, Z) for every vertex v of the PathSeg `path`, exactly, where the
    target Z is a PathSeg.

    A target with a `hook` answers in closed form; a target without one
    costs one distances_along_path sweep of Z per vertex.
    """
    if Z.hook is not None:
        return Z.hook.dist_along(path)
    return [min(distances_along_path(sp, x, Z)) for x in path.vertex_list()]


def distance_to_set(sp, x, Z):
    """Exact d(x, Z): distances_to_set on the one-vertex path at x."""
    return distances_to_set(sp, PathSeg(sp, vertices=[x]), Z)[0]


class _Pointwise:
    """A hook from a per-vertex closed form d(v, Z), with no closed-form
    argmin."""

    nearest = None

    def __init__(self, dist):
        self.dist = dist

    def dist_along(self, path):
        return [self.dist(v) for v in path.vertex_list()]


def nearest_point_projection(sp, x, Z):
    """The full argmin set of d(x, .) over the PathSeg target Z, sorted by
    sp.vertex_key.

    A target whose hook has a `nearest` (geodesics from o on free groups
    and free products) answers in closed form; any other target costs one
    distances_along_path sweep of Z.
    """
    if Z.hook is not None and Z.hook.nearest is not None:
        return Z.hook.nearest(x)
    ds = distances_along_path(sp, x, Z)
    best = min(ds)
    return sorted({v for v, d in zip(Z.vertex_list(), ds) if d == best},
                  key=sp.vertex_key)


class QGCheck:
    """Result of a quasi-geodesic certification.

    `ok` is the verdict, final when is_quasi_geodesic returns, and `rung`
    the step of its ladder that decided: "geodesic", "backtrack", "bound"
    or "tree".  `margin` (the least slack; negative means a violation) and
    `witness` ((s, t, d) of the lexicographically first pair attaining it,
    None when ok) are measured on first read, by the exact search, and
    kept.  `pairs` counts the pairs the decision evaluated (those of the
    norm bound, its exact witness, and the path tree's, as far as each
    ran), plus those of the measurement once it has run.
    """

    def __init__(self, ok, rung, margin=None, measure=None, pairs=0):
        self.ok = ok
        self.rung = rung
        self.pairs = pairs
        self._margin, self._witness = margin, None
        self._measure = measure  # () -> (margin, witness, pairs), or None

    def _measured(self):
        if self._measure is not None:
            measure, self._measure = self._measure, None
            self._margin, witness, pairs = measure()
            self._witness = None if self.ok else witness
            self.pairs += pairs

    @property
    def margin(self):
        self._measured()
        return self._margin

    @property
    def witness(self):
        self._measured()
        return self._witness

    def __bool__(self):
        return self.ok


def path_metric(path):
    """The metric on the vertices of `path` as a vectorized kernel:
    dist(s, t) maps index arrays s, t to the array of d(v_s, v_t).

    Free groups and free products read the path into a tree once
    (_PathTree); every other space, grids included, asks sp.dist pair by
    pair.
    """
    sp = path.sp
    if isinstance(sp, (FreeGroupSpace, FreeProductSpace)):
        tree = _PathTree(path)
        if path._norms is None and path.start == sp.identity:
            path._norms = tree.vdepth.tolist()
        return tree.dist
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
        if path.letters is not None:
            steps = path.letters
        else:
            vs = path.vertex_list()
            steps = [None if u == v else sp.step_generator(u, v)
                     for u, v in zip(vs, vs[1:])]
        for g in steps:
            if g is None:  # a repeated vertex
                at.append(cur)
                continue
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
        del child
        at = np.array(at, dtype=np.int64)
        n_nodes = len(parent)
        size = [1] * n_nodes
        for v in range(n_nodes - 1, 0, -1):
            size[parent[v]] += size[v]
        first, free = [0] * n_nodes, [1] * n_nodes
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
    """Decide (1/q)|s-t| - Q <= d(path(s), path(t)) <= q|s-t| + Q over every
    pair of vertices, exactly, at any length.

    Consecutive vertices must be at most 1 apart (DomainError otherwise;
    a repeated vertex is a step of length 0), so d(v_s, v_t) <= t - s and
    the upper bound always holds; what is left is the slack lo(s, t) =
    d(v_s, v_t) - ((t - s)/q - Q) over s < t, and the path passes when no
    lo(s, t) is below -1e-9.

    The call only decides, on the first rung of this ladder that can; the
    returned QGCheck names it in `rung`:
      * "geodesic": a geodesic path (d(v_0, v_{n-1}) = n - 1) has d = t - s
        for every pair, so it passes, with least slack at t - s = 1.  On a
        letter path step s has length ||g_s||, one norm per distinct
        letter, and the end distance is one sp.dist to the end the path
        knows (geodesics and Morse probes know theirs), unless the path is
        from the base point and has its norms recorded, or knows no end:
        then it is the last entry of D below.  On a vertex path each step
        and the end distance is one sp.dist.  A geodesic path from the base
        point then has its norms, 0, 1, ..., n - 1, recorded;
      * "backtrack": a path that steps straight back (g_{s+1} = g_s^-1 on a
        letter path, v_{s+2} = v_s on a vertex path) has lo(s, s + 2) =
        Q - 2/q, so it fails when that is below -1e-9;
      * "bound": with D_t = d(v_0, v_t), |D_t - D_s| <= d(v_s, v_t), so
        lb(s, t) = |D_t - D_s| - ((t - s)/q - Q) bounds the slack from
        below, and D is 1-Lipschitz along the path, so _slack_search runs
        on it with its floor at 0.  No lb below -1e-9 proves that every
        pair passes.  Otherwise the search's witness pair is measured
        exactly (one PathSeg.dist_between), and the path fails when its
        slack is below -1e-9.  D is PathSeg.norms() on a path from the
        base point (so it is recorded), else one distances_along_path
        sweep from v_0;
      * "tree": _slack_search over path_metric(path), with its floor at 0,
        stopping at the first violation.

    The returned QGCheck measures `margin` (the least slack) and `witness`
    (the lexicographically first pair (s, t, d) attaining it, as an
    all-pairs loop would report, when the path fails) on first read: the
    same search with its floor at the least slack seen so far, over the
    decision's path kernel, or over a new one when the decision built none.
    """
    if q < 1 or Q < 0:
        raise DomainError(f"need q >= 1 and Q >= 0, got ({q}, {Q})")
    n = len(path)
    if n <= 1:
        return QGCheck(True, "geodesic", margin=float("inf"))
    sp, letters = path.sp, path.letters
    at_o = path.start == sp.basepoint

    def from_start():  # D_t = d(v_0, v_t)
        if at_o:
            return path.norms()
        return distances_along_path(sp, path.start, path)

    D = None
    if letters is not None:
        step = {g: sp.norm(sp.mul_gen(sp.identity, g)) for g in set(letters)}
        if max(step.values()) > 1:
            s = next(s for s, g in enumerate(letters) if step[g] > 1)
            _raise_jump(s, step[letters[s]])
        if path._end is None or at_o and path._norms is not None:
            D = from_start()
            end = D[-1]
        else:
            end = sp.dist(path.start, path._end)
    else:
        vs = path.vertex_list()
        for s in range(n - 1):
            d = sp.dist(vs[s], vs[s + 1])
            if d > 1:
                _raise_jump(s, d)
        end = sp.dist(vs[0], vs[-1])
    if end == n - 1:
        if at_o and path._norms is None:
            path._norms = list(range(n))
        return QGCheck(True, "geodesic", margin=float(1 - (1 / q - Q)))

    def measure():
        return _slack_search(path_metric(path), n, q, Q)

    if Q - 2 / q < -1e-9:
        if letters is not None:
            inv = {g: sp.gen_inv(g) for g in step}
            back = any(inv[g] == h for g, h in zip(letters, letters[1:]))
        else:
            back = any(u == w for u, w in zip(vs, vs[2:]))
        if back:
            return QGCheck(False, "backtrack", measure=measure)
    D = np.asarray(D if D is not None else from_start())
    worst, (a, b, _), pairs = _slack_search(
        lambda s, t: np.abs(D[t] - D[s]), n, q, Q, floor=0.0)
    if worst >= -1e-9:
        return QGCheck(True, "bound", measure=measure, pairs=pairs)
    pairs += 1
    if path.dist_between(a, b) - ((b - a) / q - Q) < -1e-9:
        return QGCheck(False, "bound", measure=measure, pairs=pairs)
    dist = path_metric(path)
    worst, _, tree_pairs = _slack_search(dist, n, q, Q, floor=0.0)
    return QGCheck(worst >= -1e-9, "tree",
                   measure=lambda: _slack_search(dist, n, q, Q),
                   pairs=pairs + tree_pairs)


def _slack_search(dist, n, q, Q, floor=None):
    """(least slack seen, its witness (s, t, d), pairs evaluated) of the
    slacks lo(s, t) = d(v_s, v_t) - ((t - s)/q - Q), s < t, of an n-vertex
    path with metric kernel `dist`, by a Lipschitz branch-and-bound.

    Since lo(s, t + j) >= lo(s, t) - j(1 + 1/q), all anchors s advance
    together in numpy rounds, each jumping to the first t whose bound can
    still reach the floor, so a round holds one pair per anchor.  With
    floor None the floor is the least slack seen so far: a skipped pair is
    strictly above it, no pair that could tie the minimum is missed, and
    the search ends at the exact least slack and the lexicographically
    first pair attaining it.  With a fixed floor (0 decides a
    certification) every skipped pair is above the floor, and the search
    stops at the first round that finds a slack below -1e-9.
    """
    S = np.arange(n - 1)
    T = S + 1
    worst, witness, pairs = float("inf"), None, 0
    reach = 1 + 1 / q
    while S.size:
        d = dist(S, T)
        pairs += S.size
        lo = d - ((T - S) / q - Q)
        i = int(np.argmin(lo))
        if lo[i] < worst or lo[i] == worst and (S[i], T[i]) < witness[:2]:
            worst = float(lo[i])
            witness = (int(S[i]), int(T[i]), int(d[i]))
        if floor is not None and worst < -1e-9:
            break
        T = T + np.maximum(1, np.ceil(
            (lo - (worst if floor is None else floor)) / reach - 1e-9)
        ).astype(np.int64)
        keep = T < n
        S, T = S[keep], T[keep]
    return worst, witness, pairs


def _raise_jump(s, d):
    raise DomainError(f"path vertices {s} and {s + 1} are {d} apart")


def first_time_at_norm(path, r):
    """Least index t with ||path(t)|| == r; DomainError if never attained."""
    try:
        return path.norms().index(r)
    except ValueError:
        raise DomainError(f"path never attains norm {r}") from None


def change_generators(sp, new_gens, radius=8):
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
                         cap=200_000)
    for g in sp.gens:
        if g not in probe:
            raise DomainError("new set does not generate (old generator "
                              f"{g!r} unreachable at small radius)")
    old_ball = sp.ball(sp.identity, radius, cap=200_000)
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

    def norm(self, v):
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
            if len(side_a) + len(side_b) > 300_000:
                raise DomainError("distance BFS budget exceeded")
            if depth_a + depth_b > 64:
                raise DomainError("distance search too deep")
        self._norm_memo[v] = best
        return best


# ---------------------------------------------------------------------------
# axis rays and closed-form targets along geodesics from o

def axis_ray(sp, length, gen=None):
    """The ray g, g^2, ..., g^length as a PathSeg with a closed-form hook,
    certified (1, 0): on free groups, grids and free products it is the
    geodesic sp.geodesic(o, g^length), elsewhere a letter path checked by
    is_quasi_geodesic (CertificationError with its witness when it fails,
    as when a generator is a power of g).

    `gen` defaults to the first generator.  On grids the hook applies the
    O(d) per-vertex distance to the axis segment (no closed-form argmin);
    on free groups and free products it is the hook of the geodesic.
    Other group spaces get no hook.
    """
    if not sp.is_group:
        raise DomainError("axis_ray needs a group space")
    g = gen if gen is not None else sp.gens[0]
    if not isinstance(sp, (FreeGroupSpace, GridSpace, FreeProductSpace)):
        seg = PathSeg(sp, start=sp.identity, letters=[g] * length)
        check = is_quasi_geodesic(seg, 1, 0)
        if not check:
            raise CertificationError(
                f"axis ray of {g!r} in {sp.kind} is not a geodesic",
                witness=check.witness)
        seg.q, seg.Q = 1, 0
        return seg
    # a negative length spells the empty ray, as [g] * length does
    n = max(length, 0)
    seg = sp.geodesic(sp.identity, PathSeg(sp, letters=[g] * n).endpoint())
    if isinstance(sp, GridSpace):
        axis = next(i for i, c in enumerate(g) if c != 0)
        sign = 1 if g[axis] > 0 else -1

        def dist(x):
            along = x[axis] * sign
            off = sum(abs(c) for i, c in enumerate(x) if i != axis)
            return off + max(0, -along, along - n)

        seg.hook = _Pointwise(dist)
    return seg


# The hooks of geodesics from o rest on how many leading letters or syllables
# c a vertex x shares with the normal form s of their end.  Along a path,
# each dist_along loop keeps c for the top of x's stack: a push moves only it.
def _shared(xs, s):
    """How many leading entries xs shares with s."""
    c = 0
    for a, b in zip(xs, s):
        if a != b:
            break
        c += 1
    return c


class _TreeTarget:
    """Free groups: the vertices of Z are the prefixes of s, and the one
    nearest to x is the longest prefix c that x shares with s (unique on a
    tree), so d(x, Z) = |x| - |c|."""

    def __init__(self, s):
        self.s = s

    def nearest(self, x):
        return [self.s[:_shared(x, self.s)]]

    def dist_along(self, path):
        # the free-group branch of _pushes, inlined with the shared count c:
        # read through _pushes, the sweep ran 18-29% slower (best of 9 over
        # 300 random F_2 paths of 350 letters; 2-core Xeon, CPython 3.11)
        s, m = self.s, len(self.s)
        stack = list(path.start)
        c = _shared(stack, s)
        out = [len(stack) - c]
        for (letter,) in path.step_letters():
            if stack and stack[-1] == -letter:
                stack.pop()
                if c > len(stack):
                    c = len(stack)
            else:
                if c == len(stack) and c < m and s[c] == letter:
                    c += 1
                stack.append(letter)
            out.append(len(stack) - c)
        return out


class _SyllableTarget:
    """Free products.  Let x = u_1 ... u_k in normal form share exactly c
    leading syllables with s.  Every vertex of Z outside the stretch of
    s_{c+1} is strictly farther from x than the vertex s_1 ... s_c, which
    is at distance ||x|| - (|s_1| + ... + |s_c|).  Inside that stretch a
    vertex s_1 ... s_c p with p != e can be as close only when u_{c+1}
    lies in the same factor; it is then closer by ||u_{c+1}|| - d(p,
    u_{c+1}).  So each vertex x costs one scan of a single syllable of Z,
    not a sweep of Z; on a grid stretch the argmin can tie.
    """

    def __init__(self, sp, s):
        self.sp = sp
        self.s = s  # the normal form s_1 ... s_m
        # |s_1| + ... + |s_c| for each c
        self.before = list(itertools.accumulate(
            (sp.factors[i].norm(e) for i, e in s), initial=0))
        self._stretches = [None] * len(s)

    def _stretch(self, c):
        """The factor vertices along s_{c+1}, from e, spelled on first use."""
        if self._stretches[c] is None:
            i, e = self.s[c]
            f = self.sp.factors[i]
            self._stretches[c] = f.geodesic(f.identity, e).vertex_list()
        return self._stretches[c]

    def _stretch_dists(self, c, u):
        """d(p, e) over the vertices p of the stretch of s_{c+1}, identity
        first, when the syllable u = (i, e) lies in its factor; else None."""
        if c >= len(self.s) or u[0] != self.s[c][0]:
            return None
        f, e = self.sp.factors[u[0]], u[1]
        return [f.dist(p, e) for p in self._stretch(c)]

    def nearest(self, x):
        c = _shared(x, self.s)
        prefix = self.s[:c]
        ds = self._stretch_dists(c, x[c]) if c < len(x) else None
        if ds is None:
            return [prefix]
        best, i = min(ds), self.s[c][0]
        return sorted((prefix + ((i, p),) if k else prefix
                       for k, (d, p) in enumerate(zip(ds, self._stretch(c)))
                       if d == best), key=self.sp.vertex_key)

    def dist_along(self, path):
        s, m, before = self.s, len(self.s), self.before
        acc = self.sp.right_acc(path.start)
        stack = acc.stack  # [factor, element, norm] per syllable of x
        c = _shared(((i, e) for i, e, _ in stack), s)

        def dist():
            d = acc.norm - before[c]
            if c < len(stack):
                i, e, n = stack[c]
                ds = self._stretch_dists(c, (i, e))
                if ds is not None:
                    d += min(ds) - n
            return d

        out = [dist()]
        for _ in _pushes(acc, path.step_letters()):
            n = len(stack)
            c = min(c, n - 1) if n else 0
            if n and c == n - 1 and n <= m \
                    and (stack[-1][0], stack[-1][1]) == s[n - 1]:
                c = n
            out.append(dist())
        return out
