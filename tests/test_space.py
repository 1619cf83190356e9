import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from coarselab import space
from coarselab.errors import CertificationError, DomainError
from coarselab.relhyp import (coned_dist, coned_distance,
                              coned_distances_along_path, excursion_ray,
                              lift_coned_geodesic)
from coarselab.space import (PathSeg, axis_ray, build_space, change_generators,
                             distance_to_set, distances_along_path,
                             distances_to_set, first_time_at_norm,
                             is_quasi_geodesic, nearest_point_projection)


def _sample(rng, seq, k):
    seq = list(seq)
    return [rng.choice(seq) for _ in range(k)]


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)", "grid(3)",
                                  "loopy_ray(12)",
                                  "free_product(grid(2), free_group(1))"])
def test_self_check(spec):
    assert oracles.self_check(build_space(spec))


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)", "loopy_ray(12)",
                                  "free_product(grid(2), free_group(1))"])
def test_norm_matches_bfs_depth(spec):
    sp = build_space(spec)
    ball = oracles.bfs_ball(sp, sp.basepoint, 5)
    for v, depth in ball.items():
        assert sp.norm(v) == depth, v


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)", "loopy_ray(12)",
                                  "free_product(grid(2), free_group(1))"])
def test_dist_matches_bfs_on_sampled_pairs(spec):
    sp = build_space(spec)
    verts = sorted(oracles.bfs_ball(sp, sp.basepoint, 4), key=sp.vertex_key)
    rng = random.Random(1)
    pairs = list(zip(_sample(rng, verts, 60), _sample(rng, verts, 60)))
    for x, y in pairs:
        assert sp.dist(x, y) == oracles.bidirectional_bfs_dist(sp, x, y)
    # the one-sided BFS cross-checks the two-sided one on a few pairs
    for x, y in pairs[:4]:
        assert oracles.bfs_dist(sp, x, y) == \
            oracles.bidirectional_bfs_dist(sp, x, y)


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)", "loopy_ray(12)",
                                  "free_product(grid(2), free_group(1))"])
def test_geodesics_are_unit_speed_and_tight(spec):
    sp = build_space(spec)
    verts = sorted(oracles.bfs_ball(sp, sp.basepoint, 4), key=sp.vertex_key)
    rng = random.Random(2)
    for x, y in zip(_sample(rng, verts, 25), _sample(rng, verts, 25)):
        seg = sp.geodesic(x, y)
        assert len(seg) == sp.dist(x, y) + 1
        assert seg.vertex(0) == x and seg.endpoint() == y
        vs = seg.vertex_list()
        assert all(b in sp.neighbors(a) for a, b in zip(vs, vs[1:]))
        assert is_quasi_geodesic(seg, 1, 0).ok


# ---------------------------------------------------------------------------
# PathSeg

def test_pathseg_letter_and_vertex_forms_agree(f2):
    letters = [(1,), (2,), (-1,), (2,)]
    a = PathSeg(f2, start=(), letters=letters)
    b = PathSeg(f2, vertices=a.vertex_list())
    assert a.vertex_list() == b.vertex_list()
    assert a.norms() == b.norms()
    assert b.step_letters() == letters
    assert a.prefix(3).vertex_list() == a.vertex_list()[:3]
    assert len(a) == 5


def test_pathseg_needs_a_vertex(f2):
    with pytest.raises(DomainError):
        PathSeg(f2, vertices=[])


# name -> (space, letters spelling a start off o, path letters); the
# regenerated space covers the generic accumulator
LOOKUP_PATHS = {
    "free_group(2)": (build_space("free_group(2)"), [(1,), (2,)],
                      [(-2,), (-1,), (2,), (2,), (-2,), (-2,), (1,)]),
    "grid(2)": (build_space("grid(2)"), [(1, 0), (0, 1)],
                [(-1, 0), (0, 1), (0, -1), (0, -1), (-1, 0), (1, 0)]),
    "Z2*Z": (build_space("free_product(grid(2), free_group(1))"),
             [(1, (1,)), (0, (1, 0))],
             [(0, (1, 0)), (1, (1,)), (0, (0, 1)), (0, (0, 1)), (1, (-1,)),
              (1, (-1,))]),
    "grid(2)+regen": (change_generators(
        build_space("grid(2)"), [(1, 0), (0, 1), (1, 1)], radius=3)[0],
        [(1, 1)], [(1, 1), (-1, 0), (0, -1), (-1, -1), (0, 1), (1, 1)]),
}


@pytest.mark.parametrize("name", sorted(LOOKUP_PATHS))
def test_pathseg_one_sweep_lookups(name):
    """The letter form and the vertex form of one path answer every lookup
    alike, against vertices spelled by mul_gen, and refuse the same
    indices."""
    sp, start_letters, letters = LOOKUP_PATHS[name]
    vs = [sp.identity]
    for g in start_letters + letters:
        vs.append(sp.mul_gen(vs[-1], g))
    vs = vs[len(start_letters):]
    n = len(vs)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    for seg in (PathSeg(sp, start=vs[0], letters=letters),
                PathSeg(sp, vertices=vs)):
        assert [seg.vertex(i) for i in range(n)] == vs
        assert list(seg.vertices_at([0, 2, 2, n - 1])) == \
            [vs[0], vs[2], vs[2], vs[-1]]
        with pytest.raises(DomainError):
            list(seg.vertices_at([3, 1]))
        assert [seg.dist_between(a, b) for a, b in pairs] == \
            [sp.dist(vs[a], vs[b]) for a, b in pairs]
        assert seg.norms() == [sp.norm(v) for v in vs]
        for k in range(1, n + 1):
            head = seg.prefix(k)
            assert head.vertex_list() == vs[:k]
            assert head.norms() == [sp.norm(v) for v in vs[:k]]
        for k in (0, -1):
            with pytest.raises(IndexError):
                seg.prefix(k)
        assert seg.endpoint() == vs[-1]
        for i in (n, -1):
            with pytest.raises(IndexError):
                seg.vertex(i)
            with pytest.raises(IndexError):
                list(seg.vertices_at([0, i]))
        for a, b in ((2, 1), (0, n), (-1, 0)):
            with pytest.raises(IndexError):
                seg.dist_between(a, b)
        assert seg.vertex_list() == vs
    # from o with its norms recorded, vertex() reads every vertex up to the
    # first cancellation off the letters (free groups and free products)
    path = [sp.identity]
    for g in start_letters + letters:
        path.append(sp.mul_gen(path[-1], g))
    seg = PathSeg(sp, start=sp.identity, letters=start_letters + letters,
                  norms=[sp.norm(v) for v in path])
    assert [seg.vertex(i) for i in range(len(path))] == path


@pytest.mark.parametrize("spec", ["free_product(grid(3), free_group(2))",
                                  "free_product(grid(2), free_group(1), grid(1))"])
@pytest.mark.parametrize("coned", [False, True])
def test_pushes_match_the_free_product_push(spec, coned):
    """_pushes, the one free-product push, leaves after each letter the cost
    that cost_between prices and the [factor, element, factor norm] stack
    of the vertex that mul_gen spells, under either cost table, on random
    letter paths from random starts.  It refuses a letter that is not a
    generator, and the accumulator refuses a foreign cost table."""
    sp = build_space(spec)
    costs = sp.coned_costs if coned else sp._word_costs
    rng = random.Random(8)
    for _ in range(80):
        start = sp.identity
        for _ in range(rng.randint(0, 12)):
            start = sp.mul_gen(start, rng.choice(sp.gens))
        letters = [rng.choice(sp.gens) for _ in range(rng.randint(0, 200))]
        acc, v = sp.right_acc(start, costs=costs), start
        for g, norm in zip(letters, space._pushes(acc, letters)):
            v = sp.mul_gen(v, g)
            assert norm == acc.norm == sp.cost_between((), v, costs)
            assert acc.stack == [[i, e, sp.factors[i].norm(e)] for i, e in v]
        assert acc.value() == v
    f = sp.factors[0]
    square = (0, f.mul(f.gens[0], f.gens[0]))
    with pytest.raises(DomainError, match=re.escape(f"letter {square!r}")):
        list(space._pushes(sp.right_acc(costs=costs), [sp.gens[0], square]))
    with pytest.raises(DomainError, match="word or the coned costs"):
        sp.right_acc(costs=(lambda e: 2,) * len(sp.factors))


@pytest.mark.parametrize("spec, u, v", [
    ("free_group(2)", (1, 2), (2,)),
    ("grid(2)", (0, 0), (1, 1)),
    ("free_product(grid(2), free_group(1))", ((0, (1, 0)),), ((1, (1,)),)),
])
def test_steps_between_non_neighbours_raise(spec, u, v):
    """step_generator recovers the generator of each edge and refuses two
    vertices that are not adjacent, and so does step_letters on a vertex
    path that jumps."""
    sp = build_space(spec)
    for g in sp.gens:
        assert sp.step_generator(u, sp.mul_gen(u, g)) == g
    with pytest.raises(DomainError, match="not adjacent"):
        sp.step_generator(u, v)
    with pytest.raises(DomainError, match="not adjacent"):
        PathSeg(sp, vertices=[sp.identity, u, v]).step_letters()


def test_first_time_at_norm(f2):
    seg = PathSeg(f2, start=(), letters=[(1,), (1,), (-1,), (1,), (1,)])
    assert first_time_at_norm(seg, 2) == 2
    with pytest.raises(DomainError):
        first_time_at_norm(seg, 7)


# ---------------------------------------------------------------------------
# quasi-geodesic certification

def test_quasi_geodesic_verdicts(f2):
    good = f2.geodesic((), (1, 1, 1, 1))
    assert is_quasi_geodesic(good, 1, 0).ok
    # out-and-back detour: fails (1,0), passes with additive slack
    wiggle = PathSeg(f2, start=(), letters=[(1,), (2,), (-2,), (1,)])
    assert not is_quasi_geodesic(wiggle, 1, 0).ok
    assert is_quasi_geodesic(wiggle, 1, 2).ok
    assert is_quasi_geodesic(wiggle, 3, 8).ok


def test_quasi_geodesic_rejects_bad_constants(f2):
    seg = f2.geodesic((), (1,))
    with pytest.raises(DomainError):
        is_quasi_geodesic(seg, 0.5, 0)


def _assert_all_pairs(sp, path, vs, q, Q):
    """Two certifications of `path` (vertices `vs`) against the all-pairs
    loop: one reads the verdict before the margin and the witness, the
    other reads them first."""
    expected = oracles.all_pairs_quasi_geodesic(sp, vs, q, Q)
    got = is_quasi_geodesic(path, q, Q)
    assert (got.ok, got.margin, got.witness) == expected
    got = is_quasi_geodesic(path, q, Q)
    assert (got.witness, got.margin, got.ok) == expected[::-1]


# name -> (space, most steps on a path); loopy paths are walks from a ray
# vertex, the regenerated space measures distances by BFS
QG_SPACES = {
    "free_group(2)": (build_space("free_group(2)"), 40),
    "grid(2)": (build_space("grid(2)"), 40),
    "Z2*Z": (build_space("free_product(grid(2), free_group(1))"), 40),
    "F2*Z": (build_space("free_product(free_group(2), grid(1))"), 40),
    "loopy_ray(6)": (build_space("loopy_ray(6)"), 40),
    "grid(2)+regen": (change_generators(
        build_space("grid(2)"), [(1, 0), (0, 1), (1, 1)], radius=3)[0], 12),
}
QG_CONSTANTS = st.tuples(st.sampled_from([1, 1.25, 1.5, 2, 3]),
                         st.sampled_from([0, 0.5, 1, 2, 4]))


@pytest.mark.parametrize("name", sorted(QG_SPACES))
@given(data=st.data())
def test_quasi_geodesic_matches_all_pairs(name, data):
    sp, steps = QG_SPACES[name]
    if sp.is_group:
        # few generators, so that paths come back and branch off again
        k = data.draw(st.integers(2, len(sp.gens)))
        gens = st.sampled_from(sp.gens[:k])
        start = _word(sp, data.draw(st.lists(st.sampled_from(sp.gens),
                                             max_size=4)))
        if data.draw(st.booleans()):
            # a geodesic from a non-identity start, sometimes with a few
            # more letters after it: long paths that pass or just miss the
            # geodesic shortcut
            start = start if start != sp.identity else _word(sp, sp.gens[:1])
            w = _word(sp, data.draw(st.lists(st.sampled_from(sp.gens),
                                             max_size=steps)))
            path = sp.geodesic(start, w)
            extra = data.draw(st.lists(gens, max_size=4))
            if extra:
                path = PathSeg(sp, start=start,
                               letters=path.step_letters() + extra)
        else:
            path = PathSeg(sp, start=start,
                           letters=data.draw(st.lists(gens, max_size=steps)))
        if data.draw(st.booleans()):
            # vertex form, sometimes with repeated vertices (steps of
            # length 0)
            vs = path.vertex_list()
            for i in data.draw(st.lists(st.integers(0, len(vs) - 1),
                                        max_size=3)):
                vs = vs[:i + 1] + vs[i:]
            path = PathSeg(sp, vertices=vs)
    else:
        vs = [("r", data.draw(st.integers(0, 30)))]
        for _ in range(data.draw(st.integers(0, steps))):
            vs.append(data.draw(st.sampled_from(sp.sorted_neighbors(vs[-1]))))
        path = PathSeg(sp, vertices=vs)
    vs = path.vertex_list()
    s, t = np.divmod(np.arange(len(vs) ** 2), len(vs))
    assert space.path_metric(path)(s, t).tolist() == \
        [sp.dist(vs[i], vs[j]) for i, j in zip(s.tolist(), t.tolist())]
    for q, Q in [(1, 0)] + data.draw(st.lists(QG_CONSTANTS, min_size=1,
                                              max_size=4)):
        _assert_all_pairs(sp, path, vs, q, Q)


@pytest.mark.parametrize("spec, vertices", [
    ("grid(2)", [(0, 0), (1, 0), (3, 0)]),
    ("free_group(2)", [(), (1,), (1, 1, 1)]),
    ("free_product(grid(2), free_group(1))", [(), ((0, (1, 0)),),
                                              ((0, (1, 2)),)]),
    ("loopy_ray(6)", [("r", 0), ("r", 1), ("r", 3)]),
])
def test_quasi_geodesic_rejects_jumps(spec, vertices):
    with pytest.raises(DomainError):
        is_quasi_geodesic(PathSeg(build_space(spec), vertices=vertices), 2, 4)


@pytest.mark.parametrize("name, letters, jump", [
    ("grid(2)", [(0, 1), (1, 0), (2, 0), (1, 0)], 2),
    ("grid(2)", [(2, 0)], 0),
    ("Z2*Z", [(1, (1,)), (0, (1, 0)), (0, (2, 0)), (0, (0, 1))], 2),
    ("Z2*Z", [(0, (1, 0)), (0, (2, 0)), (0, (2, 0))], 1),
    ("grid(2)+regen", [(1, 1), (0, 1), (2, 0), (1, 0)], 2),
])
def test_quasi_geodesic_rejects_letter_jumps(name, letters, jump):
    """A letter longer than one edge is rejected before any geodesic test,
    with the message of the vertex form of the same path; the vertex form
    is step-checked before its path tree reads a letter per step."""
    sp = QG_SPACES[name][0]
    path = PathSeg(sp, start=sp.identity, letters=letters)
    vertices = list(itertools.accumulate(letters, sp.mul_gen,
                                         initial=sp.identity))
    messages = []
    for p in (path, PathSeg(sp, vertices=vertices)):
        with pytest.raises(DomainError) as err:
            is_quasi_geodesic(p, 2, 4)
        messages.append(str(err.value))
    assert messages == [f"path vertices {jump} and {jump + 1} are 2 apart"] * 2


@pytest.mark.parametrize("name", ["free_group(2)", "grid(2)", "Z2*Z"])
def test_quasi_geodesic_repeated_vertex_is_a_zero_step(name):
    sp = QG_SPACES[name][0]
    g, h = sp.gens[0], sp.gens[-1]
    vs = PathSeg(sp, start=sp.identity, letters=[g, g, h]).vertex_list()
    vs = vs[:2] + vs[1:]   # vertex 1 twice
    for q, Q in ((1, 0), (1, 1), (2, 0)):
        _assert_all_pairs(sp, PathSeg(sp, vertices=vs), vs, q, Q)
    assert not is_quasi_geodesic(PathSeg(sp, vertices=vs), 1, 0)


def _in_form(sp, form, letters, start=None):
    seg = PathSeg(sp, start=start, letters=letters)
    return seg if form == "letters" else PathSeg(sp, vertices=seg.vertex_list())


@pytest.mark.parametrize("form", ["letters", "vertices"])
def test_quasi_geodesic_builds_a_path_tree_only_when_it_must(f2, form, trees):
    """A path that steps straight back fails (1.5, 0) with no path tree and
    no pair evaluated; reading its witness builds one tree and finds the
    all-pairs witness, which need not be the backtrack.  A passing path
    that is no geodesic is certified by the norm bound with no tree, and
    reading its margin builds one.  At (3, 1) a backtrack has slack 1/3,
    and a path whose least slack is -1/3 fails on the bound's witness,
    measured exactly, again with no tree."""
    a, b, A, B = (1,), (2,), (-1,), (-2,)
    back = _in_form(f2, form, [a, a, b, a, A, b, B, B, a])
    vs = back.vertex_list()
    got = is_quasi_geodesic(back, 1.5, 0)
    assert (got.ok, got.rung, got.pairs, len(trees)) == \
        (False, "backtrack", 0, 0)
    expected = oracles.all_pairs_quasi_geodesic(f2, vs, 1.5, 0)
    assert got.witness == expected[2] != (3, 5, 0)
    assert (got.margin, len(trees)) == (expected[1], 1)
    assert got.pairs > 0

    trees.clear()
    wiggle = _in_form(f2, form, [a, b, B, a])
    got = is_quasi_geodesic(wiggle, 1.5, 2)
    assert (got.ok, got.rung, len(trees)) == (True, "bound", 0)
    pairs = got.pairs
    assert pairs > 0
    assert (got.margin, got.witness) == oracles.all_pairs_quasi_geodesic(
        f2, wiggle.vertex_list(), 1.5, 2)[1:]
    assert len(trees) == 1 and got.pairs > pairs

    trees.clear()
    near = _in_form(f2, form, [a, b, A, a, a, A])
    got = is_quasi_geodesic(near, 3, 1)
    assert (got.ok, got.rung, len(trees)) == (False, "bound", 0)
    assert (False, got.margin, got.witness) == \
        oracles.all_pairs_quasi_geodesic(f2, near.vertex_list(), 3, 1)
    assert got.margin == pytest.approx(-1 / 3)


@pytest.mark.parametrize("form", ["letters", "vertices"])
def test_quasi_geodesic_falls_back_to_a_path_tree(f2, zz, form, trees):
    """The norm bound decides only where it is exact enough.  On Z^2*Z,
    a, b, A at (1.5, 0) has no backtrack, and the bound's witness (1, 3)
    has lb = -4/3 but d = 2 (a grid turn): the path builds one tree, which
    finds the all-pairs violation at (0, 3).  Away from o the bound reads
    d(v_0, .), not the norms: the wiggle from A has norms 1, 0, 1, 0, 1,
    whose bound falls to -2/3 at (0, 4), where d = 2, while d(v_0, .)
    certifies the path."""
    a, b, A = (0, (1, 0)), (0, (0, 1)), (0, (-1, 0))
    turn = _in_form(zz, form, [a, b, A])
    got = is_quasi_geodesic(turn, 1.5, 0)
    assert (got.ok, got.rung, len(trees)) == (False, "tree", 1)
    assert (got.ok, got.margin, got.witness) == \
        oracles.all_pairs_quasi_geodesic(zz, turn.vertex_list(), 1.5, 0)
    assert got.witness[:2] == (0, 3) and len(trees) == 1

    trees.clear()
    wiggle = _in_form(f2, form, [(1,), (2,), (-2,), (1,)], start=(-1,))
    got = is_quasi_geodesic(wiggle, 1.5, 2)
    assert (got.ok, got.rung, len(trees)) == (True, "bound", 0)
    assert wiggle._norms is None
    assert (True, got.margin, None) == oracles.all_pairs_quasi_geodesic(
        f2, wiggle.vertex_list(), 1.5, 2)


NORM_SPACES = ("free_group(2)", "Z2*Z")


@pytest.mark.parametrize("name", NORM_SPACES)
@given(data=st.data())
def test_recorded_norms_match_a_letter_replay(name, data):
    """Norms recorded on a path by whoever learned them first (a geodesic
    builder, the geodesic test of is_quasi_geodesic, a path tree, a prefix
    slice) are exactly the letter sweep's, and only paths from o record
    depths as norms; vertex(i), first_time_at_norm and is_quasi_geodesic
    then read them and agree with a letter replay and the all-pairs loop."""
    sp = QG_SPACES[name][0]
    gens = st.sampled_from(sp.gens[:data.draw(st.integers(2, len(sp.gens)))])
    start = sp.identity if data.draw(st.booleans()) else \
        _word(sp, data.draw(st.lists(st.sampled_from(sp.gens), min_size=1,
                                     max_size=4)))
    w = _word(sp, data.draw(st.lists(st.sampled_from(sp.gens), max_size=30)))
    route = data.draw(st.sampled_from(["geodesic", "certified", "tree"]))
    if route == "geodesic":
        path = sp.geodesic(start, w)
    elif route == "certified":
        path = PathSeg(sp, start=start,
                       letters=sp.geodesic(start, w).step_letters())
        assert is_quasi_geodesic(path, 1, 0)
    else:
        path = PathSeg(sp, start=start,
                       letters=data.draw(st.lists(gens, max_size=40)))
        space.path_metric(path)
    # only paths from o record depths, and the certifier does not read a
    # one-vertex path
    at_o = start == sp.identity
    recorded = at_o and (route != "certified" or len(path) > 1)
    if data.draw(st.booleans()):
        path = path.prefix(data.draw(st.integers(1, len(path))))
    assert (path._norms is not None) == recorded
    letters = path.letters
    expected = space._norms_along(sp.right_acc(start), letters)
    assert path.norms() == expected

    acc, vs = sp.right_acc(start), [start]
    for g in letters:
        acc.push(g)
        vs.append(acc.value())
    assert [path.vertex(i) for i in range(len(path))] == vs
    for r in range(max(expected) + 2):
        if r in expected:
            assert first_time_at_norm(path, r) == expected.index(r)
        else:
            with pytest.raises(DomainError):
                first_time_at_norm(path, r)
    # a fresh copy with the norms recorded before certification
    fresh = PathSeg(sp, start=start, letters=letters)
    fresh.norms()
    for q, Q in [(1, 0)] + data.draw(st.lists(QG_CONSTANTS, min_size=1,
                                              max_size=3)):
        _assert_all_pairs(sp, fresh, vs, q, Q)


# ---------------------------------------------------------------------------
# words and normal forms

def test_free_group_parse_word():
    f2 = space.FreeGroupSpace(2)
    assert f2.parse_word("a b A") == (1, 2, -1)
    assert f2.parse_word("a A") == ()
    with pytest.raises(DomainError):
        f2.parse_word("c")


def test_free_product_parse_word_and_normal_form(zz):
    # a b a collapses into a single grid syllable (2, 1)
    v = zz.parse_word("a b a t")
    assert v == ((0, (2, 1)), (1, (1,)))
    assert zz.norm(v) == 4
    assert zz.parse_word("t T") == ()
    # adjacent syllables merge once the grid pair cancels
    w = zz.parse_word("t a A t")
    assert w == ((1, (1, 1)),)


def test_free_product_norm_example(zz):
    v = zz.parse_word("a a a b b b b t")  # (3,4) then t
    assert zz.norm(v) == 8


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_flat_pack_sums_and_decodes_digits(data):
    """Packed rows add digit by digit, with spill words when the digits do
    not fit one word, and a sum is 0 exactly when its vector is."""
    width = data.draw(st.integers(1, 7))
    bound = data.draw(st.sampled_from([1, 3, 1000, 2 ** 20]))
    coord = st.integers(-bound, bound)
    vecs = data.draw(st.lists(st.tuples(*[coord] * width), min_size=1,
                              max_size=40))
    # the extreme sums: every coordinate at the bound, with either sign
    sign = data.draw(st.sampled_from([-1, 1]))
    vecs += [(sign * bound,) * width] * data.draw(st.integers(0, 40))
    vecs.append(tuple(-sum(c) for c in zip(*vecs)))     # the sum cancels
    pack = space.FlatPack(width, len(vecs), bound)
    cols = [np.array(c, dtype=np.int64) for c in zip(*vecs)]
    words = pack.pack(cols)
    assert len(words) == -(-width // pack.per)
    assert [c.tolist() for c in pack.unpack(words)] == \
        [c.tolist() for c in cols]
    ints = pack.join(words)
    assert [tuple(pack.digits(x, width)) for x in ints] == vecs
    sums = [np.cumsum(w) for w in words]
    for j in range(1, len(ints) + 1):
        total = sum(ints[:j])
        digits = pack.digits(total, width)
        assert digits == [sum(c) for c in zip(*vecs[:j])]
        assert (total == 0) == (not any(digits))
        assert [c.tolist() for c in pack.unpack([s[j - 1:j] for s in sums])] \
            == [[d] for d in digits]


def test_flat_pack_refuses_digits_wider_than_a_word():
    assert space.FlatPack(2, 2 ** 30, 2 ** 29).per == 1
    with pytest.raises(DomainError, match="62-bit"):
        space.FlatPack(2, 2 ** 30, 2 ** 30)


# ---------------------------------------------------------------------------
# axis rays and projections

def test_axis_ray_refuses_an_uncertified_regenerated_axis():
    """With (2, 0) a generator, g^6 is 3 from o, so the ray g, ..., g^6 is
    not a (1, 0)-quasi-geodesic: the first failing pair is (0, 6)."""
    sp, _ = change_generators(build_space("grid(2)"),
                              [(1, 0), (2, 0), (0, 1)], radius=3)
    ray = PathSeg(sp, start=sp.identity, letters=[sp.gens[0]] * 6)
    assert ray.norms() == [0, 1, 1, 2, 2, 3, 3]
    assert is_quasi_geodesic(ray, 1, 0).witness == (0, 6, 3)
    with pytest.raises(CertificationError) as err:
        axis_ray(sp, 6)
    assert err.value.witness == (0, 6, 3)
    # a regenerated axis that is a geodesic keeps its (1, 0) certificate
    sp, _ = change_generators(build_space("grid(2)"), [(1, 0), (0, 1), (1, 1)],
                              radius=3)
    ray = axis_ray(sp, 6)
    assert (ray.q, ray.Q) == (1, 0) and ray.norms() == list(range(7))


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)",
                                  "free_product(grid(2), free_group(1))"])
def test_axis_ray_distance_oracles(spec):
    sp = build_space(spec)
    ray = axis_ray(sp, 12)
    assert ray.hook is not None
    verts = sorted(oracles.bfs_ball(sp, sp.basepoint, 4), key=sp.vertex_key)
    ray_pts = ray.vertex_list()
    rng = random.Random(3)
    for x in _sample(rng, verts, 50):
        brute = min(sp.dist(x, p) for p in ray_pts)
        assert distance_to_set(sp, x, ray) == brute


GEODESIC_SPACES = {
    "free_group(2)": build_space("free_group(2)"),
    "Z2*Z": build_space("free_product(grid(2), free_group(1))"),
    "F2*Z": build_space("free_product(free_group(2), grid(1))"),
    "Z2*Z*Z3": build_space("free_product(grid(2), free_group(1), grid(3))"),
}


@pytest.mark.parametrize("name", sorted(GEODESIC_SPACES))
def test_ray_builders_keep_their_letters(name):
    """axis_ray and excursion_ray are geodesics from o to g^n and to the
    normal form they spell, and read the letters of their hand-spelled
    loops; a size of 0 merges two free letters into one syllable."""
    sp = GEODESIC_SPACES[name]
    for g in sp.gens:
        for n in (0, 1, 7):
            ray = axis_ray(sp, n, gen=g)
            assert ray.letters == [g] * n
            assert ray.endpoint() == _word(sp, ray.letters)
    pers = sp.peripheral if isinstance(sp, space.FreeProductSpace) else ()
    if not pers:
        return
    i = pers[0]
    step = (1,) + (0,) * (sp.factors[i].d - 1)
    free = next(j for j in range(len(sp.factors)) if j not in pers)
    sizes = [3, 0, 1, 0, 0, -2, 5]
    letters = []
    for n in sizes:
        letters.extend([(i, step)] * max(0, n))
        letters.append((free, sp.factors[free].gens[0]))
    ray = excursion_ray(sp, len(sizes), lambda k: sizes[k - 1])
    assert ray.letters == letters
    assert (ray.q, ray.Q) == (1, 0) and ray.hook is not None
    assert ray.endpoint() == _word(sp, letters)


@pytest.mark.parametrize("length", [-3, 0, 5])
def test_grid_axis_ray_hook_matches_the_sweep(z2, length):
    """The grid axis ray's closed-form hook measures against the ray it
    spells, which is the one vertex o at a negative length."""
    xs = sorted(oracles.bfs_ball(z2, z2.identity, 4), key=z2.vertex_key)
    for g in z2.gens:
        Z = axis_ray(z2, length, gen=g)
        assert len(Z) == max(length, 0) + 1
        assert [distance_to_set(z2, x, Z) for x in xs] == \
            [min(distances_along_path(z2, x, Z)) for x in xs]


@settings(max_examples=200)
@given(data=st.data())
def test_axis_ray_dist_along_matches_pointwise(data):
    """The closed-form hook of a normal-form geodesic from o (a geodesic to
    a random element, or an axis ray along any generator, grid-factor ones
    included) against the brute-force minimum over the target."""
    sp = GEODESIC_SPACES[data.draw(st.sampled_from(sorted(GEODESIC_SPACES)))]
    gens = st.sampled_from(sp.gens)
    if data.draw(st.booleans()):
        Z = axis_ray(sp, data.draw(st.integers(0, 12)), gen=data.draw(gens))
    else:
        Z = sp.geodesic(sp.identity,
                        _word(sp, data.draw(st.lists(gens, max_size=20))))
    assert Z.hook is not None
    zs = Z.vertex_list()
    # start near vertex k of Z, step onto it, walk back along Z towards o
    # (which shortens the prefix shared with Z), then stray
    k = data.draw(st.integers(0, len(zs) - 1))
    off = data.draw(st.lists(gens, max_size=5))
    back = Z.letters[data.draw(st.integers(0, k)):k]
    letters = [sp.gen_inv(g) for g in reversed(off)] \
        + [sp.gen_inv(g) for g in reversed(back)] \
        + data.draw(st.lists(gens, max_size=20))
    path = PathSeg(sp, start=_word(sp, Z.letters[:k] + off), letters=letters)
    vs = path.vertex_list()
    expected = [min(sp.dist(v, z) for z in zs) for v in vs]
    assert distances_to_set(sp, path, Z) == expected
    assert distances_to_set(sp, PathSeg(sp, vertices=vs), Z) == expected


@pytest.mark.parametrize("name", sorted(GEODESIC_SPACES))
@settings(max_examples=150)
@given(data=st.data())
def test_nearest_hook_matches_the_sweep(name, data):
    """The closed-form `nearest` of a geodesic target from o against the
    sweep over the target, with no distances_along_path call.  Targets:
    axis rays along any generator, geodesics to random elements and, on
    Z^2*Z, lifts of coned geodesics and staircase corners.  x is a vertex
    of the target moved by a few letters, so that it shares a prefix with
    the target; beside a corner (a, 0), (a, b) the argmin often ties."""
    sp = GEODESIC_SPACES[name]
    gens = st.sampled_from(sp.gens)
    kinds = ["axis", "geodesic"] + (["lift", "corner"] if name == "Z2*Z" else [])
    kind = data.draw(st.sampled_from(kinds))
    w = _word(sp, data.draw(st.lists(gens, max_size=20)))
    x = None
    if kind == "axis":
        Z = axis_ray(sp, data.draw(st.integers(0, 12)), gen=data.draw(gens))
    elif kind == "lift":
        Z, _ = lift_coned_geodesic(sp, coned_distance(sp, sp.identity, w))
    else:
        if kind == "corner":
            w = _word(sp, data.draw(st.lists(gens, max_size=6)) + [(1, (1,))])
            signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * 2))
            a, b = (s * data.draw(st.integers(1, 5)) for s in signs)
            p, q = (s * data.draw(st.integers(-1, 5)) for s in signs)
            x = sp.mul(w, ((0, (p, q)),)) if (p, q) != (0, 0) else w
            w = sp.mul(w, ((0, (a, b)),))
        Z = sp.geodesic(sp.identity, w)
    assert Z.hook is not None and Z.hook.nearest is not None
    zs = Z.vertex_list()
    if x is None:
        k = data.draw(st.integers(0, len(zs) - 1))
        x = _word(sp, Z.letters[:k] + data.draw(st.lists(gens, max_size=6)))
    calls = []
    sweep = space.distances_along_path
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space, "distances_along_path",
                   lambda *a: calls.append(a) or sweep(*a))
        got = nearest_point_projection(sp, x, Z)
    assert calls == []
    assert got == oracles.sweep_projection(sp, x, zs)


@pytest.mark.parametrize("w, x, expected", [
    # a staircase syllable turns a corner; beside it, (0, 1) and (0, 2) are
    # as near to the stretch's first vertex as to its last, and (1, 1) is
    # as near to (1, 0) as to (2, 1)
    (((0, (1, 1)),), ((0, (0, 1)),), [(), ((0, (1, 1)),)]),
    (((1, (1,)), (0, (1, 1))), ((1, (1,)), (0, (0, 2))),
     [((1, (1,)),), ((1, (1,)), (0, (1, 1)))]),
    (((0, (2, 2)),), ((0, (1, 1)), (1, (1,))), [((0, (1, 0)),), ((0, (2, 1)),)]),
])
def test_nearest_keeps_grid_stretch_ties(zz, w, x, expected):
    Z = zz.geodesic((), w)
    assert nearest_point_projection(zz, x, Z) == expected \
        == oracles.sweep_projection(zz, x, Z.vertex_list())


# name -> (space, max letters in the start, in x, and on the path); the
# regenerated space measures distances by BFS, so its words stay short
SWEEP_SPACES = {
    "free_group(2)": (build_space("free_group(2)"), 6, 6, 30),
    "grid(2)": (build_space("grid(2)"), 6, 6, 30),
    "Z2*Z": (build_space("free_product(grid(2), free_group(1))"), 6, 6, 30),
    "free_group(2)+regen": (change_generators(
        build_space("free_group(2)"), [(1,), (2,), (1, 2)], radius=3)[0],
        2, 2, 6),
}


def _word(sp, letters):
    acc = sp.right_acc(sp.identity)
    for g in letters:
        acc.push(g)
    return acc.value()


@pytest.mark.parametrize("name", sorted(SWEEP_SPACES))
@given(data=st.data())
def test_distances_along_path_match_pointwise(name, data):
    sp, n_start, n_x, n_path = SWEEP_SPACES[name]
    gens = st.sampled_from(sp.gens)
    start = _word(sp, data.draw(st.lists(gens, min_size=1, max_size=n_start)))
    if start == sp.identity:
        start = _word(sp, sp.gens[:1])
    x = _word(sp, data.draw(st.lists(gens, max_size=n_x)))
    path = PathSeg(sp, start=start,
                   letters=data.draw(st.lists(gens, max_size=n_path)))
    vs = path.vertex_list()
    assert distances_along_path(sp, x, path) == [sp.dist(x, v) for v in vs]
    if name == "Z2*Z":
        assert coned_distances_along_path(sp, x, path) == \
            [coned_dist(sp, x, v) for v in vs]
    for g in sp.gens:
        for v in (sp.identity, start, x):
            assert sp.mul_gen(sp.mul_gen(v, g), sp.gen_inv(g)) == v
    if name == "free_group(2)":
        # the closed form of a geodesic target on a path from o that
        # follows the target a while, then strays
        Z = sp.geodesic(sp.identity, x)
        zs = Z.vertex_list()
        letters = Z.letters[:data.draw(st.integers(0, len(Z.letters)))] \
            + path.letters
        along = PathSeg(sp, start=sp.identity, letters=letters)
        assert distances_to_set(sp, along, Z) == \
            [min(sp.dist(v, z) for z in zs) for v in along.vertex_list()]


def test_nearest_point_projection_is_argmin(z2):
    ray = axis_ray(z2, 10)
    pts = ray.vertex_list()
    for x in ((3, 4), (-2, 1), (15, 3), (7, 0)):
        proj = nearest_point_projection(z2, x, ray)
        best = min(z2.dist(x, p) for p in pts)
        assert proj == sorted((p for p in pts if z2.dist(x, p) == best),
                              key=z2.vertex_key)


# ---------------------------------------------------------------------------
# grids

@given(st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
       st.tuples(st.integers(-30, 30), st.integers(-30, 30)))
def test_grid_distance_is_l1(x, y):
    z2 = space.GridSpace(2)
    assert z2.dist(x, y) == abs(x[0] - y[0]) + abs(x[1] - y[1])


def test_grid_geodesic_is_axis_ordered_staircase(z2):
    seg = z2.geodesic((0, 0), (3, -2))
    vs = seg.vertex_list()
    assert vs[0] == (0, 0) and vs[-1] == (3, -2)
    assert len(vs) == 6
    # x-moves first, then y-moves
    assert vs[3] == (3, 0)


# ---------------------------------------------------------------------------
# loopy ray geometry

def test_loopy_apex_norm(loopy):
    # apex of loop n sits n^2 above either foot; nearer foot is at a_n
    for n in (2, 5, 11):
        an = loopy.attach[n]
        assert loopy.norm(loopy.apex(n)) == an + n * n


def test_loopy_ray_prefix_distances(loopy):
    ray = loopy.ray_prefix(60)
    x = loopy.apex(5)
    brute = min(oracles.bfs_dist(loopy, x, ("r", k)) for k in range(0, 61))
    assert distance_to_set(loopy, x, ray) == brute == 25


# ---------------------------------------------------------------------------
# generating-set changes

def test_change_generators_quasi_isometry():
    f2 = space.FreeGroupSpace(2)
    wrapped, (k, K) = change_generators(f2, [(1,), (2,), (1, 2)], radius=5)
    assert k >= 1.0 and K == 0
    assert wrapped.norm((1, 2)) == 1
    with pytest.raises(DomainError):
        change_generators(f2, [(1,)], radius=4)  # does not generate


# ---------------------------------------------------------------------------
# specs

def test_build_space_round_trip():
    sp = build_space("free_product(grid(2), free_group(1))")
    assert sp.kind == "free_product(grid(2), free_group(1))"
    assert build_space(sp) is sp


@pytest.mark.parametrize("bad", ["torus(2)", "grid", "free_product(grid(2))"])
def test_build_space_rejects_bad_specs(bad):
    with pytest.raises(DomainError):
        build_space(bad)
