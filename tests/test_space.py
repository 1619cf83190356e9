import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from coarselab import space
from coarselab.errors import DomainError
from coarselab.relhyp import coned_dist, coned_distances_along_path
from coarselab.space import (PathSeg, axis_ray, build_space, change_generators,
                             distance_to_set, distances_along_path,
                             first_time_at_norm, is_quasi_geodesic,
                             nearest_point_projection, self_check)


def _sample(rng, seq, k):
    seq = list(seq)
    return [rng.choice(seq) for _ in range(k)]


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)", "grid(3)",
                                  "loopy_ray(12)",
                                  "free_product(grid(2), free_group(1))"])
def test_self_check(spec):
    assert self_check(build_space(spec))


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
    for x, y in zip(_sample(rng, verts, 60), _sample(rng, verts, 60)):
        assert sp.dist(x, y) == oracles.bfs_dist(sp, x, y)


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


def test_pathseg_one_sweep_lookups(zz):
    start = zz.parse_word("t a")
    letters = [(0, (1, 0)), (1, (1,)), (0, (0, 1)), (0, (0, 1)), (1, (-1,)),
               (1, (-1,))]
    vs = PathSeg(zz, start=start, letters=letters).vertex_list()
    pairs = [(a, b) for a in range(len(vs)) for b in range(a, len(vs))]
    for seg in (PathSeg(zz, start=start, letters=letters),
                PathSeg(zz, vertices=vs)):
        assert list(seg.vertices_at([0, 2, 2, 6])) == [vs[0], vs[2], vs[2], vs[6]]
        assert [seg.dist_between(a, b) for a, b in pairs] == \
            [zz.dist(vs[a], vs[b]) for a, b in pairs]
    with pytest.raises(DomainError):
        list(PathSeg(zz, start=start, letters=letters).vertices_at([3, 1]))


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


# ---------------------------------------------------------------------------
# axis rays and projections

@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)",
                                  "free_product(grid(2), free_group(1))"])
def test_axis_ray_distance_oracles(spec):
    sp = build_space(spec)
    # the free-product closed form needs the axis in a free-group factor
    gen = (1, (1,)) if spec.startswith("free_product") else None
    ray = axis_ray(sp, 12, gen=gen)
    verts = sorted(oracles.bfs_ball(sp, sp.basepoint, 4), key=sp.vertex_key)
    ray_pts = ray.vertex_list()
    rng = random.Random(3)
    for x in _sample(rng, verts, 50):
        brute = min(sp.dist(x, p) for p in ray_pts)
        assert ray.dist_fn(x) == brute
        assert distance_to_set(sp, x, ray) == brute


def test_axis_ray_dist_along_matches_pointwise(f2):
    ray = axis_ray(f2, 10)
    path = PathSeg(f2, start=(2, 2), letters=[(1,), (1,), (-2,), (1,), (2,)])
    swept = ray.dist_along(path)
    expected = [ray.dist_fn(v) for v in path.vertex_list()]
    assert swept == expected


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
    assert ray.dist_fn(x) == brute == 25


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
