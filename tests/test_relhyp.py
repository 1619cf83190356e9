import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from coarselab import randwalk, relhyp, sublinear
from coarselab.errors import DomainError, Inconclusive, PreconditionError
from coarselab.relhyp import (PeripheralCoset, ProjectionOracle, coned_dist,
                              coned_dist_to_coset, coned_distance,
                              coned_nearest_index, coned_norm, coset_of,
                              coset_projection, coset_runs, default_constants,
                              excursion_profile, excursion_ray,
                              fit_distance_formula, lift_coned_geodesic,
                              require_relhyp)
from coarselab.relhyp import \
    test_excursion_contracting as check_excursion_contracting
from coarselab.space import (FreeGroupSpace, FreeProductSpace, GridSpace,
                             PathSeg, build_space, distance_to_set)

K1 = sublinear.by_tag("1")
KLOG = sublinear.by_tag("log")

V34T = "a a a b b b b t"   # the (3,4)-then-t workhorse element


@pytest.fixture(scope="module")
def consts(zz):
    return default_constants(zz)


def _random_vertex(sp, rng, length):
    acc = sp.right_acc(sp.identity)
    for _ in range(length):
        acc.push(rng.choice(sp.gens))
    return acc.value()


# ---------------------------------------------------------------------------
# peripheral structure

def test_peripheral_structure(zz, f2):
    assert zz.peripheral == (0,)
    assert require_relhyp(zz) is zz
    with pytest.raises(DomainError):
        require_relhyp(f2)   # not a free product at all


def test_coset_of_and_representative_invariant(zz):
    v = zz.parse_word(V34T)
    P = coset_of(zz, v, 0)
    # the trailing syllable is in factor 1, so v is its own representative
    assert P.rep == v
    # moving within the coset does not change it
    w = zz.mul(v, ((0, (5, -2)),))
    assert coset_of(zz, w, 0) == P
    with pytest.raises(DomainError):
        PeripheralCoset(factor=0, rep=((0, (1, 0)),))


# ---------------------------------------------------------------------------
# the two metrics

def test_word_vs_coned_norm_examples(zz):
    v = zz.parse_word(V34T)
    assert zz.norm(v) == 8
    assert coned_norm(zz, v) == 2        # one shortcut, one t edge
    assert coned_dist(zz, (), zz.parse_word("a a a b b b b")) == 1
    assert coned_dist(zz, (), zz.parse_word("t a a b b t")) == 3


def test_coned_distance_report_realizes_the_value(zz):
    v = zz.parse_word(V34T)
    rep = coned_distance(zz, (), v)
    assert rep.value == 2
    assert [e[0] for e in rep.edges] == ["shortcut", "edge"]
    # edges chain from source to target
    assert rep.edges[0][1] == ()
    assert rep.edges[-1][2] == v
    for e1, e2 in zip(rep.edges, rep.edges[1:]):
        assert e1[2] == e2[1]
    # the shortcut records the coset it rides
    assert rep.edges[0][3] == coset_of(zz, zz.parse_word("a"), 0)


def test_coned_dist_matches_naive_bfs(zz):
    universe = sorted(oracles.bfs_ball(zz, (), 6), key=zz.vertex_key)
    pool = sorted(oracles.bfs_ball(zz, (), 4), key=zz.vertex_key)
    pers = oracles.grid_factor_indices(zz)
    rng = random.Random(5)
    for _ in range(40):
        x, y = rng.choice(pool), rng.choice(pool)
        assert coned_dist(zz, x, y) == oracles.naive_coned_dist(
            zz, x, y, universe, pers)


def test_coned_ball_oracle_matches_naive_bfs(zz):
    orc = oracles.ConedBallOracle(zz, 6)
    universe = sorted(orc.vertices, key=zz.vertex_key)
    pool = sorted(oracles.bfs_ball(zz, (), 3), key=zz.vertex_key)
    pers = oracles.grid_factor_indices(zz)
    naive = oracles.NaiveConedBFS(zz, universe, pers)
    wants = {x: naive.distances_from(x) for x in pool[:8]}
    for x, want in wants.items():
        dist = orc.distances_from(x)
        for y in pool:
            assert dist[y] == want[y]
    # the one-BFS-per-source route cross-checked pair by pair on a few pairs
    for x, y in zip(pool[:8:3], pool[::50]):
        assert wants[x][y] == oracles.naive_coned_dist(
            zz, x, y, universe, pers)


def test_coned_never_exceeds_word_metric(zz):
    pool = sorted(oracles.bfs_ball(zz, (), 4), key=zz.vertex_key)
    rng = random.Random(7)
    for _ in range(120):
        x, y = rng.choice(pool), rng.choice(pool)
        assert coned_dist(zz, x, y) <= zz.dist(x, y)


def test_coned_costs_are_built_once_per_space(zz):
    costs = zz.coned_costs
    assert zz.coned_costs is costs
    other = FreeProductSpace([GridSpace(2), FreeGroupSpace(1)])
    assert other.coned_costs is not costs
    # a grid(2) syllable is one coset shortcut, a free syllable its length
    assert [c(e) for c, e in zip(costs, ((3, -4), (1,) * 5))] == [1, 5]


# ---------------------------------------------------------------------------
# coset projections

def test_coset_projection_worked_example(zz):
    v = zz.parse_word(V34T)
    P = coset_of(zz, (), 0)
    assert coset_projection(zz, v, P) == [((0, (3, 4)),)]
    # d_P(o, v): the distance between the two projections
    assert zz.dist(coset_projection(zz, (), P)[0],
                   coset_projection(zz, v, P)[0]) == 7
    assert oracles.peripheral_distances(zz, (), v) == {P: 7}


def test_coset_projection_matches_brute_force(zz):
    pool = sorted(oracles.bfs_ball(zz, (), 4), key=zz.vertex_key)
    P = coset_of(zz, (), 0)
    rng = random.Random(11)
    for x in [rng.choice(pool) for _ in range(25)]:
        got = coset_projection(zz, x, P)
        brute, best = oracles.brute_coset_projection(zz, x, 0, (), reach=9)
        assert got == brute
        assert zz.dist(x, got[0]) == best


def test_peripheral_distance_is_nonexpansive(zz):
    pool = sorted(oracles.bfs_ball(zz, (), 4), key=zz.vertex_key)
    P = coset_of(zz, (), 0)
    rng = random.Random(13)
    for _ in range(120):
        x, y = rng.choice(pool), rng.choice(pool)
        d_P = zz.dist(coset_projection(zz, x, P)[0],
                      coset_projection(zz, y, P)[0])
        assert d_P <= zz.dist(x, y)


def test_geodesic_missing_the_coset_projects_to_a_point(zz):
    # both endpoints hang off the t branch; the whole geodesic between them
    # projects to the origin (bounded-geodesic-image behaviour at D0 = 0)
    g = zz.geodesic(zz.parse_word("t a a a"), zz.parse_word("t b b b"))
    P = coset_of(zz, (), 0)
    images = {coset_projection(zz, v, P)[0] for v in g.vertex_list()}
    assert images == {()}


def test_coned_dist_to_coset(zz):
    P = coset_of(zz, (), 0)
    assert coned_dist_to_coset(zz, zz.parse_word("a a a b b"), P) == 0
    # from t a the coset is only reachable back through t: two coned edges
    assert coned_dist_to_coset(zz, zz.parse_word("t a"), P) == 2
    assert coned_dist_to_coset(zz, zz.parse_word("t t"), P) == 2


# ---------------------------------------------------------------------------
# distance formula

def test_distance_formula_bounds_hold_and_are_stable(zz):
    rng = random.Random(3)
    pairs = [(_random_vertex(zz, rng, rng.randint(0, 20)),
              _random_vertex(zz, rng, rng.randint(0, 20)))
             for _ in range(120)]
    fit2 = fit_distance_formula(zz, pairs, 2)
    fit4 = fit_distance_formula(zz, pairs, 4)
    assert fit2.M == pytest.approx(1.0)
    assert abs(fit4.M - fit2.M) <= 0.1 * fit2.M
    for _, _, d, S in fit2.residuals:
        assert S / fit2.M - fit2.A <= d <= fit2.M * S + fit2.A


def _syllable_heavy_vertex(sp, rng, syllables):
    """Runs of one repeated generator, up to 12 letters long, so that
    peripheral syllables reach every clip K of the test below."""
    acc = sp.right_acc(sp.identity)
    for _ in range(syllables):
        g = rng.choice(sp.gens)
        for _ in range(rng.randint(1, 12)):
            acc.push(g)
    return acc.value()


@pytest.mark.parametrize("spec", ["free_product(grid(2), free_group(1))",
                                  "free_product(grid(2), free_group(1), grid(1))"])
def test_distance_formula_terms_match_their_definitions(spec):
    sp = build_space(spec)
    rng = random.Random(12)
    pairs = []
    for _ in range(40):
        x = _syllable_heavy_vertex(sp, rng, rng.randint(0, 8))
        pairs.append((x, _syllable_heavy_vertex(sp, rng, rng.randint(0, 8))))
        pairs.append((x, x))
        # a long shared prefix, diverging inside or after its last syllable
        common = _syllable_heavy_vertex(sp, rng, 12)
        pairs.append((sp.mul(common, _syllable_heavy_vertex(sp, rng, 2)),
                      sp.mul(common, _syllable_heavy_vertex(sp, rng, 2))))
    terms = relhyp._formula_terms(sp, pairs)
    for K in (1, 5, 10):
        fit = fit_distance_formula(sp, pairs, K)
        # the runner computes the terms once for both of its fits
        assert fit_distance_formula(sp, pairs, K, terms=terms) == fit
        assert fit.residuals == [
            (x, y, sp.dist(x, y),
             sum(v for v in oracles.peripheral_distances(sp, x, y).values()
                 if v >= K)
             + coned_dist(sp, x, y))
            for x, y in pairs]
    norms = []
    for x, y in pairs:
        for P, v in oracles.peripheral_distances(sp, x, y).items():
            assert sp.dist(coset_projection(sp, x, P)[0],
                           coset_projection(sp, y, P)[0]) == v > 0
            norms.append(v)
    assert min(norms) < 5 and max(norms) >= 10


def test_distance_formula_preconditions(zz, f2, consts):
    rng = random.Random(4)
    pairs = [((), _random_vertex(zz, rng, 5)) for _ in range(10)]
    with pytest.raises(PreconditionError):
        fit_distance_formula(zz, pairs, 0, constants=consts)
    with pytest.raises(DomainError):
        fit_distance_formula(zz, pairs[:1], 2)
    with pytest.raises(DomainError):
        fit_distance_formula(f2, pairs, 2)


# ---------------------------------------------------------------------------
# lifts

def test_lift_of_coned_geodesic_is_a_geodesic(zz):
    v = zz.parse_word(V34T)
    rep = coned_distance(zz, (), v)
    path, (q0, Q0) = lift_coned_geodesic(zz, rep)
    assert (q0, Q0) == (1, 0)
    assert path.vertex(0) == () and path.endpoint() == v
    assert len(path) - 1 == zz.dist((), v) == 8
    # a lift from o comes back with its norms recorded
    assert path._norms == list(range(9))


def test_lift_between_offset_points(zz):
    x = zz.parse_word("t a a")
    y = zz.parse_word("b b t")
    rep = coned_distance(zz, x, y)
    path, _ = lift_coned_geodesic(zz, rep)
    assert path.vertex(0) == x and path.endpoint() == y
    assert len(path) - 1 == zz.dist(x, y)
    # a zero-length lift stays at its point, not at o
    path, consts = lift_coned_geodesic(zz, coned_distance(zz, x, x))
    assert path.start == path.endpoint() == x and len(path) == 1
    assert consts == (1, 0)


ZZ = build_space("free_product(grid(2), free_group(1))")


def _word(sp, letters):
    w = sp.identity
    for g in letters:
        w = sp.mul_gen(w, g)
    return w


@given(data=st.data())
def test_lift_distance_oracles_match_pointwise(data):
    gens = st.sampled_from(ZZ.gens)
    w = ZZ.identity
    for g in data.draw(st.lists(gens, max_size=40)):
        w = ZZ.mul_gen(w, g)
    lift, _ = lift_coned_geodesic(ZZ, coned_distance(ZZ, (), w))
    # start on or near the lift so that x shares syllables with it, follow
    # the lift for a while, stray, and come back the same way
    k = data.draw(st.integers(0, len(lift) - 1))
    x = lift.vertex(k)
    for g in data.draw(st.lists(gens, max_size=4)):
        x = ZZ.mul_gen(x, g)
    follow = lift.letters[k:k + data.draw(st.integers(0, 30))]
    stray = data.draw(st.lists(gens, max_size=10))
    back = [ZZ.gen_inv(g) for g in reversed(follow + stray)]
    path = PathSeg(ZZ, start=x, letters=follow + stray + back)
    zs = lift.vertex_list()
    expected = [min(ZZ.dist(v, z) for z in zs) for v in path.vertex_list()]
    assert lift.hook.dist_along(path) == expected
    assert [distance_to_set(ZZ, v, lift) for v in path.vertex_list()] == expected


def test_geodesic_dist_along_needs_a_geodesic_from_o(zz, f2, z2):
    """A free-group or free-product geodesic has a hook exactly when it
    starts at o; grid geodesics and hand-built paths have none."""
    aa = zz.parse_word("a a")
    assert zz.geodesic(zz.parse_word("t"), aa).hook is None
    assert f2.geodesic((2,), (1,)).hook is None
    assert z2.geodesic((0, 0), (2, -1)).hook is None
    assert z2.geodesic((1, 1), (2, -1)).hook is None
    from_o = [zz.geodesic((), aa), zz.geodesic((), ()),
              f2.geodesic((), (1, 2)), f2.geodesic((), ())]
    assert all(Z.hook is not None for Z in from_o)
    for Z in from_o:
        assert PathSeg(Z.sp, letters=Z.letters).hook is None


LIFT_SPACES = [ZZ] + [build_space(s) for s in (
    "free_product(grid(2), free_group(1), grid(3))",
    "free_product(free_group(2), grid(2))")]


def _factor_element(f, letters):
    """The factor element the letters spell, or the first generator when
    they spell the identity."""
    e = _word(f, letters)
    return f.gens[0] if f.is_identity(e) else e


def _built_cost(sp, x, y, costs):
    return sum(costs[i](e) for i, e in sp.mul(sp.inv(x), y))


@given(data=st.data())
def test_coned_dist_to_coset_matches_the_built_product(data):
    # d_Ghat(v, P) is the coned cost of z = rep^-1 v built in full, less
    # that of z's first syllable when it lies in P's factor, and the
    # projection of v is rep times that syllable, or rep; v and rep share a
    # drawn prefix, or v enters P's factor right after rep, and every space
    # runs in each example
    for sp in LIFT_SPACES:
        gens = st.sampled_from(sp.gens)
        base, x, y = (_word(sp, data.draw(st.lists(gens, max_size=20)))
                      for _ in "bxy")
        i = data.draw(st.sampled_from(sp.peripheral))
        f = sp.factors[i]
        u = _factor_element(f, data.draw(st.lists(st.sampled_from(f.gens),
                                                   max_size=6)))
        P = coset_of(sp, sp.mul(base, y), i)
        for v in (sp.mul(base, x), sp.mul(sp.mul(P.rep, ((i, u),)), x)):
            z = sp.mul(sp.inv(P.rep), v)
            enters = bool(z) and z[0][0] == i
            entry = coned_norm(sp, z[:1]) if enters else 0
            assert coned_dist_to_coset(sp, v, P) == coned_norm(sp, z) - entry
            assert coset_projection(sp, v, P) == \
                [sp.mul(P.rep, z[:1]) if enters else P.rep]


@given(data=st.data())
def test_cost_between_prices_the_built_product(data):
    # cost_between against x^-1 y built in full, under the word and the
    # coned costs, on x = y, on pairs after a long shared prefix, and on
    # pairs whose rests open in one factor, so the facing syllables merge;
    # every space runs in each example
    for sp in LIFT_SPACES:
        gens = st.sampled_from(sp.gens)
        base = _word(sp, data.draw(st.lists(gens, min_size=10, max_size=40)))
        x, y = (sp.mul(base, _word(sp, data.draw(st.lists(gens, max_size=12))))
                for _ in "xy")
        i = data.draw(st.integers(0, len(sp.factors) - 1))
        f = sp.factors[i]
        u = _factor_element(f, data.draw(st.lists(st.sampled_from(f.gens),
                                                   max_size=6)))
        v = f.mul(u, _factor_element(f, data.draw(
            st.lists(st.sampled_from(f.gens), max_size=6))))
        if f.is_identity(v):
            v = f.mul(u, u)
        rep = coset_of(sp, base, i).rep
        facing = (sp.mul(rep, ((i, u),)), sp.mul(rep, ((i, v),)))
        assert facing[0][len(rep)][0] == facing[1][len(rep)][0] == i
        for a, b in ((x, x), (x, y), (y, x), facing):
            for costs in (sp._word_costs, sp.coned_costs):
                assert sp.cost_between(a, b, costs) == _built_cost(sp, a, b,
                                                                    costs)
            assert sp.dist(a, b) == _built_cost(sp, a, b, sp._word_costs)
            assert coned_dist(sp, a, b) == _built_cost(sp, a, b,
                                                       sp.coned_costs)


@given(data=st.data())
def test_lift_passes_through_every_report_vertex(data):
    # every space in each example, so the test keeps one id
    for sp in LIFT_SPACES:
        gens = st.sampled_from(sp.gens)
        x, y = (_word(sp, data.draw(st.lists(gens, max_size=30))) for _ in "xy")
        if data.draw(st.booleans()):
            y = x
        report = coned_distance(sp, x, y)
        assert report.value == coned_dist(sp, x, y) == len(report.edges)
        lift, consts = lift_coned_geodesic(sp, report)
        # the lift is the normal-form geodesic, certified at (1, 0)
        assert lift.letters == sp.geodesic(x, y).letters
        assert lift.start == x and consts == (1, 0)
        # the endpoint handed over by the report is the one the letters reach
        assert lift.endpoint() == lift.vertex(len(lift) - 1) == y
        visited = iter(lift.vertex_list())
        # the report's vertices, from x to y, form a subsequence of the lift's
        for v in [x] + [edge[2] for edge in report.edges]:
            assert any(w == v for w in visited), v


# ---------------------------------------------------------------------------
# coset runs

def test_coset_runs_are_fattened_and_clipped(zz):
    g = PathSeg(zz, letters=[(1, (1,))] * 4 + [(0, (1, 0))] * 3, q=1, Q=0)
    (a, b, coset), = coset_runs(zz, g, D=2)
    assert (a, b) == (2, 7)   # 4 - 2 on the left, clipped at the right end
    assert coset.factor == 0


# ---------------------------------------------------------------------------
# excursions

def test_excursion_ray_shape(zz):
    ray = excursion_ray(zz, 5, lambda k: k)
    # syllable sizes 1..5 with a t letter after each
    assert len(ray) - 1 == sum(range(1, 6)) + 5
    assert ray.q == 1 and ray.Q == 0


def test_excursion_profile_log_ray_passes(zz):
    ray = excursion_ray(zz, 40, lambda k: int(math.log2(1 + k)))
    rows, E, v = excursion_profile(zz, ray, 0, KLOG)
    assert v
    assert len(rows) == 40
    assert 0 < E < 2.0
    for coset, exc, cn, ratio in rows:
        assert ratio == exc / sublinear.evaluate(KLOG, cn)


def test_excursion_profile_linear_ray_fails_log_gauge(zz):
    ray = excursion_ray(zz, 40, lambda k: k)
    _, E, v = excursion_profile(zz, ray, 0, KLOG)
    assert not v
    assert E > 5.0
    assert "bands" in v.witness


def test_excursion_profile_peripheral_free_ray(zz):
    # no coset, so no excursion to bound: no verdict either way
    taxis = PathSeg(zz, letters=[(1, (1,))] * 40, q=1, Q=0)
    assert coset_runs(zz, taxis, 0) == []
    with pytest.raises(Inconclusive, match="meets no peripheral coset"):
        excursion_profile(zz, taxis, 0, K1)


def _assert_runs_and_rows_by_block(sp, path):
    """coset_runs and the excursion rows equal their block definitions on
    a path whose letter blocks spell its end's normal form after its
    start, and both refuse any other path.  Returns whether it spells."""
    if not oracles.spells_normal_form(sp, path):
        with pytest.raises(DomainError, match="do not spell the normal form"):
            coset_runs(sp, path, 0)
        with pytest.raises(DomainError, match="do not spell the normal form"):
            excursion_profile(sp, path, 0, KLOG)
        return False
    for D in (0, 1, 3):
        assert coset_runs(sp, path, D) == oracles.coset_runs_by_block(sp, path, D)
    rows, _, _ = excursion_profile(sp, path, 0, KLOG)
    assert rows == oracles.excursion_rows_by_block(sp, path, 0, KLOG)
    return True


def test_coset_runs_of_an_excursion_ray_match_the_block_definition(zz):
    # size 0 puts two t letters in one block
    ray = excursion_ray(zz, 30, lambda k: (k * 7) % 5)
    assert _assert_runs_and_rows_by_block(zz, ray)


def test_coset_runs_of_a_walk_ray_lift_match_the_block_definition(zz):
    mu = randwalk.uniform_generator_measure(zz)
    for p in randwalk.sample_paths(zz, mu, 600, 3, seed=5):
        w = p.positions_at({p.length})[p.length]
        seg, _ = lift_coned_geodesic(zz, coned_distance(zz, (), w))
        assert _assert_runs_and_rows_by_block(zz, seg)


def test_coset_runs_of_an_offset_lift_match_the_block_definition(zz):
    pairs = [
        # x ends in t, so x and x^-1 y do not share a boundary factor
        (zz.parse_word("a a b t"), zz.parse_word("a a b t a b b b t t A A")),
        # x^-1 y opens in x's last factor: the lift's first block merges
        # into x's last syllable, so coset_runs refuses the lift
        (zz.parse_word("t a a b"), zz.parse_word("t a a b a b t a a a")),
        # ... and cancels it partly on the way
        (zz.parse_word("t a a"), zz.parse_word("t b b t")),
    ]
    rng = random.Random(9)
    pairs += [(_random_vertex(zz, rng, rng.randint(1, 40)),
               _random_vertex(zz, rng, rng.randint(1, 40))) for _ in range(20)]
    merged = 0
    for x, y in pairs:
        z = zz.mul(zz.inv(x), y)
        merges = bool(x and z and x[-1][0] == z[0][0])
        merged += merges
        seg, _ = lift_coned_geodesic(zz, coned_distance(zz, x, y))
        assert seg.start == x
        assert _assert_runs_and_rows_by_block(zz, seg) != merges
    assert 2 <= merged < len(pairs)


def test_coset_runs_of_a_letter_path_off_normal_form_match_the_block_definition(zz):
    # the t T block cancels, so the blocks around it spell one syllable
    a, A, b, t, T = (0, (1, 0)), (0, (-1, 0)), (0, (0, 1)), (1, (1,)), (1, (-1,))
    paths = [PathSeg(zz, letters=[a, a, t, T, b, A, t, t, T, a, b])]
    rng = random.Random(10)
    # two peripheral factors, and grid(1) as a free one
    three = FreeProductSpace([GridSpace(2), FreeGroupSpace(1), GridSpace(3)])
    for sp in (zz, three):
        for k in range(6):
            start = _random_vertex(sp, rng, 8) if k % 2 else sp.identity
            letters = [rng.choice(sp.gens) for _ in range(rng.randint(20, 120))]
            paths.append(PathSeg(sp, start=start, letters=letters))
    for path in paths:
        assert not _assert_runs_and_rows_by_block(path.sp, path)


# ---------------------------------------------------------------------------
# constants and the big projection

def test_frozen_constants(zz, consts):
    assert (consts.D0, consts.L0, consts.R0) == (0.0, 1.0, 1.0)
    assert consts.R1 == 5.0
    assert consts.K0 == 1


def test_coned_nearest_index_shortcut_beats_the_walk(zz):
    gamma = PathSeg(zz, letters=[(0, (1, 0))] * 10 + [(1, (1,))] * 10,
                    q=1, Q=0)
    # t^3 is coned-closest to the origin: 3 edges, vs 4+ via any (k, 0)
    assert coned_nearest_index(zz, gamma, zz.parse_word("t t t")) == 0
    assert coned_nearest_index(zz, gamma, gamma.vertex(14)) == 14


def test_big_projection_pulls_in_the_whole_excursion(zz, consts):
    gamma = PathSeg(zz, letters=[(0, (1, 0))] * 10 + [(1, (1,))] * 10,
                    q=1, Q=0)
    x = zz.parse_word("a a a b b b")
    bp = ProjectionOracle(zz, gamma, consts).project(x)
    assert bp.cosets == [coset_of(zz, (), 0)]
    assert bp.points == gamma.vertex_list()[:11]


def test_big_projection_degenerates_without_nearby_cosets(zz, consts):
    gamma = PathSeg(zz, letters=[(1, (1,))] * 30, q=1, Q=0)
    x = zz.parse_word("t t t t t a a")
    bp = ProjectionOracle(zz, gamma, consts).project(x)
    assert bp.cosets == []
    assert bp.points == [gamma.vertex(bp.pi_index)]
    assert bp.pi_index == 5


def test_coned_projection_bound_on_samples(zz, consts):
    # d_Ghat(x, pi_gamma(x)) <= d_Ghat(x, y) + L for every y on gamma
    gamma = PathSeg(zz, letters=[(0, (1, 0))] * 10 + [(1, (1,))] * 10,
                    q=1, Q=0)
    pool = sorted(oracles.bfs_ball(zz, (), 4), key=zz.vertex_key)
    rng = random.Random(9)
    for _ in range(60):
        x = rng.choice(pool)
        xg = gamma.vertex(coned_nearest_index(zz, gamma, x))
        y = gamma.vertex(rng.randrange(len(gamma)))
        assert coned_dist(zz, x, xg) <= coned_dist(zz, x, y) + consts.L


# ---------------------------------------------------------------------------
# the excursion contraction tester

def test_excursion_contracting_log_ray(zz):
    ray = excursion_ray(zz, 60, lambda k: int(math.log2(1 + k)))
    cc, v = check_excursion_contracting(zz, ray, KLOG, 40, seed=3)
    assert v
    assert v.test == "excursion_contracting"
    assert cc.C2 < 10.0


@pytest.mark.parametrize("gamma", ["log ray", "wandering"])
def test_projection_oracle_prices_every_run_as_coned_dist_to_coset(
        zz, consts, gamma):
    """The prefix-sum pricing of the coset runs equals coned_dist_to_coset
    run by run, at vertices on gamma and off it, and project() selects
    what per-run pricing selects, on the 60-syllable log ray.  A path that
    leaves and re-enters cosets does not spell its end's normal form, and
    the oracle refuses it."""
    if gamma == "wandering":
        path = PathSeg(zz, letters=[zz.parse_word(w)[0] for w in
                                    "t a a A A T b b t a B".split()])
        with pytest.raises(DomainError, match="do not spell the normal form"):
            ProjectionOracle(zz, path, consts)
        return
    path = excursion_ray(zz, 60, lambda k: int(math.log2(1 + k)))
    oracle = ProjectionOracle(zz, path, consts)
    rng = random.Random(6)
    verts = path.vertex_list()
    points = verts[::7] + [verts[-1]]
    for _ in range(150):
        v = rng.choice(verts)
        for _ in range(rng.randint(0, 30)):
            v = zz.mul_gen(v, rng.choice(zz.gens))
        points.append(v)
    for v in points:
        assert oracle._coset_dists(v) == [coned_dist_to_coset(zz, v, P)
                                          for _, _, P in oracle.runs]
    for x in points[::3]:
        bp = oracle.project(x)
        pivot = verts[bp.pi_index]
        near = [(a, b, P) for a, b, P in oracle.runs
                if coned_dist_to_coset(zz, pivot, P) <= consts.R1]
        assert bp.cosets == [P for _, _, P in near]
        assert bp.points == ([v for a, b, _ in near for v in verts[a:b + 1]]
                             or [pivot])


def test_excursion_contracting_requires_the_excursion_property(zz):
    ray = excursion_ray(zz, 40, lambda k: k)
    with pytest.raises(PreconditionError):
        check_excursion_contracting(zz, ray, KLOG, 40, seed=3)
