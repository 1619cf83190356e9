import bisect
import math
import random

import numpy as np
import pytest

import oracles
from coarselab import randwalk as rw
from coarselab import relhyp, space, sublinear
from coarselab.errors import DomainError, Inconclusive
from coarselab.space import FreeGroupSpace, FreeProductSpace, GridSpace

KLOG = sublinear.by_tag("log")


@pytest.fixture(scope="module")
def f2_paths(f2):
    return rw.sample_paths(f2, rw.uniform_generator_measure(f2), 256, 60,
                           seed=5)


# ---------------------------------------------------------------------------
# step measures

def test_step_measure_validation():
    with pytest.raises(DomainError):
        rw.StepMeasure(())
    with pytest.raises(DomainError):
        rw.StepMeasure((((1,), 0.5), ((2,), 0.6)))
    with pytest.raises(DomainError):
        rw.StepMeasure((((1,), -0.5), ((2,), 1.5)))
    mu = rw.StepMeasure.uniform([(1,), (-1,)])
    assert mu.support == (((1,), 0.5), ((-1,), 0.5))


def test_identity_in_support_is_rejected(f2):
    with pytest.raises(DomainError):
        rw.sample_paths(f2, rw.StepMeasure.point_mass(()), 8, 1, seed=0)


def test_non_generator_support_is_spelled_out(f2):
    # steps by a^2 are legal: each one pushes two letters
    mu = rw.StepMeasure.point_mass((1, 1))
    p = rw.sample_paths(f2, mu, 10, 1, seed=0)[0]
    assert p.positions_at({10})[10] == (1,) * 20


# ---------------------------------------------------------------------------
# sample paths

def test_paths_are_deterministic_and_replayable(f2):
    mu = rw.uniform_generator_measure(f2)
    a = rw.sample_paths(f2, mu, 128, 5, seed=9)
    b = rw.sample_paths(f2, mu, 128, 5, seed=9)
    for pa, pb in zip(a, b):
        assert pa.seed == pb.seed
        assert pa.positions_at({1, 64, 128}) == pb.positions_at({1, 64, 128})
        assert pa.stats() == pb.stats()
    # distinct indices get distinct streams
    assert a[0].seed != a[1].seed


def test_point_mass_walk_is_the_axis(f2):
    p = rw.sample_paths(f2, rw.StepMeasure.point_mass((1,)), 32, 1, seed=0)[0]
    assert p.positions_at({32})[32] == (1,) * 32
    s = p.stats()
    assert all(s.norms[k] == k for k in s.checkpoints)


def test_norm_bounded_by_step_count(f2_paths):
    for s in rw.ensemble_stats(f2_paths):
        for k in s.checkpoints:
            assert s.norms[k] <= k


def test_positions_beyond_length_rejected(f2_paths):
    with pytest.raises(DomainError):
        f2_paths[0].positions_at({512})


def _walk_case(name, f2, zz):
    if name == "free_group":
        return f2, rw.uniform_generator_measure(f2)
    if name == "free_product":
        return zz, rw.uniform_generator_measure(zz)
    if name == "non_uniform":
        # a two-syllable element that is not a generator
        return zz, rw.StepMeasure((((0, (1, 0)), 0.15), ((1, (1,)), 0.25),
                                   (((0, (2, -1)), (1, (1,))), 0.35),
                                   ((1, (-1,)), 0.25)))
    if name == "pop_heavy":
        # an element and its inverse, drawn equally often, cancel whole
        # syllables; the grid steps in between leave partial cancellations
        x = ((0, (2, -1)), (1, (1,)))
        return zz, rw.StepMeasure(((x, 0.35), (zz.inv(x), 0.35),
                                   ((0, (0, 1)), 0.15), ((0, (0, -1)), 0.15)))
    if name == "three_factors":
        # grid(1) is a free factor, not a peripheral one
        sp = FreeProductSpace([GridSpace(2), FreeGroupSpace(1), GridSpace(1)])
        return sp, rw.uniform_generator_measure(sp)
    if name == "same_factor_ends":
        # a.t.b is three syllables, the first and last in one factor
        x = ((0, (1, 0)), (1, (1,)), (0, (0, 1)))
        return zz, rw.StepMeasure(((x, 0.25), (zz.inv(x), 0.25),
                                   ((0, (1, 0)), 0.125), ((0, (-1, 0)), 0.125),
                                   ((0, (0, -1)), 0.125), ((1, (-1,)), 0.125)))
    if name == "no_peripheral":
        # flat, and no factor is a grid of dimension >= 2
        sp = FreeProductSpace([FreeGroupSpace(1), GridSpace(1)])
        return sp, rw.uniform_generator_measure(sp)
    if name == "padded":
        # grid(2) and free_group(1) vectors are padded to grid(3)'s width
        sp = FreeProductSpace([GridSpace(2), GridSpace(3), FreeGroupSpace(1)])
        return sp, rw.uniform_generator_measure(sp)
    if name == "free_group_3":
        sp = FreeGroupSpace(3)
        return sp, rw.uniform_generator_measure(sp)
    if name in ("grid_1", "grid_2"):
        # one atom; a bare grid has no peripheral factor
        sp = GridSpace(int(name[-1]))
        return sp, rw.uniform_generator_measure(sp)
    if name == "two_atoms":
        # a.b is not a generator of F_2: each step is two rows
        return f2, rw.StepMeasure.point_mass((1, 2))
    # a free_group(2) factor splits into two atoms, which merge back into
    # one syllable
    sp = FreeProductSpace([FreeGroupSpace(2), GridSpace(2)])
    return sp, rw.uniform_generator_measure(sp)


def _pers(sp):
    return sp.peripheral if isinstance(sp, FreeProductSpace) else ()


def _max_peripheral(sp, w):
    return max((sp.factors[i].norm(e) for i, e in w if i in _pers(sp)),
               default=0)


@pytest.mark.parametrize("case", ["free_group", "free_product", "non_uniform",
                                  "pop_heavy", "three_factors", "split_factor",
                                  "same_factor_ends", "padded",
                                  "no_peripheral", "free_group_3", "grid_2",
                                  "grid_1", "two_atoms"])
def test_replay_matches_the_reference_walk(case, f2, zz):
    sp, mu = _walk_case(case, f2, zz)
    pers = _pers(sp)
    # every case replays flat: F_k is k atoms, a grid one, and only the
    # grid factors of rank >= 2 of a free product are peripheral
    code = rw._step_table(sp, mu)[1]
    factors = sp.factors if isinstance(sp, FreeProductSpace) else (sp,)
    assert code.owner == tuple(i for i, f in enumerate(factors) for _ in
                               range(getattr(f, "k", 1)))
    assert code.peripheral.tolist() == [i in pers for i in code.owner]

    def max_peripheral(w):
        return _max_peripheral(sp, w)

    # every index on short walks; on long ones factor runs cross the
    # requested indices
    for n, count in ((300, 3), (2000, 2)):
        index_sets = [range(n + 1)] if n < 1000 else \
            [[0, *rw._dyadic_checkpoints(n)], [0], [0, 3, 3, n // 2, n // 2, n]]
        for p in rw.sample_paths(sp, mu, n, count, seed=3):
            ref = oracles.walk_positions(sp, mu, n, p.seed)
            for ks in index_sets:
                want = [ref[k] for k in ks]
                got = rw._flat_walks([(p, ks)], words=True)[0]
                assert [(norm, w) for norm, _, _, w in got] == \
                    [(sp.norm(w), w) for w in want]
                if pers:
                    assert [(coned, mx) for _, coned, mx, _ in got] == \
                        [(relhyp.coned_norm(sp, w), max_peripheral(w))
                         for w in want]
            assert p.positions_at(index_sets[-1]) == \
                {k: ref[k] for k in index_sets[-1]}
            s = p.stats()
            ks = s.checkpoints
            assert s.norms == {k: sp.norm(ref[k]) for k in ks}
            if not pers:
                assert s.coned == {} and s.max_peripheral == {}
                continue
            assert s.coned == {k: relhyp.coned_norm(sp, ref[k]) for k in ks}
            assert s.max_peripheral == {k: max_peripheral(ref[k]) for k in ks}


def test_ensemble_stats_mix_spaces_measures_and_lengths(f2, zz):
    """Walks are replayed in groups: walks of other spaces, measures and
    lengths in between, a walk with stats already and a repeated walk must
    not change what any walk gets."""
    cases = ("free_product", "pop_heavy", "split_factor", "three_factors",
             "free_group", "no_peripheral", "padded", "grid_2")
    paths = []
    for n in (1, 37, 600, 2500):
        for j, case in enumerate(cases):
            sp, mu = _walk_case(case, f2, zz)
            paths += rw.sample_paths(sp, mu, n, 1, seed=10 * j + n)
    sp, mu = _walk_case("same_factor_ends", f2, zz)
    paths += rw.sample_paths(sp, mu, 3000, 5, seed=1)   # several per group
    paths.append(paths[-1])
    paths[7].stats()
    got = rw.ensemble_stats(paths)
    assert got == [rw.SamplePath(p.sp, p.mu, p.length, p.seed).stats()
                   for p in paths]
    for p, s in zip(paths, got):
        ref = oracles.walk_positions(p.sp, p.mu, p.length, p.seed)
        ks = s.checkpoints
        assert ks == rw._dyadic_checkpoints(p.length)
        assert s.norms == {k: p.sp.norm(ref[k]) for k in ks}
        if _pers(p.sp):
            assert s.coned == {k: relhyp.coned_norm(p.sp, ref[k]) for k in ks}
            assert s.max_peripheral == {k: _max_peripheral(p.sp, ref[k])
                                        for k in ks}
        else:
            assert s.coned == s.max_peripheral == {}


def test_replay_spills_wide_packed_vectors(zz):
    """grid(5) coordinates of size 1,000 over a few hundred rows need more
    digit bits than five columns fit in one 62-bit word."""
    sp = FreeProductSpace([GridSpace(5), FreeGroupSpace(1)])
    x = ((0, (1000, -999, 0, 7, -1000)),)
    mu = rw.StepMeasure(((x, 0.3), (sp.inv(x), 0.25),
                         ((0, (0, 0, 1, 0, 0)), 0.15), ((1, (1,)), 0.15),
                         ((1, (-1,)), 0.15)))
    *_, bound = rw._step_table(sp, mu)[2]
    assert len(space.FlatPack(5, 300, bound).pack([np.zeros(1, int)] * 5)) > 1
    for p in rw.sample_paths(sp, mu, 300, 3, seed=2):
        ref = oracles.walk_positions(sp, mu, 300, p.seed)
        # one block per step, so every syllable is merged at a junction;
        # then long blocks, reduced in numpy
        for ks in (list(range(301)), [0, 1, 150, 300]):
            got = rw._flat_walks([(p, ks)], words=True)[0]
            assert got == [(sp.norm(ref[k]), relhyp.coned_norm(sp, ref[k]),
                            _max_peripheral(sp, ref[k]), ref[k]) for k in ks]


def test_ensemble_stats_do_not_depend_on_the_group_size(zz, monkeypatch):
    paths = []
    for j, case in enumerate(("free_product", "same_factor_ends", "padded")):
        sp, mu = _walk_case(case, None, zz)
        paths += rw.sample_paths(sp, mu, 900, 12, seed=j)
    got = []
    for steps in (1 << 10, 1 << 16):
        monkeypatch.setattr(rw, "_GROUP_STEPS", steps)
        got.append(rw.ensemble_stats([rw.SamplePath(p.sp, p.mu, p.length,
                                                    p.seed) for p in paths]))
    assert got[0] == got[1]
    assert got[0] == [rw.SamplePath(p.sp, p.mu, p.length, p.seed).stats()
                      for p in paths]


@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 + 5])
@pytest.mark.parametrize("m", [0, 1, 7, 5000])
def test_batched_draws_match_one_draw_per_step(seed, m, zz):
    real = rw._step_table(zz, rw.uniform_generator_measure(zz))[0]
    rng = random.Random(seed)
    drawn = [rng.random() for _ in range(50)]
    cases = (
        real,
        # with sums stopping at 0.5, half the draws fall past the last one
        (0.25, 0.5),
        # sums on the edges of the 2^12 lookup buckets, and one and two
        # steps of 2^-53 below them
        tuple(sorted(j / 4096 - e for j in (1, 2, 1000, 2048, 4095, 4096)
                     for e in (0, 2 ** -53, 2 ** -52))),
        # several sums inside one bucket
        (0.3, 0.3 + 1e-6, 0.3 + 2e-6, 0.3 + 3e-6, 1.0),
        # sums on draws of the stream and one ulp either side
        tuple(sorted(y for x in drawn[::7] for y in
                     (math.nextafter(x, 0), x, math.nextafter(x, 2)))),
        # last sums just below and just above 1
        (0.5, 0.9999999999999999),
        (0.5, 1.0000000000000002),
    )
    for cum in cases:
        want = oracles.step_draws(seed, m, cum)
        assert rw._draws(seed, m, cum).tolist() == want
        # a bucket's entry must hold from its lowest draw to its highest
        lookup = rw._draw_table(cum)[1].tolist()
        for u in range(4096):
            ends = [bisect.bisect_left(cum, k * 2.0 ** -53)
                    for k in (u << 41, ((u + 1) << 41) - 1)]
            assert lookup[u] == (ends[0] if ends[0] == ends[1] else -1)
        if m == 5000 and cum == (0.25, 0.5):
            assert 2 in want


def test_positions_at_edge_indices(f2):
    p = rw.sample_paths(f2, rw.uniform_generator_measure(f2), 16, 1, seed=0)[0]
    assert p.positions_at({0}) == {0: f2.identity}
    assert p.positions_at({0, 16}) == {0: f2.identity,
                                       16: p.positions_at({16})[16]}
    for bad in ({-1}, {17}):
        with pytest.raises(DomainError):
            p.positions_at(bad)


def test_sample_paths_validation(f2):
    mu = rw.uniform_generator_measure(f2)
    with pytest.raises(DomainError):
        rw.sample_paths(f2, mu, 0, 3, seed=0)
    with pytest.raises(DomainError):
        rw.sample_paths(f2, mu, 8, 0, seed=0)


def test_sample_paths_rejects_a_loopy_ray():
    sp = space.build_space("loopy_ray(5)")
    with pytest.raises(DomainError, match=r"loopy_ray\(5\) has no flat"):
        rw.sample_paths(sp, rw.StepMeasure.point_mass(("r", 1)), 8, 1, seed=0)


def test_sample_paths_rejects_a_change_of_generators():
    sp, _ = space.change_generators(GridSpace(2), [(1, 0), (0, 1), (1, 1)],
                                    radius=3)
    with pytest.raises(DomainError, match=r"grid\(2\)\+regen has no flat"):
        rw.sample_paths(sp, rw.uniform_generator_measure(sp), 8, 1, seed=0)


# ---------------------------------------------------------------------------
# drift

def test_drift_free_group_near_half(f2_paths):
    rep = rw.drift(f2_paths)
    assert 0.45 <= rep.ell <= 0.55
    assert rep.ci[0] <= rep.ell <= rep.ci[1]
    assert rep.subadditive
    assert rep.dyadic_means[-1][0] == 256


def test_drift_point_mass_is_one(f2):
    paths = rw.sample_paths(f2, rw.StepMeasure.point_mass((1,)), 64, 30,
                            seed=0)
    rep = rw.drift(paths)
    assert rep.ell == 1.0
    assert rep.ci == (1.0, 1.0)


def test_drift_needs_thirty_paths(f2):
    paths = rw.sample_paths(f2, rw.uniform_generator_measure(f2), 16, 5,
                            seed=0)
    with pytest.raises(DomainError):
        rw.drift(paths)


# ---------------------------------------------------------------------------
# progress tails

def test_progress_tail_free_group_decays(f2_paths):
    rows, v = rw.progress_tail(f2_paths, 0.5, 0.5)
    assert v
    assert rows[-1][1] == 0.0


def test_progress_tail_grid_is_diffusive(z2):
    paths = rw.sample_paths(z2, rw.uniform_generator_measure(z2), 256, 60,
                            seed=5)
    _, v = rw.progress_tail(paths, 0.5, 0.5)
    assert not v


def test_progress_tail_without_failures_passes(f2):
    paths = rw.sample_paths(f2, rw.StepMeasure.point_mass((1,)), 64, 30,
                            seed=0)
    rows, v = rw.progress_tail(paths, 1.0, 0.5)
    assert v
    assert all(p == 0.0 for _, p in rows)


def test_progress_tail_rejects_bad_fraction(f2_paths):
    with pytest.raises(DomainError):
        rw.progress_tail(f2_paths, 0.5, 1.5)


# ---------------------------------------------------------------------------
# peripheral statistics

def test_mann_kendall_direction():
    assert rw.mann_kendall_increasing([1, 2, 3, 4, 5, 6, 7]) < 0.05
    assert rw.mann_kendall_increasing([7, 6, 5, 4, 3, 2, 1]) > 0.5
    assert rw.mann_kendall_increasing([1, 2]) == 1.0


def test_peripheral_growth_uniform_walk_is_logarithmic(zz):
    paths = rw.sample_paths(zz, rw.uniform_generator_measure(zz), 1024, 80,
                            seed=2)
    rows, v = rw.peripheral_projection_growth(paths, lo=2 ** 5, hi=2 ** 10)
    assert v
    assert [k for k, _ in rows] == [32, 64, 128, 256, 512, 1024]


def test_peripheral_growth_coset_trapped_walk_fails(zz):
    grid_mu = rw.StepMeasure.uniform([g for g in zz.gens if g[0] == 0])
    paths = rw.sample_paths(zz, grid_mu, 1024, 80, seed=2)
    _, v = rw.peripheral_projection_growth(paths, lo=2 ** 5, hi=2 ** 10)
    assert not v
    assert v.parameters["p_value"] <= 0.05


def test_peripheral_growth_needs_relhyp(f2_paths):
    with pytest.raises(DomainError):
        rw.peripheral_projection_growth(f2_paths, lo=2, hi=256)


# ---------------------------------------------------------------------------
# limit-ray proxies and tracking

def test_proxy_point_mass_rides_the_free_axis(zz):
    p = rw.sample_paths(zz, rw.StepMeasure.point_mass((1, (1,))), 64, 1,
                        seed=0)[0]
    proxy = rw.limit_ray_proxy(zz, p)
    assert proxy.constants == (1, 0)
    assert proxy.horizon == 64
    assert len(proxy.path_seg) - 1 == 64
    assert all(i == 1 for i, _ in proxy.path_seg.step_letters())


def test_proxy_inconclusive_when_coned_progress_is_tiny(zz):
    trapped = rw.sample_paths(zz, rw.StepMeasure.point_mass((0, (1, 0))),
                              64, 1, seed=0)[0]
    with pytest.raises(Inconclusive):
        rw.limit_ray_proxy(zz, trapped)


def test_proxy_on_plain_group_is_a_geodesic(f2, f2_paths):
    p = f2_paths[0]
    proxy = rw.limit_ray_proxy(f2, p)
    w = p.positions_at({256})[256]
    assert proxy.path_seg.endpoint() == w
    assert len(proxy.path_seg) - 1 == f2.norm(w)


def test_tracking_profile_free_group(f2, f2_paths):
    paths = f2_paths[:40]
    proxies = [rw.limit_ray_proxy(f2, p) for p in paths]
    rows, v1, v2 = rw.tracking_profile(paths, proxies)
    assert v1 and v2
    assert rows[-1][0] == 128          # bands stop at N/2
    assert rows[-1][1] <= 0.05
    with pytest.raises(DomainError):
        rw.tracking_profile(paths, proxies[:-1])


def test_tracking_profile_needs_a_checkpoint_below_half_the_horizon(f2):
    paths = rw.sample_paths(f2, rw.uniform_generator_measure(f2), 1, 3,
                            seed=0)
    proxies = [rw.limit_ray_proxy(f2, p) for p in paths]
    with pytest.raises(DomainError, match="horizon N = 1"):
        rw.tracking_profile(paths, proxies)


# ---------------------------------------------------------------------------
# hitting statistics

def test_direction_cells(f2, zz):
    assert rw.direction_cell(f2, (1, 2, -1)) == "a"
    assert rw.direction_cell(f2, (-2, 1)) == "B"
    assert rw.direction_cell(f2, ()) == "other"
    assert rw.direction_cell(zz, zz.parse_word("a a t")) == "P0"
    assert rw.direction_cell(zz, zz.parse_word("t b b")) == "f1:a"
    assert rw.direction_cell(zz, ()) == "other"


def test_hitting_histogram_free_group_is_near_uniform(f2):
    paths = rw.sample_paths(f2, rw.uniform_generator_measure(f2), 64, 200,
                            seed=1)
    hist = rw.hitting_histogram(paths)
    assert set(hist) == {"a", "A", "b", "B"}
    assert sum(hist.values()) == pytest.approx(1.0)
    for p in hist.values():
        assert 0.15 <= p <= 0.35


def test_hitting_histogram_matches_the_cells_of_the_endpoints():
    """Walks on five spaces in one list: the histogram counts the cells
    of the reference walks' endpoints."""
    paths, cells = [], {}
    for spec, count in (("free_group(2)", 90), ("free_group(3)", 20),
                        ("grid(2)", 20),
                        ("free_product(grid(2), free_group(1))", 20),
                        ("free_product(free_group(2), grid(1))", 20)):
        sp = space.build_space(spec)
        mu = rw.uniform_generator_measure(sp)
        for p in rw.sample_paths(sp, mu, 200, count, seed=4):
            c = rw.direction_cell(sp, oracles.walk_positions(
                sp, mu, p.length, p.seed)[-1])
            cells[c] = cells.get(c, 0) + 1
            paths.append(p)
    assert len(cells) > 10
    assert rw.hitting_histogram(paths) == \
        {c: cells[c] / len(paths) for c in sorted(cells)}


def test_hitting_histogram_point_mass(f2):
    paths = rw.sample_paths(f2, rw.StepMeasure.point_mass((1,)), 16, 10,
                            seed=1)
    assert rw.hitting_histogram(paths) == {"a": 1.0}


# ---------------------------------------------------------------------------
# walk-ray excursions

def test_walk_ray_excursions_are_horizon_stable(zz):
    paths = rw.sample_paths(zz, rw.uniform_generator_measure(zz), 256, 16,
                            seed=4)
    full, v = rw.excursion_of_walk_ray(zz, paths, KLOG)
    assert v
    assert len(full) == 16
    assert v.parameters["q_full"] <= v.parameters["q_half"] * 1.5 + 1e-9


def test_walk_ray_excursions_reuse_the_proxy_lift(zz, monkeypatch):
    mu = rw.uniform_generator_measure(zz)
    want = rw.excursion_of_walk_ray(zz, rw.sample_paths(zz, mu, 512, 3, 4),
                                    KLOG)
    paths = rw.sample_paths(zz, mu, 512, 3, seed=4)
    proxies = [rw.limit_ray_proxy(zz, p) for p in paths]
    lifted = []
    lift = relhyp.lift_coned_geodesic
    monkeypatch.setattr(relhyp, "lift_coned_geodesic",
                        lambda *a, **k: lifted.append(1) or lift(*a, **k))
    full, v = rw.excursion_of_walk_ray(zz, paths, KLOG)
    assert len(lifted) == 3   # the half horizons; the full ones are shared
    assert (full, v.to_json()) == (want[0], want[1].to_json())
    assert all(p._lift[1] is proxy.path_seg
               for p, proxy in zip(paths, proxies))


def test_walk_ray_excursions_need_relhyp(f2, f2_paths):
    with pytest.raises(DomainError):
        rw.excursion_of_walk_ray(f2, f2_paths[:4], KLOG)


# ---------------------------------------------------------------------------
# CSV emission

def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return lines


def test_walk_stats_csv(tmp_path, f2_paths):
    out = tmp_path / "walk_stats.csv"
    rw.write_walk_stats_csv(str(out), f2_paths[:3])
    lines = _read_csv(out)
    assert lines[0].startswith("#") and "schema=1" in lines[0]
    assert lines[1] == "path_id,n,dist,coned_dist"
    ks = rw._dyadic_checkpoints(256)
    assert len(lines) == 2 + 3 * len(ks)
    # non-relhyp spaces leave the coned column empty
    assert lines[2].endswith(",")


def test_excursion_csv(tmp_path, zz):
    ray = relhyp.excursion_ray(zz, 12, lambda k: int(math.log2(1 + k)))
    rows, _, _ = relhyp.excursion_profile(zz, ray, 0, KLOG)
    out = tmp_path / "excursion.csv"
    rw.write_excursion_csv(str(out), rows)
    lines = _read_csv(out)
    assert lines[1] == "coset_id,excursion,coned_norm,ratio"
    assert len(lines) == 2 + 12


def test_tracking_csv(tmp_path):
    out = tmp_path / "tracking.csv"
    rw.write_tracking_csv(str(out), [(2, 0.5, 1.0), (4, 0.25, 0.9)])
    lines = _read_csv(out)
    assert lines[1] == "n,ratio_n,ratio_log2"
    assert lines[2] == "2,0.500000,1.000000"
