"""End-to-end gate: exact lemmas, oracle equivalence, the derived-gauge
chain, calibrated statistics, and reproducibility, each with a pinned
runtime budget.  Everything here is deterministic for a fixed seed."""

import json
import random
import time

import oracles
from coarselab import cli, morse, randwalk as rw, relhyp, sublinear
from coarselab.morse import test_kappa_contracting as check_contracting
from coarselab.morse import test_kappa_morse as check_morse
from coarselab.space import (PathSeg, axis_ray, build_space,
                             first_time_at_norm, is_quasi_geodesic,
                             nearest_point_projection)

K1 = sublinear.by_tag("1")
KLOG = sublinear.by_tag("log")
KSQRT = sublinear.by_tag("sqrt")

SPECS = ("free_group(2)", "grid(2)", "free_product(grid(2), free_group(1))",
         "loopy_ray(12)")


def _random_vertex(sp, rng, length):
    if sp.is_group:
        acc = sp.right_acc(sp.identity)
        for _ in range(length):
            acc.push(rng.choice(sp.gens))
        return acc.value()
    v = sp.basepoint
    for _ in range(length):
        v = rng.choice(sp.neighbors(v))
    return v


def _base_ray(sp, length):
    return sp.ray_prefix(length) if hasattr(sp, "ray_prefix") \
        else axis_ray(sp, length)


def _portal_projection(loopy):
    def proj(v):
        ports = loopy._portals(v)
        best = min(c for _, c in ports)
        return tuple(("r", p) for p, c in ports if c == best)
    return proj


# ---------------------------------------------------------------------------
# 1. exact lemmas

def test_exact_lemma_suite():
    t0 = time.monotonic()
    # projections onto basepoint rays never exceed twice the input norm
    for spec in SPECS:
        sp = build_space(spec)
        ray = _base_ray(sp, 100)
        rng = random.Random(1)
        for _ in range(1000):
            x = _random_vertex(sp, rng, rng.randint(0, 40))
            for p in nearest_point_projection(sp, x, ray):
                assert sp.norm(p) <= 2 * sp.norm(x), (spec, x, p)
    # the scaling inequality for every registered gauge
    for tag, f in sublinear.registry().items():
        for lam in (1.5, 2.0, 7.0, 10.0):
            ok, worst = sublinear.check_scaling(f, lam)
            assert ok, (tag, lam, worst)
    # surgery postconditions, exactly, on 50 independent fixtures
    f2 = build_space("free_group(2)")
    r, R = 40, 120
    gamma = axis_ray(f2, 140)
    target = gamma.vertex(120)
    for s in range(50):
        # probe 0 is the geodesic to the target; probe 1 is a detour probe
        alpha = morse.probe_family(f2, target, 2.0, 4, 2, seed=s)[1]
        out = morse.surgery(f2, gamma, alpha, r, R)
        t = first_time_at_norm(alpha, r // 2)
        assert out.vertex_list()[:t + 1] == alpha.vertex_list()[:t + 1]
        t_R = first_time_at_norm(gamma, R)
        assert out.vertex_list()[-(len(gamma) - t_R):] == \
            gamma.vertex_list()[t_R:]
        assert out.q == 9 * alpha.q and out.Q == alpha.Q
        assert is_quasi_geodesic(out, out.q, out.Q).ok
    assert time.monotonic() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 2. oracle equivalence on radius-8 balls

def test_oracle_equivalence_radius_eight():
    for spec in SPECS:
        sp = build_space(spec)
        ball = oracles.bfs_ball(sp, sp.basepoint, 8)
        for v, depth in ball.items():
            assert sp.norm(v) == depth, (spec, v)
        # shifted centers: distances from off-basepoint sources
        rng = random.Random(2)
        if sp.is_group:
            for _ in range(3):
                c = _random_vertex(sp, rng, 5)
                for v, depth in oracles.bfs_ball(sp, c, 4).items():
                    assert sp.dist(c, v) == depth, (spec, c, v)
    # coset projections on the free product
    zz = build_space("free_product(grid(2), free_group(1))")
    pool = sorted(oracles.bfs_ball(zz, (), 5), key=zz.vertex_key)
    rng = random.Random(3)
    for prefix in ((), zz.parse_word("t"), zz.parse_word("a t")):
        P = relhyp.PeripheralCoset(factor=0, rep=prefix)
        for x in [rng.choice(pool) for _ in range(20)]:
            got = relhyp.coset_projection(zz, x, P)
            brute, best = oracles.brute_coset_projection(zz, x, 0, prefix,
                                                         reach=11)
            assert got == brute, (prefix, x)
            assert zz.dist(x, got[0]) == best


# ---------------------------------------------------------------------------
# 3. the derived-gauge chain

def test_contraction_constants_feed_the_morse_gauge():
    t0 = time.monotonic()
    f2 = build_space("free_group(2)")
    Z = axis_ray(f2, 3000)
    pts = axis_ray(f2, 600).vertex_list()

    def proj(x):
        best = min(f2.dist(x, p) for p in pts)
        return tuple(p for p in pts if f2.dist(x, p) == best)

    cc, cv = check_contracting(f2, axis_ray(f2, 600), proj, K1, 0.5, 120,
                               seed=7)
    assert cv
    pc, pv = morse.fit_kappa_projection(f2, axis_ray(f2, 600), proj, K1, 80,
                                        seed=5)
    assert pv
    for q in (1.5, 2, 3):
        for Q in (0, 4):
            der = morse.derive_gauge(q, Q, cc.C1, cc.C2, pc.D1,
                                     max(pc.D2, 0.0), K1)
            gauge = morse.derived_gauge(cc.C1, cc.C2, pc.D1,
                                        max(pc.D2, 0.0), K1)
            r = max(160.0, 2.0 * der.m_Z)
            R = r + 400.0
            v = check_morse(f2, Z, K1, K1, r, R, q, Q, 200, seed=2,
                            gauge=gauge)
            assert v, (q, Q, v.witness)
            assert v.parameters["checked"] >= 190
    assert time.monotonic() - t0 <= 600.0


# ---------------------------------------------------------------------------
# 4. the loopy-ray example

def test_loopy_ray_projection_and_contraction():
    loopy = build_space("loopy_ray(30)")
    ray = loopy.ray_prefix(600)
    proj = _portal_projection(loopy)
    specs = [(loopy.apex(n), n * n - 1) for n in range(2, 31)]
    rows, fit = morse.projection_diameter_profile(
        loopy, ray, proj, specs, seed=0, cap=3_000_000)
    for (radius, nc, diam), n in zip(rows, range(2, 31)):
        assert radius == n * n - 1
        assert nc >= n * n
        assert diam == n          # in particular diam >= n, exactly
    # the contraction condition quantifies over all base points, so the
    # apexes (the widest-projection witnesses) are supplied directly;
    # random sampling reaches the deep loop interiors only by luck
    apexes = [loopy.apex(n) for n in range(2, 31)]
    consts, v_sqrt = check_contracting(loopy, ray, proj, KSQRT, 0.5, 120,
                                       seed=7, points=apexes)
    assert v_sqrt
    assert consts.C2 <= 1.0
    _, v_const = check_contracting(loopy, ray, proj, K1, 0.5, 120, seed=7,
                                   points=apexes)
    assert not v_const


# ---------------------------------------------------------------------------
# 5. negative controls

def test_negative_controls_all_trigger():
    z2 = build_space("grid(2)")
    diag = PathSeg(z2, start=(0, 0),
                   letters=[((1, 0), (0, 1))[k % 2] for k in range(400)],
                   q=1, Q=0)
    v = check_morse(z2, diag, K1, K1, 100, 400, 1.5, 0, 20, seed=7,
                    gauge=morse.MorseGauge.constant(8.0))
    assert not v
    assert isinstance(v.witness["path"], PathSeg)

    Z = axis_ray(z2, 600)

    def proj(x):
        return ((min(max(x[0], 0), 600), 0),)

    for kappa in (K1, KLOG, KSQRT):
        _, w = check_contracting(z2, Z, proj, kappa, 0.5, 160, seed=7)
        assert not w, kappa.tag

    paths = rw.sample_paths(z2, rw.uniform_generator_measure(z2), 1024, 200,
                            seed=5)
    _, tail = rw.progress_tail(paths, 0.5, 0.5)
    assert not tail


# ---------------------------------------------------------------------------
# 6. drift calibration

def test_drift_calibration_free_group():
    t0 = time.monotonic()
    f2 = build_space("free_group(2)")
    paths = rw.sample_paths(f2, rw.uniform_generator_measure(f2), 2 ** 12,
                            10 ** 4, seed=5)
    rep = rw.drift(paths)
    assert 0.48 <= rep.ell <= 0.52
    assert rep.ci[0] <= 0.5 <= rep.ci[1]
    assert rep.subadditive
    assert time.monotonic() - t0 <= 300.0


# ---------------------------------------------------------------------------
# 7. walk statistics on the free product

def test_walk_statistics_free_product():
    t0 = time.monotonic()
    zz = build_space("free_product(grid(2), free_group(1))")
    mu = rw.uniform_generator_measure(zz)

    # (a) peripheral projection growth on the full ensemble
    big = rw.sample_paths(zz, mu, 2 ** 13, 2000, seed=2)
    rows, v_growth = rw.peripheral_projection_growth(big, lo=2 ** 7,
                                                     hi=2 ** 13)
    assert v_growth, v_growth.parameters

    # proxy-based statistics on a deterministic sub-ensemble at a shorter
    # horizon (lift certification is quadratic in the proxy length)
    sub = rw.sample_paths(zz, mu, 2 ** 11, 120, seed=2)
    proxies = [rw.limit_ray_proxy(zz, p) for p in sub]

    # (b) tracking: median distance to the proxy stays bounded by log^2 n
    _, v_lin, v_log2 = rw.tracking_profile(sub, proxies)
    assert v_log2, v_log2.parameters
    assert v_lin, v_lin.parameters

    # (c) excursion constants stay put when the horizon doubles
    _, v_exc = rw.excursion_of_walk_ray(zz, sub, KLOG)
    assert v_exc, v_exc.parameters

    # (d) proxy rays are log-Morse
    for proxy in proxies[:8]:
        assert proxy.constants == (1, 0)
        v = check_morse(zz, proxy.path_seg, KLOG, KLOG, 300, 900, 1.5, 0,
                        20, seed=3, gauge=morse.MorseGauge.constant(15.0))
        assert v, v.witness
    assert time.monotonic() - t0 <= 1800.0


# ---------------------------------------------------------------------------
# 8. distance-formula stability

def test_distance_formula_stability():
    zz = build_space("free_product(grid(2), free_group(1))")
    pairs, _ = cli._random_pairs(zz, 500, 30, seed=11)
    fit5 = relhyp.fit_distance_formula(zz, pairs, 5)
    fit10 = relhyp.fit_distance_formula(zz, pairs, 10)
    assert abs(fit10.M - fit5.M) / fit5.M < 0.10
    for _, _, d, S in fit5.residuals:
        assert S / fit5.M - fit5.A <= d <= fit5.M * S + fit5.A


# ---------------------------------------------------------------------------
# 9. reproducibility

REPRO_CONFIG = """\
[experiment]
seed = 11
space = free_product(grid(2), free_group(1))

[excursion]
syllables = 60
sizes = log
kappa = log

[walk]
statistic = drift
n = 256
count = 60
lo = 0.1
hi = 0.9
"""


def test_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(REPRO_CONFIG)
    cfg = cli.validate_config(str(cfg_path))
    outs = []
    for name in ("r1", "r2", "r3"):
        out = tmp_path / name
        summary, code = cli.run_experiment(cfg, out=str(out))
        assert code == 0, summary
        outs.append(out)
    for name in ("summary.json", "walk_stats.csv", "excursion.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        assert blobs[0] == blobs[1] == blobs[2], name
    # and the summary really carries the verdicts
    data = json.loads((outs[0] / "summary.json").read_text())
    assert data["ok"] and len(data["results"]) == 2
