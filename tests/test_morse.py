import json
import math

import pytest

import oracles
from coarselab import morse, space, sublinear
from coarselab.errors import (DomainError, Inconclusive, NotSublinear,
                              PreconditionError)
from coarselab.morse import (MorseGauge, Verdict, _band_trend_fail,
                             cone_membership, derive_gauge, derived_gauge,
                             fellow_traveling_profile, fit_kappa_projection,
                             in_kappa_neighborhood, probe_family,
                             projection_diameter_profile,
                             radius_contraction_rho, surgery,
                             symmetry_transfer)
# aliased so pytest does not collect the library entry points as tests
from coarselab.morse import test_kappa_contracting as check_contracting
from coarselab.morse import test_kappa_morse as check_morse
from coarselab.seeds import derive_seed, rng_for
from coarselab.space import PathSeg, axis_ray, is_quasi_geodesic

K1 = sublinear.by_tag("1")
KLOG = sublinear.by_tag("log")
KSQRT = sublinear.by_tag("sqrt")


def _axis_projection(sp, ray):
    pts = ray.vertex_list()

    def proj(x):
        best = min(sp.dist(x, p) for p in pts)
        return tuple(p for p in pts if sp.dist(x, p) == best)

    return proj


# ---------------------------------------------------------------------------
# verdicts

def test_verdict_bool_and_json(f2):
    v = Verdict(True, test="demo", margin=1.5, parameters={"a": 1}, seed=7)
    assert v and v.passed
    blob = json.dumps(v.to_json())
    assert "demo" in blob
    w = Verdict(False, test="demo",
                witness={"path": f2.geodesic((), (1, 2))})
    assert not w
    assert isinstance(w.to_json()["witness_path"], list)


# ---------------------------------------------------------------------------
# band trend statistic

def test_band_trend_flat_is_stable():
    assert not _band_trend_fail([3.0, 3.1, 2.9, 3.0, 3.05, 3.0])


def test_band_trend_doubling_fails():
    assert _band_trend_fail([1, 2, 4, 8, 16, 32])


def test_band_trend_zeroes_and_short_sequences_pass():
    assert not _band_trend_fail([0, 0, 0, 0])
    assert not _band_trend_fail([1.0, 2.0])


def test_band_trend_jump_to_plateau_is_stable():
    # one early jump then a bound: not growth
    assert not _band_trend_fail([0.5, 4.0, 4.0, 4.1, 4.0, 4.05])


def test_band_trend_power_growth_fails_despite_noise():
    vals = [2 ** (0.5 * i) * (1.0 if i % 2 else 0.7) for i in range(8)]
    assert _band_trend_fail(vals)


# ---------------------------------------------------------------------------
# gauges and the derived constant stack

def test_constant_gauge_normalization():
    g = MorseGauge.constant(5.0)
    assert g(1, 0) == 5.0
    assert g(7, 0) == 7.0   # never below q
    assert g(2, 9) == 9.0   # never below Q


def test_derive_gauge_tree_anchor_values():
    d = derive_gauge(1.5, 0, 0.5, 0, 1, 0, K1)
    assert d.m_Z == pytest.approx(75.0, abs=1e-9)
    assert d.m3 == pytest.approx(45.0, abs=1e-9)
    d2 = derive_gauge(3, 4, 0.5, 0, 1, 0, K1)
    assert d2.m_Z == pytest.approx(1200.0, abs=1e-9)


def test_derive_gauge_worked_example():
    d = derive_gauge(2, 0, 0.5, 1, 1, 1, K1)
    assert d.m0 == pytest.approx(20.0)
    assert d.m1 == pytest.approx(8.0)
    assert d.A == pytest.approx(72.15)
    assert d.m3 == pytest.approx(392.15)
    assert d.m_Z == pytest.approx(804.3)


def test_derive_gauge_monotone_in_q():
    vals = [derive_gauge(q, 0, 0.5, 0, 1, 0, K1).m_Z for q in (1.5, 2, 3, 6)]
    assert vals == sorted(vals)


def test_derive_gauge_rejects_bad_inputs():
    with pytest.raises(DomainError):
        derive_gauge(1.0, 0, 0.5, 0, 1, 0, K1)
    with pytest.raises(DomainError):
        derive_gauge(2, 0, 0.6, 0, 1, 0, K1)
    # a negative constant is named, however deep its first use would be
    for name, args in (("Q", (2, -1, 0.5, 1, 1, 1)),
                       ("C2", (2, 0, 0.5, -648, 1, 1)),
                       ("D1", (2, 0, 0.5, 1, -1, 1)),
                       ("D2", (2, 0, 0.5, 1, 1, -2))):
        with pytest.raises(DomainError, match=f"needs {name} >= 0"):
            derive_gauge(*args, K1)


def test_radius_contraction_rho_tree_anchor():
    g = derived_gauge(0.5, 0, 1, 0, K1)
    assert radius_contraction_rho(g, 100) == pytest.approx(400.0, rel=1e-5)


def test_radius_contraction_rho_matches_brute_scan():
    g = derived_gauge(0.5, 1, 1, 1, KLOG)
    r = 50.0
    rho = radius_contraction_rho(g, r)
    # brute scan of the defining supremum
    best = 0.0
    s = 1e-3
    while s <= 4 * r:
        if s <= 18 * g(12 * r / s, 0):
            best = s
        s += 0.01
    assert rho == pytest.approx(best, abs=0.05)


@pytest.mark.parametrize("gauge, exact", [
    # rhs(s) = 18 * 10 stays below 4r, so the sup is 180
    (MorseGauge.constant(10.0), 180.0),
    # s <= 18 * 12r / s, so the sup is sqrt(216 r)
    (MorseGauge(lambda q, Q: q), math.sqrt(216 * 100.0)),
], ids=["constant", "identity"])
def test_radius_contraction_rho_bisects_below_4r(gauge, exact):
    """Closed forms whose supremum lies below 4r, so the bisection runs;
    it returns a feasible s within its tolerance of the sup."""
    r = 100.0
    rho = radius_contraction_rho(gauge, r)
    assert 0 <= exact - rho <= 1e-6 * r


# ---------------------------------------------------------------------------
# probes

def test_probe_family_certified_and_ends_on_target(f2):
    target = (1,) * 12
    fam = probe_family(f2, target, 2.0, 4, 9, seed=3)
    assert len(fam) == 9
    for beta in fam:
        assert beta.endpoint() == target
        assert is_quasi_geodesic(beta, beta.q, beta.Q).ok
    # some probe must genuinely deviate from the geodesic
    assert any(len(b) > 13 for b in fam)


@pytest.mark.parametrize("spec", ["free_group(2)", "grid(2)",
                                  "free_product(grid(2), free_group(1))"])
def test_probe_ends_are_their_replayed_endpoints(spec, monkeypatch):
    """Every probe kind declares its end, and the end is where its letters
    lead: a wrong end would fake the geodesic shortcut of
    is_quasi_geodesic."""
    sp = space.build_space(spec)
    g, h = sp.gens[0], sp.gens[-1]
    target = PathSeg(sp, start=sp.identity,
                     letters=[g] * 12 + [h] * 5).endpoint()
    built = []
    for name in ("_insert_detours", "_random_walk_vertex"):
        def counted(*args, _fn=getattr(morse, name), _name=name):
            built.append(_name)
            return _fn(*args)
        monkeypatch.setattr(morse, name, counted)
    fam = probe_family(sp, target, 2.0, 4, 6, seed=1)
    # detours and L-shapes (one waypoint walk each) were built
    assert set(built) == {"_insert_detours", "_random_walk_vertex"}
    assert any(len(beta) == sp.norm(target) + 1 for beta in fam)
    for beta in fam:
        replayed = PathSeg(sp, start=beta.start, letters=beta.letters)
        assert beta._end is not None
        assert beta._end == replayed.endpoint() == target


def test_stacked_detours_are_not_certified(f2):
    # probe 1 of probe_family(f2, axis_ray(f2, 700).vertex(690), 2.0, 4, 6,
    # seed=3) as it was built when detours could land next to each other:
    # two depth-3 detours make vertices 482 and 494 coincide, 12 steps
    # apart, against d >= 12/2 - 4.  Anchor sampling certified this path.
    base = f2.geodesic((), axis_ray(f2, 700).vertex(690))
    rng = rng_for(3, 1)
    depth = rng.randint(1, 4)
    letters = base.step_letters()
    for _ in range(rng.randint(1, len(base) // 40 + 1)):
        pos = rng.randrange(len(letters) + 1)
        g = rng.choice(f2.gens)
        letters[pos:pos] = [g] * depth + [f2.gen_inv(g)] * depth
    path = PathSeg(f2, start=(), letters=letters)
    assert len(path) == 709
    check = is_quasi_geodesic(path, 2.0, 4)
    assert not check.ok
    assert check.margin == -2.0
    assert check.witness == (482, 494, 0)


@pytest.mark.parametrize("q", [1, 1.5, 2, 3])
def test_spaced_detours_certify(f2, q):
    Q = 4
    depth = int(q * Q / 2)
    base = f2.geodesic((), axis_ray(f2, 300).vertex(300))
    for seed in range(20):
        path = morse._insert_detours(f2, base, rng_for(seed), depth, 12, q)
        if q == 1:
            assert len(path) == len(base) + 2 * depth
        assert is_quasi_geodesic(path, q, Q).ok


@pytest.mark.parametrize("q", [1.5, 3])
def test_probe_family_certifies_without_a_path_tree(f2, q, trees):
    """Detour and L-shaped probes on F_2 are decided by the geodesic test
    or the norm bound of is_quasi_geodesic, never by a path tree; the
    all-pairs loop agrees on the three longest."""
    goal = axis_ray(f2, 120).endpoint()
    fam = probe_family(f2, goal, q, 4, 12, seed=0)
    assert trees == []
    longest = sorted(fam, key=len)[-3:]
    assert all(len(beta) > 121 for beta in longest)
    for beta in longest:
        assert oracles.all_pairs_quasi_geodesic(f2, beta.vertex_list(), q, 4)[0]
        assert is_quasi_geodesic(beta, q, 4).rung == "bound"
    assert trees == []


def test_probe_family_geodesic_constants_give_single_geodesic(f2):
    fam = probe_family(f2, (1, 1, 1), 1.0, 0, 5, seed=0)
    assert len(fam) == 1
    assert len(fam[0]) == 4


# ---------------------------------------------------------------------------
# the Morse tester

def test_morse_free_group_axis_passes(f2):
    Z = axis_ray(f2, 600)
    gauge = derived_gauge(0.5, 0, 1, 0, K1)
    v = check_morse(f2, Z, K1, K1, 160, 600, 1.5, 0, 20, seed=7, gauge=gauge)
    assert v
    assert v.parameters["checked"] > 0


def _golden_morse(seed, q, Q, r, R, m, kappa, margin):
    return json.dumps({
        "margin": margin, "pass": True, "seed": seed, "space": "free_group(2)",
        "test": "kappa_morse", "witness": {}, "witness_path": None,
        "parameters": {"Q": Q, "R": R, "checked": 12, "kappa": kappa, "m": m,
                       "q": q, "r": r},
    }, sort_keys=True)


# the f2_morse benchmark workload's Morse tests at its seeds 0 and 7
# (program seeds 2 and 7002), then log kappa, whose margin is not a round
# number
F2_MORSE_GOLDEN = [
    (2, 1.5, 0, 75.0,
     _golden_morse(2, 1.5, 0, 160.0, 560.0, 75.0, "1", 75.0)),
    (2, 3, 4, 1200.0,
     _golden_morse(2, 3, 4, 2400.0, 2800.0, 1200.0, "1", 1194.0)),
    (7002, 1.5, 0, 75.0,
     _golden_morse(7002, 1.5, 0, 160.0, 560.0, 75.0, "1", 75.0)),
    (7002, 3, 4, 1200.0,
     _golden_morse(7002, 3, 4, 2400.0, 2800.0, 1200.0, "1", 1195.0)),
    (2, 3, 4, None, _golden_morse(2, 3, 4, 300, 900, 4, "log", 4.0)),
    (7002, 3, 4, None,
     _golden_morse(7002, 3, 4, 300, 900, 4, "log", 3.6616887219423813)),
]


@pytest.mark.parametrize("seed, q, Q, m_Z, expected", F2_MORSE_GOLDEN)
def test_morse_free_group_verdicts_are_pinned(f2, seed, q, Q, m_Z, expected):
    """Byte-identical verdicts and derived gauges on axis_ray(f2, 3000) with
    the F2 contraction constants C1 = 1/2, C2 = 0, D1 = 1, D2 = 0 (a
    constant gauge of 1 for log kappa)."""
    axis = axis_ray(f2, 3000)
    if m_Z is None:
        v = check_morse(f2, axis, KLOG, KLOG, 300, 900, q, Q, 12, seed=seed,
                        gauge=MorseGauge.constant(1.0))
    else:
        der = derive_gauge(q, Q, 0.5, 0.0, 1.0, 0.0, K1)
        assert der.m_Z == m_Z
        r = max(160.0, 2.0 * der.m_Z)
        v = check_morse(f2, axis, K1, K1, r, r + 400.0, q, Q, 12, seed=seed,
                        gauge=derived_gauge(0.5, 0.0, 1.0, 0.0, K1))
    assert json.dumps(v.to_json(), sort_keys=True) == expected


def test_checked_paths_declare_their_replayed_end(f2, monkeypatch):
    """Every path the Morse tester certifies, the perturbed probes included,
    declares where its letters lead, or declares nothing: a wrong end could
    fake the geodesic shortcut of is_quasi_geodesic."""
    checked = []

    def recording(path, q, Q):
        checked.append(path)
        return is_quasi_geodesic(path, q, Q)

    monkeypatch.setattr(morse, "is_quasi_geodesic", recording)
    check_morse(f2, axis_ray(f2, 3000), KLOG, KLOG, 300, 900, 3, 4, 12,
                seed=2, gauge=MorseGauge.constant(1.0))
    # a perturbed probe is a certified probe with letters appended
    assert any(len(p) > len(b) and p.letters[:len(b.letters)] == b.letters
               for p in checked for b in checked if b.q is not None)
    for p in checked:
        assert p._end is None or \
            p._end == PathSeg(f2, start=p.start, letters=p.letters).endpoint()


def test_morse_grid_diagonal_fails_with_witness(z2):
    diag = PathSeg(z2, start=(0, 0),
                   letters=[((1, 0), (0, 1))[k % 2] for k in range(400)],
                   q=1, Q=0)
    v = check_morse(z2, diag, K1, K1, 100, 400, 1.5, 0, 20, seed=7,
                    gauge=MorseGauge.constant(8.0))
    assert not v
    assert isinstance(v.witness["path"], PathSeg)
    assert v.margin < 0


def test_morse_preconditions(f2):
    Z = axis_ray(f2, 300)
    with pytest.raises(PreconditionError):
        check_morse(f2, Z, K1, K1, 200, 100, 1.5, 0, 5, seed=0,
                    gauge=MorseGauge.constant(5.0))
    with pytest.raises(PreconditionError):
        # gauge 75 is not small compared to r = 100 for constant kappa
        check_morse(f2, Z, K1, K1, 100, 300, 1.5, 0, 5, seed=0,
                    gauge=MorseGauge.constant(75.0))


def test_morse_rejects_linear_kappa(f2):
    Z = axis_ray(f2, 300)
    linear = sublinear.SublinearFn(lambda t: max(1.0, 0.5 * t), "half-linear")
    with pytest.raises(NotSublinear):
        check_morse(f2, Z, linear, linear, 100, 300, 1.5, 0, 5, seed=0,
                    gauge=MorseGauge.constant(4.0))


# ---------------------------------------------------------------------------
# the contraction tester

def test_contracting_free_group_axis_passes(f2):
    Z = axis_ray(f2, 600)
    proj = _axis_projection(f2, axis_ray(f2, 600))
    consts, v = check_contracting(f2, Z, proj, K1, 0.5, 120, seed=7)
    assert v
    assert consts.C2 <= 2.0


@pytest.mark.parametrize("kappa", [K1, KLOG, KSQRT])
def test_contracting_grid_axis_fails(z2, kappa):
    Z = axis_ray(z2, 600)

    def proj(x):
        return ((min(max(x[0], 0), 600), 0),)

    consts, v = check_contracting(z2, Z, proj, kappa, 0.5, 160, seed=7)
    assert not v
    assert "bands" in v.witness


def test_contracting_too_few_pairs_is_inconclusive(f2):
    Z = axis_ray(f2, 40)
    proj = _axis_projection(f2, axis_ray(f2, 40))
    with pytest.raises(Inconclusive):
        check_contracting(f2, Z, proj, K1, 0.5, 3, seed=7)


def test_contracting_rejects_bad_c1(f2):
    Z = axis_ray(f2, 40)
    with pytest.raises(DomainError):
        check_contracting(f2, Z, lambda x: (x,), K1, 1.5, 10, seed=0)


# ---------------------------------------------------------------------------
# projection constant fitting

def test_fit_projection_free_group_axis(f2):
    ray = axis_ray(f2, 400)
    proj = _axis_projection(f2, ray)
    consts, v = fit_kappa_projection(f2, ray, proj, K1, 80, seed=5)
    assert v
    assert consts.D1 <= 1.0
    assert consts.D2 <= 50.0


def test_fit_projection_no_fit_reports_the_worst_constraint(f2):
    """A projection to a far vertex leaves every D1 on the grid with a D2
    above the cap: both constants are infinite and the verdict fails on
    the constraint (diam, d(x, z), kappa) worst at the largest D1."""
    far = (2,) * 200
    consts, v = fit_kappa_projection(f2, axis_ray(f2, 60), lambda x: [far],
                                     K1, 20, seed=1)
    assert consts.D1 == consts.D2 == math.inf
    assert not v
    assert v.witness == {"constraint": (204, 8, 1.0)}


# ---------------------------------------------------------------------------
# surgery

def _assert_surgery_postconditions(sp, gamma, alpha, r, R):
    out = surgery(sp, gamma, alpha, r, R)
    # prefix equality up to norm r/2
    t = space.first_time_at_norm(alpha, r // 2)
    assert out.vertex_list()[:t + 1] == alpha.vertex_list()[:t + 1]
    # tail equality outside B(o, R)
    t_R = space.first_time_at_norm(gamma, R)
    assert out.vertex_list()[-(len(gamma) - t_R):] == gamma.vertex_list()[t_R:]
    # certification
    assert out.q == 9 * alpha.q and out.Q == alpha.Q
    assert is_quasi_geodesic(out, out.q, out.Q).ok


def test_surgery_postconditions_exact(f2):
    gamma = axis_ray(f2, 140)
    # probe 0 is the geodesic to the target; probe 1 is a detour probe
    geo, alpha = probe_family(f2, gamma.vertex(120), 2.0, 4, 2, seed=11)
    assert len(geo) == 121 and len(alpha) > 121
    for beta in (geo, alpha):
        _assert_surgery_postconditions(f2, gamma, beta, 40, 120)


def test_surgery_splices_inside_the_ball_on_a_grid_syllable():
    # fixture 2 of the [surgery] section at seed 7011: alpha leaves the
    # a-axis at norm 20 through (18, 2), and the geodesic from there to
    # (120, 0) spelled axis by axis reaches norm 122 > R
    sp = space.build_space("free_product(grid(2), free_group(1))")
    gamma = axis_ray(sp, 122)
    z_R = gamma.vertex(space.first_time_at_norm(gamma, 120))
    alpha = probe_family(sp, z_R, 2.0, 4, 2, derive_seed(7011, 77, 2))[1]
    a_half = alpha.vertex(space.first_time_at_norm(alpha, 20))
    assert a_half == ((0, (18, 2)),)
    assert max(sp.geodesic(a_half, z_R).norms()) == 122
    _assert_surgery_postconditions(sp, gamma, alpha, 40, 120)


def test_surgery_requires_geodesic_gamma(f2):
    bad = PathSeg(f2, start=(), letters=[(1,), (-1,), (1,)])
    alpha = f2.geodesic((), (1, 1))
    with pytest.raises(PreconditionError):
        surgery(f2, bad, alpha, 2, 2)


def test_surgery_requires_nearby_alpha(f2):
    gamma = axis_ray(f2, 140)
    far = f2.geodesic((2,) * 80, (2,) * 140)   # lives on the b-axis
    with pytest.raises(PreconditionError):
        surgery(f2, gamma, far, 40, 120)


# ---------------------------------------------------------------------------
# neighborhoods, transfer, fellow traveling

def test_in_kappa_neighborhood(f2):
    ray = axis_ray(f2, 100)
    assert in_kappa_neighborhood(f2, (1, 1, 1, 2), ray, 1.0, K1)
    assert not in_kappa_neighborhood(f2, (2, 2, 2), ray, 1.0, K1)


def test_symmetry_transfer_on_parallel_rays(f2):
    alpha = axis_ray(f2, 200)
    # wiggles off the axis by one b-step and back, so it stays within
    # distance 1 of alpha for its whole length
    letters = [(1,), (2,), (-2,), (1,)] * 50
    beta = PathSeg(f2, start=(), letters=letters)
    v = symmetry_transfer(f2, alpha, beta, 2.0, K1)
    assert v


def test_symmetry_transfer_requires_geodesic_alpha(f2):
    bad = PathSeg(f2, start=(), letters=[(1,), (-1,), (1,)])
    beta = axis_ray(f2, 3)
    with pytest.raises(PreconditionError):
        symmetry_transfer(f2, bad, beta, 1.0, K1)


def test_fellow_traveling_profile(f2):
    alpha = axis_ray(f2, 128)
    # marches up the a-axis with bounded b-detours: d(beta_r, alpha) <= 2,
    # so the ratio profile decays like 2/r
    beta = PathSeg(f2, start=(), letters=[(1,), (1,), (2,), (-2,)] * 64)
    ratios, v = fellow_traveling_profile(f2, alpha, beta, 128)
    assert v
    assert ratios[-1] <= 0.05
    # diverging rays are not equivalent
    gamma = PathSeg(f2, start=(), letters=[(2,)] * 128)
    _, w = fellow_traveling_profile(f2, alpha, gamma, 128)
    assert not w


# ---------------------------------------------------------------------------
# cone sets

def test_cone_membership_verdicts(f2):
    beta = axis_ray(f2, 200)
    gauge = MorseGauge.constant(3.0)
    inside = (1,) * 80
    v = cone_membership(f2, inside, beta, 36, gauge, KSQRT, 4, seed=2)
    assert v
    # low-norm vertices are excluded outright
    low = cone_membership(f2, (1, 2), beta, 36, gauge, KSQRT, 4, seed=2)
    assert not low
    # a point deep in the b-direction fails through its probes
    outside = (2,) * 80
    w = cone_membership(f2, outside, beta, 36, gauge, KSQRT, 4, seed=2)
    assert not w


def test_cone_membership_inadmissible_radius_is_inconclusive(f2):
    beta = axis_ray(f2, 60)
    gauge = MorseGauge.constant(30.0)
    with pytest.raises(Inconclusive):
        cone_membership(f2, (1,) * 40, beta, 10, gauge, K1, 4, seed=2)


# ---------------------------------------------------------------------------
# projection diameter profiles

def test_loopy_projection_profile_rows(loopy):
    ray = loopy.ray_prefix(600)

    def proj(v):
        ports = loopy._portals(v)
        best = min(c for _, c in ports)
        return tuple(("r", p) for p, c in ports if c == best)

    ns = (6, 8, 10, 12, 14, 16)
    specs = [(loopy.apex(n), n * n - 1) for n in ns]
    rows, fit = projection_diameter_profile(loopy, ray, proj, specs, seed=0,
                                            cap=3_000_000)
    for (radius, nc, diam), n in zip(rows, ns):
        assert radius == n * n - 1
        assert nc == loopy.attach[n] + n * n
        assert diam == n
    assert fit["envelope"] is not None
    assert fit["envelope"] != "1"


def test_projection_profile_skips_balls_meeting_target(z2):
    ray = axis_ray(z2, 50)
    rows, fit = projection_diameter_profile(
        z2, ray, lambda x: ((max(0, min(x[0], 50)), 0),),
        [((0, 2), 5)], seed=0)
    assert rows == []
    assert fit["skipped"]
