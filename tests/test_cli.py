import hashlib
import json
import os

import numpy as np
import pytest

import oracles
from coarselab import cli, morse
from coarselab.cli import ConfigError, main, run_experiment, validate_config
from coarselab.errors import (CertificationError, GenerationError,
                             Inconclusive, NotSublinear, PreconditionError)
from coarselab.space import build_space

GAUGE_CONFIG = """\
[experiment]
seed = 11
space = free_group(2)

[gauge]
q = 2
c1 = 0.5
c2 = 1
d1 = 1
d2 = 1
"""

WALK_FAIL_CONFIG = """\
[experiment]
seed = 11
space = grid(2)

[walk]
statistic = progress_tail
n = 256
count = 60
ell = 0.5
fraction = 0.5
expect = fail
"""


def _write(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# validation

def test_validate_minimal_config(tmp_path):
    cfg = validate_config(_write(tmp_path, GAUGE_CONFIG))
    assert cfg.seed == 11
    assert cfg.space_spec == "free_group(2)"
    assert cfg.tests == ["gauge"]
    assert cfg.out == "results"


def test_validate_reports_line_numbers(tmp_path):
    path = _write(tmp_path, "[experiment]\nspace = free_group(2)\n")
    with pytest.raises(ConfigError, match="seed required"):
        validate_config(path)

    path = _write(tmp_path, GAUGE_CONFIG + "\n[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match=r":12: unknown section"):
        validate_config(path)

    path = _write(tmp_path, GAUGE_CONFIG.replace("q = 2", "quux = 2"))
    with pytest.raises(ConfigError, match=r":6: unknown key 'quux'"):
        validate_config(path)

    path = _write(tmp_path,
                  GAUGE_CONFIG.replace("seed = 11", "seed = 11\njobs = 2"))
    with pytest.raises(ConfigError, match=r":3: unknown key 'jobs'"):
        validate_config(path)

    path = _write(tmp_path, GAUGE_CONFIG + "kappa = linear\n")
    with pytest.raises(ConfigError, match=r":11: bad value for 'kappa'"):
        validate_config(path)

    for sec in ("morse", "contract"):
        path = _write(tmp_path, GAUGE_CONFIG + f"\n[{sec}]\nlength = -3\n")
        with pytest.raises(ConfigError, match=r":13: bad value for 'length'"):
            validate_config(path)

    path = _write(tmp_path, GAUGE_CONFIG.replace("free_group(2)", "torus(3)"))
    with pytest.raises(ConfigError, match=r":3: bad space spec"):
        validate_config(path)

    # values a runner used to parse, and crash on, at run time
    for sec, key, value in (("excursion", "sizes", "const:x"),
                            ("excursion", "sizes", "cubic"),
                            ("walk", "support", "factor:x"),
                            ("walk", "support", "factor:-1"),
                            ("morse", "gauge", "abc"),
                            ("distance_formula", "radius", "-1")):
        path = _write(tmp_path, GAUGE_CONFIG + f"\n[{sec}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf":13: bad value for '{key}'"):
            validate_config(path)


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("sec, key", [
    ("morse", "probes"), ("contract", "samples"), ("excursion", "syllables"),
    ("excursion", "samples"), ("walk", "n"), ("walk", "count"),
    ("surgery", "fixtures"), ("distance_formula", "pairs")])
def test_a_count_below_one_is_a_config_error(tmp_path, sec, key, value):
    # a section that sampled nothing would otherwise pass having checked nothing
    path = _write(tmp_path, GAUGE_CONFIG + f"\n[{sec}]\n{key} = {value}\n")
    with pytest.raises(ConfigError,
                       match=rf":13: bad value for '{key}': need a count >= 1"):
        validate_config(path)


def test_bad_free_product_factor_is_named_by_its_kind(tmp_path):
    path = _write(tmp_path, GAUGE_CONFIG.replace(
        "free_group(2)", "free_product(loopy_ray(3), free_group(1))"))
    with pytest.raises(ConfigError) as e:
        validate_config(path)
    assert str(e.value).endswith(
        ":3: bad space spec: unsupported free-product factor loopy_ray(3)")


def test_validate_requires_experiment_section(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        validate_config(_write(tmp_path, "[gauge]\nq = 2\n"))


def test_validate_tests_key(tmp_path):
    path = _write(tmp_path, GAUGE_CONFIG.replace(
        "space = free_group(2)", "space = free_group(2)\ntests = frobnicate"))
    with pytest.raises(ConfigError, match="unknown test"):
        validate_config(path)
    path = _write(tmp_path, GAUGE_CONFIG.replace(
        "space = free_group(2)", "space = free_group(2)\ntests = walk"))
    with pytest.raises(ConfigError, match="has no"):
        validate_config(path)


# ---------------------------------------------------------------------------
# running

def test_run_gauge_section(tmp_path):
    cfg = validate_config(_write(tmp_path, GAUGE_CONFIG))
    out = str(tmp_path / "out")
    summary, code = run_experiment(cfg, out=out)
    assert code == 0 and summary["ok"]
    (rec,) = summary["results"]
    assert rec["section"] == "gauge" and rec["ok"]
    assert rec["m_Z"] == pytest.approx(804.3)
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk == json.loads(json.dumps(summary))


def test_expected_failure_flips_the_exit_code(tmp_path):
    cfg = validate_config(_write(tmp_path, WALK_FAIL_CONFIG))
    summary, code = run_experiment(cfg, out=str(tmp_path / "a"))
    assert code == 0
    assert summary["results"][0]["passed"] is False

    cfg2 = validate_config(_write(tmp_path, WALK_FAIL_CONFIG.replace(
        "expect = fail", "expect = pass"), name="exp2.ini"))
    _, code2 = run_experiment(cfg2, out=str(tmp_path / "b"))
    assert code2 == 1


FP = "free_product(grid(2), free_group(1))"


@pytest.mark.parametrize("spec, body", [
    ("free_group(2)", "[contract]\nlength = 200\nsamples = 40\n"),
    ("grid(2)", "[contract]\ntarget = diagonal\nlength = 200\nsamples = 40\n"
                "expect = fail\n"),
    ("loopy_ray(12)", "[contract]\ntarget = ray\nlength = 200\nsamples = 40\n"),
    # Q = 4 lets probe_family build graph detours as well as L-shapes
    ("loopy_ray(12)", "[morse]\ntarget = ray\nlength = 200\nr = 50\n"
                      "big_r = 150\nbig_q = 4\nprobes = 6\ngauge = 3\n"),
    (FP, "[excursion]\nsyllables = 40\nsizes = linear\nexpect = fail\n"),
    (FP, "[excursion]\nsyllables = 40\nsizes = const:3\n"),
    (FP, "[excursion]\nsyllables = 40\ncontracting = yes\nsamples = 40\n"),
    (FP, "[walk]\nn = 512\ncount = 40\nsupport = factor:1\n"),
    (FP, "[walk]\nn = 512\ncount = 40\nstatistic = peripheral_growth\n"),
], ids=["contract", "contract-diagonal", "contract-ray", "morse-ray",
        "excursion-linear", "excursion-const", "excursion-contracting",
        "walk-factor", "walk-peripheral-growth"])
def test_section_options_run_ok(tmp_path, spec, body):
    """Each runner option of the schema, run once at a small size: the
    record meets its expectation and carries no error."""
    text = f"[experiment]\nseed = 11\nspace = {spec}\n\n{body}"
    summary, code = run_experiment(validate_config(_write(tmp_path, text)),
                                   out=str(tmp_path / "out"))
    (rec,) = summary["results"]
    assert rec["ok"] and "error" not in rec
    assert code == 0


def test_support_on_a_missing_factor_is_a_section_record(tmp_path):
    text = f"[experiment]\nseed = 11\nspace = {FP}\n\n" \
        "[walk]\nn = 16\ncount = 4\nsupport = factor:7\n"
    out = tmp_path / "out"
    assert main(["run", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 1
    (rec,) = json.loads((out / "summary.json").read_text())["results"]
    assert rec["section"] == "walk" and not rec["ok"]
    assert rec["error"] == f"ConfigError: factor:7 support, but {FP} has " \
        "2 factors"


def test_module_errors_are_recorded_not_raised(tmp_path):
    # distance_formula needs a peripheral factor; free_group(2) has none
    text = GAUGE_CONFIG + "\n[distance_formula]\npairs = 10\n"
    cfg = validate_config(_write(tmp_path, text))
    summary, code = run_experiment(cfg, out=str(tmp_path / "out"))
    assert code == 1
    by_name = {r["section"]: r for r in summary["results"]}
    assert by_name["gauge"]["ok"]
    assert not by_name["distance_formula"]["ok"]
    assert "DomainError" in by_name["distance_formula"]["error"]


def test_tracking_without_a_checkpoint_records_the_error(tmp_path):
    # at n = 1 no dyadic checkpoint lies at or below N/2
    text = """\
[experiment]
seed = 11
space = free_group(2)

[walk]
statistic = tracking
n = 1
count = 4
"""
    out = tmp_path / "out"
    assert main(["walk", "--config", _write(tmp_path, text),
                 "--out", str(out)]) == 1
    (rec,) = json.loads((out / "summary.json").read_text())["results"]
    assert rec["section"] == "walk" and not rec["ok"]
    assert rec["error"].startswith("DomainError: ")
    assert "horizon N = 1" in rec["error"]


def test_negative_gauge_constant_records_a_domain_error(tmp_path, capsys):
    path = _write(tmp_path, GAUGE_CONFIG.replace("d2 = 1", "d2 = -2"))
    out = tmp_path / "out"
    assert main(["gauge", "--config", path, "--out", str(out)]) == 1
    assert "gauge: ok" not in capsys.readouterr().out
    (rec,) = json.loads((out / "summary.json").read_text())["results"]
    assert rec["section"] == "gauge" and not rec["ok"]
    assert rec["error"] == \
        "DomainError: gauge derivation needs D2 >= 0, got -2.0"


@pytest.mark.parametrize("exc", [GenerationError, CertificationError,
                                 NotSublinear])
def test_section_errors_still_write_the_summary(tmp_path, monkeypatch, exc):
    def raiser(*args):
        raise exc("raised by the section")

    monkeypatch.setitem(cli._RUNNERS, "gauge", raiser)
    path = _write(tmp_path, GAUGE_CONFIG)
    out = tmp_path / "out"
    assert main(["gauge", "--config", path, "--out", str(out)]) == 1
    (rec,) = json.loads((out / "summary.json").read_text())["results"]
    assert rec["section"] == "gauge" and not rec["ok"]
    assert rec["error"] == f"{exc.__name__}: raised by the section"
    assert "witness" not in rec and "detail" not in rec


def test_precondition_error_records_its_witness(tmp_path):
    # R < r fails the Morse tester's precondition before any probe is built
    bad = "\n[morse]\nr = 200\nbig_r = 100\n"
    summary, code = run_experiment(
        validate_config(_write(tmp_path, GAUGE_CONFIG + bad)),
        out=str(tmp_path / "out"))
    assert code == 1
    by_name = {r["section"]: r for r in summary["results"]}
    gauge, rec = by_name["gauge"], by_name["morse"]
    assert rec["error"] == \
        "PreconditionError: need R >= r, got r=200.0, R=100.0"
    assert rec["witness"] == {"r": 200.0, "R": 100.0}
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) \
        == summary
    # the passing section's record is what it is without the failing one
    alone, _ = run_experiment(
        validate_config(_write(tmp_path, GAUGE_CONFIG, name="alone.ini")),
        out=str(tmp_path / "alone"))
    assert json.dumps(alone["results"][0]) == json.dumps(gauge)


@pytest.mark.parametrize("exc, key", [(PreconditionError, "witness"),
                                      (Inconclusive, "detail")])
def test_error_payloads_are_plain_json(tmp_path, monkeypatch, exc, key):
    f2 = build_space("free_group(2)")
    payload = {"path": f2.geodesic((), (1, 2)), "pair": (3, (4, 5)),
               "value": np.float64(0.5), "count": np.int64(7)}

    def raiser(*args):
        raise exc("raised by the section", payload)

    monkeypatch.setitem(cli._RUNNERS, "gauge", raiser)
    summary, code = run_experiment(
        validate_config(_write(tmp_path, GAUGE_CONFIG)),
        out=str(tmp_path / "out"))
    (rec,) = summary["results"]
    assert rec[key] == {"path": ["()", "(1,)", "(1, 2)"], "pair": [3, [4, 5]],
                        "value": 0.5, "count": 7}
    assert json.loads((tmp_path / "out" / "summary.json").read_text()) \
        == summary


def test_reruns_are_byte_identical(tmp_path):
    text = WALK_FAIL_CONFIG
    cfg = validate_config(_write(tmp_path, text))
    run_experiment(cfg, out=str(tmp_path / "r1"))
    run_experiment(cfg, out=str(tmp_path / "r2"))
    for name in ("summary.json", "walk_stats.csv"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, name


@pytest.mark.parametrize("statistic", ["tracking", "excursion"])
def test_jobs_leave_the_output_bytes_unchanged(tmp_path, statistic):
    text = f"""\
[experiment]
seed = 11
space = free_product(grid(2), free_group(1))

[walk]
statistic = {statistic}
n = 256
count = 40
"""
    path = _write(tmp_path, text)
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        main(["run", "--config", path, "--jobs", jobs, "--out", str(out)])
        outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "summary.json" in outs[0]
    assert outs[1] == outs[0]


GOLDEN_CONFIG = """\
[experiment]
seed = 5
space = free_product(grid(2), free_group(1))

[walk]
statistic = {statistic}
n = 256
count = 40

[excursion]
syllables = 60

[distance_formula]
k = 5
k2 = 10
pairs = 300
radius = 30
"""

# sha256 of every output file: any change to how walks are replayed or
# pairs drawn must leave them as they are
GOLDEN_EXCURSION = "a2e69a8ad678da5509fbeb15f69fa5c2225eacdf066015c5f14e0101f2d55b76"
GOLDEN_WALK_STATS = "beff1c1b40ac231326299582c9ed4ffa33de19f03a000be8033168c74467a553"
GOLDEN = {
    "drift": {"summary.json": "04e78f099efd08f05b428af5bec929508e4d74b788278afca36a39f8ed506ccc"},
    "tracking": {"summary.json": "7beca69bded7f7cf07c1019605c295f07daeba8da9b09a84946da0efaa440bd9",
                 "tracking.csv": "3ed3bf8dc7e504c86e7c0068a73c05043d63b4f975f48c2a82c22dcaed866ead"},
    "excursion": {"summary.json": "b3754ea917dd96da948c3536ca215bd176b9bf7128b172757ddcf3e3a0e0bcd0"},
}


def _run_digests(tmp_path, text):
    path = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("statistic", sorted(GOLDEN))
def test_run_output_matches_the_golden_digests(tmp_path, statistic):
    got = _run_digests(tmp_path, GOLDEN_CONFIG.format(statistic=statistic))
    assert got == {"excursion.csv": GOLDEN_EXCURSION,
                   "walk_stats.csv": GOLDEN_WALK_STATS, **GOLDEN[statistic]}


GOLDEN_F2_CONFIG = """\
[experiment]
seed = 5
space = free_group(2)

[walk]
statistic = {statistic}
n = 256
count = 40
"""

# free_group(2) walks replay as words in two copies of Z; these digests
# were taken when they were replayed letter by letter
GOLDEN_F2_WALK_STATS = "7e6660f10cefdd045a3c949565f0bff5d6190cc97bd7ccca36047244c53ff769"
GOLDEN_F2 = {
    "drift": "d7f349debba7ab17f4b86473ab9bd4501e0704a64c338e0b56b46609eb5bc256",
    "hitting": "9e4d9b4a9623a48b74473cfd6bcadfb03bf3cf3bfc855b63426e58f6bc2b7d64",
}


@pytest.mark.parametrize("statistic", sorted(GOLDEN_F2))
def test_free_group_run_output_matches_the_golden_digests(tmp_path, statistic):
    got = _run_digests(tmp_path, GOLDEN_F2_CONFIG.format(statistic=statistic))
    assert got == {"summary.json": GOLDEN_F2[statistic],
                   "walk_stats.csv": GOLDEN_F2_WALK_STATS}


@pytest.mark.parametrize("spec", [
    "free_product(grid(2), free_group(1))",
    "free_product(grid(2), free_group(1), grid(1))",
    "free_product(grid(2), grid(3), free_group(1))",   # padded vectors
    "free_product(free_group(2), free_group(1))",
    "free_product(free_group(2), grid(2))",
])
@pytest.mark.parametrize("radius", [0, 3, 30])
def test_random_pairs_match_one_push_per_step(spec, radius):
    sp = build_space(spec)
    count = cli._PAIR_CHUNK + 5   # a full chunk and a partial one
    assert cli._random_pairs(sp, count, radius, seed=4) == \
        oracles.random_pairs(sp, count, radius, 4)


# ---------------------------------------------------------------------------
# surgery fixtures

SURGERY_CONFIG = """\
[experiment]
seed = 3
space = free_group(2)

[surgery]
fixtures = {fixtures}
r = 20
big_r = 60
"""


def test_surgery_fixtures_follow_the_config_and_seed(tmp_path, monkeypatch):
    """Surgery fixtures come from the seed and `fixtures` alone: a rerun
    into a used out dir builds the probes a fresh run builds, reports the
    same summary, and writes nothing beside it."""
    probe_seeds = []
    build = morse.probe_family

    def recorded(*args):
        probe_seeds.append(args[-1])
        return build(*args)

    monkeypatch.setattr(morse, "probe_family", recorded)

    def run(fixtures, seed, out):
        path = _write(tmp_path, SURGERY_CONFIG.format(fixtures=fixtures),
                      name=f"exp{fixtures}.ini")
        probe_seeds.clear()
        summary, _ = run_experiment(validate_config(path), seed=seed,
                                    out=str(tmp_path / out))
        return summary, list(probe_seeds)

    summary, _ = run(3, None, "used")
    assert summary["ok"] and summary["results"][0]["failures"] == 0
    for fixtures, seed in ((2, None), (3, 99)):
        rerun = run(fixtures, seed, "used")
        assert rerun == run(fixtures, seed, f"fresh-{fixtures}-{seed}")
        (rec,) = rerun[0]["results"]
        assert rec["verdict"]["parameters"]["fixtures"] == fixtures
        assert len(rerun[1]) == fixtures
        assert os.listdir(tmp_path / "used") == ["summary.json"]


def test_surgery_does_not_count_a_type_error_as_a_failure(tmp_path,
                                                           monkeypatch):
    def broken(*args):
        raise TypeError("a bug, not a failed splice")

    # morse.surgery looks up first_time_at_norm in its own module
    monkeypatch.setattr(morse, "first_time_at_norm", broken)
    text = """\
[experiment]
seed = 3
space = free_group(2)

[surgery]
fixtures = 1
r = 20
big_r = 60
"""
    cfg = validate_config(_write(tmp_path, text))
    with pytest.raises(TypeError, match="a bug"):
        run_experiment(cfg, out=str(tmp_path / "out"))


# ---------------------------------------------------------------------------
# the command line

def test_main_subcommand_and_exit_codes(tmp_path, capsys):
    path = _write(tmp_path, GAUGE_CONFIG)
    out = str(tmp_path / "out")
    assert main(["gauge", "--config", path, "--out", out]) == 0
    assert "gauge: ok" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "summary.json"))


def test_main_config_error_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "[experiment]\nspace = free_group(2)\n")
    assert main(["run", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_seed_precedence(tmp_path):
    path = _write(tmp_path, GAUGE_CONFIG)
    out = str(tmp_path / "out")
    main(["gauge", "--config", path, "--out", out, "--seed", "7"])
    assert json.loads(open(os.path.join(out, "summary.json")).read())["seed"] == 7
    main(["gauge", "--config", path, "--out", out])
    assert json.loads(open(os.path.join(out, "summary.json")).read())["seed"] == 11
