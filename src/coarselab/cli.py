"""Experiment runner: INI configs in, CSV/JSON reports out.

Every subcommand reads one section of the config, runs the corresponding
tester, and appends a result record to ``summary.json``.  The exit code is
0 iff every verdict matches its expectation, where negative controls are
annotated ``expect = fail`` in their section.  Reports carry the seed and
parameters of every number so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

from . import __version__, morse, randwalk, relhyp, space, sublinear
from .errors import (CertificationError, DomainError, GenerationError,
                     Inconclusive, NotSublinear, PreconditionError)
from .seeds import derive_seed, rng_for


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# schema

_str = str
_int = int
_float = float


def _length(s):
    n = int(s)
    if n < 0:
        raise ValueError(f"need a length >= 0, got {n}")
    return n


def _count(s):
    n = int(s)
    if n < 1:
        raise ValueError(f"need a count >= 1, got {n}")
    return n


def _bool(s):
    if s.lower() in ("1", "true", "yes", "on"):
        return True
    if s.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _kappa(s):
    try:
        return sublinear.by_tag(s)
    except DomainError as e:
        raise ValueError(str(e)) from None


def _sizes(s):
    if s == "log":
        return lambda k: max(1, int(math.log(k + 2)))
    if s == "linear":
        return lambda k: k + 1
    if s.startswith("const:"):
        c = int(s.split(":", 1)[1])
        return lambda k: c
    raise ValueError(f"unknown sizes spec {s!r}")


def _support(s):
    """generators -> None, factor:<i> -> the factor index i."""
    if s == "generators":
        return None
    if s.startswith("factor:"):
        return _length(s.split(":", 1)[1])
    raise ValueError(f"unknown support spec {s!r}")


def _gauge(s):
    return s if s == "derive" else float(s)


_EXPECT = ("pass", "fail")


def _expect(s):
    if s not in _EXPECT:
        raise ValueError(f"expect must be one of {_EXPECT}, got {s!r}")
    return s


#: section -> key -> (parser, default); None default means required
SCHEMA = {
    "experiment": {
        "seed": (_int, None),
        "space": (_str, None),
        "out": (_str, "results"),
        "tests": (_str, ""),
    },
    "morse": {
        "target": (_str, "axis"),
        "length": (_length, 600),
        "kappa": (_kappa, "1"),
        "kappa_prime": (_kappa, "1"),
        "r": (_float, 100.0),
        "big_r": (_float, 400.0),
        "q": (_float, 1.5),
        "big_q": (_float, 0.0),
        "probes": (_count, 40),
        "gauge": (_gauge, "derive"),
        "c1": (_float, 0.5),
        "c2": (_float, 0.0),
        "d1": (_float, 1.0),
        "d2": (_float, 0.0),
        "expect": (_expect, "pass"),
    },
    "contract": {
        "target": (_str, "axis"),
        "length": (_length, 600),
        "kappa": (_kappa, "1"),
        "c1": (_float, 0.5),
        "samples": (_count, 160),
        "expect": (_expect, "pass"),
    },
    "excursion": {
        "syllables": (_count, 200),
        "sizes": (_sizes, "log"),
        "kappa": (_kappa, "log"),
        "contracting": (_bool, False),
        "samples": (_count, 80),
        "expect": (_expect, "pass"),
    },
    "walk": {
        "statistic": (_str, "drift"),
        "n": (_count, 1024),
        "count": (_count, 200),
        "support": (_support, "generators"),
        "fraction": (_float, 0.5),
        "ell": (_float, -1.0),   # <0 means: use the measured drift
        "lo": (_float, 0.0),
        "hi": (_float, float("inf")),
        "expect": (_expect, "pass"),
    },
    "gauge": {
        "q": (_float, 2.0),
        "big_q": (_float, 0.0),
        "c1": (_float, 0.5),
        "c2": (_float, 1.0),
        "d1": (_float, 1.0),
        "d2": (_float, 1.0),
        "kappa": (_kappa, "1"),
    },
    "surgery": {
        "fixtures": (_count, 50),
        "r": (_float, 40.0),
        "big_r": (_float, 120.0),
        "expect": (_expect, "pass"),
    },
    "distance_formula": {
        "k": (_int, 5),
        "k2": (_int, 0),         # 0 disables the stability comparison
        "pairs": (_count, 500),
        "radius": (_length, 30),
        "expect": (_expect, "pass"),
    },
}

RUNNABLE = tuple(s for s in SCHEMA if s != "experiment")


@dataclass
class ExperimentConfig:
    path: str
    seed: int
    space_spec: str
    out: str
    tests: list
    sections: dict = field(default_factory=dict)


def _first_line_with(lines, needle, section=None):
    """1-based line number of `needle`, searching inside `section` if given."""
    in_section = section is None
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s.startswith("[") and s.endswith("]"):
            in_section = section is None or s[1:-1].strip() == section
            if section is not None and in_section and needle == s[1:-1].strip():
                return i
            continue
        if in_section and (s == needle or s.split("=", 1)[0].strip() == needle):
            return i
    return 0


def validate_config(path):
    """Parse and schema-check an INI config; the first error is reported
    with its line number."""
    import configparser
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            text = fh.read()
        cp.read_string(text, source=path)
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    lines = text.splitlines()

    def err(msg, needle, section=None):
        ln = _first_line_with(lines, needle, section)
        where = f"{path}:{ln}" if ln else path
        raise ConfigError(f"{where}: {msg}")

    if not cp.has_section("experiment"):
        raise ConfigError(f"{path}: missing [experiment] section")
    for sec in cp.sections():
        if sec not in SCHEMA:
            err(f"unknown section [{sec}]", sec, section=sec)
        for key in cp.options(sec):
            if key not in SCHEMA[sec]:
                err(f"unknown key {key!r} in [{sec}]", key, section=sec)
    if not cp.has_option("experiment", "seed"):
        err("seed required", "experiment", section="experiment")

    parsed = {}
    for sec in cp.sections():
        vals = {}
        for key, (parse, default) in SCHEMA[sec].items():
            if cp.has_option(sec, key):
                raw = cp.get(sec, key)
                try:
                    vals[key] = parse(raw)
                except (ValueError, DomainError) as e:
                    err(f"bad value for {key!r}: {e}", key, section=sec)
            elif default is None:
                err(f"{key} required in [{sec}]", sec, section=sec)
            else:
                vals[key] = parse(default) if isinstance(default, str) else default
        parsed[sec] = vals

    exp = parsed["experiment"]
    try:
        space.build_space(exp["space"])  # validate the spec eagerly
    except DomainError as e:
        err(f"bad space spec: {e}", "space", section="experiment")
    tests = exp["tests"].split() if exp["tests"] else \
        [s for s in RUNNABLE if s in parsed]
    for t in tests:
        if t not in RUNNABLE:
            err(f"unknown test {t!r}", "tests", section="experiment")
        if t not in parsed:
            err(f"test {t!r} has no [{t}] section", "tests", section="experiment")
    return ExperimentConfig(path=path, seed=exp["seed"], space_spec=exp["space"],
                            out=exp["out"], tests=tests,
                            sections=parsed)


# ---------------------------------------------------------------------------
# targets

def _make_target(sp, name, length):
    if name == "axis":
        return space.axis_ray(sp, length)
    if name == "diagonal":
        if not isinstance(sp, space.GridSpace) or sp.d < 2:
            raise ConfigError("diagonal target needs a grid of dimension >= 2")
        letters = [((1, 0) + (0,) * (sp.d - 2), (0, 1) + (0,) * (sp.d - 2))
                   [k % 2] for k in range(length)]
        return space.PathSeg(sp, start=sp.identity, letters=letters, q=1, Q=0)
    if name == "ray":
        if not isinstance(sp, space.LoopyRaySpace):
            raise ConfigError("ray target needs a loopy_ray space")
        return sp.ray_prefix(length)
    raise ConfigError(f"unknown target {name!r}")


def _target_projection(sp, Z):
    def proj(x):
        return tuple(space.nearest_point_projection(sp, x, Z))
    return proj


def _step_measure(sp, factor):
    if factor is None:
        return randwalk.uniform_generator_measure(sp)
    if not isinstance(sp, space.FreeProductSpace):
        raise ConfigError("factor: support needs a free product")
    if factor >= len(sp.factors):
        raise ConfigError(f"factor:{factor} support, but {sp.kind} has "
                          f"{len(sp.factors)} factors")
    return randwalk.StepMeasure.uniform([(factor, g)
                                         for g in sp.factors[factor].gens])


# ---------------------------------------------------------------------------
# section runners (each returns a result dict)

def _record(name, verdict=None, expect="pass", extra=None, error=None):
    rec = {"section": name, "expect": expect}
    if verdict is not None:
        rec["verdict"] = verdict.to_json() if hasattr(verdict, "to_json") else verdict
        rec["passed"] = bool(verdict)
        rec["ok"] = bool(verdict) == (expect == "pass")
    if error is not None:
        rec["error"] = error
        rec["ok"] = False
    if extra:
        rec.update(extra)
    return rec


def _run_morse(sp, cfg, seed, out_dir):
    Z = _make_target(sp, cfg["target"], cfg["length"])
    if cfg["gauge"] == "derive":
        gauge = morse.derived_gauge(cfg["c1"], cfg["c2"], cfg["d1"], cfg["d2"],
                                    cfg["kappa"])
    else:
        gauge = morse.MorseGauge.constant(cfg["gauge"])
    v = morse.test_kappa_morse(sp, Z, cfg["kappa"], cfg["kappa_prime"],
                               cfg["r"], cfg["big_r"], cfg["q"], cfg["big_q"],
                               cfg["probes"], seed, gauge)
    return _record("morse", v, cfg["expect"])


def _run_contract(sp, cfg, seed, out_dir):
    Z = _make_target(sp, cfg["target"], cfg["length"])
    proj = _target_projection(sp, Z)
    consts, v = morse.test_kappa_contracting(sp, Z, proj, cfg["kappa"],
                                             cfg["c1"], cfg["samples"], seed)
    return _record("contract", v, cfg["expect"],
                   extra={"C1": consts.C1, "C2": consts.C2})


def _run_excursion(sp, cfg, seed, out_dir):
    relhyp.require_relhyp(sp)
    gamma = relhyp.excursion_ray(sp, cfg["syllables"], cfg["sizes"])
    if cfg["contracting"]:
        consts, v = relhyp.test_excursion_contracting(
            sp, gamma, cfg["kappa"], cfg["samples"], seed)
        extra = {"C2": consts.C2}
    else:
        D0 = relhyp.default_constants(sp).D0
        rows, E, v = relhyp.excursion_profile(sp, gamma, D0, cfg["kappa"])
        extra = {"E": E}
        randwalk.write_excursion_csv(os.path.join(out_dir, "excursion.csv"),
                                     rows)
    return _record("excursion", v, cfg["expect"], extra=extra)


def _run_walk(sp, cfg, seed, out_dir):
    mu = _step_measure(sp, cfg["support"])
    paths = randwalk.sample_paths(sp, mu, cfg["n"], cfg["count"], seed)
    stat = cfg["statistic"]
    extra = {"statistic": stat, "n": cfg["n"], "count": cfg["count"]}
    # replays every walk once; the statistics below read the cached stats
    randwalk.ensemble_stats(paths)
    randwalk.write_walk_stats_csv(os.path.join(out_dir, "walk_stats.csv"),
                                  paths)
    if stat == "drift":
        rep = randwalk.drift(paths)
        ok = cfg["lo"] <= rep.ell <= cfg["hi"] and rep.subadditive
        v = morse.Verdict(ok, test="drift", margin=rep.ell,
                          parameters={"ci": list(rep.ci),
                                      "subadditive": rep.subadditive},
                          seed=seed, space=sp.kind)
        extra["ell"] = rep.ell
    elif stat == "progress_tail":
        ell = cfg["ell"] if cfg["ell"] > 0 else randwalk.drift(paths).ell
        rows, v = randwalk.progress_tail(paths, ell, cfg["fraction"])
        extra["ell"] = ell
    elif stat == "peripheral_growth":
        rows, v = randwalk.peripheral_projection_growth(paths, lo=2,
                                                        hi=cfg["n"])
    elif stat == "tracking":
        proxies = [randwalk.limit_ray_proxy(sp, p) for p in paths]
        rows, v1, v2 = randwalk.tracking_profile(paths, proxies)
        randwalk.write_tracking_csv(os.path.join(out_dir, "tracking.csv"), rows)
        v = morse.Verdict(bool(v1) and bool(v2), test="tracking",
                          margin=min(v1.margin, v2.margin),
                          parameters={"sublinear": v1.to_json(),
                                      "log2": v2.to_json()},
                          seed=seed, space=sp.kind)
    elif stat == "hitting":
        hist = randwalk.hitting_histogram(paths)
        v = morse.Verdict(abs(sum(hist.values()) - 1.0) < 1e-9, test="hitting",
                          parameters={"histogram": hist}, seed=seed,
                          space=sp.kind)
        extra["histogram"] = hist
    elif stat == "excursion":
        kappa = sublinear.by_tag("log")
        _, v = randwalk.excursion_of_walk_ray(sp, paths, kappa)
    else:
        raise ConfigError(f"unknown walk statistic {stat!r}")
    return _record("walk", v, cfg["expect"], extra=extra)


def _run_gauge(sp, cfg, seed, out_dir):
    der = morse.derive_gauge(cfg["q"], cfg["big_q"], cfg["c1"], cfg["c2"],
                             cfg["d1"], cfg["d2"], cfg["kappa"])
    v = morse.Verdict(True, test="gauge", margin=der.m_Z,
                      parameters={"m_Z": der.m_Z, "m0": der.m0, "m1": der.m1,
                                  "m2": der.m2, "m3": der.m3, "m4": der.m4,
                                  "A": der.A, "kappa": cfg["kappa"].tag},
                      seed=seed, space=sp.kind)
    return _record("gauge", v, "pass", extra={"m_Z": der.m_Z})


def _run_surgery(sp, cfg, seed, out_dir):
    if not sp.is_group:
        raise ConfigError("surgery needs a group space")
    seeds = [derive_seed(seed, 77, i) for i in range(cfg["fixtures"])]
    r, R = cfg["r"], cfg["big_r"]
    gamma = space.axis_ray(sp, int(R) + 2)
    z_R = gamma.vertex(space.first_time_at_norm(gamma, int(R)))
    failures = 0
    for s in seeds:
        # a genuinely non-geodesic alpha ending on gamma at norm R: probe 0
        # is the geodesic itself, probe 1 a detour probe
        alpha = morse.probe_family(sp, z_R, 2.0, 4, 2, s)[1]
        try:
            spliced = morse.surgery(sp, gamma, alpha, r, R)
        except (PreconditionError, CertificationError, DomainError):
            failures += 1
            continue
        if spliced.q > 9 * alpha.q + 1e-9 or spliced.Q > alpha.Q + 1e-9:
            failures += 1
    v = morse.Verdict(failures == 0, test="surgery", margin=-failures,
                      parameters={"fixtures": len(seeds), "r": r, "R": R},
                      seed=seed, space=sp.kind)
    return _record("surgery", v, cfg["expect"], extra={"failures": failures})


# pairs whose walks _random_pairs draws and reduces together, which bounds
# the rows alive at once
_PAIR_CHUNK = 128


def _random_pairs(sp, count, radius, seed):
    """`count` pairs of ends of random generator walks of 0 to `radius`
    steps, and their distance-formula terms (relhyp._formula_terms).

    Pair i is drawn from its own stream, rng_for(seed, 13, i): for each of
    its two walks a step count, then one generator index per step, as
    randint and choice would draw them one at a time
    (randwalk._pair_draws).  The walks of _PAIR_CHUNK pairs are drawn
    together, and one reduce_flat pass of the space's FlatCode spells their
    ends and the normal forms of x^-1 y that the terms read."""
    code = space.FlatCode(sp)
    pairs, terms = [], []
    for lo in range(0, count, _PAIR_CHUNK):
        rngs = [rng_for(seed, 13, i)
                for i in range(lo, min(lo + _PAIR_CHUNK, count))]
        walk, index = randwalk._pair_draws(rngs, radius, len(sp.gens))
        ends, ts = code.walk_pairs(walk, index, len(rngs))
        pairs += ends
        terms += ts
    return pairs, terms


def _run_distance_formula(sp, cfg, seed, out_dir):
    relhyp.require_relhyp(sp)
    # the terms of x^-1 y once per pair for both fits
    pairs, terms = _random_pairs(sp, cfg["pairs"], cfg["radius"], seed)
    fit = relhyp.fit_distance_formula(sp, pairs, cfg["k"], terms=terms)
    extra = {"M": fit.M, "A": fit.A, "K": fit.K}
    ok = True
    if cfg["k2"]:
        fit2 = relhyp.fit_distance_formula(sp, pairs, cfg["k2"], terms=terms)
        extra["M2"] = fit2.M
        ok = abs(fit2.M - fit.M) / max(fit.M, 1e-12) < 0.10
    v = morse.Verdict(ok, test="distance_formula", margin=fit.M,
                      parameters=extra, seed=seed, space=sp.kind)
    return _record("distance_formula", v, cfg["expect"], extra=extra)


_RUNNERS = {
    "morse": _run_morse,
    "contract": _run_contract,
    "excursion": _run_excursion,
    "walk": _run_walk,
    "gauge": _run_gauge,
    "surgery": _run_surgery,
    "distance_formula": _run_distance_formula,
}


# ---------------------------------------------------------------------------
# orchestration

def run_experiment(config, tests=None, seed=None, out=None):
    """Run the selected sections, all in this one process, and write
    `summary.json`; returns (summary dict, exit code)."""
    sp = space.build_space(config.space_spec)
    seed = config.seed if seed is None else seed
    out_dir = config.out if out is None else out
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for name in (tests if tests is not None else config.tests):
        cfg = config.sections.get(name)
        if cfg is None:
            results.append(_record(name, error=f"no [{name}] section"))
            continue
        runner = _RUNNERS[name]
        try:
            results.append(runner(sp, cfg, seed, out_dir))
        except (Inconclusive, PreconditionError, DomainError, ConfigError,
                GenerationError, CertificationError, NotSublinear) as e:
            rec = _record(name, expect=cfg.get("expect", "pass"),
                          error=f"{type(e).__name__}: {e}")
            # what the error carries (NotSublinear, PreconditionError and
            # CertificationError a witness, Inconclusive a detail)
            for key in ("witness", "detail"):
                if getattr(e, key, None) is not None:
                    rec[key] = morse.json_safe(getattr(e, key))
            results.append(rec)
    ok = bool(results) and all(r.get("ok", False) for r in results)
    summary = {
        "version": __version__,
        "space": config.space_spec,
        "seed": seed,
        "results": results,
        "ok": ok,
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary, 0 if ok else 1


def _parser():
    p = argparse.ArgumentParser(prog="coarselab",
                                description="coarse-geometry experiment runner")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    names = {
        "morse-test": "morse",
        "contract-test": "contract",
        "excursion": "excursion",
        "walk": "walk",
        "gauge": "gauge",
        "surgery": "surgery",
        "distance-formula": "distance_formula",
        "run": None,
    }
    for cmd in names:
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--jobs", type=int, default=None,
                        help="accepted for old scripts; has no effect")
        sp.add_argument("--out", default=None)
        sp.set_defaults(section=names[cmd])
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        config = validate_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    tests = None if args.section is None else [args.section]
    try:
        summary, code = run_experiment(config, tests=tests, seed=args.seed,
                                       out=args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    for r in summary["results"]:
        state = "ok" if r.get("ok") else "NOT OK"
        detail = r.get("error") or \
            ("pass" if r.get("passed") else "fail") + f" (expect {r['expect']})"
        print(f"{r['section']}: {state} [{detail}]")
    print(f"summary: {'ok' if summary['ok'] else 'NOT OK'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
