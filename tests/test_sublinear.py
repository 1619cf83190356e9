import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from coarselab import sublinear
from coarselab.errors import DomainError, Inconclusive, NotSublinear
from coarselab.sublinear import (TOL, by_tag, check_scaling, concavify,
                                 estimation_constant, evaluate, from_table,
                                 log_grid, registry, small_compared)

TAGS = ("1", "log", "sqrt", "log^2", "log^3")


def test_registry_tags():
    fam = registry()
    assert set(fam) == set(TAGS)
    for tag, f in fam.items():
        assert f.tag == tag


def test_log_grid_anchors():
    g = log_grid()
    assert g[0] == 0.0
    assert 1.0 in g
    assert g[-1] == 1.0e6
    assert np.all(np.diff(g) > 0)


@pytest.mark.parametrize("cap", [1.0e6, 10.0, 1234.5])
def test_log_grid_is_shared_read_only_and_equals_the_unique_construction(cap):
    g = log_grid(cap)
    assert log_grid(cap) is g
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0] = 1.0
    ref = np.unique(np.concatenate(
        ([0.0, 1.0], np.geomspace(1e-3, cap, sublinear.DEFAULT_GRID_POINTS))))
    assert g.tobytes() == ref.tobytes()


def _table_gauge(tmp_path):
    p = tmp_path / "gauge.txt"
    p.write_text("0 1\n3 2.5\n10 4\n100 8\n1000 10\n5000 11\n")
    return from_table(str(p), tag="toy")


@pytest.mark.parametrize("tag", TAGS + ("table",))
def test_array_evaluator_equals_evaluate_bit_for_bit(tag, tmp_path):
    f = _table_gauge(tmp_path) if tag == "table" else by_tag(tag)
    ts = log_grid(f.grid_cap)
    assert sublinear._on_log_grid(f).tolist() == [evaluate(f, t) for t in ts]
    # and at the points a scan evaluates off the grid
    for pts in (2.0 * ts, ts + 37.0 * sublinear._on_log_grid(f)):
        want = [evaluate(f, t) for t in pts.tolist()]
        assert sublinear._evaluate_points(f, pts).tolist() == want


def test_deriving_a_gauge_leaves_numpy_ma_unimported():
    code = ("import sys\n"
            "from coarselab import morse, sublinear\n"
            "morse.derive_gauge(2, 4, 0.5, 1, 1, 1, sublinear.by_tag('log'))\n"
            "morse.derive_gauge(2, 4, 0.5, 0, 1, 0, sublinear.by_tag('1'))\n"
            "print('numpy.ma' in sys.modules)\n")
    src = str(Path(sublinear.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("tag", TAGS)
def test_gauges_are_nondecreasing_and_at_least_one(tag):
    f = by_tag(tag)
    ts = log_grid()
    vals = [evaluate(f, t) for t in ts]
    assert min(vals) >= 1.0
    assert all(b >= a - TOL for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("tag", TAGS)
def test_gauges_are_midpoint_concave(tag):
    # clamping to >= 1 can introduce a convex kink below t = 1 (sqrt does);
    # concavity is asserted where the gauges genuinely live, t >= 1
    f = by_tag(tag)
    ts = log_grid()
    ts = ts[ts >= 1.0]
    for a, b in zip(ts[::7], ts[5::7]):
        mid = evaluate(f, (a + b) / 2)
        assert mid >= (evaluate(f, a) + evaluate(f, b)) / 2 - 1e-7


@pytest.mark.parametrize("tag", TAGS)
def test_gauges_are_sublinear_at_the_cap(tag):
    f = by_tag(tag)
    cap = f.grid_cap
    assert evaluate(f, cap) / cap < 0.01


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("lam", [1.5, 2.0, 10.0])
def test_scaling_lemma(tag, lam):
    ok, worst = check_scaling(by_tag(tag), lam)
    assert ok
    assert worst <= 1.0 + TOL


@given(lam=st.floats(min_value=1.0 + 1e-6, max_value=1e3),
       t=st.floats(min_value=0.0, max_value=1e5))
def test_scaling_pointwise_log(lam, t):
    f = by_tag("log")
    assert evaluate(f, lam * t) <= lam * evaluate(f, t) + 1e-8


@given(t=st.floats(min_value=0, max_value=1e9))
def test_evaluate_clamps_to_one(t):
    f = sublinear.SublinearFn(lambda s: 0.25, "tiny")
    assert evaluate(f, t) == 1.0


def test_evaluate_rejects_negative():
    with pytest.raises(DomainError):
        evaluate(by_tag("log"), -1.0)


# ---------------------------------------------------------------------------
# small_compared

def test_small_compared_constant_gauge():
    one = by_tag("1")
    assert small_compared(75, 160, one)      # 75 <= 80
    assert not small_compared(75, 100, one)  # 75 > 50


def test_small_compared_monotone_in_d():
    f = by_tag("sqrt")
    r = 400.0
    bound = r / (2 * evaluate(f, r))
    assert small_compared(bound - 1e-6, r, f)
    assert not small_compared(bound + 1e-6, r, f)


def test_small_compared_rejects_bad_radius():
    with pytest.raises(DomainError):
        small_compared(1, 0, by_tag("1"))


# ---------------------------------------------------------------------------
# estimation constants

def test_estimation_constant_trivial_gauge():
    one = by_tag("1")
    for c in (0.0, 1.0, 17.5):
        ec = estimation_constant(one, c)
        assert ec.m == 1.0


@pytest.mark.parametrize("tag", ("log", "sqrt", "log^2"))
@pytest.mark.parametrize("c", (0.0, 0.5, 2.0, 10.0, 36.5, 37.0, 98765.0))
def test_estimation_constant_matches_brute_force(tag, c):
    # exactly: the array scan must pick the oracle's value and first argmax
    f = by_tag(tag)
    ts = log_grid(f.grid_cap)
    brute, arg = oracles.brute_estimation_constant(lambda t: evaluate(f, t), c, ts)
    for ec in (estimation_constant(f, c, grid=ts), estimation_constant(f, c)):
        assert (ec.m, ec.witness_t) == (max(brute, 1.0), arg)
        assert ec.m >= 1.0


def test_estimation_constant_superlinear_is_inconclusive():
    f = sublinear.SublinearFn(lambda t: max(1.0, t * math.log(math.e + t) / 10),
                              "superlinear")
    with pytest.raises(Inconclusive):
        estimation_constant(f, 1.0)


def test_estimation_constant_rejects_negative_c():
    with pytest.raises(DomainError):
        estimation_constant(by_tag("log"), -0.5)


@pytest.mark.parametrize("tag", ("1", "log"))
def test_estimation_constant_rejects_a_negative_grid_point(tag):
    with pytest.raises(DomainError, match="t >= 0, got -2.0"):
        estimation_constant(by_tag(tag), 2.0, grid=[0.0, 1.0, -2.0, 5.0])


# ---------------------------------------------------------------------------
# concavify

def test_concavify_staircase_gap_at_most_two():
    f = concavify(oracles.staircase, tag="stairs")
    assert f.concavify_ratio <= 2.0 + 1e-9
    ts = log_grid()
    for t in ts:
        assert evaluate(f, t) >= oracles.staircase(t) - 1e-9


def test_concavify_output_is_concave_and_monotone():
    f = concavify(oracles.staircase, tag="stairs")
    ts = log_grid()
    vals = [evaluate(f, t) for t in ts]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    for a, b in zip(ts[::5], ts[3::5]):
        mid = evaluate(f, (a + b) / 2)
        assert mid >= (evaluate(f, a) + evaluate(f, b)) / 2 - 1e-7


@pytest.mark.parametrize("raw", [lambda t: 0.5 * t, lambda t: t * t / 100.0])
def test_concavify_rejects_non_sublinear(raw):
    with pytest.raises(NotSublinear):
        concavify(raw)


def test_concavify_repairs_sqrt_kink():
    # max(1, sqrt t) has a convex kink at t = 1; the hull must smooth it
    raw = lambda t: max(1.0, math.sqrt(t))
    f = concavify(raw, tag="sqrt-hull")
    assert f.concavify_ratio <= 2.0
    assert evaluate(f, 0.5) >= 1.0


# ---------------------------------------------------------------------------
# tables

def test_from_table_roundtrip(tmp_path):
    p = tmp_path / "gauge.txt"
    p.write_text("# toy gauge\n0 1\n10 4\n100 8\n1000 10\n")
    f = from_table(str(p), tag="toy")
    assert evaluate(f, 10) >= 4 - 1e-9
    assert evaluate(f, 2000) >= evaluate(f, 1000) - 1e-9
    ts = np.linspace(0, 1000, 101)
    vals = [evaluate(f, t) for t in ts]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_from_table_needs_two_points(tmp_path):
    p = tmp_path / "one.txt"
    p.write_text("0 1\n")
    with pytest.raises(DomainError):
        from_table(str(p))


def test_by_tag_unknown():
    known = ", ".join(repr(t) for t in sorted(TAGS))
    with pytest.raises(DomainError, match=re.escape(f"known: [{known}]")):
        by_tag("linear")


def test_by_tag_builds_only_the_gauge_asked_for(monkeypatch):
    def refuse():
        raise AssertionError("built a gauge nobody asked for")

    monkeypatch.setattr(sublinear, "_GAUGES", {})
    monkeypatch.setattr(sublinear, "_CONSTRUCTORS", {
        tag: sublinear._CONSTRUCTORS[tag] if tag == "log" else refuse
        for tag in TAGS})
    f = by_tag("log")
    assert by_tag("log") is f and sublinear._GAUGES == {"log": f}
