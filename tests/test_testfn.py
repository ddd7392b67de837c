"""Flat test functions: steps, bumps, closed-set specs, cover and flatness checks."""
import os
import re

import pytest

from fractions import Fraction

from gvcheck import (
    BumpSpec,
    ClosedSetSpec,
    CoverageError,
    PreconditionError,
    Verdict,
    ZeroTestConfig,
    bump,
    evaluate,
    flatexp,
    flatness_check,
    psi0,
    rat,
    smooth_step,
    strengthen,
    sym,
    weak_test_from_cover,
)
from gvcheck import testfn
from gvcheck.runner import run_checks
from gvcheck.specdoc import parse_spec
from gvcheck.testfn import FLAT_DISTANCES
from conftest import XY, square_box

x, y = sym("x"), sym("y")

WINDOW = {"x": (0.3, 1.1), "y": (0.3, 1.1)}
GALLERY = os.path.join(os.path.dirname(__file__), os.pardir, "gallery")


def ev(e, px, py=0.0):
    return evaluate(e, {"x": px, "y": py})


# ---------------------------------------------------------------------------
# smooth step and strengthening


def test_smooth_step_is_exact_at_the_flats():
    s = smooth_step(x)
    assert ev(s, -0.5) == 0.0
    assert ev(s, 0.0) == 0.0
    assert ev(s, 1.0) == 1.0
    assert ev(s, 1.7) == 1.0
    assert ev(s, 0.5) == 0.5  # symmetric midpoint


def test_smooth_step_is_monotone_in_between():
    s = smooth_step(x)
    values = [ev(s, 0.05 * k) for k in range(1, 20)]
    assert all(0.0 < v < 1.0 for v in values)
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_strengthen_keeps_the_zero_set():
    f = x * x + y * y
    g = strengthen(f)
    assert evaluate(g, {"x": 0.0, "y": 0.0}) == 0.0
    v = evaluate(g, {"x": 0.5, "y": 0.1})
    assert 0.0 < v < 0.5
    assert (g - psi0(f)).is_zero


# ---------------------------------------------------------------------------
# bumps


def test_bump_spec_validation():
    with pytest.raises(ValueError):
        BumpSpec({"x": 0, "y": 0}, 0)
    with pytest.raises(ValueError):
        BumpSpec({"x": 0, "y": 0}, -1)
    with pytest.raises(ValueError):
        BumpSpec({"x": 0, "y": 0}, x)  # not a constant
    # support ball must fit in the box: center 1.9, support radius 0.6
    with pytest.raises(ValueError):
        BumpSpec({"x": Fraction(19, 10), "y": 0}, rat(3, 10), box=square_box(XY))
    ok = BumpSpec({"x": 0, "y": 0}, rat(3, 10), box=square_box(XY))
    assert ok.in_inner({"x": 0.2, "y": 0.2})
    assert not ok.in_inner({"x": 0.3, "y": 0.2})
    assert ok.dist2({"x": 0.3, "y": 0.4}) == pytest.approx(0.25)


def test_bump_exact_plateau_and_support():
    b = BumpSpec({"x": 0, "y": 0}, rat(1, 2))
    f = bump(b)
    assert evaluate(f, {"x": 0.0, "y": 0.0}) == 1.0
    assert evaluate(f, {"x": 0.5, "y": 0.0}) == 1.0   # closed inner ball
    assert evaluate(f, {"x": 1.0, "y": 0.0}) == 0.0   # support boundary
    assert evaluate(f, {"x": 1.5, "y": 0.5}) == 0.0   # well outside
    mid = evaluate(f, {"x": 0.75, "y": 0.0})
    assert 0.0 < mid < 1.0


# ---------------------------------------------------------------------------
# closed-set descriptions


def test_closed_set_kind_validation():
    with pytest.raises(ValueError):
        ClosedSetSpec(XY, WINDOW, "blob")
    with pytest.raises(ValueError):
        ClosedSetSpec(XY, WINDOW, "zeroset")  # needs an expression
    with pytest.raises(ValueError):
        ClosedSetSpec(XY, WINDOW, "balls", expr=x)


@pytest.mark.parametrize("balls, box, message", [
    ((({"x": 0.0, "y": 0.0}, -0.5),), WINDOW, "ball radius must be positive"),
    ((({"x": 0.0, "y": 0.0}, 0),), WINDOW, "ball radius must be positive"),
    ((), dict(WINDOW, x=(1.0, -1.0)), "window bounds must satisfy lo < hi"),
    ((), dict(WINDOW, y=(1.0, 1.0)), "window bounds must satisfy lo < hi"),
])
def test_closed_set_value_validation(balls, box, message):
    # a negative radius used to act as its absolute value, and a reversed
    # window gave a complement with no point in it
    with pytest.raises(ValueError, match=message):
        ClosedSetSpec(XY, box, "complement-of-balls", balls=balls)


def test_zeroset_membership_and_sampling():
    m0 = ClosedSetSpec(
        XY, WINDOW, "zeroset", expr=x * x + y * y, anchors=({"x": 0.0, "y": 0.0},)
    )
    assert m0.contains({"x": 0.0, "y": 0.0})
    assert not m0.contains({"x": 0.5, "y": 0.5})
    comp = m0.sample_complement(11, 16)
    assert len(comp) == 16
    assert comp == m0.sample_complement(11, 16)  # deterministic per seed
    assert all(not m0.contains(p) for p in comp)
    assert m0.sample_set(11, 10) == [{"x": 0.0, "y": 0.0}]  # anchors only


def test_ball_union_membership():
    m0 = ClosedSetSpec(XY, square_box(XY), "balls", balls=(({"x": 0.0, "y": 0.0}, 0.5),))
    assert m0.contains({"x": 0.3, "y": 0.0})
    assert m0.contains({"x": 0.5, "y": 0.0})      # boundary sphere included
    assert not m0.contains({"x": 0.51, "y": 0.0})
    inside = m0.sample_set(5, 12)
    assert len(inside) == 12
    assert all(m0.contains(p) for p in inside)
    anchors = m0.boundary_anchors(5)
    assert len(anchors) == 2  # per-ball sphere points
    for a in anchors:
        assert a["x"] ** 2 + a["y"] ** 2 == pytest.approx(0.25)


def test_complement_of_balls_membership():
    m0 = ClosedSetSpec(
        XY, square_box(XY), "complement-of-balls", balls=(({"x": 0.0, "y": 0.0}, 1.0),)
    )
    assert not m0.contains({"x": 0.0, "y": 0.0})
    assert m0.contains({"x": 1.0, "y": 0.0})      # sphere belongs to the closed set
    assert m0.contains({"x": 1.5, "y": 1.5})
    assert not m0.contains({"x": 3.0, "y": 0.0})  # outside the window
    assert m0.boundary_anchors(5)                  # sampled fill-in anchors


def test_thin_complement_returns_short_list():
    # one ball swallows the whole window: no complement samples exist
    m0 = ClosedSetSpec(
        XY, WINDOW, "balls", balls=(({"x": 0.7, "y": 0.7}, 1.0),)
    )
    assert m0.sample_complement(3, 4) == []


# ---------------------------------------------------------------------------
# weak test functions from covers


def four_ball_cover():
    half, nine = Fraction(1, 2), Fraction(9, 10)
    centers = ((half, half), (nine, half), (half, nine), (nine, nine))
    return tuple(
        BumpSpec({"x": cx, "y": cy}, rat(3, 10), box=square_box(XY)) for cx, cy in centers
    )


def origin_zeroset():
    return ClosedSetSpec(
        XY, WINDOW, "zeroset", expr=x * x + y * y, anchors=({"x": 0.0, "y": 0.0},)
    )


def test_weak_test_from_cover_happy_path(cfg):
    phi, rep = weak_test_from_cover(four_ball_cover(), origin_zeroset(), cfg)
    assert rep.proved
    names = [e.name for e in rep.entries]
    assert names == ["coverage", "vanishes-on-set", "positive-on-complement"]
    assert "32 complement samples covered by 4 inner balls" in rep.entry("coverage").detail
    assert evaluate(phi, {"x": 0.0, "y": 0.0}) == 0.0
    assert evaluate(phi, {"x": 0.5, "y": 0.5}) >= 1.0


def test_cover_check_reuses_the_parsed_bump_sum(monkeypatch):
    with open(os.path.join(GALLERY, "testfn_gallery.fol"), encoding="utf-8") as fh:
        doc, diagnostics = parse_spec(fh.read())
    assert diagnostics == []
    calls = []
    real = testfn.bump_sum
    monkeypatch.setattr(testfn, "bump_sum", lambda balls: calls.append(balls) or real(balls))
    report = run_checks(doc)
    assert [(c.kind, c.verdict) for c in report.checks if c.kind == "cover"] == [("cover", "PASS")]
    assert calls == []


def test_weak_test_detects_coverage_gap(cfg):
    with pytest.raises(CoverageError) as err:
        weak_test_from_cover(four_ball_cover()[:3], origin_zeroset(), cfg)
    assert err.value.witness is not None
    gap = err.value.witness
    assert not any(b.in_inner(gap) for b in four_ball_cover()[:3])


def test_weak_test_rejects_support_touching_the_set(cfg):
    # one fat bump whose support ball reaches the origin
    fat = (BumpSpec({"x": Fraction(1, 2), "y": Fraction(1, 2)}, rat(1, 2), box=square_box(XY)),)
    m0 = ClosedSetSpec(
        XY,
        {"x": (0.3, 0.9), "y": (0.3, 0.9)},
        "zeroset",
        expr=x * x + y * y,
        anchors=({"x": 0.0, "y": 0.0},),
    )
    phi, rep = weak_test_from_cover(fat, m0, cfg)
    entry = rep.entry("vanishes-on-set")
    assert entry.verdict is Verdict.FAIL
    assert entry.detail == "a bump support reaches the set"
    assert entry.witness_point == {"x": 0.0, "y": 0.0}


# ---------------------------------------------------------------------------
# flatness


def parse_estimates(detail):
    return [float(m) for m in re.findall(r": ([0-9.e+-]+)", detail)]


def test_flatness_rejects_quadratic(cfg):
    rep = flatness_check(x * x + y * y, origin_zeroset(), cfg)
    assert rep.status is Verdict.FAIL
    assert [e.name for e in rep.entries] == ["order-1", "order-2", "order-3"]
    order2 = rep.entry("order-2")
    assert order2.verdict is Verdict.FAIL
    estimates = parse_estimates(order2.detail)
    # the second directional derivative of |x|^2 is exactly 2 everywhere
    for est in estimates:
        assert est == pytest.approx(2.0, rel=0.1)
    assert order2.witness_point is not None


def test_flatness_accepts_strengthened_quadratic(cfg):
    rep = flatness_check(strengthen(x * x + y * y), origin_zeroset(), cfg)
    assert rep.proved
    names = [e.name for e in rep.entries]
    assert names == ["structural-flatness", "order-1", "order-2", "order-3"]
    for order in (1, 2, 3):
        for est in parse_estimates(rep.entry("order-%d" % order).detail):
            assert est < 1e-6


def test_flatness_on_ball_boundary(cfg):
    disk = ClosedSetSpec(
        XY, square_box(XY), "balls", balls=(({"x": 0.0, "y": 0.0}, 0.5),)
    )
    f = flatexp(x * x + y * y - rat(1, 4))  # vanishes on the disk, flat at the sphere
    rep = flatness_check(f, disk, cfg)
    assert rep.proved
    assert rep.entries[0].name == "structural-flatness"


@pytest.mark.parametrize("closed_set", ["zeroset", "balls"])
def test_flatness_evaluates_each_probe_point_once(closed_set, cfg, monkeypatch):
    if closed_set == "zeroset":
        m0 = origin_zeroset()
    else:
        m0 = ClosedSetSpec(XY, square_box(XY), "balls", balls=(({"x": 0.0, "y": 0.0}, 0.5),))
    points = []
    real = testfn.evaluate
    monkeypatch.setattr(testfn, "evaluate", lambda e, p: points.append(p) or real(e, p))
    flatness_check(x * x * y + y, m0, cfg)
    # two seeded directions per anchor, 7 distinct points per base point
    probes = 2 * len(m0.boundary_anchors(cfg.rng_seed))
    assert len(points) == 7 * len(FLAT_DISTANCES) * probes
    assert len({tuple(sorted(p.items())) for p in points}) == len(points)


def test_flatness_requires_anchors(cfg):
    bare = ClosedSetSpec(XY, WINDOW, "zeroset", expr=x * x + y * y)
    with pytest.raises(PreconditionError):
        flatness_check(x, bare, cfg)


def test_structural_entry_only_for_flat_atoms(cfg):
    rep = flatness_check(flatexp(x) * y + psi0(y), origin_zeroset(), cfg)
    assert rep.entries[0].name == "structural-flatness"
    rep2 = flatness_check(flatexp(x) + x, origin_zeroset(), cfg)
    assert rep2.entries[0].name == "order-1"
