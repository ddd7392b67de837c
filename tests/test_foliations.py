"""Foliations, families, rank strata, invariance, piecewise forms."""
import pytest

from gvcheck import (
    CoordinateMap,
    Foliation,
    FoliationFamily,
    PiecewiseForm,
    PreconditionError,
    Region,
    Verdict,
    basis_form,
    box_region,
    check_family,
    check_invariance,
    check_minimal_vanishing,
    check_piecewise,
    differential,
    one_leaf,
    rank_at,
    rat,
    stratum,
    sym,
    validate_foliation,
    zero_form,
)
from conftest import XY, XYZ, square_box

x, y, z = sym("x"), sym("y"), sym("z")


def horizontal(region):
    """Lines y = const in the plane."""
    return Foliation("H", region, 1, differential(XY, "y"), (differential(XY, "y"),), ("y",))


def spiral(region):
    """Codimension-one foliation of 3-space defined by dy - y dx."""
    nu = differential(XYZ, "y") - differential(XYZ, "x") * y
    return Foliation("F", region, 2, nu, (nu,))


# ---------------------------------------------------------------------------
# construction


def test_constructor_guards(plane):
    with pytest.raises(ValueError):
        Foliation("bad", plane, 3, differential(XY, "y"), (differential(XY, "y"),))
    with pytest.raises(ValueError):
        Foliation("bad", plane, 0, differential(XY, "y"), (differential(XY, "y"),))
    with pytest.raises(ValueError):
        Foliation("bad", plane, 1, differential(XY, "y"), ())
    with pytest.raises(ValueError):
        Foliation("bad", plane, 1, differential(XY, "y"), (basis_form(XY, ("x", "y")),))
    # a one-leaf presentation must carry the constant coefficient 1
    with pytest.raises(ValueError):
        Foliation("bad", plane, 2, zero_form(XY, 0), ())


def test_codim_and_one_leaf(plane):
    h = horizontal(plane)
    assert h.codim == 1
    assert h.coords == ("x", "y")
    top = one_leaf("all", plane)
    assert top.codim == 0
    assert top.leaf_dim == 2
    assert top.nu.coefficient(()).is_one


# ---------------------------------------------------------------------------
# validation


def test_validate_accepts_horizontal(plane, cfg):
    rep = validate_foliation(horizontal(plane), cfg)
    assert rep.proved
    names = [e.name for e in rep.entries]
    assert names == ["decomposition-product", "independence", "integrability[0]"]


def test_validate_accepts_spiral(space, cfg):
    rep = validate_foliation(spiral(space), cfg)
    assert rep.proved


def test_validate_flags_bad_decomposition_product(space, cfg):
    nu = differential(XYZ, "y") - differential(XYZ, "x") * y
    fol = Foliation("F", space, 2, nu, (differential(XYZ, "y"),))
    rep = validate_foliation(fol, cfg)
    assert rep.entry("decomposition-product").verdict is Verdict.FAIL
    assert rep.status is Verdict.FAIL


def test_validate_flags_dependent_generators(space, cfg):
    g = differential(XYZ, "x")
    fol = Foliation("D", space, 1, zero_form(XYZ, 2), (g, g * rat(2)))
    rep = validate_foliation(fol, cfg)
    assert rep.entry("independence").verdict is Verdict.FAIL
    assert rep.entry("independence").witness_point is not None


def test_validate_refutes_contact_form(space, cfg):
    """The standard contact structure is as non-integrable as it gets."""
    nu = differential(XYZ, "z") + differential(XYZ, "y") * x
    fol = Foliation("contact", space, 2, nu, (nu,))
    rep = validate_foliation(fol, cfg)
    entry = rep.entry("integrability[0]")
    assert entry.verdict is Verdict.FAIL
    assert entry.witness_form == "dx^dy^dz"
    assert rep.status is Verdict.FAIL


# ---------------------------------------------------------------------------
# families


def half(coords, g, name):
    return Region(coords, (g,), square_box(coords), name=name)


def test_family_construction_guards(plane):
    h = horizontal(plane)
    with pytest.raises(ValueError):
        FoliationFamily(())
    with pytest.raises(ValueError):
        FoliationFamily((h, horizontal(plane)))  # duplicate names
    fam = FoliationFamily((h, one_leaf("top", plane)))
    assert fam.ranks() == [1, 2]
    assert fam.member("H") is h
    with pytest.raises(KeyError):
        fam.member("nope")
    assert fam.box == plane.box


def test_check_family_happy_path(plane, cfg):
    fam = FoliationFamily((horizontal(plane), one_leaf("top", plane)), saturated=True)
    rep = check_family(fam, cfg)
    assert rep.proved
    names = [e.name for e in rep.entries]
    assert "member-validity[H]" in names
    assert "distinct-leaf-dims" in names
    assert "coverage" in names
    assert "overlap-nesting[H<top]" in names
    assert "saturation asserted by user: yes" in rep.notes


def test_check_family_coverage_gap(cfg):
    left = half(XY, -x, "left")
    h = horizontal(left)
    fam = FoliationFamily((h,), box=square_box(XY))
    rep = check_family(fam, cfg)
    cov = rep.entry("coverage")
    assert cov.verdict is Verdict.FAIL
    assert cov.witness_point is not None
    assert cov.witness_point["x"] > 0


def test_check_family_duplicate_dims(plane, cfg):
    a = horizontal(plane)
    b = Foliation("V", plane, 1, differential(XY, "x"), (differential(XY, "x"),))
    rep = check_family(FoliationFamily((a, b)), cfg)
    assert rep.entry("distinct-leaf-dims").verdict is Verdict.FAIL


def test_overlap_nesting_detects_transverse_members(space, cfg):
    curves = Foliation(
        "C",
        space,
        1,
        basis_form(XYZ, ("y", "z")),
        (differential(XYZ, "y"), differential(XYZ, "z")),
    )
    sheets = Foliation("S", space, 2, differential(XYZ, "x"), (differential(XYZ, "x"),))
    rep = check_family(FoliationFamily((curves, sheets)), cfg)
    entry = rep.entry("overlap-nesting[C<S]")
    assert entry.verdict is Verdict.FAIL


def test_overlap_nesting_accepts_nested_members(space, cfg):
    curves = Foliation(
        "C",
        space,
        1,
        basis_form(XYZ, ("y", "z")),
        (differential(XYZ, "y"), differential(XYZ, "z")),
    )
    sheets = Foliation("S", space, 2, differential(XYZ, "z"), (differential(XYZ, "z"),))
    rep = check_family(FoliationFamily((curves, sheets)), cfg)
    assert rep.entry("overlap-nesting[C<S]").verdict is Verdict.PASS


def test_disjoint_members_report_no_overlap(cfg):
    a = horizontal(half(XY, x - rat(1, 2), "right"))
    b_reg = half(XY, -x - rat(1, 2), "left")
    b = one_leaf("left-leaf", b_reg)
    fam = FoliationFamily((a, b), box=square_box(XY))
    rep = check_family(fam, cfg)
    entry = rep.entry("overlap-nesting[H<left-leaf]")
    assert entry.verdict is Verdict.PASS
    assert entry.detail == "no overlap detected"


def test_no_overlap_rows_rest_on_sampling(cfg, sampling_proves_nothing):
    # "no overlap detected" is a sampled search that found no common point,
    # so reading that as UNDECIDED turns every such row UNDECIDED
    right, left = half(XY, x - 1, "right"), half(XY, -x - 1, "left")
    fam = FoliationFamily((horizontal(right), one_leaf("L", left)), box=square_box(XY))
    mus = {"H": zero_form(XY, 1), "L": zero_form(XY, 1)}
    pw = PiecewiseForm(((right, differential(XY, "y")), (left, differential(XY, "y"))), 1)
    vanishing = check_minimal_vanishing(fam, mus, cfg)
    rows = (
        check_family(fam, cfg).entry("overlap-nesting[H<L]"),
        check_piecewise(pw, cfg).entry("agree[right,left]"),
        vanishing.entry("power-vanishing[L]"),
        vanishing.entry("gv-vanishing[L]"),
    )
    assert [(e.verdict, e.detail) for e in rows] == [(Verdict.UNDECIDED, "no overlap detected")] * 4


# ---------------------------------------------------------------------------
# rank and strata


def rank_family():
    core = Region(XYZ, (1 - x * x,), square_box(XYZ), name="core")
    whole = Region(XYZ, (x * x - rat(1, 4),), square_box(XYZ), name="shell")
    leaves = Foliation(
        "L", core, 2, differential(XYZ, "y") * (1 + x * x), (differential(XYZ, "y") * (1 + x * x),)
    )
    return FoliationFamily((leaves, one_leaf("W", whole)), box=square_box(XYZ))


def test_rank_at_takes_the_max(space):
    fam = rank_family()
    assert rank_at(fam, {"x": 0.0, "y": 0.0, "z": 0.0}) == 2
    assert rank_at(fam, {"x": 1.5, "y": 0.0, "z": 0.0}) == 3
    assert rank_at(fam, {"x": 0.7, "y": 0.0, "z": 0.0}) == 3  # in both regions


def test_rank_at_outside_every_region():
    right = Region(XY, (x,), square_box(XY), name="right")
    fam = FoliationFamily((horizontal(right),), box=square_box(XY))
    probe = {"x": -1.0, "y": 0.0}
    with pytest.raises(PreconditionError) as err:
        rank_at(fam, probe)
    assert err.value.witness == probe


def test_stratum_modes():
    fam = rank_family()
    big = stratum(fam, 3, mode=">=")
    assert big.regions is not None and len(big.regions) == 1
    assert big.contains({"x": 1.5, "y": 0.0, "z": 0.0})
    assert big.contains({"x": 0.7, "y": 0.0, "z": 0.0})
    assert not big.contains({"x": 0.0, "y": 0.0, "z": 0.0})
    assert "open region" in big.describe()

    low = stratum(fam, 2, mode="=")
    assert low.regions is None
    assert low.contains({"x": 0.0, "y": 0.0, "z": 0.0})
    assert not low.contains({"x": 0.7, "y": 0.0, "z": 0.0})
    assert not low.contains({"x": 1.0, "y": 0.0, "z": 0.0})  # rank is 3 there
    assert "predicate" in low.describe()

    with pytest.raises(ValueError):
        stratum(fam, 2, mode="!=")


# ---------------------------------------------------------------------------
# invariance under maps


def test_invariance_accepts_translations_and_shears(plane, cfg):
    h = horizontal(plane)
    shift = CoordinateMap(XY, XY, {"x": x + 1, "y": y})
    shear = CoordinateMap(XY, XY, {"x": x + y, "y": y})
    assert check_invariance(shift, h, cfg).proved
    assert check_invariance(shear, h, cfg).proved


def test_invariance_refutes_leaf_mixing(plane, cfg):
    h = horizontal(plane)
    mix = CoordinateMap(XY, XY, {"x": x, "y": x + y})
    out = check_invariance(mix, h, cfg)
    assert out.status is Verdict.FAIL
    assert out.witness is not None


def test_invariance_precondition_region_preservation(cfg):
    right = half(XY, x, "right")
    h = horizontal(right)
    flip = CoordinateMap(XY, XY, {"x": -x, "y": y})
    with pytest.raises(PreconditionError) as err:
        check_invariance(flip, h, cfg)
    assert err.value.witness is not None
    assert "image" in err.value.detail


# ---------------------------------------------------------------------------
# piecewise forms


def test_piecewise_guards_and_lookup(plane):
    r1 = half(XY, x, "right")
    r2 = half(XY, -x, "left")
    f = differential(XY, "y") * x
    pw = PiecewiseForm(((r1, f), (r2, zero_form(XY, 1))), 1)
    assert pw.piece_on("right") == f
    with pytest.raises(KeyError):
        pw.piece_on("middle")
    with pytest.raises(ValueError):
        PiecewiseForm(((r1, basis_form(XY, ("x", "y"))),), 1)


def test_check_piecewise_agreement(cfg):
    r1 = half(XY, x + 1, "wide")           # x > -1
    r2 = half(XY, x - 1, "narrow")         # x > 1
    same = differential(XY, "y") * (x * x)
    pw = PiecewiseForm(((r1, same), (r2, same)), 1)
    assert check_piecewise(pw, cfg).proved

    other = differential(XY, "y") * x
    pw2 = PiecewiseForm(((r1, same), (r2, other)), 1)
    rep = check_piecewise(pw2, cfg)
    entry = rep.entry("agree[wide,narrow]")
    assert entry.verdict is Verdict.FAIL
    assert entry.witness_point is not None


def test_check_piecewise_disjoint_pieces(cfg):
    r1 = half(XY, x - 1, "right-strip")    # x > 1
    r2 = half(XY, -x - 1, "left-strip")    # x < -1
    pw = PiecewiseForm(
        ((r1, differential(XY, "y")), (r2, differential(XY, "y") * rat(5))), 1
    )
    rep = check_piecewise(pw, cfg)
    assert rep.entries[0].detail == "no overlap detected"
    assert rep.proved
