"""The Godbillon-Vey layer: gauges, witnesses, factorization, gluing, weights."""
import random

import pytest

from gvcheck import (
    Foliation,
    FoliationFamily,
    GluingError,
    GVReport,
    PreconditionError,
    Region,
    UnsupportedShapeError,
    Verdict,
    adapted_gauge,
    basis_form,
    check_basic,
    check_minimal_vanishing,
    check_overlap_identities,
    differential,
    evaluate,
    exp,
    ext_d,
    flatexp,
    forms_equal,
    gv_form,
    gv_min,
    gv_weighted,
    one_leaf,
    rat,
    solve_mu,
    solve_theta,
    sym,
    transition_mu,
    verify_frobenius,
    wedge,
    zero_form,
)
from conftest import XY, XYZ, random_polynomial, square_box

x, y, z = sym("x"), sym("y"), sym("z")


def d3(name):
    return differential(XYZ, name)


def spiral(region):
    nu = d3("y") - d3("x") * y
    return Foliation("F", region, 2, nu, (nu,))


def spiral_mu():
    return d3("x") * (-(1 + y * z)) + d3("y") * z


# ---------------------------------------------------------------------------
# adapted gauges and derived witnesses


def test_adapted_gauge_extracts_coefficient(space):
    fol = Foliation(
        "E", space, 2, d3("y") * exp(x * y), (d3("y") * exp(x * y),), transverse=("y",)
    )
    assert (adapted_gauge(fol) - exp(x * y)).is_zero


def test_adapted_gauge_signs_follow_transverse_order(space):
    nu = wedge(d3("z"), d3("y"))  # equals -dy^dz
    fol = Foliation("O", space, 1, nu, (d3("z"), d3("y")), transverse=("z", "y"))
    assert (adapted_gauge(fol) - 1).is_zero


def test_adapted_gauge_requires_declared_shape(space):
    anon = spiral(space)
    with pytest.raises(UnsupportedShapeError):
        adapted_gauge(anon)
    multi = Foliation(
        "M", space, 2, d3("y") - d3("x") * y, (d3("y") - d3("x") * y,), transverse=("y",)
    )
    with pytest.raises(UnsupportedShapeError):
        adapted_gauge(multi)
    with pytest.raises(UnsupportedShapeError):
        adapted_gauge(one_leaf("top", space))  # no transverse named
    # a one-leaf foliation that does name its (empty) transverse tuple
    top = Foliation("T", space, 3, one_leaf("t", space).nu, (), transverse=())
    assert adapted_gauge(top).is_one


def test_solve_mu_on_exponential_gauge(plane, cfg):
    dy2 = differential(XY, "y")
    fol = Foliation("E", plane, 1, dy2 * exp(x * y), (dy2 * exp(x * y),), ("y",))
    mu = solve_mu(fol, cfg)
    expected = differential(XY, "x") * (-y) + dy2 * (-x)
    assert mu == expected
    assert verify_frobenius(fol.nu, mu, plane, cfg).proved


def test_solve_mu_checks_gauge_zeros(plane, cfg):
    # a gauge that vanishes on an open half of the region is caught by
    # sampling (an isolated zero would slip through, by design)
    dy2 = differential(XY, "y")
    flat = flatexp(x)
    fol = Foliation("Z", plane, 1, dy2 * flat, (dy2 * flat,), ("y",))
    with pytest.raises(PreconditionError) as err:
        solve_mu(fol, cfg)
    assert err.value.witness is not None
    assert evaluate(flat, err.value.witness) == 0.0
    # without a config the quotient is produced formally
    assert solve_mu(fol).degree == 1


def test_solve_mu_formal_quotient_shape(plane):
    dy2 = differential(XY, "y")
    fol = Foliation("Q", plane, 1, dy2 * x, (dy2 * x,), ("y",))
    assert solve_mu(fol) == differential(XY, "x") * (-1 / x)


# ---------------------------------------------------------------------------
# Frobenius verification and the GV form


def test_frobenius_fixtures(space, cfg):
    fol = spiral(space)
    assert verify_frobenius(fol.nu, d3("x") * rat(-1), space, cfg).proved
    assert verify_frobenius(fol.nu, spiral_mu(), space, cfg).proved


def test_frobenius_refutes_wrong_witness(space, cfg):
    fol = spiral(space)
    out = verify_frobenius(fol.nu, d3("y"), space, cfg)
    assert out.status is Verdict.FAIL
    assert out.witness is not None


def test_frobenius_holds_under_gauge_shift(space, cfg):
    """mu -> mu + f*nu preserves the integrability identity for any f."""
    fol = spiral(space)
    mu = spiral_mu()
    rng = random.Random(88)
    for _ in range(10):
        f = random_polynomial(rng, XYZ, depth=2)
        shifted = mu + fol.nu * f
        assert verify_frobenius(fol.nu, shifted, space, cfg).proved


def test_gv_form_volume_oracle(space, cfg):
    mu = spiral_mu()
    vol = basis_form(XYZ, ("x", "y", "z"))
    assert gv_form(mu, 1) == vol
    assert ext_d(gv_form(mu, 1)).is_zero
    assert gv_form(mu, 0) == mu
    with pytest.raises(ValueError):
        gv_form(mu, -1)


def test_gv_form_closed_for_gauge_shifts(space, cfg):
    """Every shifted witness still yields a closed degree-3 form."""
    fol = spiral(space)
    mu = spiral_mu()
    rng = random.Random(99)
    for _ in range(5):
        f = random_polynomial(rng, XYZ, depth=1)
        w = gv_form(mu + fol.nu * f, 1)
        assert w.degree == 3
        assert forms_equal(ext_d(w), zero_form(XYZ, 4), space, cfg).proved


# ---------------------------------------------------------------------------
# nested pairs: theta and the overlap identities


def nested_pair(space):
    curves = Foliation(
        "C",
        space,
        1,
        basis_form(XYZ, ("y", "z")) * exp(x),
        (d3("y") * exp(x), d3("z")),
        transverse=("y", "z"),
    )
    sheets = Foliation("S", space, 2, d3("z"), (d3("z"),), transverse=("z",))
    return curves, sheets


def test_solve_theta_finds_the_sign(space, cfg):
    curves, sheets = nested_pair(space)
    theta, sign = solve_theta(curves, sheets, space, cfg)
    assert sign == -1
    assert theta == d3("y") * (-exp(x))
    assert forms_equal(curves.nu, wedge(sheets.nu, theta), space, cfg).proved


def test_solve_theta_plain_orientation(space, cfg):
    curves = Foliation(
        "C2",
        space,
        1,
        basis_form(XYZ, ("y", "z")),
        (d3("y"), d3("z")),
        transverse=("y", "z"),
    )
    sheets = Foliation("S2", space, 2, d3("y"), (d3("y"),), transverse=("y",))
    theta, sign = solve_theta(curves, sheets, space, cfg)
    assert sign == 1
    assert theta == d3("z")


def test_solve_theta_preconditions(space, cfg):
    curves, sheets = nested_pair(space)
    with pytest.raises(UnsupportedShapeError):
        solve_theta(sheets, curves, space, cfg)  # wrong nesting order
    with pytest.raises(UnsupportedShapeError):
        solve_theta(curves, curves, space, cfg)  # no codimension gap
    flat = flatexp(x)
    vanishing = Foliation("V", space, 2, d3("z") * flat, (d3("z") * flat,), transverse=("z",))
    with pytest.raises(PreconditionError):
        solve_theta(curves, vanishing, space, cfg)  # sup gauge dies for x <= 0


def test_transition_mu_signs():
    mu1 = d3("x")
    mu2 = d3("y")
    assert transition_mu(mu1, mu2, 1, 1) == (mu1 + mu2) * rat(-1)
    assert transition_mu(mu1, mu2, 2, 0) == mu1 - mu2
    assert transition_mu(mu1, mu2, 1, 2) == mu1 + mu2
    assert transition_mu(mu1, mu2, 2, 1) == (mu1 - mu2) * rat(-1)


def test_overlap_identities_nested_fixture(space, cfg):
    curves, sheets = nested_pair(space)
    theta, _ = solve_theta(curves, sheets, space, cfg)
    rep = check_overlap_identities(curves, sheets, d3("x"), zero_form(XYZ, 1), theta, space, cfg)
    assert [e.name for e in rep.entries] == [
        "dtheta-residual",
        "theta-wedge-dtransition",
        "dtransition-membership",
        "dmu-sub-membership",
    ]
    assert rep.proved


def test_overlap_identities_need_a_gap(space, cfg):
    curves, _ = nested_pair(space)
    with pytest.raises(ValueError):
        check_overlap_identities(
            curves, curves, d3("x"), d3("x"), d3("y"), space, cfg
        )


def test_overlap_identities_catch_corrupted_witness(space, cfg):
    """A witness whose differential escapes the sup ideal breaks three of
    the four memberships; the remaining one dies on a repeated factor."""
    curves, sheets = nested_pair(space)
    theta, _ = solve_theta(curves, sheets, space, cfg)
    bad = d3("x") + d3("x") * y  # d(bad) = dy^dx escapes the ideal (dz)
    rep = check_overlap_identities(curves, sheets, bad, zero_form(XYZ, 1), theta, space, cfg)
    assert rep.entry("dmu-sub-membership").verdict is Verdict.FAIL
    assert rep.entry("dtransition-membership").verdict is Verdict.FAIL
    assert rep.entry("dtheta-residual").verdict is Verdict.FAIL
    assert rep.entry("theta-wedge-dtransition").verdict is Verdict.PASS
    assert rep.entry("dmu-sub-membership").witness_point is not None


# ---------------------------------------------------------------------------
# minimal-stratum vanishing and gluing


def glued_family():
    core = Region(XYZ, (1 - x * x,), square_box(XYZ), name="core")
    shell = Region(XYZ, (x * x - rat(1, 4),), square_box(XYZ), name="shell")
    h = 1 + x * x
    leaves = Foliation(
        "L", core, 2, d3("y") * h, (d3("y") * h,), transverse=("y",)
    )
    fam = FoliationFamily((leaves, one_leaf("W", shell)), box=square_box(XYZ))
    mu0 = d3("x") * (-2 * x / h)
    mu = {"L": mu0, "W": zero_form(XYZ, 1)}
    return fam, mu, mu0


def test_check_minimal_vanishing_passes_glued_fixture(cfg):
    fam, mu, _ = glued_family()
    rep = check_minimal_vanishing(fam, mu, cfg)
    names = [e.name for e in rep.entries]
    assert names == [
        "frobenius[L]",
        "frobenius[W]",
        "power-vanishing[W]",
        "gv-vanishing[W]",
    ]
    assert rep.proved


def test_gv_min_glues_with_zero(cfg):
    fam, mu, mu0 = glued_family()
    report = gv_min(fam, mu, 2, cfg)
    assert isinstance(report, GVReport)
    assert report.rank == 2
    assert report.degree == 3
    assert report.glued
    assert report.status is Verdict.PASS
    assert report.piecewise.piece_on("core") == gv_form(mu0, 1)
    assert report.piecewise.piece_on("shell").is_zero
    assert all(e.verdict is Verdict.PASS for e in report.closedness.entries)


def test_gv_min_builds_the_gv_form_once(cfg, monkeypatch):
    """The glued piece is the form the overlap-vanishing rows tested."""
    from gvcheck import gv

    built = []
    monkeypatch.setattr(gv, "gv_form", lambda mu, q: built.append(q) or gv_form(mu, q))
    fam, mu, mu0 = glued_family()
    report = gv_min(fam, mu, 2, cfg)
    assert built == [1]
    assert report.piecewise.piece_on("core") == gv_form(mu0, 1)


def test_gv_min_rank_must_exist(cfg):
    fam, mu, _ = glued_family()
    with pytest.raises(ValueError):
        gv_min(fam, mu, 1, cfg)


def test_gv_min_restricts_to_requested_rank(cfg):
    fam, mu, _ = glued_family()
    report = gv_min(fam, mu, 3, cfg)
    assert report.degree == 1  # codim 0 stratum
    assert len(report.piecewise.pieces) == 1
    assert report.glued


def test_gv_min_rejects_corrupted_gauge(cfg):
    fam, mu, mu0 = glued_family()
    broken = {"L": mu0 + d3("y") * z, "W": zero_form(XYZ, 1)}
    # the corrupted witness still satisfies the Frobenius identity ...
    leaves = fam.member("L")
    assert verify_frobenius(leaves.nu, broken["L"], leaves.region, cfg).proved
    # ... but its curvature no longer vanishes on the overlap
    with pytest.raises(GluingError) as err:
        gv_min(fam, broken, 2, cfg)
    assert err.value.witness is not None
    assert "gauge change" in err.value.detail


def test_gv_min_single_member_family_is_vacuously_glued(space, cfg):
    fol = spiral(space)
    fam = FoliationFamily((fol,), box=square_box(XYZ))
    report = gv_min(fam, {"F": spiral_mu()}, 2, cfg)
    assert report.glued
    assert report.piecewise.pieces[0][1] == basis_form(XYZ, ("x", "y", "z"))
    assert report.status is Verdict.PASS


# ---------------------------------------------------------------------------
# basic weights and the weighted GV form


def test_check_basic_accepts_leafwise_constant(space, cfg):
    fol = spiral(space)
    phi = y * exp(-x)
    assert check_basic(phi, fol, space, cfg).proved


def test_check_basic_rejects_transverse_weight(space, cfg):
    fol = spiral(space)
    out = check_basic(z, fol, space, cfg)
    assert out.status is Verdict.FAIL
    assert out.witness is not None


def test_check_basic_on_one_leaf_means_constant(space, cfg):
    top = one_leaf("T", space)
    assert check_basic(rat(5), top, space, cfg).proved
    assert check_basic(x, top, space, cfg).nonzero


def test_gv_weighted_identity_and_closedness(space, cfg):
    fol = spiral(space)
    mu = spiral_mu()
    phi = y * exp(-x)
    nu_bar, rep = gv_weighted(phi, mu, fol, cfg)
    assert rep.proved
    assert [e.name for e in rep.entries] == [
        "basic",
        "identity",
        "closedness",
        "gradient-wedge",
    ]
    expected = gv_form(mu, 1) * (phi ** 2)
    assert forms_equal(nu_bar, expected, space, cfg).proved
    assert forms_equal(ext_d(nu_bar), zero_form(XYZ, 4), space, cfg).proved


def test_gv_weighted_rejects_non_basic_weight(space, cfg):
    fol = spiral(space)
    with pytest.raises(PreconditionError) as err:
        gv_weighted(z, spiral_mu(), fol, cfg)
    assert err.value.witness is not None
