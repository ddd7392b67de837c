"""Collars, the twisted differential, and exactness of weighted GV forms."""
import random
from fractions import Fraction

import pytest

from gvcheck import (
    DegreeError,
    DomainError,
    Foliation,
    PreconditionError,
    TubularData,
    Verdict,
    ZeroTestConfig,
    basis_form,
    check_exactness_pipeline,
    d_f,
    differential,
    evaluate,
    exp,
    ext_d,
    forms_equal,
    gv_form,
    gv_weighted,
    iso_decompose,
    mix_seed,
    phi_map,
    rat,
    scalar_form,
    sym,
    tilde_extend,
    verify_exact,
    wedge,
    zero_form,
)
from conftest import XYZ, random_form, random_polynomial

x, y, z = sym("x"), sym("y"), sym("z")


def d3(name):
    return differential(XYZ, name)


def spiral(region):
    nu = d3("y") - d3("x") * y
    return Foliation("F", region, 2, nu, (nu,))


def spiral_mu():
    return d3("x") * (-(1 + y * z)) + d3("y") * z


def collar(space, f, eps=Fraction(1, 4), outer=Fraction(1, 2), t="y"):
    return TubularData(space, f, t, eps, outer)


# ---------------------------------------------------------------------------
# tubular data


def test_tubular_guards(space):
    with pytest.raises(ValueError):
        TubularData(space, y, "w", Fraction(1, 4), Fraction(1, 2))
    with pytest.raises(ValueError):
        TubularData(space, y, "y", Fraction(1, 2), Fraction(1, 4))
    with pytest.raises(ValueError):
        TubularData(space, y, "y", Fraction(0), Fraction(1, 2))


def test_cutoff_is_exact_on_the_bands(space):
    td = collar(space, y)
    assert evaluate(td.rho, {"y": 0.0}) == 1.0
    assert evaluate(td.rho, {"y": 0.25}) == 1.0
    assert evaluate(td.rho, {"y": -0.2}) == 1.0
    assert evaluate(td.rho, {"y": 0.5}) == 0.0
    assert evaluate(td.rho, {"y": -1.7}) == 0.0
    between = evaluate(td.rho, {"y": 0.4})
    assert 0.0 < between < 1.0


def test_projection_flattens_the_transverse_coordinate(space):
    td = collar(space, y)
    assert td.projection.apply({"x": 1.5, "y": 0.3, "z": -2.0}) == {
        "x": 1.5,
        "y": 0.0,
        "z": -2.0,
    }


def test_tubular_validate_passes(space, cfg):
    rep = collar(space, y).validate(cfg)
    assert [e.name for e in rep.entries] == ["cutoff-inner", "cutoff-support"]
    assert rep.proved


def test_tubular_validate_reports_the_first_bad_sample_of_each_band(space):
    # a narrower inner band and a wider support than the collar declares
    cfg = ZeroTestConfig(rng_seed=5)
    td = collar(space, y)
    object.__setattr__(td, "rho", collar(space, y, eps=Fraction(1, 8), outer=Fraction(1)).rho)
    # the draws in order: each inner point's t, then each outer point's |t| and its sign
    rng = random.Random(mix_seed(cfg.rng_seed, 0x7B))

    def first_bad(draw, bad):
        for index in range(cfg.sample_count):
            t = draw()
            if bad(evaluate(td.rho, {"y": t})):
                return index, {"y": t}

    inner = first_bad(lambda: rng.uniform(-0.25, 0.25), lambda v: v != 1.0)
    outer = first_bad(lambda: rng.uniform(0.5, 2.0) * (1 if rng.random() < 0.5 else -1), lambda v: v != 0.0)
    assert (inner[0], outer[0]) == (3, 3)
    rep = td.validate(cfg)
    assert rep.entry("cutoff-inner").witness_point == inner[1]
    assert rep.entry("cutoff-support").witness_point == outer[1]
    assert rep.status is Verdict.FAIL


# ---------------------------------------------------------------------------
# the twisted differential


def test_twisted_differential_on_fixtures(space, cfg):
    f = x * y + 1
    w = d3("z") * x
    # f*dw - p*df^w with p = 1
    expected = wedge(ext_d(scalar_form(XYZ, x)), d3("z")) * f - wedge(
        ext_d(scalar_form(XYZ, f)), w
    )
    assert (d_f(f, w) - expected).is_zero


def test_twisted_differential_squares_to_zero():
    rng = random.Random(64)
    for _ in range(40):
        f = random_polynomial(rng, XYZ, depth=2)
        p = rng.randrange(0, 3)
        w = random_form(rng, XYZ, p, depth=1, atoms=False)
        assert d_f(f, d_f(f, w)).is_zero


def test_twisted_chain_map_identity():
    rng = random.Random(65)
    for _ in range(40):
        f = random_polynomial(rng, XYZ, depth=2)
        p = rng.randrange(0, 3)
        w = random_form(rng, XYZ, p, depth=1, atoms=False)
        assert (d_f(f, phi_map(f, w)) - phi_map(f, ext_d(w))).is_zero


def test_phi_map_scales_by_degree():
    f = x + 2
    assert phi_map(f, scalar_form(XYZ, y)) == scalar_form(XYZ, y)
    assert phi_map(f, d3("z")) == d3("z") * f
    assert phi_map(f, basis_form(XYZ, ("x", "y"))) == basis_form(XYZ, ("x", "y")) * (f * f)


# ---------------------------------------------------------------------------
# slice extension


def test_tilde_extend_happy_path(space):
    td = collar(space, y)
    beta = d3("x") * x
    ext = tilde_extend(beta, td)
    inner = {"x": 2.0, "y": 0.1, "z": 0.0}
    outer = {"x": 2.0, "y": 1.0, "z": 0.0}
    assert evaluate(ext.coefficient((0,)), inner) == 2.0
    assert evaluate(ext.coefficient((0,)), outer) == 0.0


def test_tilde_extend_rejects_transverse_content(space):
    td = collar(space, y)
    with pytest.raises(DomainError):
        tilde_extend(d3("y"), td)  # carries dy
    with pytest.raises(DomainError) as err:
        tilde_extend(d3("x") * y, td)  # coefficient depends on y
    assert err.value.offender is not None


# ---------------------------------------------------------------------------
# iso_decompose


def test_iso_decompose_slab_fixture(space, cfg):
    td = collar(space, y)
    alpha = basis_form(XYZ, ("x", "z"))
    beta = d3("x")
    composite, rep = iso_decompose(y, alpha, beta, td, cfg)
    assert rep.proved
    assert [e.name for e in rep.entries] == ["alpha-closed", "beta-closed", "df-closed"]
    expected = alpha * (y * y) + wedge(d3("y"), tilde_extend(beta, td)) * y
    assert (composite - expected).is_zero


def test_iso_decompose_guards(space, cfg):
    td = collar(space, y)
    with pytest.raises(DegreeError):
        iso_decompose(y, basis_form(XYZ, ("x", "z")), basis_form(XYZ, ("x", "z")), td, cfg)
    bad_alpha = basis_form(XYZ, ("y", "z")) * x  # d = dx^dy^dz
    with pytest.raises(PreconditionError) as err:
        iso_decompose(y, bad_alpha, zero_form(XYZ, 1), td, cfg)
    assert err.value.witness is not None


# ---------------------------------------------------------------------------
# primitives


def cubic_tau():
    return basis_form(XYZ, ("y", "z")) * (y ** 3 * exp(-x) ** 3 * rat(-1, 3))


def cubic_target():
    return basis_form(XYZ, ("x", "y", "z")) * (y ** 3 * exp(-x) ** 3)


def test_verify_exact_cubic_oracle(space, cfg):
    assert verify_exact(cubic_target(), cubic_tau(), space, cfg).proved


def test_verify_exact_guards_and_refutation(space, cfg):
    with pytest.raises(DegreeError):
        verify_exact(cubic_target(), d3("x"), space, cfg)
    out = verify_exact(cubic_target(), basis_form(XYZ, ("y", "z")) * x, space, cfg)
    assert out.nonzero
    assert out.witness is not None


# ---------------------------------------------------------------------------
# the full pipeline


def test_pipeline_happy_path(space, cfg):
    fol = spiral(space)
    phi = y * exp(-x)
    td = collar(space, phi)
    rep = check_exactness_pipeline(fol, phi, spiral_mu(), td, cubic_tau(), cfg)
    assert [e.name for e in rep.entries] == [
        "basic",
        "identity",
        "closedness",
        "transversal",
        "exactness",
    ]
    assert rep.proved
    assert "slice connectedness is assumed, not verified" in rep.notes
    gradient_note = [n for n in rep.notes if "gradient norm" in n]
    assert len(gradient_note) == 1
    assert float(gradient_note[0].rsplit(" ", 1)[1]) > 1e-6


def test_pipeline_builds_d_phi_once(space, cfg, monkeypatch):
    """The basic test, the regular-value probe and the transversal row share d(phi)."""
    from gvcheck import gv, singular

    zero_forms = []

    def counting(a):
        if a.degree == 0:
            zero_forms.append(a.coefficient(()))
        return ext_d(a)

    for module in (gv, singular):
        monkeypatch.setattr(module, "ext_d", counting)
    fol = spiral(space)
    phi = y * exp(-x)
    rep = check_exactness_pipeline(fol, phi, spiral_mu(), collar(space, phi), cubic_tau(), cfg)
    assert rep.proved
    assert zero_forms == [phi]


def test_pipeline_target_is_the_twisted_form(space, cfg):
    """The primitive integrates phi^q * nu_bar, not nu_bar itself."""
    fol = spiral(space)
    phi = y * exp(-x)
    nu_bar = gv_form(spiral_mu(), 1) * (phi ** 2)
    assert forms_equal(ext_d(cubic_tau()), nu_bar * phi, space, cfg).proved
    out = forms_equal(ext_d(cubic_tau()), nu_bar, space, cfg)
    assert out.nonzero


def test_pipeline_rejects_non_basic_weight(space, cfg):
    fol = spiral(space)
    td = collar(space, z, t="z")
    with pytest.raises(PreconditionError) as err:
        check_exactness_pipeline(fol, z, spiral_mu(), td, zero_form(XYZ, 2), cfg)
    assert "basic" in str(err.value)


def test_pipeline_rejects_critical_weight(space, cfg):
    """A weight whose slice gradient dies is turned away with a witness."""
    nu = d3("y") - d3("x") * (y / 2)
    fol = Foliation("G", space, 2, nu, (nu,))
    phi = y * y * exp(-x)
    mu = d3("x") * rat(-1, 2)
    td = collar(space, phi)
    assert forms_equal(ext_d(nu), wedge(nu, mu), space, cfg).proved
    with pytest.raises(PreconditionError) as err:
        check_exactness_pipeline(fol, phi, mu, td, zero_form(XYZ, 2), cfg)
    assert "degenerates" in str(err.value)
    assert err.value.witness is not None
    assert err.value.witness["y"] == 0.0
    assert "gradient norm" in err.value.detail


@pytest.mark.parametrize("phi", [y * exp(-x), y * exp(-x) + (y * exp(-x)) ** 3])
def test_gv_weighted_and_pipeline_share_their_rows(space, cfg, phi):
    """The basic, identity and closedness rows are one computation."""
    fol = spiral(space)
    _, weighted = gv_weighted(phi, spiral_mu(), fol, cfg)
    pipeline = check_exactness_pipeline(fol, phi, spiral_mu(), collar(space, phi), cubic_tau(), cfg)
    shared = ("basic", "identity", "closedness")
    assert [weighted.entry(n) for n in shared] == [pipeline.entry(n) for n in shared]


def test_gv_weighted_and_pipeline_refuse_a_non_basic_weight_alike(space, cfg):
    fol = spiral(space)
    with pytest.raises(PreconditionError) as weighted:
        gv_weighted(z, spiral_mu(), fol, cfg)
    with pytest.raises(PreconditionError) as pipeline:
        check_exactness_pipeline(fol, z, spiral_mu(), collar(space, z, t="z"), zero_form(XYZ, 2), cfg)
    refusal = (str(weighted.value), weighted.value.witness, weighted.value.detail)
    assert refusal == (str(pipeline.value), pipeline.value.witness, pipeline.value.detail)
    assert refusal[0] == "weight is not basic for the foliation"
    assert refusal[1] is not None and refusal[2]
