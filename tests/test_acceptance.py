"""Acceptance gate for the package.

One test per shipped criterion, numbered 01-11.  Each test pins the
tolerances it relies on (the symbolic laws need none; the numeric ones
use the default 1e-9 absolute/relative pair unless stated otherwise).
A summary block printed at the end of the pytest session lists every
criterion with its PASS/FAIL verdict; run

    pytest tests/test_acceptance.py -v

to see the same information as one line per criterion.
"""
import json
import os
import random
import re

import pytest

from gvcheck import (
    ClosedSetSpec,
    Foliation,
    FoliationFamily,
    GluingError,
    PreconditionError,
    Region,
    TubularData,
    ZeroTestConfig,
    basis_form,
    box_region,
    check_basic,
    check_exactness_pipeline,
    check_minimal_vanishing,
    check_overlap_identities,
    d_f,
    exp,
    ext_d,
    flatness_check,
    forms_equal,
    gv_form,
    gv_min,
    gv_weighted,
    ideal_member,
    one_leaf,
    phi_map,
    pullback,
    rat,
    solve_theta,
    strengthen,
    sym,
    validate_foliation,
    verify_exact,
    verify_frobenius,
    wedge,
    zero_form,
)
from gvcheck.cli import main as cli_main
from gvcheck.runner import render_json, run_checks
from gvcheck.specdoc import parse_spec
from gvcheck.testfn import BumpSpec, weak_test_from_cover

from pointwise import ideal_member_pointwise
from conftest import XY, XYZ, random_form, random_map, random_polynomial, square_box

from fractions import Fraction

GALLERY = os.path.join(os.path.dirname(__file__), os.pardir, "gallery")

x, y, z = sym("x"), sym("y"), sym("z")


def space():
    return box_region(XYZ, square_box(XYZ), "space")


def d3(*names):
    return basis_form(XYZ, names)


def volume_witness():
    """The codimension-one witness whose invariant is the volume form."""
    return d3("x") * (-(1 + y * z)) + d3("y") * z


def spiral_foliation(region):
    nu = d3("y") - d3("x") * y
    return Foliation("F", region, 2, nu, (nu,), transverse=("y",))


def test_criterion_01_exterior_calculus_laws_on_randomized_instances(cfg):
    """d after d vanishes; Leibniz; anticommutativity; pullback naturality."""
    region = space()
    rng = random.Random(11)
    for _ in range(100):
        w = random_form(rng, XYZ, rng.randint(0, 2), depth=2)
        assert forms_equal(ext_d(ext_d(w)), zero_form(XYZ, w.degree + 2), region, cfg).proved
    for _ in range(100):
        a = random_form(rng, XYZ, rng.randint(0, 2), depth=2)
        b = random_form(rng, XYZ, rng.randint(0, 2), depth=2)
        sign = rat(-1 if a.degree % 2 else 1)
        lhs = ext_d(wedge(a, b))
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * sign
        assert forms_equal(lhs, rhs, region, cfg).proved
    for _ in range(100):
        a = random_form(rng, XYZ, rng.randint(0, 2), depth=2)
        b = random_form(rng, XYZ, rng.randint(0, 2), depth=2)
        sign = rat(-1 if (a.degree * b.degree) % 2 else 1)
        assert forms_equal(wedge(a, b), wedge(b, a) * sign, region, cfg).proved
    for _ in range(100):
        m = random_map(rng, XYZ, depth=2)
        a = random_form(rng, XYZ, rng.randint(0, 2), depth=2, atoms=False)
        b = random_form(rng, XYZ, rng.randint(0, 1), depth=2, atoms=False)
        assert forms_equal(pullback(m, ext_d(a)), ext_d(pullback(m, a)), region, cfg).proved
        assert forms_equal(
            pullback(m, wedge(a, b)), wedge(pullback(m, a), pullback(m, b)), region, cfg
        ).proved


def test_criterion_02_frobenius_fixtures_and_contact_refutation(cfg):
    """Integrable fixtures verify; the contact form fails with a witness."""
    region = space()
    nu = d3("y") - d3("x") * y
    assert verify_frobenius(nu, d3("x") * rat(-1), region, cfg).proved
    assert verify_frobenius(nu, volume_witness(), region, cfg).proved
    contact = d3("z") + d3("y") * x
    fol = Foliation("contact", region, 2, contact, (contact,))
    rep = validate_foliation(fol, cfg)
    entry = rep.entry("integrability[0]")
    assert entry.status.value == "FAIL"
    assert entry.witness_form == "dx^dy^dz"
    assert entry.witness is not None


def test_criterion_03_gv_form_is_the_volume_form_and_closed(cfg):
    """mu ^ d(mu) for the twisted witness equals dx^dy^dz exactly."""
    region = space()
    mu = volume_witness()
    gv = gv_form(mu, 1)
    assert gv == d3("x", "y", "z")
    assert forms_equal(ext_d(gv), zero_form(XYZ, 4), region, cfg).proved


def test_criterion_04_nested_pair_theta_and_overlap_identities(cfg):
    """theta factors the sub form through the sup form; identities hold."""
    region = space()
    nu_sub = d3("y", "z") * exp(x)
    curves = Foliation(
        "Curves", region, 1, nu_sub, (d3("y") * exp(x), d3("z")), transverse=("y", "z")
    )
    surf = Foliation("Surf", region, 2, d3("z"), (d3("z"),), transverse=("z",))
    theta, _ = solve_theta(curves, surf, region, cfg)
    assert forms_equal(nu_sub, wedge(d3("z"), theta), region, cfg).proved
    rep = check_overlap_identities(
        curves, surf, d3("x"), zero_form(XYZ, 1), theta, region, cfg
    )
    assert [name for name, _ in rep.entries] == [
        "dtheta-residual",
        "theta-wedge-dtransition",
        "dtransition-membership",
        "dmu-sub-membership",
    ]
    assert rep.proved


def glued_fixture():
    core = Region(XYZ, (1 - x * x,), square_box(XYZ), name="core")
    shell = Region(XYZ, (x * x - rat(1, 4),), square_box(XYZ), name="shell")
    nu = d3("y") * (1 + x * x)
    leaves = Foliation("Leaves", core, 2, nu, (nu,), transverse=("y",))
    fam = FoliationFamily((leaves, one_leaf("Whole", shell)), box=square_box(XYZ))
    mu0 = d3("x") * (rat(-2) * x / (1 + x * x))
    return fam, mu0, shell


def test_criterion_05_minimal_stratum_invariant_glues(cfg):
    """Vanishing on the larger-leaved overlap glues the piecewise form."""
    fam, mu0, shell = glued_fixture()
    mus = {"Leaves": mu0, "Whole": zero_form(XYZ, 1)}
    # the gauge curvature vanishes to the order the open-set member needs
    assert forms_equal(form_power_of_dmu(mu0, 1), zero_form(XYZ, 2), shell, cfg).proved
    assert check_minimal_vanishing(fam, mus, cfg).proved
    pw, out = gv_min(fam, mus, 2, cfg)
    assert out.entry("vanishing").proved
    assert pw.degree == 3
    assert pw.piece_on("core") == gv_form(mu0, 1)
    assert pw.piece_on("shell").is_zero
    assert out.status.value == "PASS"
    bad = {"Leaves": mu0 + d3("y") * z, "Whole": zero_form(XYZ, 1)}
    with pytest.raises(GluingError) as err:
        gv_min(fam, bad, 2, cfg)
    assert err.value.witness is not None


def form_power_of_dmu(mu, k):
    out = ext_d(mu)
    for _ in range(k - 1):
        out = wedge(out, ext_d(mu))
    return out


def test_criterion_06_weighted_invariant_for_a_basic_weight(cfg):
    """phi = y*exp(-x) is leafwise constant; phi = z is rejected."""
    region = space()
    fol = spiral_foliation(region)
    mu = volume_witness()
    phi = y * exp(-x)
    assert check_basic(phi, fol, region, cfg).proved
    nu_bar, rep = gv_weighted(phi, mu, fol, cfg)
    assert rep.proved
    assert forms_equal(nu_bar, gv_form(mu, 1) * (phi * phi), region, cfg).proved
    assert forms_equal(ext_d(nu_bar), zero_form(XYZ, 4), region, cfg).proved
    refusal = check_basic(z, fol, region, cfg)
    assert refusal.nonzero
    assert refusal.witness is not None
    with pytest.raises(PreconditionError):
        gv_weighted(z, mu, fol, cfg)


def test_criterion_07_flatness_estimates_and_weak_test_cover():
    """The quadratic is rejected at order two; its strengthening is flat."""
    window = {"x": (0.3, 1.1), "y": (0.3, 1.1)}
    origin = ClosedSetSpec(
        XY, window, "zeroset", expr=x * x + y * y, anchors=({"x": 0.0, "y": 0.0},)
    )
    cfg = ZeroTestConfig()
    quad = x * x + y * y
    rep = flatness_check(quad, origin, cfg)
    assert not rep.proved
    order2 = rep.entry("order-2")
    estimates = [float(v) for v in re.findall(r": ([0-9.e+-]+)", order2.detail)]
    assert len(estimates) == 3
    for value in estimates:
        assert abs(value - 2.0) <= 0.2  # second derivative of |x|^2 is 2
    strong = flatness_check(strengthen(quad), origin, cfg)
    assert strong.proved
    for name, entry in strong.entries:
        if not name.startswith("order-"):
            continue
        for v in re.findall(r": ([0-9.e+-]+)", entry.detail):
            assert float(v) < 1e-6
    # four bumps cover the window; zero set and positivity at 64 samples
    half, nine = Fraction(1, 2), Fraction(9, 10)
    balls = tuple(
        BumpSpec({"x": cx, "y": cy}, rat(3, 10), box=square_box(XY))
        for cx, cy in ((half, half), (nine, half), (half, nine), (nine, nine))
    )
    cfg64 = ZeroTestConfig(sample_count=64)
    phi, cover = weak_test_from_cover(balls, origin, cfg64)
    assert cover.proved
    assert "64 complement samples covered by 4 inner balls" in cover.entry("coverage").detail


def test_criterion_08_twisted_differential_algebra_randomized(cfg):
    """d_f is a differential and intertwines with the weight powers."""
    region = space()
    rng = random.Random(29)
    for _ in range(100):
        f = random_polynomial(rng, XYZ, depth=2)
        w = random_form(rng, XYZ, rng.randint(1, 2), depth=2, atoms=False)
        assert forms_equal(
            d_f(f, d_f(f, w)), zero_form(XYZ, w.degree + 2), region, cfg
        ).proved
    for _ in range(100):
        f = random_polynomial(rng, XYZ, depth=2)
        w = random_form(rng, XYZ, rng.randint(1, 2), depth=2, atoms=False)
        assert forms_equal(
            d_f(f, phi_map(f, w)), phi_map(f, ext_d(w)), region, cfg
        ).proved


def test_criterion_09_exactness_pipeline_and_critical_weight_control(cfg):
    """The cubic primitive closes the pipeline; a critical weight is refused."""
    region = space()
    fol = spiral_foliation(region)
    phi = y * exp(-x)
    mu = volume_witness()
    tau = d3("y", "z") * (y ** 3 * exp(-x) ** 3 * rat(-1, 3))
    td = TubularData(region, phi, "y", Fraction(1, 4), Fraction(1, 2))
    rep = check_exactness_pipeline(fol, phi, mu, td, tau, cfg)
    assert [name for name, _ in rep.entries] == [
        "basic",
        "identity",
        "closedness",
        "transversal",
        "exactness",
    ]
    assert rep.proved
    nu_bar, _ = gv_weighted(phi, mu, fol, cfg)
    assert verify_exact(nu_bar * phi, tau, region, cfg).proved
    # the square of the weight has a critical zero level
    nu2 = d3("y") - d3("x") * (y / 2)
    fol2 = Foliation("F2", region, 2, nu2, (nu2,), transverse=("y",))
    phi2 = y * y * exp(-x)
    td2 = TubularData(region, phi2, "y", Fraction(1, 4), Fraction(1, 2))
    assert check_basic(phi2, fol2, region, cfg).proved
    with pytest.raises(PreconditionError, match="degenerates"):
        check_exactness_pipeline(fol2, phi2, d3("x") * rat(-1, 2), td2, tau, cfg)


def test_criterion_10_wedge_criterion_matches_pointwise_oracle(cfg):
    """Symbolic membership and the numeric annihilator oracle agree."""
    region = space()
    points = list(ZeroTestConfig(sample_count=16, rng_seed=4242).points(region))
    rng = random.Random(77)
    queries = disagreements = 0
    attempts = 0
    while queries < 50 and attempts < 500:
        attempts += 1
        b_degree, n_gens = ((1, 1), (1, 2), (2, 1))[queries % 3]
        gens = [random_form(rng, XYZ, 1, depth=2, atoms=False) for _ in range(n_gens)]
        if queries % 2 == 0:
            if b_degree == 1:
                b = zero_form(XYZ, 1)
                for g in gens:
                    b = b + g * random_polynomial(rng, XYZ, depth=1)
            else:
                b = wedge(gens[0], random_form(rng, XYZ, 1, depth=1, atoms=False))
        else:
            b = random_form(rng, XYZ, b_degree, depth=2, atoms=False)
        try:
            out = ideal_member(b, gens, region, cfg)
        except PreconditionError:
            continue  # generators became dependent; draw again
        if not (out.proved or out.nonzero):
            continue
        pointwise = all(ideal_member_pointwise(b, gens, pt) for pt in points)
        if out.proved != pointwise:
            disagreements += 1
        queries += 1
    assert queries == 50
    assert disagreements == 0


def test_criterion_11_reports_fuzzing_and_exit_statuses(tmp_path):
    """Byte-stable reports, a crash-free parser, and the exit contract."""
    # byte-identical reports across repeated seeded runs
    with open(os.path.join(GALLERY, "golden_fail.fol"), encoding="utf-8") as fh:
        text = fh.read()
    doc, diagnostics = parse_spec(text)
    assert diagnostics == []
    first = render_json(run_checks(doc, seed=doc.seed, seed_source="document"))
    second = render_json(run_checks(doc, seed=doc.seed, seed_source="document"))
    assert first == second
    assert json.loads(first)["summary"]["fail"] == 3

    # 1000 fuzz inputs: mutations, line soups, token soups, truncations
    texts = []
    for name in sorted(os.listdir(GALLERY)):
        if name.endswith(".fol"):
            with open(os.path.join(GALLERY, name), encoding="utf-8") as fh:
                texts.append(fh.read())
    pool = [line for t in texts for line in t.splitlines() if line.strip()]
    charset = "abcdefgxyz0123456789 ^*/+-()=<>,.#_$~"
    rng = random.Random(20140917)
    inputs = []
    for _ in range(400):
        chars = list(rng.choice(texts))
        for _ in range(rng.randint(1, 8)):
            pos = rng.randrange(len(chars))
            op = rng.randrange(3)
            if op == 0:
                chars.insert(pos, rng.choice(charset))
            elif op == 1 and len(chars) > 1:
                del chars[pos]
            else:
                chars[pos] = rng.choice(charset)
        inputs.append("".join(chars))
    for _ in range(300):
        inputs.append("\n".join(rng.choice(pool) for _ in range(rng.randint(1, 12))))
    tokens = pool[0].split() + [
        "chart", "region", "check", "zero", "forms-equal", "(", ")", "+", "-",
        "*", "/", "^", "==", ",", "1", "3/4", "1e-3", "exp", "d", "dx", "on",
        "as", "all", ">", "0", "->", "#",
    ]
    for _ in range(200):
        lines = [
            " ".join(rng.choice(tokens) for _ in range(rng.randint(1, 20)))
            for _ in range(rng.randint(1, 5))
        ]
        inputs.append("\n".join(lines))
    for _ in range(100):
        t = rng.choice(texts)
        inputs.append(t[: rng.randrange(1, len(t))])
    assert len(inputs) == 1000
    for text in inputs:
        doc, diagnostics = parse_spec(text)  # must never raise
        assert (doc is None) == bool(diagnostics)
        for d in diagnostics:
            assert d.line >= 1

    # exit-status contract on the three golden documents
    def run_cli(argv):
        try:
            return cli_main(argv)
        except SystemExit as e:
            return e.code

    assert run_cli(["check", os.path.join(GALLERY, "golden_pass.fol")]) == 0
    assert run_cli(["check", os.path.join(GALLERY, "golden_fail.fol")]) == 1
    assert run_cli(["check", os.path.join(GALLERY, "golden_undecided.fol")]) == 2
