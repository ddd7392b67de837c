"""Exact scalar expressions: arithmetic, calculus, evaluation, zero testing."""
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcheck import (
    DomainError,
    EvaluationError,
    Region,
    Verdict,
    ZeroTestConfig,
    box_region,
    evaluate,
    exp,
    flatexp,
    free_coords,
    is_zero_on,
    log,
    mix_seed,
    normalize,
    partial,
    psi0,
    rat,
    substitute,
    sym,
    to_latex,
)
import gvcheck
from gvcheck import symbolic
from gvcheck.symbolic import ATOM_KINDS, MAX_EXPONENT, CoordGen, ScalarExpr, _eval_expr, _mono_items, _scale_at
from gvcheck.verdicts import Outcome, combine_outcomes, worst
from conftest import XY, CountingRegion, random_polynomial, random_scalar, square_box

x, y, z = sym("x"), sym("y"), sym("z")


# ---------------------------------------------------------------------------
# canonical arithmetic


def test_polynomial_identities_cancel_exactly():
    assert ((x + y) * (x - y) - (x * x - y * y)).is_zero
    assert ((x + y) ** 2 - x * x - 2 * x * y - y * y).is_zero
    assert ((x + 1) ** 3 - (x ** 3 + 3 * x ** 2 + 3 * x + 1)).is_zero


def test_rational_coefficients_are_exact():
    e = x / 2 + x / 3
    assert (e - rat(5, 6) * x).is_zero
    assert (rat(1, 3) * 3 - 1).is_zero
    # float literals are rejected; exactness is non-negotiable here
    with pytest.raises(TypeError):
        normalize(0.5)


def test_fraction_fields_cross_multiply():
    # the shared factor x - y cancels, and sums over a common factor
    # reduce to the canonical fraction
    e = (x * x - y * y) / (x - y)
    assert (e - (x + y)).is_zero
    assert (1 / (x + 1) + 1 / (x - 1) - 2 * x / (x * x - 1)).is_zero


def test_equal_fractions_get_equal_keys():
    # sums over a shared factor and quotients with a common divisor reduce
    third = 1 / (1 + x)
    assert str(third + third) == "2 / (1 + x)"
    total = third
    for _ in range(5):
        total = total + third
    assert str(total) == "6 / (1 + x)"
    assert str((x ** 2 - 1) / (x - 1)) == "1 + x"
    assert (1 / (1 + x)).key == ((1 + x) / (1 + x) ** 2).key
    # equal atom arguments make one atom, so the difference normalizes to zero
    assert (exp(2 / (1 + x)) - exp((2 + 2 * x) / (1 + x) ** 2)).is_zero
    # the constant term of (1 + x)(1 + y) = 1 + x + y + xy does not make it primitive in x
    assert (1 + y) / ((1 + x) * (1 + y)) == 1 / (1 + x)
    assert (exp((1 + y) / ((1 + x) * (1 + y))) - exp(1 / (1 + x))).is_zero


@pytest.mark.parametrize(
    "build_expr, text",
    [
        # a numerator sharing a proper divisor with an unsplit factor
        (lambda: (x - 1) / (x ** 2 - 1), "1 / (1 + x)"),
        (lambda: 1 / (x ** 2 - 1) + x / (x ** 2 - 1), "1 / (-1 + x)"),
        (lambda: (x * y - y) / (x ** 2 - 1), "y / (1 + x)"),
        # a factor with a constant term that is not primitive in either generator
        (lambda: (2 + 2 * y) / ((1 + x) * (1 + y)), "2 / (1 + x)"),
        (lambda: (1 + x) / ((1 + x) * (1 + y)), "1 / (1 + y)"),
        # a factor with no term that is a power of one generator
        (lambda: (x * y + x * z + y * z) * (1 + x) / ((x * y + x * z + y * z) * (2 + x)),
         "(1 + x) / (2 + x)"),
        # a repeated factor that arrived multiplied out
        (lambda: partial(x / (1 + x * x) ** 2, "x") * (1 + x * x), "(1 - 3*x^2) / (1 + 2*x^2 + x^4)"),
    ],
)
def test_shared_proper_divisors_cancel(build_expr, text):
    e = build_expr()
    assert str(e) == text
    assert e == normalize(e) and str(e * 1) == text


_LAYOUT_SCRIPT = """
import sys
from gvcheck.symbolic import _mono_key, evaluate, exp, partial, sym
for name in sys.argv[1:]:
    sym(name)
x, y, z = sym("x"), sym("y"), sym("z")
e = (x * y - y + exp(z) * (x ** 2 - 1)) * (x + z) / ((x ** 2 - 1) * (1 + y * z)) + (x + 1) / (x ** 2 - 1)
e = partial(e, "x") * (x - 1) ** 2
print([_mono_key(m) for m in e.num.terms], [_mono_key(m) for m in e.den.terms])
print(evaluate(e, {"x": 0.3, "y": -1.7, "z": 0.45}).hex())
"""


def test_reduced_forms_do_not_depend_on_the_field_layout():
    # each process gives the generators exponent fields in the order it
    # interns them; the term order of a reduced fraction, and so its
    # float value, must not follow that layout
    src = os.path.dirname(os.path.dirname(os.path.abspath(gvcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = set()
    for order in (["x", "y", "z"], ["z", "y", "x"], ["y", "z", "x"]):
        proc = subprocess.run([sys.executable, "-c", _LAYOUT_SCRIPT, *order], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1


def test_power_operator_requires_integers():
    with pytest.raises(TypeError):
        (x + 1) ** rat(1, 2)
    assert ((x + 1) ** 0 - 1).is_zero
    assert (((x + 1) ** -2) * (x + 1) ** 2 - 1).is_zero


@pytest.mark.parametrize("atom", [exp, log, psi0, flatexp])
def test_atoms_reject_non_numbers_like_arithmetic(atom):
    for bad in ("x", 0.5):
        with pytest.raises(TypeError):
            atom(bad)


def test_zero_denominators_are_rejected():
    with pytest.raises(ZeroDivisionError):
        x / (y - y)
    with pytest.raises(ZeroDivisionError):
        (x - x) ** -1


# ---------------------------------------------------------------------------
# atoms and their folds


def test_atom_folds():
    assert (exp(0) - 1).is_zero
    assert log(1).is_zero
    assert psi0(0).is_zero
    assert flatexp(0).is_zero
    assert flatexp(rat(-7, 2)).is_zero
    # non-constant arguments never fold
    assert not flatexp(x).is_zero
    assert not psi0(x - 1).is_zero


def test_atoms_are_interned_structurally():
    assert (exp(x + y) - exp(y + x)).is_zero
    assert (psi0(2 * x) - psi0(x + x)).is_zero
    # distinct arguments stay distinct
    assert not (exp(x) - exp(y)).is_zero


def test_an_atom_is_one_object_however_it_is_reached():
    # interning makes identity the generators' equality, so neither
    # generator class defines its own
    def generator(e):
        (mono,) = e.num.terms
        ((g, _),) = _mono_items(mono)
        return g

    parsed, _ = gvcheck.parse_expression(gvcheck.tokenize("exp(x + 1)"), 0, gvcheck.Environment(XY, {}, {}))
    reached = [parsed, substitute(exp(x + y), {"y": rat(1)}), partial(exp(x + 1), "x")]
    assert all(generator(e) is generator(exp(x + 1)) for e in reached)
    for cls in (symbolic.CoordGen, symbolic.AtomGen):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)


def test_evaluate_atoms():
    p = {"x": 2.0, "y": -3.0}
    assert evaluate(exp(x), p) == pytest.approx(math.exp(2.0))
    assert evaluate(log(exp(x)), p) == pytest.approx(2.0)
    assert evaluate(flatexp(x), p) == pytest.approx(math.exp(-0.5))
    # flat side of flatexp is exactly zero, not merely small
    assert evaluate(flatexp(y), p) == 0.0
    assert evaluate(flatexp(x - 2), p) == 0.0


def test_psi0_reference_value_and_range():
    assert evaluate(psi0(x), {"x": 1.0}) == 0.2689414213699951
    rng = random.Random(7)
    for _ in range(50):
        u = rng.uniform(-3, 3)
        v = evaluate(psi0(x), {"x": u})
        assert 0.0 <= v < 0.5
        # even in u: depends on u^2 only
        assert v == evaluate(psi0(x), {"x": -u})
    assert evaluate(psi0(x), {"x": 0.0}) == 0.0


def test_psi0_where_the_argument_squared_underflows():
    # below |u| of about 1e-162, u * u underflows to 0.0; the true value
    # exp(-1/u^2) / (1 + exp(-1/u^2)) rounds to 0.0 there
    for u in (1e-200, -1e-200, 1e-163, 5e-324):
        assert evaluate(psi0(x), {"x": u}) == 0.0
    # everywhere else the value is the closed form, bit for bit
    for u in (-1e-160, 1e-160, 1e-154, 0.03, 0.5, 1.0, 7.0, 1e10, 1e200):
        g = math.exp(-1.0 / (u * u))
        assert evaluate(psi0(x), {"x": u}) == g / (1.0 + g)


def test_coefficient_beyond_the_float_range_is_an_evaluation_error(plane, cfg):
    e = rat(10 ** 400) * x
    with pytest.raises(EvaluationError, match=r"coefficient of x \(about 1e400\) is beyond the float range"):
        evaluate(e, {"x": 1.0})
    # an engine limit, not a refutation: every sample is skipped
    out = is_zero_on(e - x, plane, cfg)
    assert out.status is Verdict.UNDECIDED
    assert "(32 samples skipped: evaluation error)" in out.detail


def test_evaluate_domain_errors():
    with pytest.raises(EvaluationError):
        evaluate(log(x), {"x": -1.0})
    with pytest.raises(EvaluationError):
        evaluate(1 / x, {"x": 0.0})


# ---------------------------------------------------------------------------
# exact differentiation


def test_partial_on_polynomials():
    e = x ** 3 * y - 2 * x * y ** 2 + rat(7)
    assert (partial(e, "x") - (3 * x ** 2 * y - 2 * y ** 2)).is_zero
    assert (partial(e, "y") - (x ** 3 - 4 * x * y)).is_zero
    assert partial(e, "z").is_zero


def test_chain_rule_closed_forms():
    assert (partial(exp(x * y), "x") - y * exp(x * y)).is_zero
    assert (partial(log(1 + x * x), "x") - 2 * x / (1 + x * x)).is_zero
    f = flatexp(x)
    assert (partial(f, "x") - f / (x * x)).is_zero


def test_psi0_is_the_flatexp_quotient():
    assert ATOM_KINDS == ("exp", "log", "flatexp")
    for u in (x, x * x + 1, x * y + (x - 1) ** 3, 1 + (x - 1) ** 12):
        f = flatexp(u * u)
        p = psi0(u)
        assert (p - f / (1 + f)).is_zero
        # d psi0(u) = 2 psi0(u) (1 - psi0(u)) / u^3 du follows from the quotient
        for name in ("x", "y"):
            assert (partial(p, name) - 2 * p * (1 - p) / u ** 3 * partial(u, name)).is_zero


def test_quotient_rule():
    e = (x * x + 1) / (y - 2)
    de = partial(e, "y")
    assert (de + (x * x + 1) / ((y - 2) ** 2)).is_zero


def test_mixed_partials_commute_on_random_expressions():
    rng = random.Random(1105)
    for _ in range(30):
        e = random_scalar(rng, XY, depth=3)
        dxy = partial(partial(e, "x"), "y")
        dyx = partial(partial(e, "y"), "x")
        assert (dxy - dyx).is_zero


def _richardson(f, u, h):
    def central(step):
        return (f(u + step) - f(u - step)) / (2.0 * step)

    d1 = central(h)
    d2 = central(h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _wrapped_polynomial(rng):
    """A polynomial under at most one atom, so evaluation never overflows."""
    p = random_polynomial(rng, XY, depth=2)
    roll = rng.randrange(5)
    if roll == 0:
        return exp(p)
    if roll == 1:
        return log(4 + p * p)
    if roll == 2:
        return psi0(p)
    if roll == 3:
        return flatexp(p)
    return p


def test_partial_matches_finite_differences():
    """Richardson-extrapolated central differences agree with the exact
    derivative on random atom-bearing expressions."""
    rng = random.Random(20260819)
    checked = 0
    for _ in range(40):
        e = _wrapped_polynomial(rng)
        de = partial(e, "x")
        for _ in range(2):
            p = {"x": rng.uniform(0.5, 1.5), "y": rng.uniform(0.5, 1.5)}

            def slice_x(u, _e=e, _p=p):
                q = dict(_p)
                q["x"] = u
                return evaluate(_e, q)

            exact = evaluate(de, p)
            approx = _richardson(slice_x, p["x"], 1e-4)
            scale = max(1.0, abs(exact), abs(evaluate(e, p)))
            assert abs(exact - approx) <= 1e-5 * scale
            checked += 1
    assert checked == 80


# ---------------------------------------------------------------------------
# substitution


def test_substitute_is_exact():
    e = x * x - 1
    g = substitute(e, {"x": y + 1})
    assert (g - (y * y + 2 * y)).is_zero
    inner = substitute(exp(x), {"x": x + y})
    assert (inner - exp(x + y)).is_zero


def test_substitute_folds_constant_atoms_as_parsing_does():
    assert substitute(exp(x) - 1, {"x": 0}).is_zero
    assert substitute(log(1 + x), {"x": 0}).is_zero
    assert substitute(flatexp(-x), {"x": 1}).is_zero
    assert substitute(flatexp(x) + exp(y * x), {"x": 0}).is_one


def test_substitute_agrees_with_evaluation():
    rng = random.Random(42)
    agreed = 0
    for _ in range(30):
        e = random_scalar(rng, XY, depth=2)
        g = random_polynomial(rng, XY, depth=2)
        composed = substitute(e, {"x": g})
        p = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1)}
        q = dict(p)
        try:
            q["x"] = evaluate(g, p)
            expect = evaluate(e, q)
            got = evaluate(composed, p)
        except (EvaluationError, OverflowError):
            continue  # a pole or huge exponent landed on the sample; skip it
        assert got == pytest.approx(expect, rel=1e-9, abs=1e-9)
        agreed += 1
    assert agreed >= 20


# ---------------------------------------------------------------------------
# derivatives and substitutions against references that cancel every term


def reference_add_all(terms):
    """The sum of expressions over the lcm of their denominators, cancelled once."""
    if len(terms) == 1:
        return terms[0]
    dens, scale = {}, 1
    for t in terms:
        for f, e in t._dens.items():
            if dens.get(f, 0) < e:
                dens[f] = e
        scale = math.lcm(scale, t._scale)
    out = {}
    for t in terms:
        for m, c in symbolic._lift((t.num, t._dens, t._scale), dens, scale).terms.items():
            out[m] = out.get(m, 0) + c
    return symbolic._make(symbolic.Poly({m: c for m, c in out.items() if c}), dens, scale)


def reference_poly_partial(poly, name, d=1):
    """The chain rule, one canonical product per generator."""
    parts, dgens = {}, {}
    for mono, c in poly.terms.items():
        for g, e in _mono_items(mono):
            dgen = dgens.get(g)
            if dgen is None:
                if isinstance(g, CoordGen):
                    dgen = symbolic.ONE if g.name == name else symbolic.ZERO
                else:
                    darg = reference_partial(g.arg, name)
                    dgen = darg if darg.is_zero else symbolic._atom_derivative(g) * darg
                dgens[g] = dgen
            if not dgen.is_zero:
                parts.setdefault(g, {})[mono - g.unit] = c * e
    return reference_add_all([symbolic._make(symbolic.Poly(t), {}, d) * dgens[g] for g, t in parts.items()])


def reference_partial(e, name):
    """The quotient rule, each term a cancelled product."""
    if e.is_polynomial:
        return reference_poly_partial(e.num, name, e._scale)
    terms = [reference_poly_partial(e.num, name) * ScalarExpr(symbolic.Poly({0: 1}), e._dens, e._scale)]
    for f, k in e._dens.items():
        df = reference_poly_partial(f, name)
        if not df.is_zero:
            terms.append(-e * df * ScalarExpr(symbolic.Poly({0: k}), {f: 1}))
    return reference_add_all(terms)


def reference_substitute(e, mapping):
    """Composition, each monomial's image a cancelled product."""
    table = {k: normalize(v) for k, v in mapping.items()}
    powers = {}

    def power(g, k):
        p = powers.get((g, k))
        if p is None:
            base = powers.get((g, 1))
            if base is None:
                if isinstance(g, CoordGen):
                    base = table.get(g.name, sym(g.name))
                else:
                    base = symbolic._atom_expr(g.kind, sub_expr(g.arg))
                powers[(g, 1)] = base
            p = powers[(g, k)] = base if k == 1 else base**k
        return p

    def sub_poly(p):
        terms = []
        for mono, c in p.terms.items():
            term = rat(c)
            for g, k in _mono_items(mono):
                term = term * power(g, k)
            terms.append(term)
        return reference_add_all(terms)

    def sub_expr(x):
        out = sub_poly(x.num) / x._scale
        for f, k in x._dens.items():
            out = out / sub_poly(f) ** k
        return out

    return sub_expr(e)


# denominators with repeated, shared and reducible factors; flatexp's
# derivative adds its argument squared
_FRACTION_LEAVES = (
    "x", "y", "1 + x**2", "x/(1 + x**2)**2", "y/(x**2 - y**2)", "1/(x + y)", "(x - y)/(x*y - y)", "x/(1 + x*y)",
    "exp(x)/(1 + x**2)", "log(1 + y**2)/(x - y)", "flatexp(x)", "flatexp(x/(1 + y**2))",
)
_SUBSTITUTIONS = (
    {"x": x + y},
    {"x": 1 / (1 + y * y), "y": x - y},
    {"x": exp(y), "y": (x + y) / (x - y)},
    {"y": flatexp(x) / (1 + x * x)},
    {"x": x * x - y * y, "y": log(x)},
)


def _leaf(text):
    return eval(text, {"x": x, "y": y, "exp": exp, "log": log, "flatexp": flatexp})


@st.composite
def fraction_recipes(draw, depth=3):
    """A random fraction tree over :data:`_FRACTION_LEAVES`, built by :func:`build_fraction`."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 3)) == 0:
            return ("const", draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
        return ("leaf", draw(st.sampled_from(_FRACTION_LEAVES)))
    op = draw(st.sampled_from(("+", "-", "*", "/", "/", "^", "^", "exp", "log", "flatexp")))
    left = draw(fraction_recipes(depth - 1))
    if op in ATOM_KINDS:
        return (op, left)
    if op == "^":
        return (op, left, draw(st.integers(0, 3)))
    return (op, left, draw(fraction_recipes(depth - 1)))


def build_fraction(recipe):
    kind = recipe[0]
    if kind == "const":
        return rat(recipe[1], recipe[2])
    if kind == "leaf":
        return _leaf(recipe[1])
    a = build_fraction(recipe[1])
    if kind in ATOM_KINDS:
        return {"exp": exp, "log": log, "flatexp": flatexp}[kind](a)
    if kind == "^":
        return a ** recipe[2]
    b = build_fraction(recipe[2])
    if kind == "/":
        return a if b.is_zero else a / b
    return {"+": a + b, "-": a - b, "*": a * b}[kind]


def _same(got, want):
    assert got == want
    assert str(got) == str(want)
    assert got.key == want.key


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fraction_recipes(), st.sampled_from(_SUBSTITUTIONS))
def test_derivatives_and_substitutions_match_their_references(recipe, mapping):
    e = build_fraction(recipe)
    for name in XY:
        _same(partial(e, name), reference_partial(e, name))
    _same(substitute(e, mapping), reference_substitute(e, mapping))


def test_repeated_and_shared_factors_match_their_references():
    u = x * x - y * y
    for e in (x / (1 + x * x) ** 2, (x + y) / (u * (x - y)), flatexp(x / u) / (x + y), log(1 + x * x) / u ** 2):
        for name in XY:
            _same(partial(e, name), reference_partial(e, name))
        for mapping in _SUBSTITUTIONS:
            _same(substitute(e, mapping), reference_substitute(e, mapping))


# ---------------------------------------------------------------------------
# the tri-state zero test


def test_zero_test_proves_exact_identities(plane, cfg):
    e = (x + y) ** 2 - x * x - 2 * x * y - y * y
    out = is_zero_on(e, plane, cfg)
    assert out.status is Verdict.PASS


def test_zero_test_refutes_with_witness(plane, cfg):
    out = is_zero_on(x * y - 1, plane, cfg)
    assert out.status is Verdict.FAIL
    assert out.witness is not None
    assert set(out.witness) == {"x", "y"}
    assert symbolic.certified_nonzero(x * y - 1, out.witness)
    # the witness actually witnesses: re-evaluate at the reported point
    assert evaluate(x * y - 1, out.witness) == pytest.approx(out.value)


def test_zero_test_undecided_on_flat_product(plane, cfg):
    # zero as a function, but no normalization rule proves it and every
    # sample evaluates to exactly 0.0, so no witness can clear the bar.
    out = is_zero_on(flatexp(x) * flatexp(-x), plane, cfg)
    assert out.status is Verdict.UNDECIDED


def test_zero_test_undecided_reports_the_largest_residual(plane):
    # every residual is below the screen, so nothing is refuted; the
    # detail names the largest one rather than claiming zero
    out = is_zero_on(x * rat(1, 10**12), plane, ZeroTestConfig(rng_seed=1))
    assert (out.status, out.witness) == (Verdict.UNDECIDED, None)
    assert out.detail == "max |value| 1.970e-12 over 32 samples"


def test_exact_division_refuses_an_inexact_quotient():
    assert symbolic._divide((x * x - 1).num, (x + 1).num) == (x - 1).num
    # a nonzero remainder, and a quotient with a non-integer coefficient
    assert symbolic._divide((x * x + 1).num, (x + 1).num) is None
    assert symbolic._divide(x.num, (2 * x).num) is None


def test_zero_test_respects_region_constraints(cfg):
    r = box_region(XY, square_box(XY))
    right = Region(r.coords, (x,), dict(r.box), name="right")
    # x - |x| vanishes for x > 0 only; constraint-aware sampling cannot
    # refute it on the right half plane, and proof is out of reach too.
    # Use a simpler certified case instead: x > 0 makes flatexp(-x) vanish.
    out = is_zero_on(flatexp(-x), right, cfg)
    assert out.status is Verdict.UNDECIDED
    out_full = is_zero_on(flatexp(-x), r, cfg)
    assert out_full.status is Verdict.FAIL


def test_a_point_where_a_constraint_is_undefined_lies_outside():
    box = square_box(XY)
    logs = Region(XY, (log(x),), box, name="logs")
    assert not logs.contains({"x": -1.0, "y": 0.0})
    assert logs.contains({"x": 1.5, "y": 0.0})
    assert logs.sample_point(random.Random(3).random)["x"] > 1.0
    # an overflowed exp has a sign, so it is an error, not a point outside
    huge = Region(XY, (exp(1000 * x),), box, name="huge")
    with pytest.raises(EvaluationError):
        huge.contains({"x": 1.0, "y": 0.0})


def test_combined_outcome_is_the_worst_status_with_the_first_refutation():
    proved = Outcome(Verdict.PASS)
    undecided = Outcome(Verdict.UNDECIDED, detail="max |value| 0 over 32 samples")
    first = Outcome(Verdict.FAIL, witness={"x": 1.0}, detail="first")
    later = Outcome(Verdict.FAIL, witness={"x": 2.0}, detail="later")
    for outcomes in itertools.product((proved, undecided, first, later), repeat=3):
        combined = combine_outcomes(outcomes)
        assert combined.status is worst(o.status for o in outcomes)
        if combined.nonzero:
            assert combined is next(o for o in outcomes if o.nonzero)
    assert combine_outcomes([]) == proved
    assert combine_outcomes([proved, undecided]).detail == "not settled by normalization or sampling"


def test_entry_is_the_first_outcome_of_that_name():
    # names repeat: a gv-min row lists closed[R] once per piece on R
    first = Outcome(Verdict.PASS, detail="first")
    later = Outcome(Verdict.FAIL, detail="later")
    rows = Outcome.of([("closed[R]", first), ("closed[S]", Outcome(Verdict.PASS)), ("closed[R]", later)])
    assert rows.status is Verdict.FAIL
    assert rows.entry("closed[R]") is first
    with pytest.raises(KeyError):
        rows.entry("closed[T]")


def test_sample_points_are_drawn_lazily_in_index_order():
    cfg = ZeroTestConfig(sample_count=4, rng_seed=77)
    region = CountingRegion([0.0, 0.5, 1.0, 1.5])
    points = cfg.points(region)
    assert region.drawn == []
    assert next(points) == {"x": 0.0, "y": 0.0}
    assert len(region.drawn) == 1
    assert [p["x"] for p in points] == [0.5, 1.0, 1.5]
    assert len(region.drawn) == 4
    assert all(rnd is region.drawn[0] for rnd in region.drawn)
    assert region.drawn[0]() == random.Random(77).random()


def test_zero_test_draws_no_point_after_its_witness():
    region = CountingRegion([0.0, 0.0, 1.0] + [0.0] * 29)
    out = is_zero_on(x + x * y, region, ZeroTestConfig(rng_seed=5))
    assert out.nonzero and out.witness == {"x": 1.0, "y": 0.0}
    assert len(region.drawn) == 3


def test_zero_test_default_config(plane):
    cfg = ZeroTestConfig()
    assert cfg.sample_count == 32
    out = is_zero_on(x - x, plane)
    assert out.proved


def test_zero_test_certifies_a_residual_above_the_screen():
    # at x = 1 the residual of x - 1 + d is d, over the scale 1 + (1 - d):
    # the screen 1e-9 + 1e-9 * scale is about 3e-9
    cfg = ZeroTestConfig(sample_count=1)
    p = {"x": 1.0, "y": 0.0}
    above = x - 1 + rat(4, 10 ** 9)
    below = x - 1 + rat(2, 10 ** 9)
    for e, sign in ((above, 1), (below, -1)):
        margin = abs(evaluate(e, p)) - (1e-9 + 1e-9 * _scale_at(e, p, {}))
        assert sign * margin > 0.9e-9
        assert symbolic.certified_nonzero(e, p)
    out = is_zero_on(above, CountingRegion([1.0]), cfg)
    assert (out.status, out.witness) == (Verdict.FAIL, p)
    assert out.value.hex() == "0x1.12e0be8000000p-28"
    out = is_zero_on(below, CountingRegion([1.0]), cfg)
    assert (out.status, out.detail) == (Verdict.UNDECIDED, "max |value| 2.000e-09 over 1 samples")


def test_zero_test_refutes_no_rounding_residual():
    # t >= 1, so the identity is true; the expanded t^2 rounds, and at this
    # point its float residual clears the screen by far, but the enclosure
    # of the residual holds 0
    t = 1 + (x - 1) ** 12
    e = log(t ** 2) - 2 * log(t)
    p = {"x": 1.93893, "y": 0.0}
    assert abs(evaluate(e, p)) > 1e-8
    assert not symbolic.certified_nonzero(e, p)
    out = is_zero_on(e, CountingRegion([1.93893]), ZeroTestConfig(sample_count=1))
    assert out.status is Verdict.UNDECIDED
    assert out.detail.endswith(" over 1 samples (1 samples not certified nonzero)")


# ---------------------------------------------------------------------------
# canonical form, seeds, rendering


def test_normalization_is_idempotent_and_stable():
    rng = random.Random(314)
    for _ in range(40):
        e = random_scalar(rng, XY, depth=3)
        n = normalize(e)
        assert n == e
        assert normalize(n) == n
        assert str(normalize(n)) == str(n)


def test_canonical_string_is_deterministic():
    a = x * y + y * x + 1
    b = 1 + 2 * y * x
    assert str(a) == str(b)


def test_mix_seed_is_deterministic_and_spreads():
    assert mix_seed(20140917, 3) == mix_seed(20140917, 3)
    seen = {mix_seed(20140917, i) for i in range(100)}
    assert len(seen) == 100
    assert mix_seed(1, 0) != mix_seed(2, 0)


def test_free_coords_sees_through_atoms():
    e = exp(x * y) + z / (1 + y * y)
    assert free_coords(e) == {"x", "y", "z"}
    assert free_coords(rat(3, 4)) == set()


def test_each_atom_renders_its_argument_once(monkeypatch):
    # an argument no other test builds, so its atom is first rendered here
    arg = x * y * z + rat(17, 19)
    a = exp(arg)
    e = a * x + a ** 2 * y + a ** 3 / (1 + z * z) + psi0(a - x)
    real_latex, real_str = symbolic.to_latex, ScalarExpr.__str__
    latex_args, text_args = [], []
    monkeypatch.setattr(symbolic, "to_latex", lambda u: latex_args.append(u) or real_latex(u))
    monkeypatch.setattr(ScalarExpr, "__str__", lambda u: text_args.append(u) or real_str(u))
    latex, text = symbolic.to_latex(e), str(e)
    assert latex_args.count(arg) == 1
    assert text_args.count(arg) == 1
    # later renderings read the atom's cached text and LaTeX
    assert (symbolic.to_latex(e), str(e)) == (latex, text)
    assert latex_args.count(arg) == 1
    assert text_args.count(arg) == 1
    assert latex.count(r"\exp\!\left(") > 4


def test_latex_rendering_smoke():
    s = to_latex(x ** 2 / 2 + exp(x * y) - rat(1, 3))
    assert s.count("{") == s.count("}")
    assert "x" in s and "y" in s
    assert to_latex(x - x) == "0"



# ---------------------------------------------------------------------------
# the packed-monomial kernel against sympy, and its exponent fields

# the polynomials among them share proper factors, such as x - 1 with x**2 - 1
_LEAVES = (
    "x", "y", "z", "exp(x)", "exp(x*y)", "x - 1", "x + 1", "x**2 - 1", "x*y - y", "x**2 - y**2", "1 + x*y",
    "1 + y", "1 + x + y + x*y",
)


@st.composite
def recipes(draw, depth=3, division=True):
    """A random expression tree as nested tuples, built later by :func:`build`."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return ("const", draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
        return ("leaf", draw(st.sampled_from(_LEAVES)))
    op = draw(st.sampled_from("+-*/^" if division else "+-*^"))
    left = draw(recipes(depth - 1, division))
    if op == "^":
        return (op, left, draw(st.integers(0, 3)))
    return (op, left, draw(recipes(depth - 1, division)))


def build(recipe, sympy):
    """(kernel expression, sympy expression) for one recipe."""
    if recipe[0] == "const":
        return rat(recipe[1], recipe[2]), sympy.Rational(recipe[1], recipe[2])
    if recipe[0] == "leaf":
        return eval(recipe[1], {"x": x, "y": y, "z": z, "exp": exp}), sympy.sympify(recipe[1])
    op, (a, sa) = recipe[0], build(recipe[1], sympy)
    if op == "^":
        return a ** recipe[2], sa ** recipe[2]
    b, sb = build(recipe[2], sympy)
    if op == "+":
        return a + b, sa + sb
    if op == "-":
        return a - b, sa - sb
    if op == "*":
        return a * b, sa * sb
    return (a, sa) if b.is_zero else (a / b, sa / sb)


def to_sympy(e, sympy):
    """The kernel's num/den data, rebuilt term by term as a sympy expression."""

    def gen(g):
        if isinstance(g, CoordGen):
            return sympy.Symbol(g.name)
        assert g.kind == "exp"
        return sympy.exp(to_sympy(g.arg, sympy))

    def poly(p):
        return sympy.Add(*(
            sympy.Rational(c, e.lead) * sympy.Mul(*(gen(g) ** k for g, k in _mono_items(m)))
            for m, c in p.terms.items()
        ))

    return poly(e.num) / poly(e.den)


_HYP = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@_HYP
@given(recipes(division=False), recipes(division=False))
def test_polynomials_match_sympy_and_equal_values_share_keys(ra, rb):
    sympy = pytest.importorskip("sympy")
    (a, sa), (b, sb) = build(ra, sympy), build(rb, sympy)
    assert sympy.expand(to_sympy(a, sympy) - sa) == 0
    same = sympy.expand(sa - sb) == 0
    # polynomials are canonical: equality, keys and hashes follow the value
    assert (a == b) == same
    assert (a.key == b.key) == same
    if same:
        assert hash(a) == hash(b)


def _cancelled_terms(e, sympy):
    """(numerator, denominator) term counts of sympy's cancelled form of ``e``."""
    n, d = sympy.fraction(sympy.cancel(e))
    return tuple(0 if p == 0 else len(sympy.Add.make_args(sympy.expand(p))) for p in (n, d))


@_HYP
@given(recipes(), recipes(), st.sampled_from(_LEAVES))
def test_rational_expressions_match_sympy(ra, rb, leaf):
    sympy = pytest.importorskip("sympy")
    (a, sa), (b, sb) = build(ra, sympy), build(rb, sympy)
    assert sympy.cancel(to_sympy(a, sympy) - sa) == 0
    assert sympy.cancel(to_sympy(a * b - b, sympy) - (sa * sb - sb)) == 0
    # the fraction is reduced: it has the term counts of sympy's cancelled one,
    # and equal values, however built, share keys
    assert (len(a.num.terms), len(a.den.terms)) == _cancelled_terms(sa, sympy)
    same = sympy.cancel(sa - sb) == 0
    assert (a == b) == same
    assert (a.key == b.key) == same
    c, r = rat(-7, 3), build(("leaf", leaf), sympy)[0]
    for again in ((a + c) - c, a * c / c, -(-a), a ** 1, a * r / r, (a + r) - r, (a * r + a) / (r + 1)):
        assert again == a and again.key == a.key and hash(again) == hash(a) and str(again) == str(a)


def _exponents(e):
    """{generator name: exponent} of a one-term expression."""
    ((mono, _),) = e.num.terms.items()
    return {str(g): k for g, k in _mono_items(mono)}


def test_exponents_at_field_capacity_stay_exact():
    top = x ** MAX_EXPONENT
    half = MAX_EXPONENT // 2
    assert _exponents(top) == {"x": MAX_EXPONENT}
    assert _exponents(x ** (MAX_EXPONENT - 1) * x) == {"x": MAX_EXPONENT}
    assert _exponents(x ** half * x ** (MAX_EXPONENT - half)) == {"x": MAX_EXPONENT}
    # two full fields side by side: neither spills into the other
    both = (x * y) ** MAX_EXPONENT
    assert _exponents(both) == {"x": MAX_EXPONENT, "y": MAX_EXPONENT}
    assert _exponents(top * y) == {"x": MAX_EXPONENT, "y": 1}
    assert free_coords(top) == {"x"}
    assert partial(top, "y").is_zero
    assert (partial(top, "x") - MAX_EXPONENT * x ** (MAX_EXPONENT - 1)).is_zero
    assert evaluate(top / both, {"x": 1.0, "y": 1.0}) == 1.0
    # multi-term operands near capacity
    q = (x ** 20000 + y) * x ** (MAX_EXPONENT - 20000)
    assert _exponents(q - top) == {"x": MAX_EXPONENT - 20000, "y": 1}


@pytest.mark.parametrize(
    "build_expr",
    [
        lambda: x ** (MAX_EXPONENT + 1),
        lambda: x ** MAX_EXPONENT * x,
        lambda: (x * y) ** MAX_EXPONENT * y,
        lambda: (x ** 20000 + y) * (x ** (MAX_EXPONENT - 19999) + 1),
        lambda: 1 / x ** MAX_EXPONENT / x,
        lambda: x ** (2 * MAX_EXPONENT + 5),
        lambda: (1 / (1 + x)) ** MAX_EXPONENT / (1 + x),
    ],
)
def test_exponents_beyond_field_capacity_raise(build_expr):
    with pytest.raises(OverflowError, match="exceeds %d" % MAX_EXPONENT):
        build_expr()


def test_keys_strings_and_values_are_pinned():
    # reference output of the Fraction/tuple kernel this one replaced:
    # the leading denominator term (in monomial key order) gets coefficient 1
    e1 = (x + 1) / (3 - 2 * y * y)
    assert str(e1) == "(-1/2 - 1/2*x) / (-3/2 + y^2)"
    assert e1.key == (
        ((((), (-1, 2)), ((((0, "x"), 1),), (-1, 2))), (((), (-3, 2)), ((((0, "y"), 2),), (1, 1))))
    )
    e2 = (rat(2, 3) * x - exp(y) / 5) / (rat(-4, 7) * x * y + exp(y) - 1)
    assert str(e2) == "(2/3*x - 1/5*exp(y)) / (-1 - 4/7*x*y + exp(y))"
    ey = (1, 0, ((((((0, "y"), 1),), (1, 1)),), (((), (1, 1)),)))
    assert e2.key == (
        (((((0, "x"), 1),), (2, 3)), (((ey, 1),), (-1, 5))),
        (((), (-1, 1)), ((((0, "x"), 1), ((0, "y"), 1)), (-4, 7)), (((ey, 1),), (1, 1))),
    )
    # float sums run over the terms in the order arithmetic produced them,
    # as the reference walk below does
    e3 = ((x + y) ** 7 - (x - rat(1, 3) * y) ** 7 + psi0(z) * x ** 3) / (1 + x * x) ** 2
    pts = [{"x": 0.3, "y": -1.7, "z": 0.45}, {"x": -2.9, "y": 0.11, "z": -0.8}]
    assert [evaluate(e3, p) for p in pts] == [-9.181391025394024, 6.362952878821418]
    assert [_scale_at(e3, p, {}) for p in pts] == [107.73528156135794, 7.507588288181796]
    assert [_term_by_term(e3, p) for p in pts] == [
        (-9.181391025394024, 107.73528156135794),
        (6.362952878821418, 7.507588288181796),
    ]


_ATOM_VALUES = {
    "exp": math.exp,
    "log": math.log,
    "flatexp": lambda u: 0.0 if u <= 0.0 else math.exp(-1.0 / u),
}


def _term_by_term(e, point):
    """(value, magnitude scale) of ``e`` at a point, walking the term dicts.

    Each term is its coefficient over ``lead`` times its factors in
    generator order, with gen^k as k repeated multiplications; both sums
    run in dict order, and the scale is the numerator's sum of absolute
    terms over the absolute denominator.
    """

    def sums(poly):
        total = magnitude = 0.0
        for mono, c in poly.terms.items():
            v = c / e.lead
            for g, k in _mono_items(mono):
                if isinstance(g, CoordGen):
                    base = float(point[g.name])
                else:
                    base = _ATOM_VALUES[g.kind](_term_by_term(g.arg, point)[0])
                power = base
                for _ in range(k - 1):
                    power *= base
                v *= power
            total += v
            magnitude += abs(v)
        return total, magnitude

    num, magnitude = sums(e.num)
    if e.is_polynomial:
        return num, magnitude
    den = sums(e.den)[0]
    return num / den, magnitude / abs(den)


def test_evaluation_matches_a_term_by_term_reference_bit_for_bit():
    rng = random.Random(1401)
    compared = 0
    for _ in range(320):
        e = random_scalar(rng, XY, depth=3)
        roll = rng.random()
        try:
            if roll < 0.3:
                e = partial(e, "x")  # flat atoms bring denominators
            elif roll < 0.6:
                e = e / random_scalar(rng, XY, depth=2)
        except ZeroDivisionError:
            pass
        for k in range(3):
            p = {"x": 0.0 if k == 0 else rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
            try:
                expect = _term_by_term(e, p)
            except (OverflowError, ZeroDivisionError, ValueError):
                expect = None
            try:
                cache = {}
                got = (_eval_expr(e, p, cache), _scale_at(e, p, cache))
            except EvaluationError:
                got = None
            assert (got is None) == (expect is None), (e, p)
            if got is not None:
                assert [v.hex() for v in got] == [v.hex() for v in expect], (e, p)
                assert _scale_at(e, p, {}).hex() == expect[1].hex()
                compared += 1
    assert compared >= 900


def test_sample_streams_are_pinned():
    # the first points of two regions under seed 11, as float.hex: a box
    # with Fraction bounds, and a thin band that rejects most draws
    box = box_region(XY, {"x": (Fraction(-1, 3), 2.0), "y": (Fraction(1, 7), Fraction(5, 2))}, name="fbox")

    def first(region, n=3):
        return [[p[c].hex() for c in XY] for p in ZeroTestConfig(sample_count=n, rng_seed=11).points(region)]

    assert first(box) == [
        ["0x1.71c6aeebf36acp-1", "0x1.765aa4f9c659ep+0"],
        ["0x1.d2ba7c0faa0e7p+0", "0x1.3d8ed81d82779p+0"],
        ["0x1.b408ccbfafd32p-1", "0x1.870426c777867p+0"],
    ]

    class Band(Region):
        tried = 0

        def contains(self, point):
            self.tried += 1
            return Region.contains(self, point)

    thin = Band(XY, (rat(1, 100) - (x - rat(1, 2) * y) ** 2,), square_box(XY), name="thin")
    assert first(thin) == [
        ["0x1.09fff39d2c67cp-1", "0x1.2c022117d48a0p+0"],
        ["-0x1.b00bd2f8622dcp-1", "-0x1.b81754b7eaf46p+0"],
        ["-0x1.a1207b9d23f74p-1", "-0x1.b4d702767df5ep+0"],
    ]
    assert thin.tried == 48  # 45 rejections


def _thin_band():
    return Region(XY, (rat(1, 100) - (x - rat(1, 2) * y) ** 2,), square_box(XY), name="thin")


def test_sample_points_are_one_stream_of_rejection_draws():
    # the reference: every draw, rejected or kept, takes the next floats of
    # one random.Random(rng_seed), coordinate by coordinate
    band = _thin_band()
    rnd = random.Random(20140917).random
    want = []
    while len(want) < 32:
        point = {c: lo + (hi - lo) * rnd() for c, (lo, hi) in band.box.items()}
        if band.contains(point):
            want.append(point)
    assert list(ZeroTestConfig(rng_seed=20140917).points(band)) == want


def test_a_zero_test_seeds_one_stream(monkeypatch):
    built = []

    class Counted(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Counted)
    out = is_zero_on(flatexp(x) * flatexp(-x), _thin_band(), ZeroTestConfig(rng_seed=5))
    assert out.detail == "max |value| 0.000e+00 over 32 samples"
    assert built == [5]


_BIG = rat(10 ** 400)


@pytest.mark.parametrize(
    "e, point, error, message, offender",
    [
        # the first fault in the term walk is the one reported
        (z + exp(1 / x), {"x": 0.0}, EvaluationError, "unbound coordinate 'z'", "z"),
        (exp(1 / x) + z, {"x": 0.0}, EvaluationError, "division by zero evaluating 1 / (x)", "x"),
        (z * log(x), {"x": -1.0}, EvaluationError, "unbound coordinate 'z'", "z"),
        (log(x) + z, {"x": -1.0}, DomainError, "log of non-positive value -1.0", "log(x)"),
        # an atom argument's coefficient fails where the walk reaches the atom
        (z + exp(_BIG * x), {"x": 1.0}, EvaluationError, "unbound coordinate 'z'", "z"),
        (z + exp(exp(_BIG * x)), {"x": 1.0}, EvaluationError, "unbound coordinate 'z'", "z"),
        (exp(_BIG * x) + z, {"x": 1.0}, EvaluationError, "coefficient of x (about 1e400) is beyond the float range", "x"),
        (log(x) + exp(_BIG * x), {"x": -1.0}, DomainError, "log of non-positive value -1.0", "log(x)"),
        (exp(_BIG * x) + log(x), {"x": -1.0}, EvaluationError,
         "coefficient of x (about 1e400) is beyond the float range", "x"),
        # the expression's own coefficients fail before anything is evaluated,
        # the denominator's first
        (_BIG * x + z, {}, EvaluationError, "coefficient of x (about 1e400) is beyond the float range", "x"),
        ((10 * _BIG + x) / (_BIG + y), {"x": 1.0, "y": 1.0}, EvaluationError,
         "coefficient of 1 (about 1e400) is beyond the float range", "1"),
    ],
)
def test_evaluation_reports_the_first_fault_of_the_term_walk(e, point, error, message, offender):
    for _ in range(2):  # the second evaluation reuses what the first built
        with pytest.raises(EvaluationError) as info:
            evaluate(e, point)
        assert type(info.value) is error
        assert (str(info.value), info.value.offender) == (message, offender)
    # an undefined constraint puts a point outside; any other fault is an error
    region = Region(("x", "y", "z"), (e,), square_box(("x", "y", "z")))
    if error is DomainError:
        assert not region.contains(point)
    else:
        with pytest.raises(EvaluationError):
            region.contains(point)


# ---------------------------------------------------------------------------
# interval enclosure


@st.composite
def atom_recipes(draw, depth=3):
    """A random expression tree with exp, log and flatexp nodes, built by :func:`build_atoms`."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return ("const", draw(st.integers(-6, 6)), draw(st.integers(1, 5)))
        return ("leaf", draw(st.sampled_from(("x", "y"))))
    op = draw(st.sampled_from(("+", "-", "*", "/", "^", "exp", "log", "flatexp")))
    left = draw(atom_recipes(depth - 1))
    if op in ATOM_KINDS:
        return (op, left)
    if op == "^":
        return (op, left, draw(st.integers(0, 5)))
    return (op, left, draw(atom_recipes(depth - 1)))


def build_atoms(recipe):
    kind = recipe[0]
    if kind == "const":
        return rat(recipe[1], recipe[2])
    if kind == "leaf":
        return sym(recipe[1])
    a = build_atoms(recipe[1])
    if kind in ATOM_KINDS:
        return {"exp": exp, "log": log, "flatexp": flatexp}[kind](a)
    if kind == "^":
        return a ** recipe[2]
    b = build_atoms(recipe[2])
    if kind == "/":
        return a if b.is_zero else a / b
    return {"+": a + b, "-": a - b, "*": a * b}[kind]


_BOUND = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 7))
_WIDTH = st.builds(Fraction, st.integers(1, 8), st.integers(1, 4))


@_HYP
@given(atom_recipes(), _BOUND, _WIDTH, _BOUND, _WIDTH, st.integers(0, 2 ** 32))
def test_enclosure_holds_every_evaluation_in_the_box(recipe, x_lo, x_w, y_lo, y_w, seed):
    e = build_atoms(recipe)
    box = {"x": (x_lo, x_lo + x_w), "y": (y_lo, y_lo + y_w)}
    iv = symbolic.enclose(e, box)
    if iv is None:
        return
    lo, hi = iv
    assert lo <= hi
    rng = random.Random(seed)
    corners = [dict(zip("xy", map(float, c))) for c in itertools.product(box["x"], box["y"])]
    inner = [{c: min(max(float(a) + float(b - a) * rng.random(), float(a)), float(b)) for c, (a, b) in box.items()}
             for _ in range(8)]
    for point in corners + inner:
        # a bounded enclosure also rules out every evaluation error in the box
        assert lo <= evaluate(e, point) <= hi, (str(e), point, iv)


def test_enclosure_widens_a_coefficient_that_is_no_float():
    lo, hi = symbolic.enclose(rat(1, 3), {})
    assert Fraction(lo) <= Fraction(1, 3) <= Fraction(hi)
    assert symbolic.enclose(rat(3, 2), {}) == (1.5, 1.5)


def test_enclosure_of_an_even_power_is_not_an_interval_product():
    lo, hi = symbolic.enclose(1 + rat(3, 2) * x ** 2, {"x": (-1, 1)})
    assert lo >= 1 and 2.5 <= hi < 2.5 + 1e-12
    lo, hi = symbolic.enclose(x ** 3, {"x": (-2, -1)})
    assert lo <= -8 < -1 <= hi < -1 + 1e-12


@pytest.mark.parametrize(
    "e, box",
    [
        (1 / x, {"x": (-1, 1)}),  # a denominator interval that holds 0
        (log(x), {"x": (0, 1)}),  # log of an argument that may be <= 0
        (exp(x ** 2), {"x": (-100, 100)}),  # overflow
        (rat(10 ** 400) * x, {"x": (1, 2)}),  # a coefficient beyond the float range
        (x + y, {"x": (0, 1)}),  # a coordinate without bounds
    ],
)
def test_enclosure_is_none_where_it_cannot_bound(e, box):
    assert symbolic.enclose(e, box) is None


@pytest.mark.parametrize(
    "e, point, nonzero",
    [
        (x - 1, {"x": 1.0}, False),  # exact zeros are never certified
        (exp(x) - 1, {"x": 0.0}, False),
        (log(x), {"x": 1.0}, False),
        (log((1 + x * x) ** 2) - 2 * log(1 + x * x), {"x": 1.93893}, False),
        (x * y - 1, {"x": 2.0, "y": 3.0}, True),  # clear nonzeros are
        (exp(x) - 1, {"x": 1.0}, True),
        (log(x), {"x": 2.0}, True),
    ],
)
def test_certified_nonzero_at_a_point(e, point, nonzero):
    assert symbolic.certified_nonzero(e, point) is nonzero


def _iv_pow_by_loop(a, k):
    """The k-th power of an interval by a k-step loop from the base: the
    reference that ``symbolic._iv_pow``'s carried magnitudes must match."""
    lo, hi = a
    if k % 2 == 0 and lo < 0.0:
        lo, hi = (0.0, max(-lo, hi)) if hi > 0.0 else (-hi, -lo)
    ends = []
    for end, toward in ((lo, -math.inf), (hi, math.inf)):
        r = m = abs(end)
        for _ in range(k - 1 if m else 0):
            r = math.nextafter(r * m, toward if end >= 0.0 else -toward)
        ends.append(math.copysign(r, end))
    return ends[0], ends[1]


_ENDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-160, -1e-160, 1e160, -1e160]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_ENDS, _ENDS, st.integers(2, 80))
def test_carried_interval_powers_match_the_loop_from_the_base(a, b, k):
    a = (min(a, b), max(a, b))
    r = (abs(a[0]), abs(a[1]))
    for i in range(2, k + 1):
        ends, r = symbolic._iv_pow(a, r, i)
        assert [e.hex() for e in ends] == [e.hex() for e in _iv_pow_by_loop(a, i)], (a, i)


def _iv_mul_of_four_products(a, b):
    """The interval product from all four end products: the reference that
    ``symbolic._iv_mul``'s choice by sign must match bit for bit."""
    ps = [p * q for p in a for q in b if p and q]
    lo, hi = (math.nextafter(min(ps), -math.inf), math.nextafter(max(ps), math.inf)) if ps else (0.0, 0.0)
    return (min(lo, 0.0), max(hi, 0.0)) if len(ps) < 4 else (lo, hi)


def test_interval_product_matches_the_four_products():
    # every interval over ends that underflow, overflow or are signed zeros,
    # then random degenerate, one-signed, mixed and zero-ended intervals
    pool = [0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 0.5, -0.5, 1.0, -1.0, 3.0, -3.0,
            1e200, -1e200, 1.7e308, -1.7e308]
    grid = [(lo, hi) for lo in pool for hi in pool if lo <= hi]
    rng = random.Random(27)
    ivs = []
    for _ in range(2000):
        w, u, v = rng.uniform(-4.0, 4.0), rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)
        zero = rng.choice((0.0, -0.0))
        ivs += [(w, w), (u, u + v), (-u - v, -u), (-u, v), (zero, u), (-u, zero)]
    pairs = [(a, b) for a in grid for b in grid] + [(rng.choice(ivs), rng.choice(ivs)) for _ in range(20000)]
    for a, b in pairs:
        want = _iv_mul_of_four_products(a, b)
        assert [e.hex() for e in symbolic._iv_mul(a, b)] == [e.hex() for e in want], (a, b)


_TRUE_IDENTITIES = (
    lambda p, q, s: log((1 + p * p) ** 2) - 2 * log(1 + p * p),
    lambda p, q, s: log((1 + p * p) * (2 + q * q)) - log(1 + p * p) - log(2 + q * q),
    lambda p, q, s: exp(2 * p * s) - exp(p * s) ** 2,
    lambda p, q, s: exp((p + q) * s) - exp(p * s) * exp(q * s),
    lambda p, q, s: flatexp(p * s / 2) - flatexp(p * s) ** 2,
)


@_HYP
@given(st.sampled_from(_TRUE_IDENTITIES), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
       st.integers(2, 12), st.integers(0, 2 ** 32))
def test_no_true_identity_over_expanded_powers_is_refuted(identity, c, k, seed):
    # (x - c)^k is expanded, so rounding in its terms reaches the residual;
    # exp and flatexp get it scaled down by 3^k, so that they do not overflow
    p, q = (x - rat(c)) ** k + y, (y + rat(c)) ** k
    e = identity(p, q, rat(1, 3 ** k))
    out = is_zero_on(e, box_region(XY, square_box(XY)), ZeroTestConfig(rng_seed=seed))
    assert out.status is not Verdict.FAIL, (str(e), out.witness, out.value)


def _mp_value(e, point, mp):
    """``e`` at ``point`` in mpmath arithmetic at the current precision."""
    def gen(g):
        if isinstance(g, CoordGen):
            return mp.mpf(point[g.name])
        u = _mp_value(g.arg, point, mp)
        if g.kind == "exp":
            return mp.exp(u)
        if g.kind == "log":
            return mp.log(u)
        return mp.mpf(0) if u <= 0 else mp.exp(-1 / u)

    def poly(p):
        return mp.fsum(mp.mpf(c) / e.lead * mp.fprod(gen(g) ** k for g, k in _mono_items(m))
                       for m, c in p.terms.items())

    return poly(e.num) / poly(e.den)


@_HYP
@given(atom_recipes(), st.integers(0, 2 ** 32))
def test_every_refutation_has_the_sign_of_the_exact_value(recipe, seed):
    pytest.importorskip("sympy")
    from mpmath import mp

    e = build_atoms(recipe)
    out = is_zero_on(e, box_region(XY, square_box(XY)), ZeroTestConfig(sample_count=8, rng_seed=seed))
    if out.status is not Verdict.FAIL:
        return
    with mp.workdps(50):
        exact = _mp_value(e, out.witness, mp)
    assert exact != 0 and (exact > 0) == (out.value > 0), (str(e), out.witness, out.value, exact)
