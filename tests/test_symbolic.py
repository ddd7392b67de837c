"""Exact scalar expressions: arithmetic, calculus, evaluation, zero testing."""
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcheck import (
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
from gvcheck.symbolic import MAX_EXPONENT, CoordGen, ScalarExpr, _eval_expr, _mono_items, _scale_at
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
    p = psi0(x)
    assert (partial(p, "x") - 2 * p * (1 - p) / (x ** 3)).is_zero
    f = flatexp(x)
    assert (partial(f, "x") - f / (x * x)).is_zero


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
    assert abs(out.value) > cfg.abs_tol
    # the witness actually witnesses: re-evaluate at the reported point
    assert evaluate(x * y - 1, out.witness) == pytest.approx(out.value)


def test_zero_test_undecided_on_flat_product(plane, cfg):
    # zero as a function, but no normalization rule proves it and every
    # sample evaluates to exactly 0.0, so no witness can clear the bar.
    out = is_zero_on(flatexp(x) * flatexp(-x), plane, cfg)
    assert out.status is Verdict.UNDECIDED


def test_zero_test_undecided_reports_the_largest_residual(plane):
    # every residual is below the tolerance, so nothing is refuted; the
    # detail names the largest one rather than claiming zero
    out = is_zero_on(x * rat(1, 10**12), plane, ZeroTestConfig(rng_seed=1))
    assert (out.status, out.witness) == (Verdict.UNDECIDED, None)
    assert out.detail == "max |value| 1.974e-12 over 32 samples"


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


def test_sample_points_are_drawn_lazily_in_index_order():
    cfg = ZeroTestConfig(sample_count=4, rng_seed=77)
    region = CountingRegion([0.0, 0.5, 1.0, 1.5])
    points = cfg.points(region)
    assert region.drawn == []
    assert next(points) == {"x": 0.0, "y": 0.0}
    assert region.drawn == [(77, 0)]
    assert [p["x"] for p in points] == [0.5, 1.0, 1.5]
    assert region.drawn == [(77, i) for i in range(4)]


def test_zero_test_draws_no_point_after_its_witness():
    region = CountingRegion([0.0, 0.0, 1.0] + [0.0] * 29)
    out = is_zero_on(x + x * y, region, ZeroTestConfig(rng_seed=5))
    assert out.nonzero and out.witness == {"x": 1.0, "y": 0.0}
    assert region.drawn == [(5, 0), (5, 1), (5, 2)]


def test_zero_test_default_config(plane):
    cfg = ZeroTestConfig()
    assert cfg.sample_count == 32
    assert cfg.abs_tol == 1e-9
    assert cfg.rel_tol == 1e-9
    out = is_zero_on(x - x, plane)
    assert out.proved


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
    # float sums run over the terms in the order arithmetic produced them
    e3 = ((x + y) ** 7 - (x - rat(1, 3) * y) ** 7 + psi0(z) * x ** 3) / (1 + x * x) ** 2
    pts = [{"x": 0.3, "y": -1.7, "z": 0.45}, {"x": -2.9, "y": 0.11, "z": -0.8}]
    assert [evaluate(e3, p) for p in pts] == [-9.181391025394026, 6.362952878821419]
    assert [_scale_at(e3, p, {}) for p in pts] == [107.73528156135797, 7.507588288181796]


_ATOM_VALUES = {
    "exp": math.exp,
    "log": math.log,
    "psi0": lambda u: 0.0 if u == 0.0 else math.exp(-1.0 / (u * u)) / (1.0 + math.exp(-1.0 / (u * u))),
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
