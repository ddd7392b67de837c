"""Exterior algebra: wedge, d, pullback, equality, ideal membership."""
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcheck import (
    ChartError,
    CoordinateMap,
    DegreeError,
    DiffForm,
    PreconditionError,
    Region,
    SamplingError,
    Verdict,
    ZeroTestConfig,
    basis_form,
    box_region,
    differential,
    exp,
    ext_d,
    flatexp,
    form_power,
    forms_equal,
    ideal_member,
    pullback,
    rat,
    scalar_form,
    substitute,
    sym,
    wedge,
    wedge_all,
    zero_form,
)
from gvcheck.forms import _det, certified_independent, dependent_sample, gram_independent
from pointwise import ideal_member_pointwise
from conftest import XY, XYZ, CountingRegion, random_form, random_map, square_box

x, y, z = sym("x"), sym("y"), sym("z")
XYZW = ("x", "y", "z", "w")


def dd(*names, coords=XYZ):
    return basis_form(coords, names)


# ---------------------------------------------------------------------------
# wedge basics


def test_wedge_antisymmetry_on_basis():
    assert wedge(dd("x"), dd("y")) == dd("x", "y")
    assert wedge(dd("y"), dd("x")) == -dd("x", "y")
    assert wedge(dd("x"), dd("x")).is_zero


def test_wedge_collects_coefficients():
    a = dd("x") * x + dd("y") * y
    b = dd("y") * (x + 1)
    ab = wedge(a, b)
    assert ab == DiffForm(XYZ, 2, {(0, 1): x * (x + 1)})


def test_wedge_with_scalars_and_varargs():
    f = scalar_form(XYZ, x * y)
    assert wedge(f, dd("z")) == dd("z") * (x * y)
    assert wedge(dd("x"), dd("y"), dd("z")) == dd("x", "y", "z")
    assert wedge_all(XYZ, []) == scalar_form(XYZ, rat(1))
    with pytest.raises(ChartError):  # a lone factor is still checked against the chart
        wedge_all(XYZ, [basis_form(XY, ("x",))])


def test_wedge_past_top_degree_is_zero():
    vol = dd("x", "y", "z")
    assert wedge(vol, dd("x")).is_zero
    assert wedge(vol, dd("x")).degree == 4


def test_one_form_squares_to_zero():
    rng = random.Random(9)
    for _ in range(20):
        a = random_form(rng, XYZ, 1)
        assert wedge(a, a).is_zero
        assert form_power(a, 2).is_zero


def test_form_power_of_symplectic_pair():
    w = basis_form(XYZW, ("x", "y")) + basis_form(XYZW, ("z", "w"))
    assert form_power(w, 1) == w
    assert form_power(w, 0) == scalar_form(XYZW, rat(1))
    sq = form_power(w, 2)
    assert sq == basis_form(XYZW, ("x", "y", "z", "w")) * rat(2)
    assert form_power(w, 3).is_zero
    with pytest.raises(DegreeError):
        form_power(w, -1)


# ---------------------------------------------------------------------------
# exterior derivative


def test_d_of_function_collects_partials():
    f = scalar_form(XYZ, x * x * y + z)
    df = ext_d(f)
    assert df == dd("x") * (2 * x * y) + dd("y") * (x * x) + dd("z")


def test_d_squared_vanishes_randomly():
    rng = random.Random(1729)
    for _ in range(60):
        degree = rng.randrange(0, 3)
        a = random_form(rng, XYZ, degree, depth=2)
        assert ext_d(ext_d(a)).is_zero


def test_graded_leibniz_randomly():
    rng = random.Random(2025)
    for _ in range(40):
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 3 - p) if p < 3 else 0
        a = random_form(rng, XYZ, p, depth=2)
        b = random_form(rng, XYZ, q, depth=2)
        lhs = ext_d(wedge(a, b))
        sign = rat(-1 if p % 2 else 1)
        rhs = wedge(ext_d(a), b) + wedge(a, ext_d(b)) * sign
        assert (lhs - rhs).is_zero


def test_graded_anticommutativity_randomly():
    rng = random.Random(555)
    for _ in range(40):
        p = rng.randrange(0, 3)
        q = rng.randrange(0, 3)
        a = random_form(rng, XYZ, p, depth=2)
        b = random_form(rng, XYZ, q, depth=2)
        sign = rat(-1 if (p * q) % 2 else 1)
        assert (wedge(a, b) - wedge(b, a) * sign).is_zero


def test_wedge_is_associative_randomly():
    rng = random.Random(77)
    for _ in range(25):
        a = random_form(rng, XYZ, rng.randrange(0, 2), depth=1)
        b = random_form(rng, XYZ, rng.randrange(0, 2), depth=1)
        c = random_form(rng, XYZ, rng.randrange(0, 2), depth=1)
        assert (wedge(wedge(a, b), c) - wedge(a, wedge(b, c))).is_zero


def test_d_is_linear():
    rng = random.Random(31)
    for _ in range(20):
        a = random_form(rng, XY, 1, depth=2)
        b = random_form(rng, XY, 1, depth=2)
        assert (ext_d(a + b) - ext_d(a) - ext_d(b)).is_zero
        assert (ext_d(a * rat(3, 2)) - ext_d(a) * rat(3, 2)).is_zero


# ---------------------------------------------------------------------------
# pullback


def shear_map():
    return CoordinateMap(XY, XY, {"x": sym("x") * sym("x"), "y": sym("x") + sym("y")})


def test_pullback_on_basis_forms():
    m = shear_map()
    assert pullback(m, differential(XY, "x")) == differential(XY, "x") * (2 * sym("x"))
    assert pullback(m, differential(XY, "y")) == differential(XY, "x") + differential(XY, "y")


def test_pullback_of_volume_uses_jacobian():
    m = shear_map()
    vol = basis_form(XY, ("x", "y"))
    assert pullback(m, vol) == vol * (2 * sym("x"))


def test_pullback_commutes_with_wedge_and_d():
    rng = random.Random(12)
    for _ in range(20):
        m = random_map(rng, XY, depth=1)
        p = rng.randrange(0, 2)
        q = rng.randrange(0, 2)
        a = random_form(rng, XY, p, depth=1)
        b = random_form(rng, XY, q, depth=1)
        assert (pullback(m, wedge(a, b)) - wedge(pullback(m, a), pullback(m, b))).is_zero
        assert (pullback(m, ext_d(a)) - ext_d(pullback(m, a))).is_zero


def reference_pullback(m, a):
    """Pullback as a running sum of wedges, each component's differential built per use."""
    out = zero_form(m.source, a.degree)
    for idx, c in a.coeffs.items():
        term = scalar_form(m.source, substitute(c, m.components))
        for i in idx:
            term = wedge(term, ext_d(scalar_form(m.source, m.components[a.coords[i]])))
        out = out + term
    return out


def random_rational_map(rng, coords):
    """A self-map of the chart whose components are polynomials, quotients or exp multiples."""
    comps = {}
    for c in coords:
        p = random_map(rng, coords, depth=1).components[c]
        roll = rng.random()
        comps[c] = p if roll < 0.4 else p / (1 + sym(c) ** 2) if roll < 0.8 else p * exp(sym(rng.choice(coords)))
    return CoordinateMap(coords, coords, comps)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3))
def test_pullback_matches_its_reference(seed, degree):
    rng = random.Random(seed)
    m = random_rational_map(rng, XYZ)
    a = random_form(rng, XYZ, degree, depth=2)
    got, want = pullback(m, a), reference_pullback(m, a)
    assert got == want
    assert str(got) == str(want)
    assert [c.key for c in got.coeffs.values()] == [want.coeffs[i].key for i in got.coeffs]


def test_map_validation():
    with pytest.raises(ValueError):
        CoordinateMap(XY, XY, {"x": sym("x")})  # y component missing
    with pytest.raises(ChartError):
        CoordinateMap(XY, XY, {"x": sym("z"), "y": sym("y")})
    m = shear_map()
    assert m.apply({"x": 3.0, "y": 1.0}) == {"x": 9.0, "y": 4.0}
    with pytest.raises(ChartError):
        pullback(m, basis_form(XYZ, ("x",)))


# ---------------------------------------------------------------------------
# structural guards


def test_chart_and_degree_guards():
    with pytest.raises(ChartError):
        dd("x") + basis_form(XY, ("x",))
    with pytest.raises(DegreeError):
        dd("x") + dd("x", "y")
    with pytest.raises(DegreeError):
        DiffForm(XYZ, -1, {})
    with pytest.raises(ValueError):
        DiffForm(XYZ, 2, {(1, 0): x})  # not strictly increasing
    # adding a zero form of any degree is allowed
    assert dd("x") + zero_form(XYZ, 2) == dd("x")


def test_form_string_rendering():
    assert str(zero_form(XYZ, 1)) == "0"
    s = str(dd("x", "y") * (x + 1) - dd("y", "z"))
    assert "dx^dy" in s and "dy^dz" in s


# ---------------------------------------------------------------------------
# tri-state form equality


def test_forms_equal_tristate(space, cfg):
    a = dd("x") * ((x + y) ** 2)
    b = dd("x") * (x * x + 2 * x * y + y * y)
    assert forms_equal(a, b, space, cfg).proved

    c = dd("x") * (x * y)
    out = forms_equal(a, c, space, cfg)
    assert out.status is Verdict.FAIL
    assert out.witness is not None
    assert "dx" in out.detail

    flat = dd("x") * (flatexp(x) * flatexp(-x))
    out2 = forms_equal(flat, zero_form(XYZ, 1), space, cfg)
    assert out2.status is Verdict.UNDECIDED


def test_forms_equal_degree_mismatch(space, cfg):
    with pytest.raises(DegreeError):
        forms_equal(dd("x"), dd("x", "y"), space, cfg)
    assert forms_equal(zero_form(XYZ, 1), zero_form(XYZ, 2), space, cfg).proved


# ---------------------------------------------------------------------------
# ideal membership


def test_ideal_member_positive_and_negative(space, cfg):
    gens = (dd("z") - dd("x") * y,)
    inside = wedge(gens[0], dd("x")) * (y + 2)
    out = ideal_member(inside, gens, space, cfg)
    assert out.proved

    out2 = ideal_member(dd("x", "y"), gens, space, cfg)
    assert out2.status is Verdict.FAIL
    assert out2.witness is not None


def test_ideal_member_two_generators(space, cfg):
    g1 = dd("x")
    g2 = dd("y") - dd("z") * x
    b = wedge(g1, dd("z")) * y + wedge(g2, dd("x")) * (x + 1)
    assert ideal_member(b, (g1, g2), space, cfg).proved
    # a transverse 1-form stays outside; note every 2-form is a member
    # here, since the common annihilator is only one-dimensional.
    assert ideal_member(dd("z"), (g1, g2), space, cfg).nonzero
    assert ideal_member(dd("y", "z"), (g1, g2), space, cfg).proved


def test_ideal_member_empty_generators(space, cfg):
    assert ideal_member(zero_form(XYZ, 2), (), space, cfg).proved
    assert ideal_member(dd("x", "y"), (), space, cfg).nonzero


def test_ideal_member_rejects_dependent_generators(space, cfg):
    with pytest.raises(PreconditionError) as err:
        ideal_member(dd("x", "y"), (dd("x"), dd("x") * rat(2)), space, cfg)
    assert err.value.witness is not None


@pytest.fixture
def probe_count(monkeypatch):
    """The number of ``Region.sample_point`` calls so far, as a list of one."""
    count = [0]
    plain = Region.sample_point

    def counting(self, rnd):
        count[0] += 1
        return plain(self, rnd)

    monkeypatch.setattr(Region, "sample_point", counting)
    return count


# the generator shapes of the sampling benchmark
G1 = dd("x") * (1 + rat(3, 2) * x ** 2) + dd("z") * x
G2 = dd("y") + dd("z") * (rat(-5, 3) * exp(x))


@pytest.mark.parametrize("gens", [(G1,), (G2,), (G1, G2), (G2, G1)])
def test_certified_generators_draw_no_probe(space, cfg, probe_count, gens):
    assert certified_independent(gens, wedge_all(XYZ, gens), space)
    assert ideal_member(wedge(*gens, dd("y") * y), gens, space, cfg).proved
    assert probe_count[0] == 0


def test_generators_that_vanish_in_the_box_are_still_probed(space, cfg, probe_count):
    radial = dd("x") * (2 * x) + dd("y") * (2 * y) + dd("z") * (2 * z)
    assert not certified_independent((radial,), radial, space)
    assert ideal_member(wedge(radial, dd("x")) * z, (radial,), space, cfg).proved
    assert probe_count[0] == 8


def test_an_exact_member_on_a_region_without_samples_is_proved(cfg):
    empty = Region(XYZ, (-1 - x ** 2,), square_box(XYZ), name="empty")
    gens = (G1, G2)
    assert ideal_member(wedge(G1, dd("x")) * y, gens, empty, cfg).status is Verdict.PASS
    # generators the enclosures cannot certify still need a sample
    with pytest.raises(SamplingError):
        ideal_member(wedge(G1, dd("x")), (G1, dd("x") * x), empty, cfg)


def test_ideal_member_requires_one_form_generators(space, cfg):
    with pytest.raises(DegreeError):
        ideal_member(dd("x", "y"), (dd("x", "y"),), space, cfg)


def test_pointwise_oracle_matches_on_fixtures(space, cfg):
    gens = (dd("z") - dd("x") * y,)
    member = wedge(gens[0], dd("y") * (x + 2))
    stranger = dd("x", "y")
    for p in ZeroTestConfig(sample_count=8, rng_seed=17).points(space):
        assert ideal_member_pointwise(member, gens, p)
        assert not ideal_member_pointwise(stranger, gens, p)
    # with no generators only the zero form passes
    assert ideal_member_pointwise(zero_form(XYZ, 2), (), p)
    assert not ideal_member_pointwise(stranger, (), p)


# ---------------------------------------------------------------------------
# the pure-Python Gram determinant behind the independence precondition


def one_form(coords, row):
    return DiffForm(coords, 1, {(i,): rat(Fraction(v)) for i, v in enumerate(row) if v})


_ENTRY = st.one_of(st.integers(-3, 3), st.floats(-10, 10, allow_nan=False, allow_infinity=False))


@st.composite
def generator_rows(draw):
    m = draw(st.integers(1, 5))
    r = draw(st.integers(1, m))
    return m, draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=r, max_size=r))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(generator_rows())
def test_gram_determinant_matches_numpy(case):
    m, rows = case
    coords = ("x", "y", "z", "w", "v")[:m]
    gens = [one_form(coords, row) for row in rows]
    v = np.asarray(rows, dtype=float)
    # the square block, against the Hadamard bound on its determinant
    a = v[:, : len(rows)]
    bound = max(1.0, float(np.prod(np.sqrt((a * a).sum(axis=1)))))
    assert abs(_det(a.tolist()) - np.linalg.det(a)) <= 1e-12 * bound
    norms = np.sqrt((v * v).sum(axis=1))
    if (norms == 0.0).any():
        assert not gram_independent(gens, {})
        return
    u = v / norms[:, None]
    gram = u @ u.T
    ref = float(np.linalg.det(gram))
    assert abs(_det(gram.tolist()) - ref) <= 1e-12
    if abs(abs(ref) - 1e-9) > 1e-12:
        assert gram_independent(gens, {}) == (abs(ref) > 1e-9)


def test_det_exact_cases():
    assert _det([]) == 1.0
    assert _det([[2.0]]) == 2.0
    assert _det([[0.0, 1.0], [1.0, 0.0]]) == -1.0
    assert _det([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert _det([[0.0, 0.0], [0.0, 1.0]]) == 0.0


def test_independence_probe_draws_at_most_eight_points(cfg):
    g = differential(XY, "x") * sym("x")  # zero at x = 0, inside the box: no certificate
    region = CountingRegion([1.0] * 32)
    assert dependent_sample((g,), g, region, cfg) is None
    assert len(region.drawn) == 8
    region = CountingRegion([1.0, 0.0] + [1.0] * 30)
    assert dependent_sample((g,), g, region, cfg) == {"x": 0.0, "y": 0.0}
    assert len(region.drawn) == 2


def test_gram_independent_exact_cases():
    point = {"x": 0.0, "y": 1.0, "z": 2.0}
    row = dd("x") + dd("y") * rat(2)
    assert gram_independent((), point)
    assert not gram_independent((dd("x") * x, dd("y")), point)  # zero row at x = 0
    assert not gram_independent((zero_form(XYZ, 1),), point)
    assert not gram_independent((row, row), point)
    assert not gram_independent((row, row * rat(-3)), point)
    assert gram_independent((dd("x"), dd("y"), dd("z")), point)
    turned = (dd("x") * rat(3, 5) + dd("y") * rat(4, 5), dd("x") * rat(-4, 5) + dd("y") * rat(3, 5))
    assert gram_independent(turned + (dd("z"),), point)
