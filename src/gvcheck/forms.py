"""Differential forms with exact symbolic coefficients.

A :class:`DiffForm` of degree p on an m-dimensional chart stores sparse
coefficients keyed by strictly increasing index tuples into the chart's
coordinate list.  Degree-0 forms wrap a single scalar at the empty
tuple.  All operations (wedge, exterior derivative, pullback) are exact;
numeric evaluation is only used by the sampled equality fallback and
the generator independence test :func:`dependent_sample`, both in pure
Python; that test first tries interval enclosures.
"""
from __future__ import annotations

import math

from .errors import ChartError, DegreeError, PreconditionError
from .symbolic import (
    ONE,
    ZERO,
    ZeroTestConfig,
    add_all,
    enclose,
    evaluate,
    free_coords,
    is_zero_on,
    join_signed,
    left_sum,
    normalize,
    partial,
    substitute,
    to_latex,
)
from .verdicts import Outcome, Verdict, combine_outcomes


def perm_sign(seq):
    """Sign (+1 or -1) of the permutation that sorts a sequence of distinct values."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


_MERGED: dict = {}  # (left, right) -> _merge_sign(left, right)


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two strictly increasing tuples.

    Returns (sign, merged) with sign 0 when an index repeats; each pair
    is worked out once.
    """
    out = _MERGED.get((left, right))
    if out is None:
        merged = left + right
        if len(set(merged)) != len(merged):
            out = 0, ()
        else:
            out = perm_sign(merged), tuple(sorted(merged))
        _MERGED[(left, right)] = out
    return out


def _paren_text(cs):
    if " " in cs and not (cs.startswith("(") and cs.endswith(")")):
        return "(%s)" % cs
    return cs


def _paren_latex(cs):
    if "+" in cs or (" - " in cs):
        return r"\left(%s\right)" % cs
    return cs


class DiffForm:
    """Sparse differential form over a fixed coordinate chart."""

    __slots__ = ("coords", "degree", "coeffs")

    def __init__(self, coords, degree, coeffs):
        coords = tuple(coords)
        m = len(coords)
        if degree < 0:
            raise DegreeError("negative form degree")
        clean = {}
        if degree <= m:
            for idx, c in coeffs.items():
                idx = tuple(idx)
                if len(idx) != degree or list(idx) != sorted(set(idx)):
                    raise ValueError("coefficient key %r is not a strictly increasing %d-tuple" % (idx, degree))
                if idx and (idx[0] < 0 or idx[-1] >= m):
                    raise ValueError("index out of chart range: %r" % (idx,))
                c = normalize(c)
                if not c.is_zero:
                    clean[idx] = c
        self.coords = coords
        self.degree = degree
        self.coeffs = clean

    # -- basic structure ------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, DiffForm)
            and other.coords == self.coords
            and other.degree == self.degree
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.coords, self.degree, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    # -- arithmetic -------------------------------------------------------

    def _check_chart(self, other):
        if self.coords != other.coords:
            raise ChartError("forms live on different charts: %s vs %s" % (self.coords, other.coords))

    def __add__(self, other):
        if not isinstance(other, DiffForm):
            return NotImplemented
        self._check_chart(other)
        if self.degree != other.degree:
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise DegreeError("cannot add a %d-form and a %d-form" % (self.degree, other.degree))
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            out[idx] = out.get(idx, 0) + c if idx in out else c
        return DiffForm(self.coords, self.degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DiffForm(self.coords, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __mul__(self, scalar):
        s = normalize(scalar)
        return DiffForm(self.coords, self.degree, {i: c * s for i, c in self.coeffs.items()})

    __rmul__ = __mul__

    # -- rendering ----------------------------------------------------

    def _basis_str(self, idx):
        return "^".join("d%s" % self.coords[i] for i in idx)

    def _basis_latex(self, idx):
        return r" \wedge ".join("d%s" % self.coords[i] for i in idx)

    def _render(self, coeff, basis, paren, times):
        """Shared term loop of the text and LaTeX printers."""
        if self.is_zero:
            return "0"
        bits = []
        for idx in sorted(self.coeffs):
            cs = coeff(self.coeffs[idx])
            if not idx:
                bits.append(cs)
            elif cs == "1":
                bits.append(basis(idx))
            elif cs == "-1":
                bits.append("-" + basis(idx))
            else:
                bits.append(times % (paren(cs), basis(idx)))
        return join_signed(bits)

    def __str__(self):
        return self._render(str, self._basis_str, _paren_text, "%s*%s")

    def __repr__(self):
        return "<%d-form %s>" % (self.degree, self)

    def to_latex(self):
        return self._render(to_latex, self._basis_latex, _paren_latex, r"%s \, %s")


# ---------------------------------------------------------------------------
# constructors


def zero_form(coords, degree):
    return DiffForm(coords, degree, {})


def scalar_form(coords, expr):
    """Wrap a scalar expression as a 0-form."""
    expr = normalize(expr)
    extra = free_coords(expr) - set(coords)
    if extra:
        raise ChartError("scalar uses coordinates outside the chart: %s" % sorted(extra))
    return DiffForm(coords, 0, {(): expr})


def basis_form(coords, names):
    """The basis monomial d(names[0]) ^ ... ^ d(names[-1])."""
    idx = tuple(coords.index(n) for n in names)
    if len(set(idx)) != len(idx):
        return zero_form(coords, len(idx))
    return DiffForm(coords, len(idx), {tuple(sorted(idx)): ONE if perm_sign(idx) > 0 else -ONE})


def differential(coords, name):
    """The coordinate differential d(name) as a 1-form."""
    return basis_form(coords, (name,))


# ---------------------------------------------------------------------------
# exterior algebra operations


def wedge(a: DiffForm, b: DiffForm, *rest):
    """Wedge product; associative, with the usual graded sign bookkeeping."""
    return wedge_all(a.coords, (a, b) + rest)


def wedge_all(coords, forms):
    """Wedge a sequence of forms on a chart; the empty product is the constant 0-form 1."""
    forms = tuple(forms)
    if not forms:
        return scalar_form(coords, ONE)
    out = forms[0]
    if out.coords != tuple(coords):
        raise ChartError("forms live on different charts: %s vs %s" % (tuple(coords), out.coords))
    for f in forms[1:]:
        out._check_chart(f)
        degree = out.degree + f.degree
        if degree > len(out.coords):
            out = zero_form(out.coords, degree)
            continue
        terms = {}
        for i1, c1 in out.coeffs.items():
            for i2, c2 in f.coeffs.items():
                sign, merged = _merge_sign(i1, i2)
                if sign == 0:
                    continue
                term = c1 * c2 if sign > 0 else -(c1 * c2)
                terms.setdefault(merged, []).append(term)
        out = DiffForm(out.coords, degree, {i: add_all(ts) for i, ts in terms.items()})
    return out


def ext_d(a: DiffForm) -> DiffForm:
    """Exterior derivative, graded Leibniz by construction; d(d(a)) == 0."""
    coords = a.coords
    degree = a.degree + 1
    if degree > len(coords):
        return zero_form(coords, degree)
    out = {}
    for idx, c in a.coeffs.items():
        for k, name in enumerate(coords):
            if k in idx:
                continue
            dc = partial(c, name)
            if dc.is_zero:
                continue
            sign, merged = _merge_sign((k,), idx)
            out.setdefault(merged, []).append(dc if sign > 0 else -dc)
    return DiffForm(coords, degree, {i: add_all(ts) for i, ts in out.items()})


def form_power(a: DiffForm, k: int) -> DiffForm:
    """k-fold wedge power; the 0th power is the constant 0-form 1."""
    if k < 0:
        raise DegreeError("negative wedge power")
    return wedge_all(a.coords, (a,) * k)


# ---------------------------------------------------------------------------
# coordinate maps and pullback


class CoordinateMap:
    """A smooth map between charts, given by target components.

    ``components`` maps each target coordinate name to a ScalarExpr in
    the source coordinates.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: tuple, target: tuple, components: dict):
        self.source = tuple(source)
        self.target = tuple(target)
        self.components = comps = {k: normalize(v) for k, v in components.items()}
        for t in self.target:
            if t not in comps:
                raise ValueError("missing component for target coordinate %r" % t)
            extra = free_coords(comps[t]) - set(self.source)
            if extra:
                raise ChartError("component for %r uses non-source coordinates %s" % (t, sorted(extra)))

    def apply(self, point):
        """Push a source point through the map."""
        return {t: evaluate(self.components[t], point) for t in self.target}


def pullback(m: CoordinateMap, a: DiffForm) -> DiffForm:
    """Pullback of a form on the target chart along the map.

    Commutes with wedge and with the exterior derivative.  Each component's
    differential is built once, and each coefficient of the result is
    the sum of its terms over all of ``a``'s coefficients, cancelled once.
    """
    if tuple(a.coords) != m.target:
        raise ChartError("form chart %s does not match map target %s" % (a.coords, m.target))
    dphi = {}  # target index -> d(phi_i) on the source chart
    terms = {}
    for idx, c in a.coeffs.items():
        forms = [scalar_form(m.source, substitute(c, m.components))]
        for i in idx:
            d = dphi.get(i)
            if d is None:
                d = dphi[i] = ext_d(scalar_form(m.source, m.components[a.coords[i]]))
            forms.append(d)
        for j, t in wedge_all(m.source, forms).coeffs.items():
            terms.setdefault(j, []).append(t)
    return DiffForm(m.source, a.degree, {j: add_all(ts) for j, ts in terms.items()})


# ---------------------------------------------------------------------------
# equality and ideal membership


def forms_equal(a: DiffForm, b: DiffForm, region, cfg=None):
    """Tri-state equality of two forms on a region (coefficient-wise zero test)."""
    a._check_chart(b)
    if a.degree != b.degree and not (a.is_zero or b.is_zero):
        raise DegreeError("cannot compare a %d-form with a %d-form" % (a.degree, b.degree))
    diff = a - b
    outcomes = []
    for idx in sorted(diff.coeffs):
        o = is_zero_on(diff.coeffs[idx], region, cfg)
        if o.nonzero:
            detail = "coefficient of %s differs" % (diff._basis_str(idx) or "1")
            return Outcome(Verdict.FAIL, witness=o.witness, value=o.value, detail=detail)
        outcomes.append(o)
    return combine_outcomes(outcomes)


def vanishes_on(a: DiffForm, region, cfg):
    """Tri-state test that a form is zero on a region."""
    return forms_equal(a, zero_form(a.coords, a.degree), region, cfg)


def _det(rows):
    """Determinant of a small square matrix by Gaussian elimination with partial pivoting."""
    a = [list(r) for r in rows]
    n = len(a)
    det = 1.0
    for k in range(n):
        p = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[p][k] == 0.0:
            return 0.0
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        pivot_row = a[k]
        pivot = pivot_row[k]
        det *= pivot
        for i in range(k + 1, n):
            row = a[i]
            f = row[k] / pivot
            if f:
                for j in range(k + 1, n):
                    row[j] -= f * pivot_row[j]
    return det


GRAM_TOL = 1e-9  # a normalized Gram determinant at most this is dependence


def gram_independent(gens, point):
    """Pointwise linear independence of 1-forms via the normalized Gram determinant."""
    if not gens:
        return True
    m = len(gens[0].coords)
    rows = []
    for g in gens:
        row = [0.0] * m
        for (i,), c in g.coeffs.items():
            row[i] = evaluate(c, point)
        norm = math.sqrt(left_sum(v * v for v in row))
        if norm == 0.0:
            return False
        rows.append([v / norm for v in row])
    gram = [[left_sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return abs(_det(gram)) > GRAM_TOL


def dependent_sample(gens, minors, region, cfg):
    """None when :func:`certified_independent` proves the 1-forms independent
    (``minors`` is their wedge), else the first of at most 8 sampled points
    of the region where they are not, or None when every probe passes."""
    if certified_independent(gens, minors, region):
        return None
    probes = (point for _, point in zip(range(8), cfg.points(region)))  # range first: no ninth draw
    return next((point for point in probes if not gram_independent(gens, point)), None)


def certified_independent(gens, minors, region):
    """True when interval enclosures over the region's sampling box prove the
    1-forms' normalized Gram determinant above 1e3 * GRAM_TOL (a margin for
    the probes' rounding).  By Cauchy-Binet it is sum(M^2) / prod(|g_i|^2)
    over the minors M, the coefficients of ``minors``, the wedge of the 1-forms."""
    box, bound = region.box, 1e3 * GRAM_TOL
    for g in gens:  # a coefficient without an enclosure makes the bound infinite
        ivs = (enclose(c, box) or (math.inf, math.inf) for c in g.coeffs.values())
        bound *= left_sum(max(lo * lo, hi * hi) for lo, hi in ivs)
    ivs = (enclose(m, box) or (0.0, 0.0) for m in minors.coeffs.values())
    return any((lo > 0.0 or hi < 0.0) and min(lo * lo, hi * hi) > bound for lo, hi in ivs)


def ideal_member(b: DiffForm, gens, region, cfg=None):
    """Tri-state test of membership in the ideal generated by 1-forms.

    Uses the wedge criterion: b lies in the ideal generated by pointwise
    independent 1-forms g_1..g_q iff b ^ g_1 ^ ... ^ g_q == 0.  Their independence
    is checked by :func:`dependent_sample`.
    """
    if cfg is None:
        cfg = ZeroTestConfig()
    for g in gens:
        b._check_chart(g)
        if g.degree != 1:
            raise DegreeError("ideal generators must be 1-forms")
    if not gens:
        return vanishes_on(b, region, cfg)
    minors = wedge_all(b.coords, gens)
    dependent = dependent_sample(gens, minors, region, cfg)
    if dependent is not None:
        raise PreconditionError(
            "ideal generators are linearly dependent at a sample", witness=dict(dependent)
        )
    return vanishes_on(wedge(b, minors), region, cfg)
