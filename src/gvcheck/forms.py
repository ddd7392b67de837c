"""Differential forms with exact symbolic coefficients.

A :class:`DiffForm` of degree p on an m-dimensional chart stores sparse
coefficients keyed by strictly increasing index tuples into the chart's
coordinate list.  Degree-0 forms wrap a single scalar at the empty
tuple.  All operations (wedge, exterior derivative, pullback) are exact;
numeric evaluation is only used by the sampled equality fallback, the
Gram-determinant independence precondition of :func:`ideal_member`
(pure Python) and the pointwise ideal-membership oracle.  That test
oracle, :func:`ideal_member_pointwise` with its helper
:func:`eval_on_vectors`, is the only user of numpy (a dependency of the
``test`` extra only) and imports it when called, so importing this
module does not import it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import ChartError, DegreeError, PreconditionError
from .symbolic import (
    ZeroTestConfig,
    evaluate,
    free_coords,
    is_zero_on,
    join_signed,
    normalize,
    partial,
    substitute,
    to_latex,
)
from .verdicts import ZeroOutcome, ZeroStatus, combine_outcomes


def perm_sign(seq):
    """Sign (+1 or -1) of the permutation that sorts a sequence of distinct values."""
    inversions = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inversions += 1
    return -1 if inversions & 1 else 1


def _merge_sign(left, right):
    """Sign of sorting the concatenation of two strictly increasing tuples.

    Returns (sign, merged) with sign 0 when an index repeats.
    """
    merged = left + right
    if len(set(merged)) != len(merged):
        return 0, ()
    return perm_sign(merged), tuple(sorted(merged))


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
        from .symbolic import ZERO

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

    def wedge(self, other):
        return wedge(self, other)

    def d(self):
        return ext_d(self)

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
    from .symbolic import ONE

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
    if rest:
        out = wedge(a, b)
        for r in rest:
            out = wedge(out, r)
        return out
    a._check_chart(b)
    degree = a.degree + b.degree
    coords = a.coords
    if degree > len(coords):
        return zero_form(coords, degree)
    out = {}
    for i1, c1 in a.coeffs.items():
        for i2, c2 in b.coeffs.items():
            sign, merged = _merge_sign(i1, i2)
            if sign == 0:
                continue
            term = c1 * c2 if sign > 0 else -(c1 * c2)
            out[merged] = out.get(merged, 0) + term if merged in out else term
    return DiffForm(coords, degree, out)


def wedge_all(coords, forms):
    """Wedge a sequence of forms; the empty product is the constant 0-form 1."""
    from .symbolic import ONE

    out = scalar_form(coords, ONE)
    for f in forms:
        out = wedge(out, f)
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
            term = dc if sign > 0 else -dc
            out[merged] = out.get(merged, 0) + term if merged in out else term
    return DiffForm(coords, degree, out)


def form_power(a: DiffForm, k: int) -> DiffForm:
    """k-fold wedge power; the 0th power is the constant 0-form 1."""
    from .symbolic import ONE

    if k < 0:
        raise DegreeError("negative wedge power")
    out = scalar_form(a.coords, ONE)
    for _ in range(k):
        out = wedge(out, a)
    return out


# ---------------------------------------------------------------------------
# coordinate maps and pullback


@dataclass(frozen=True)
class CoordinateMap:
    """A smooth map between charts, given by target components.

    ``components`` maps each target coordinate name to a ScalarExpr in
    the source coordinates.
    """

    source: tuple
    target: tuple
    components: dict

    def __post_init__(self):
        object.__setattr__(self, "source", tuple(self.source))
        object.__setattr__(self, "target", tuple(self.target))
        comps = {k: normalize(v) for k, v in self.components.items()}
        object.__setattr__(self, "components", comps)
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

    Commutes with wedge and with the exterior derivative.
    """
    if tuple(a.coords) != m.target:
        raise ChartError("form chart %s does not match map target %s" % (a.coords, m.target))
    out = zero_form(m.source, a.degree)
    for idx, c in a.coeffs.items():
        term = scalar_form(m.source, substitute(c, m.components))
        for i in idx:
            term = wedge(term, ext_d(scalar_form(m.source, m.components[a.coords[i]])))
        out = out + term
    return out


# ---------------------------------------------------------------------------
# equality and ideal membership


def forms_equal(a: DiffForm, b: DiffForm, region, cfg=None):
    """Tri-state equality of two forms on a region (coefficient-wise zero test)."""
    a._check_chart(b)
    if a.degree != b.degree and not (a.is_zero or b.is_zero):
        raise DegreeError("cannot compare a %d-form with a %d-form" % (a.degree, b.degree))
    diff = a - b
    if diff.is_zero:
        return ZeroOutcome(ZeroStatus.PROVED_ZERO)
    outcomes = []
    for idx in sorted(diff.coeffs):
        o = is_zero_on(diff.coeffs[idx], region, cfg)
        if o.nonzero:
            detail = "coefficient of %s differs" % (diff._basis_str(idx) or "1")
            return ZeroOutcome(ZeroStatus.NONZERO, witness=o.witness, value=o.value, detail=detail)
        outcomes.append(o)
    return combine_outcomes(outcomes)


def eval_coeffs(a: DiffForm, point):
    """Evaluate every stored coefficient at a point: dict idx -> float."""
    return {idx: evaluate(c, point) for idx, c in a.coeffs.items()}


def eval_on_vectors(a: DiffForm, point, vectors):
    """Evaluate the p-form on p tangent vectors at a point.

    Each vector is a sequence of components in chart order; the value is
    the sum over index tuples of coefficient * det of the selected rows.
    """
    p = a.degree
    if p == 0:
        (c,) = a.coeffs.values() or (None,)
        return evaluate(c, point) if c is not None else 0.0
    if len(vectors) != p:
        raise DegreeError("a %d-form needs exactly %d vectors" % (p, p))
    import numpy as np

    vs = np.asarray(vectors, dtype=float)
    total = 0.0
    for idx, c in a.coeffs.items():
        sub = vs[:, list(idx)].T  # rows: selected components, columns: vectors
        total += evaluate(c, point) * float(np.linalg.det(sub))
    return total


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


def gram_independent(gens, point, tol=1e-9):
    """Pointwise linear independence of 1-forms via the normalized Gram determinant."""
    if not gens:
        return True
    m = len(gens[0].coords)
    rows = []
    for g in gens:
        row = [0.0] * m
        for (i,), c in g.coeffs.items():
            row[i] = evaluate(c, point)
        norm = math.sqrt(sum(v * v for v in row))
        if norm == 0.0:
            return False
        rows.append([v / norm for v in row])
    gram = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return abs(_det(gram)) > tol


def ideal_member(b: DiffForm, gens, region, cfg=None):
    """Tri-state test of membership in the ideal generated by 1-forms.

    Uses the wedge criterion: b lies in the ideal generated by pointwise
    independent 1-forms g_1..g_q iff b ^ g_1 ^ ... ^ g_q == 0.  The
    independence precondition is verified at the sampled points first.
    """
    if cfg is None:
        cfg = ZeroTestConfig()
    for g in gens:
        b._check_chart(g)
        if g.degree != 1:
            raise DegreeError("ideal generators must be 1-forms")
    if gens:
        for i in range(min(cfg.sample_count, 8)):
            point = region.sample_point(cfg.rng_seed, i)
            if not gram_independent(gens, point):
                raise PreconditionError(
                    "ideal generators are linearly dependent at a sample", witness=dict(point)
                )
    w = b
    for g in gens:
        w = wedge(w, g)
    return forms_equal(w, zero_form(b.coords, w.degree), region, cfg)


def ideal_member_pointwise(b: DiffForm, gens, point, abs_tol=1e-9, rel_tol=1e-9):
    """Independent pointwise oracle for ideal membership.

    Completes the annihilator of the generators at the point to a basis
    (numerically, via the SVD null space) and tests that b vanishes when
    all its arguments come from the annihilator: the pure-complement
    block of b in an adapted basis.
    """
    import numpy as np

    m = len(b.coords)
    p = b.degree
    if gens:
        rows = []
        for g in gens:
            row = [0.0] * m
            for (i,), c in g.coeffs.items():
                row[i] = evaluate(c, point)
            rows.append(row)
        a = np.asarray(rows)
        _, s, vh = np.linalg.svd(a)
        rank = int((s > 1e-12 * max(1.0, s[0])).sum()) if s.size else 0
        null = vh[rank:]
    else:
        null = np.eye(m)
    if null.shape[0] < p:
        return True  # fewer tangent directions than arguments: vacuously member
    scale = sum(abs(v) for v in eval_coeffs(b, point).values())
    threshold = abs_tol + rel_tol * scale
    for combo in itertools.combinations(range(null.shape[0]), p):
        vecs = [null[i] for i in combo]
        if abs(eval_on_vectors(b, point, vecs)) > threshold:
            return False
    return True

