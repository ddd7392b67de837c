"""Independent check of the swell GV forms against sympy.

sympy is a test-only oracle: it is imported only here, after the timed
loop.  The GV form mu ^ (d mu)^q is re-derived from the same
:class:`workloads.MuSpec` data with sympy's own differentiation and a
separate exterior-algebra sketch, then every coefficient is compared
with gvcheck's at three seeded points.
"""
from __future__ import annotations

import random

import sympy as sp

from gvcheck.symbolic import evaluate

POINTS = 3
REL_TOL = 1e-7


def _sort_sign(idx):
    """(sign, sorted tuple) of an index tuple, sign 0 when an index repeats."""
    if len(set(idx)) != len(idx):
        return 0, ()
    inversions = sum(1 for i in range(len(idx)) for j in range(i + 1, len(idx)) if idx[i] > idx[j])
    return (-1) ** inversions, tuple(sorted(idx))


def _wedge(a, b):
    out = {}
    for i, f in a.items():
        for j, g in b.items():
            sign, idx = _sort_sign(i + j)
            if sign:
                out[idx] = out.get(idx, 0) + sign * f * g
    return out


def _d(a, xs):
    out = {}
    for i, f in a.items():
        for k, x in enumerate(xs):
            sign, idx = _sort_sign((k,) + i)
            if sign:
                out[idx] = out.get(idx, 0) + sign * sp.diff(f, x)
    return out


def sympy_gv(spec):
    """The GV form of ``spec`` as {index tuple: sympy expression}, and the symbols."""
    xs = sp.symbols(spec.coords)
    m = len(xs)
    x = [xs[spec.perm[i]] for i in range(m)]
    mu = {}
    for i in range(m):
        x0, x1, x2, x3 = (x[(i + j) % m] for j in range(4))
        rational = x1 / (1 + x0 ** 2) if i < spec.k else x1 * x0
        a, b = (sp.Rational(c.numerator, c.denominator) for c in (spec.a[i], spec.b[i]))
        mu[(spec.perm[i],)] = a * x2 * sp.exp(x3) + b * rational
    out, dmu = mu, _d(mu, xs)
    for _ in range(spec.q):
        out = _wedge(out, dmu)
    return out, xs


def check_gv(spec, form, seed):
    """Mismatch descriptions between gvcheck's GV form and sympy's (empty if none)."""
    expected, xs = sympy_gv(spec)
    rng = random.Random(seed)
    problems = []
    indices = set(expected) | set(form.coeffs)
    for idx in sorted(indices):
        f = sp.lambdify(xs, expected.get(idx, sp.Integer(0)), "math")
        coeff = form.coeffs.get(idx)
        for _ in range(POINTS):
            point = [rng.uniform(-1, 1) for _ in xs]
            want = float(f(*point))
            got = evaluate(coeff, dict(zip(spec.coords, point))) if coeff is not None else 0.0
            if abs(got - want) > REL_TOL * max(1.0, abs(want)):
                problems.append("GV coefficient %s of q=%d k=%d perm=%s: gvcheck %r, sympy %r"
                                % (idx, spec.q, spec.k, spec.perm, got, want))
    return problems
