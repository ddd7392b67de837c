"""Exact symbolic scalar fields over named coordinates.

A :class:`ScalarExpr` is kept in a canonical fraction ``num / den`` where
both sides are sparse polynomials over an extended generator set:
coordinate symbols plus interned transcendental atoms ``exp``, ``log``,
``psi0`` and ``flatexp``.  Arithmetic normalizes eagerly, so structural
equality decides semantic equality on the polynomial/rational fragment.

Representation (packed monomials as in Monagan & Pearce, "Sparse
polynomial multiplication and division in Maple 14", 2009):

* A monomial is one Python int.  Every generator owns a fixed-width
  exponent field, assigned once when the generator is interned, so
  multiplying two monomials is one integer addition and dividing out
  monomial content is one subtraction.  The top bit of each field is a
  guard: an exponent that would reach it raises ``OverflowError``
  instead of carrying into the next generator's field.
  :func:`_mono_items` decodes a monomial into (generator, exponent)
  pairs in generator order (coordinates by name, then atoms).
* Coefficients are Python ints.  A canonical fraction has its shared
  monomial content cancelled, its coefficients divided by their joint
  gcd, and a positive leading denominator coefficient ``lead``, where
  "leading" means the largest monomial in :func:`_mono_key` order.  Its
  rational coefficients are the integer ones divided by ``lead``, which
  makes the leading denominator coefficient 1.  Keys, rendering and
  evaluation all read the coefficients that way.
* ``key`` (sorted ``(_mono_key, (p, q))`` pairs of those rational
  coefficients) is computed on first use and cached; equality compares
  the integer term dicts, which is equivalent for canonical fractions.
* Evaluation runs a plan built on first use and cached on the
  expression: float coefficients, generator powers and terms in the
  order the term dicts hold them.

The two flat atoms are first class and are never expanded into
exp-of-quotient trees, so their flatness at the boundary is exact by
construction:

* ``flatexp(u)`` is exp(-1/u) for u > 0 and 0 for u <= 0, with the
  derivative rewrite d flatexp(u) = flatexp(u)/u^2 * du.
* ``psi0(t)`` is exp(-1/t^2) / (1 + exp(-1/t^2)) for t != 0 and 0 at
  t = 0, with d psi0(t) = 2 psi0(t) (1 - psi0(t)) / t^3 * dt.  Its values
  lie in [0, 1/2].

Zero testing is a semi-decision: PROVED-ZERO comes only from exact
normalization, NONZERO only from a numeric witness that clears the
configured tolerances at a sampled point, and everything else stays
UNDECIDED.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EvaluationError
from .verdicts import ZeroOutcome, ZeroStatus

_MASK64 = (1 << 64) - 1

ATOM_KINDS = ("exp", "log", "psi0", "flatexp")
_KIND_INDEX = {k: i for i, k in enumerate(ATOM_KINDS)}


def mix_seed(seed, index):
    """Derive a per-index sub-seed from a master seed (splitmix64 step).

    Each sample point gets its own stream, so results do not depend on
    the order in which samples are drawn.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# generators: coordinate symbols and interned atoms, each with its own
# exponent field in packed monomials

FIELD_BITS = 16
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1

_GENS: list = []  # field index -> generator
_GUARD = 0  # the top bit of every allocated field
_HIGH = 0  # the top two bits of every allocated field


def _new_field(gen):
    """Give ``gen`` the next exponent field: sets ``gen.unit``, the monomial gen^1."""
    global _GUARD, _HIGH
    off = len(_GENS) * FIELD_BITS
    _GENS.append(gen)
    _GUARD |= 1 << (off + FIELD_BITS - 1)
    _HIGH |= 3 << (off + FIELD_BITS - 2)
    gen.unit = 1 << off


class CoordGen:
    __slots__ = ("name", "skey", "_h", "unit")

    def __init__(self, name):
        self.name = name
        self.skey = (0, name)
        self._h = hash(self.skey)

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return self is other or (isinstance(other, CoordGen) and other.name == self.name)

    def __repr__(self):
        return self.name


class AtomGen:
    """A transcendental atom applied to a canonical argument expression."""

    __slots__ = ("kind", "arg", "skey", "_h", "unit")

    def __init__(self, kind, arg):
        self.kind = kind
        self.arg = arg
        self.skey = (1, _KIND_INDEX[kind], arg.key)
        self._h = hash(self.skey)

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return self is other or (isinstance(other, AtomGen) and other.skey == self.skey)

    def __repr__(self):
        return "%s(%s)" % (self.kind, self.arg)


_COORD_GENS: dict = {}
_ATOM_GENS: dict = {}


def _coord_gen(name):
    g = _COORD_GENS.get(name)
    if g is None:
        g = _COORD_GENS[name] = CoordGen(name)
        _new_field(g)
    return g


def _atom_gen(kind, arg):
    key = (kind, arg.key)
    g = _ATOM_GENS.get(key)
    if g is None:
        g = _ATOM_GENS[key] = AtomGen(kind, arg)
        _new_field(g)
    return g


# ---------------------------------------------------------------------------
# packed monomials and sparse polynomials over the generators


def _skey(item):
    return item[0].skey


def _mono_items(mono):
    """Decode a packed monomial into (generator, exponent) pairs in generator order."""
    items = []
    while mono:
        i = (mono.bit_length() - 1) // FIELD_BITS
        off = i * FIELD_BITS
        e = mono >> off
        items.append((_GENS[i], e))
        mono -= e << off
    if len(items) > 1:
        items.sort(key=_skey)
    return items


def _mono_key(mono):
    return tuple((g.skey, e) for g, e in _mono_items(mono))


def _mono_min(a, b):
    """Per-generator minimum of two packed monomials, all fields at once.

    Exponents stay below the guard bits, so (field | guard) - other
    never borrows across fields and keeps the guard bit exactly where
    the first exponent is at least the second.
    """
    keep_b = ((((a | _GUARD) - b) & _GUARD) >> (FIELD_BITS - 1)) * _FIELD_MASK
    return (b & keep_b) | (a & ~keep_b)


def _overflow(mono):
    """The error for a product whose exponent reached a field's guard bit."""
    for i, gen in enumerate(_GENS):
        e = (mono >> (i * FIELD_BITS)) & _FIELD_MASK
        if e > MAX_EXPONENT:
            return OverflowError(
                "exponent %d of %s exceeds %d, the largest a monomial field holds" % (e, gen, MAX_EXPONENT)
            )
    raise AssertionError("no field overflowed")


class Poly:
    """Sparse multivariate polynomial: packed monomial -> nonzero int coefficient."""

    __slots__ = ("terms", "_support")

    def __init__(self, terms):
        self.terms = terms
        self._support = None

    @property
    def key(self):
        """Sorted ``(_mono_key, (p, q))`` pairs, computed on demand."""
        return _poly_key(self, 1)

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        """Bitwise or of all monomials: bounds every exponent field from above."""
        s = self._support
        if s is None:
            s = 0
            for m in self.terms:
                s |= m
            self._support = s
        return s

    def add(self, other):
        out = dict(self.terms)
        get = out.get
        for m, c in other.terms.items():
            s = get(m)
            if s is None:
                out[m] = c
            else:
                s += c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(out)

    def neg(self):
        return Poly({m: -c for m, c in self.terms.items()})

    def mul(self, other):
        # when every exponent of both factors is below 2^(FIELD_BITS - 2),
        # no sum reaches a guard bit and the per-product check is skipped
        guard = _GUARD if (self.support() | other.support()) & _HIGH else 0
        out = {}
        get = out.get
        b = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in b:
                m = m1 + m2
                if m & guard:
                    raise _overflow(m)
                s = get(m)
                if s is None:
                    out[m] = c1 * c2
                else:
                    s += c1 * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Poly(out)

    def pow(self, k):
        result = _P_ONE
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            k >>= 1
            if k:
                base = base.mul(base)
        return result


_P_ZERO = Poly({})
_P_ONE = Poly({0: 1})


def _poly_gen(gen):
    return Poly({gen.unit: 1})


def _is_const(poly):
    """True for a nonzero constant polynomial."""
    return len(poly.terms) == 1 and 0 in poly.terms


def _content(poly):
    """Packed monomial of the per-generator minimum exponent across all terms."""
    if 0 in poly.terms:
        return 0
    it = iter(poly.terms)
    content = next(it)
    for mono in it:
        if not content:
            break
        content = _mono_min(content, mono)
    return content


def _divide_content(poly, content):
    return Poly({mono - content: c for mono, c in poly.terms.items()})


def _poly_key(poly, lead):
    """Sorted (monomial key, (p, q)) pairs of the coefficients divided by ``lead`` > 0."""
    out = []
    for mono, c in poly.terms.items():
        g = math.gcd(c, lead)
        out.append((_mono_key(mono), (c // g, lead // g)))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# canonical scalar expressions


class ScalarExpr:
    """Immutable canonical fraction of two polynomials.

    Use the module constructors (:func:`sym`, :func:`rat`, :func:`exp`,
    ...) and the arithmetic operators; the internal constructor assumes
    already-canonical data, with ``lead`` the leading denominator
    coefficient.
    """

    __slots__ = ("num", "den", "lead", "_key", "_h", "_plan")

    def __init__(self, num, den, lead=1):
        self.num = num
        self.den = den
        self.lead = lead
        self._key = None
        self._h = None
        self._plan = None

    @property
    def key(self):
        k = self._key
        if k is None:
            k = self._key = (_poly_key(self.num, self.lead), _poly_key(self.den, self.lead))
        return k

    def __hash__(self):
        h = self._h
        if h is None:
            h = self._h = hash(self.key)
        return h

    def __eq__(self, other):
        return (
            isinstance(other, ScalarExpr)
            and other.num.terms == self.num.terms
            and other.den.terms == self.den.terms
        )

    @property
    def is_zero(self):
        return not self.num.terms

    @property
    def is_one(self):
        return self.num.terms == _P_ONE.terms and self.den.terms == _P_ONE.terms

    @property
    def is_polynomial(self):
        """True when the denominator is a constant."""
        return _is_const(self.den)

    def as_fraction(self):
        """Exact rational value, or None if the expression is not constant."""
        if not self.is_polynomial:
            return None
        if not self.num.terms:
            return Fraction(0)
        if _is_const(self.num):
            return Fraction(self.num.terms[0], self.lead)
        return None

    def is_constant(self):
        """True when the expression is a literal rational constant."""
        return self.as_fraction() is not None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(
            self.num.mul(other.den).add(other.num.mul(self.den)),
            self.den.mul(other.den),
        )

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.num.neg(), self.den, self.lead)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.num.mul(other.num), self.den.mul(other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _make(self.num.mul(other.den), self.den.mul(other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k >= 0:
            return _make(self.num.pow(k), self.den.pow(k))
        if self.is_zero:
            raise ZeroDivisionError("zero expression raised to a negative power")
        return _make(self.den.pow(-k), self.num.pow(-k))

    # -- rendering ----------------------------------------------------

    def __str__(self):
        num = _poly_str(self.num, self.lead)
        if self.is_polynomial:
            return num
        den = _poly_str(self.den, self.lead)
        if len(self.num.terms) > 1:
            num = "(%s)" % num
        return "%s / (%s)" % (num, den)

    def __repr__(self):
        return "<expr %s>" % self


def _coerce(v):
    if isinstance(v, ScalarExpr):
        return v
    if isinstance(v, (int, Fraction)):
        return const(v)
    return NotImplemented


def _over(poly, d):
    """The canonical expression poly / d for a positive integer d."""
    if d == 1:
        return ScalarExpr(poly, _P_ONE)
    g = math.gcd(d, *poly.terms.values())
    if g != 1:
        poly = Poly({m: c // g for m, c in poly.terms.items()})
        d //= g
    return ScalarExpr(poly, Poly({0: d}), d)


def _make(num, den):
    """Canonicalize a raw fraction of polynomials."""
    if den.is_zero:
        raise ZeroDivisionError("denominator normalizes to the zero polynomial")
    if num.is_zero:
        return ZERO
    # cancel shared monomial content
    cn = _content(num)
    if cn:
        shared = _mono_min(cn, _content(den))
        if shared:
            num = _divide_content(num, shared)
            den = _divide_content(den, shared)
    nt, dt = num.terms, den.terms
    # fold num = c * den into the constant c
    if len(nt) == len(dt):
        ratio = None
        for m, c in nt.items():
            d = dt.get(m)
            if d is None:
                break
            if ratio is None:
                ratio = (c, d)
            elif c * ratio[1] != d * ratio[0]:
                break
        else:
            return const(Fraction(*ratio))
    # normalize scale: coprime coefficients, positive leading denominator coefficient
    lead = dt[max(dt, key=_mono_key)] if len(dt) > 1 else next(iter(dt.values()))
    g = math.gcd(*nt.values(), *dt.values())
    if lead < 0:
        g = -g
    if g != 1:
        num = Poly({m: c // g for m, c in nt.items()})
        den = Poly({m: c // g for m, c in dt.items()})
        lead //= g
    return ScalarExpr(num, den, lead)


ZERO = ScalarExpr(_P_ZERO, _P_ONE)
ONE = ScalarExpr(_P_ONE, _P_ONE)


# ---------------------------------------------------------------------------
# constructors


def sym(name):
    """The coordinate symbol ``name``."""
    return ScalarExpr(_poly_gen(_coord_gen(name)), _P_ONE)


def rat(p, q=1):
    """Exact rational constant p/q."""
    return const(Fraction(p, q))


def const(value):
    """Exact constant from an int or Fraction."""
    f = Fraction(value)
    if not f:
        return ZERO
    d = f.denominator
    return ScalarExpr(Poly({0: f.numerator}), Poly({0: d}) if d != 1 else _P_ONE, d)


def _atom_expr(kind, arg):
    return ScalarExpr(_poly_gen(_atom_gen(kind, arg)), _P_ONE)


def exp(u):
    """Atom exp(u).  exp(0) folds to 1."""
    u = _coerce(u)
    if u.is_zero:
        return ONE
    return _atom_expr("exp", u)


def log(u):
    """Atom log(u).  log(1) folds to 0.  Evaluation requires u > 0."""
    u = _coerce(u)
    if u.is_one:
        return ZERO
    return _atom_expr("log", u)


def psi0(u):
    """Flat sigmoid atom: exp(-1/u^2)/(1+exp(-1/u^2)) for u != 0, else 0.

    Smooth on all of R, flat at u = 0, with values in [0, 1/2].
    psi0(0) folds to the zero expression.
    """
    u = _coerce(u)
    if u.is_zero:
        return ZERO
    return _atom_expr("psi0", u)


def flatexp(u):
    """Flat exponential atom: exp(-1/u) for u > 0, identically 0 for u <= 0.

    A nonpositive constant argument folds to the zero expression.
    """
    u = _coerce(u)
    c = u.as_fraction()
    if c is not None and c <= 0:
        return ZERO
    return _atom_expr("flatexp", u)


# ---------------------------------------------------------------------------
# normalization and calculus


def normalize(e):
    """Return the canonical form of ``e``.

    Construction already normalizes eagerly, so this is the identity on
    :class:`ScalarExpr` values; it exists as the explicit, idempotent
    entry point and coerces plain numbers.
    """
    c = _coerce(e)
    if c is NotImplemented:
        raise TypeError("cannot normalize %r" % (e,))
    return c


def _atom_derivative(gen):
    """d atom / d arg, expressed with the atom itself and rational factors."""
    u = gen.arg
    a = ScalarExpr(_poly_gen(gen), _P_ONE)
    if gen.kind == "exp":
        return a
    if gen.kind == "log":
        return ONE / u
    if gen.kind == "psi0":
        # 2 psi0(u) (1 - psi0(u)) / u^3, extended by 0 across u = 0
        return rat(2) * a * (ONE - a) / (u * u * u)
    if gen.kind == "flatexp":
        # flatexp(u)/u^2 for u > 0, extended by 0; exact flatness preserved
        return a / (u * u)
    raise AssertionError(gen.kind)


def _poly_partial(poly, name, d=1):
    """d(poly / d) / d name for a positive integer d."""
    total = ZERO
    for mono, c in poly.terms.items():
        for g, e in _mono_items(mono):
            if isinstance(g, CoordGen):
                if g.name != name:
                    continue
                dgen = ONE
            else:
                darg = partial(g.arg, name)
                if darg.is_zero:
                    continue
                dgen = _atom_derivative(g) * darg
            factor = _over(Poly({mono - g.unit: c * e}), d)
            total = total + factor * dgen
    return total


def partial(e, name):
    """Exact partial derivative of ``e`` with respect to coordinate ``name``."""
    e = normalize(e)
    if e.is_polynomial:
        return _poly_partial(e.num, name, e.lead)
    dn = _poly_partial(e.num, name)
    dd = _poly_partial(e.den, name)
    den_expr = ScalarExpr(e.den, _P_ONE)
    num_expr = ScalarExpr(e.num, _P_ONE)
    return (dn * den_expr - num_expr * dd) / (den_expr * den_expr)


def _poly_gens(poly):
    """The generators a polynomial uses, in field order."""
    s = poly.support()
    return [g for i, g in enumerate(_GENS) if (s >> (i * FIELD_BITS)) & _FIELD_MASK]


def free_coords(e):
    """Names of the coordinates the expression actually depends on."""
    out = set()

    def walk(x):
        for poly in (x.num, x.den):
            for g in _poly_gens(poly):
                if isinstance(g, CoordGen):
                    out.add(g.name)
                else:
                    walk(g.arg)

    walk(e)
    return frozenset(out)


def denominators(e):
    """All denominators whose nonvanishing the expression relies on.

    Returns the top-level denominator (when not 1) together with the
    denominators appearing inside atom arguments, so callers can emit a
    nonvanishing-on-region obligation for each.
    """
    found = []
    seen = set()

    def walk(expr):
        if not expr.is_polynomial:
            den = _over(expr.den, expr.lead)
            if den.key not in seen:
                seen.add(den.key)
                found.append(den)
        for poly in (expr.num, expr.den):
            for mono in poly.terms:
                for g, _ in _mono_items(mono):
                    if isinstance(g, AtomGen):
                        walk(g.arg)

    walk(normalize(e))
    return tuple(found)


def substitute(e, mapping):
    """Substitute expressions for coordinate symbols (exact composition).

    ``mapping`` maps coordinate names to ScalarExpr (or numbers);
    unmentioned coordinates stay themselves.
    """
    e = normalize(e)
    table = {k: normalize(v) for k, v in mapping.items()}

    def sub_poly(p):
        total = ZERO
        for mono, c in p.terms.items():
            term = const(c)
            for g, exp_ in _mono_items(mono):
                if isinstance(g, CoordGen):
                    base = table.get(g.name)
                    if base is None:
                        base = ScalarExpr(_poly_gen(g), _P_ONE)
                else:
                    base = _atom_expr(g.kind, sub_expr(g.arg))
                term = term * base**exp_
            total = total + term
        return total

    def sub_expr(x):
        num = sub_poly(x.num)
        den = sub_poly(x.den)
        return num / den

    return sub_expr(e)


# ---------------------------------------------------------------------------
# evaluation


def _ipow(base, k):
    # repeated multiplication keeps results reproducible across platforms
    out = 1.0
    for _ in range(k):
        out *= base
    return out


def _eval_gen(gen, point, cache):
    v = cache.get(gen)
    if v is not None:
        return v
    if isinstance(gen, CoordGen):
        try:
            v = float(point[gen.name])
        except KeyError:
            raise EvaluationError("unbound coordinate %r" % gen.name, offender=gen.name, point=dict(point))
    else:
        u = _eval_expr(gen.arg, point, cache)
        kind = gen.kind
        try:
            if kind == "exp":
                v = math.exp(u)
            elif kind == "log":
                if u <= 0.0:
                    raise DomainError("log of non-positive value %r" % u, offender=str(gen), point=dict(point))
                v = math.log(u)
            elif kind == "psi0":
                if u == 0.0:
                    v = 0.0
                else:
                    g = math.exp(-1.0 / (u * u))
                    v = g / (1.0 + g)
            else:  # flatexp
                v = 0.0 if u <= 0.0 else math.exp(-1.0 / u)
        except OverflowError:
            raise EvaluationError("overflow evaluating %s" % gen, offender=str(gen), point=dict(point))
    cache[gen] = v
    return v


class _PolyPlan:
    """A polynomial laid out for repeated float evaluation.

    ``gens`` lists the generators in order of first use, so evaluation
    errors surface in the same order as a term-by-term walk.  ``powers``
    lists the distinct (generator index, exponent) pairs, and each term
    is (coefficient / lead as a float, indices into ``powers``) with its
    factors in generator order and the terms in dict order.
    """

    __slots__ = ("gens", "powers", "terms")

    def __init__(self, poly, lead):
        gen_index = {}
        power_index = {}
        terms = []
        for mono, c in poly.terms.items():
            factors = []
            for g, e in _mono_items(mono):
                i = gen_index.get(g)
                if i is None:
                    i = gen_index[g] = len(gen_index)
                j = power_index.get((i, e))
                if j is None:
                    j = power_index[(i, e)] = len(power_index)
                factors.append(j)
            terms.append((c / lead, tuple(factors)))
        self.gens = tuple(gen_index)
        self.powers = tuple(power_index)
        self.terms = terms

    def _powers(self, vals):
        return [vals[i] if e == 1 else _ipow(vals[i], e) for i, e in self.powers]

    def evaluate(self, point, cache):
        pw = self._powers([_eval_gen(g, point, cache) for g in self.gens])
        total = 0.0
        for v, factors in self.terms:
            for j in factors:
                v *= pw[j]
            total += v
        return total

    def abs_sum(self, point, cache):
        """Sum of the absolute values of the terms."""
        pw = self._powers([abs(_eval_gen(g, point, cache)) for g in self.gens])
        total = 0.0
        for v, factors in self.terms:
            v = abs(v)
            for j in factors:
                v *= pw[j]
            total += v
        return total


def _plan(e):
    """(numerator plan, denominator plan or None), built once per expression."""
    plan = e._plan
    if plan is None:
        den = None if e.is_polynomial else _PolyPlan(e.den, e.lead)
        plan = e._plan = (_PolyPlan(e.num, e.lead), den)
    return plan


def _eval_expr(e, point, cache):
    num_plan, den_plan = _plan(e)
    num = num_plan.evaluate(point, cache)
    if den_plan is None:
        return num
    den = den_plan.evaluate(point, cache)
    if den == 0.0:
        raise EvaluationError(
            "division by zero evaluating %s" % e,
            offender=str(_over(e.den, e.lead)),
            point=dict(point),
        )
    return num / den


def evaluate(e, point):
    """Binary-64 evaluation at a point (mapping of coordinate name to float).

    Raises :class:`EvaluationError` on division by zero or overflow and
    :class:`DomainError` for log outside its domain.  Hardware underflow
    of the flat atoms to exact 0.0 is accepted.
    """
    return _eval_expr(normalize(e), point, {})


def _scale_at(e, point, cache):
    """Magnitude scale of e at a point: term-wise absolute sum of the numerator
    over the absolute denominator.  Used for relative tolerances."""
    num_plan, den_plan = _plan(e)
    total = num_plan.abs_sum(point, cache)
    if den_plan is None:
        return total
    den = den_plan.evaluate(point, cache)
    if den == 0.0:
        raise EvaluationError("division by zero in scale", offender=str(e), point=dict(point))
    return total / abs(den)


# ---------------------------------------------------------------------------
# zero testing


@dataclass(frozen=True)
class ZeroTestConfig:
    """Sampling budget and tolerances for the numeric zero-test fallback."""

    sample_count: int = 32
    abs_tol: float = 1e-9
    rel_tol: float = 1e-9
    rng_seed: int = 20140917

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


def is_zero_on(e, region, cfg=None):
    """Tri-state zero test of ``e`` on a sampleable region.

    PROVED-ZERO when normalization reduces e to the zero expression;
    NONZERO with a witness point when a seeded sample clears the mixed
    absolute/relative tolerance; UNDECIDED otherwise.  ``region`` only
    needs a ``sample_point(seed, index)`` method.
    """
    e = normalize(e)
    if e.is_zero:
        return ZeroOutcome(ZeroStatus.PROVED_ZERO)
    if cfg is None:
        cfg = ZeroTestConfig()
    max_abs = 0.0
    skipped = 0
    for i in range(cfg.sample_count):
        point = region.sample_point(cfg.rng_seed, i)
        try:
            cache = {}
            v = _eval_expr(e, point, cache)
            scale = _scale_at(e, point, cache)
        except EvaluationError:
            skipped += 1
            continue
        threshold = cfg.abs_tol + cfg.rel_tol * scale
        if abs(v) > threshold:
            return ZeroOutcome(ZeroStatus.NONZERO, witness=dict(point), value=v)
        if abs(v) > max_abs:
            max_abs = abs(v)
    detail = "max |value| %.3e over %d samples" % (max_abs, cfg.sample_count - skipped)
    if skipped:
        detail += " (%d samples skipped: evaluation error)" % skipped
    return ZeroOutcome(ZeroStatus.UNDECIDED, detail=detail)


# ---------------------------------------------------------------------------
# rendering


def join_signed(bits):
    """Join rendered terms with " + ", folding a leading minus into " - "."""
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def _render_poly(p, lead, frac, gen, power, times, coeff_times):
    """Shared term loop of the text and LaTeX polynomial printers.

    Terms come in monomial key order with coefficients divided by
    ``lead``; ``frac`` renders a Fraction, ``gen`` a generator, ``power``
    is the format of gen^e, ``times`` joins the factors of a monomial and
    ``coeff_times`` joins a coefficient to its monomial.
    """
    if p.is_zero:
        return "0"
    rows = sorted(
        (tuple((g.skey, e) for g, e in items), items, c)
        for items, c in ((_mono_items(m), c) for m, c in p.terms.items())
    )
    bits = []
    for _, items, c in rows:
        c = Fraction(c, lead)
        ms = times.join(gen(g) if e == 1 else power % (gen(g), e) for g, e in items)
        if not ms:
            bits.append(frac(c))
        elif c == 1:
            bits.append(ms)
        elif c == -1:
            bits.append("-" + ms)
        else:
            bits.append(coeff_times % (frac(c), ms))
    return join_signed(bits)


def _frac_str(c):
    return str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)


def _gen_str(g):
    if isinstance(g, CoordGen):
        return g.name
    return "%s(%s)" % (g.kind, g.arg)


def _poly_str(p, lead=1):
    return _render_poly(p, lead, _frac_str, _gen_str, "%s^%d", "*", "%s*%s")


def _frac_latex(c):
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c.numerator < 0 else ""
    return r"%s\tfrac{%d}{%d}" % (sign, abs(c.numerator), c.denominator)


_ATOM_LATEX = {
    "exp": r"\exp",
    "log": r"\log",
    "psi0": r"\psi_0",
    "flatexp": r"\operatorname{flatexp}",
}


def _gen_latex(g):
    if isinstance(g, CoordGen):
        return g.name
    return r"%s\!\left(%s\right)" % (_ATOM_LATEX[g.kind], to_latex(g.arg))


def _poly_latex(p, lead=1):
    return _render_poly(p, lead, _frac_latex, _gen_latex, "%s^{%d}", r" \, ", r"%s \, %s")


def to_latex(e):
    """LaTeX rendering of a scalar expression."""
    e = normalize(e)
    num = _poly_latex(e.num, e.lead)
    if e.is_polynomial:
        return num
    return r"\frac{%s}{%s}" % (num, _poly_latex(e.den, e.lead))
