"""Exact symbolic scalar fields over named coordinates.

A :class:`ScalarExpr` is kept in a canonical fraction ``num / den`` where
both sides are sparse polynomials over an extended generator set:
coordinate symbols plus interned transcendental atoms ``exp``, ``log``,
``psi0`` and ``flatexp``.  Every expression is built reduced, so
structural equality decides semantic equality on the rational fragment.

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
* Coefficients are Python ints.  A fraction is kept as a numerator, a
  positive integer ``scale`` and a factored denominator: a dict of
  factors with exponents, each factor a generator or a primitive
  polynomial.  Adding fractions takes the largest exponent of each
  factor (an lcm that needs no gcd); multiplying adds exponents; a
  derivative raises each factor's exponent by at most one.
* A fraction is canonical when its numerator shares no divisor with any
  factor or with ``scale``; every result is cancelled to that form when
  it is built (:func:`_make`).  A product cancels each numerator against
  the other operand's factors only, and :func:`add_all` cancels a sum of
  many terms once, not after each addition.  A modular screen proves
  most numerator-factor pairs coprime without a gcd; otherwise the
  factor is tried by exact division, and then the primitive gcd of
  Brown's PRS (J. ACM 1971) splits it.  Atoms stay independent
  indeterminates, so equal rational functions over them get equal forms.
  Keys, rendering and evaluation read the denominator multiplied out,
  and every coefficient divided by its leading coefficient ``lead``,
  where "leading" means the largest monomial in :func:`_mono_key` order.
* ``key`` (sorted ``(_mono_key, (p, q))`` pairs of those rational
  coefficients) is computed on first use and cached; equality compares
  the integer term dicts, which is equivalent for canonical fractions.
* Evaluation runs a plan built on first use and cached on the
  expression: float coefficients, generator powers and terms in the
  order the term dicts hold them.  One pass over a plan gives both the
  value and the sum of absolute term values (the magnitude that scales
  relative tolerances); the pair is kept in the sample point's cache, so
  each polynomial is evaluated at most once per point.
* Rendering prints terms in monomial key order.  An interned atom is
  immutable, so it keeps its text ``kind(arg)`` and its LaTeX after the
  first render, and an argument tree is rendered once however many
  terms, powers or enclosing atoms repeat the atom.

The two flat atoms are first class and are never expanded into
exp-of-quotient trees, so their flatness at the boundary is exact by
construction:

* ``flatexp(u)`` is exp(-1/u) for u > 0 and 0 for u <= 0, with the
  derivative rewrite d flatexp(u) = flatexp(u)/u^2 * du.
* ``psi0(t)`` is exp(-1/t^2) / (1 + exp(-1/t^2)) for t != 0 and 0 at
  t = 0, with d psi0(t) = 2 psi0(t) (1 - psi0(t)) / t^3 * dt.  Its values
  lie in [0, 1/2].

Zero testing is a semi-decision: PASS comes only from exact
normalization, FAIL only from a numeric witness that clears the
configured tolerances at a sampled point, and everything else stays
UNDECIDED.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, EvaluationError
from .verdicts import Outcome, Verdict

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

_PRIME = (1 << 31) - 1  # the modulus of the coprimality screen
_GENS: list = []  # field index -> generator
_GUARD = 0  # the top bit of every allocated field
_HIGH = 0  # the top two bits of every allocated field


def _new_field(gen):
    """Give ``gen`` the next exponent field: sets ``gen.unit``, the monomial
    gen^1, and ``gen.ev``, its value in the coprimality screen of :func:`_common`."""
    global _GUARD, _HIGH
    off = len(_GENS) * FIELD_BITS
    gen.ev = mix_seed(_PRIME, len(_GENS)) % _PRIME
    _GENS.append(gen)
    _GUARD |= 1 << (off + FIELD_BITS - 1)
    _HIGH |= 3 << (off + FIELD_BITS - 2)
    gen.unit = 1 << off


class CoordGen:
    __slots__ = ("name", "skey", "_h", "unit", "ev")

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
    """A transcendental atom applied to a canonical argument expression.

    Atoms are interned and immutable, so each keeps its text and LaTeX
    renderings after the first (see ``__repr__`` and :func:`_gen_latex`).
    """

    __slots__ = ("kind", "arg", "skey", "_h", "unit", "ev", "_text", "_latex")

    def __init__(self, kind, arg):
        self.kind = kind
        self.arg = arg
        self.skey = (1, _KIND_INDEX[kind], arg.key)
        self._h = hash(self.skey)
        self._text = self._latex = None

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        return self is other or (isinstance(other, AtomGen) and other.skey == self.skey)

    def __repr__(self):
        text = self._text
        if text is None:
            text = self._text = "%s(%s)" % (self.kind, self.arg)
        return text


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


def _too_large(e, base):
    """The error for an exponent of a generator or factor beyond MAX_EXPONENT."""
    return OverflowError(
        "exponent %d of %s exceeds %d, the largest a monomial field holds" % (e, base, MAX_EXPONENT)
    )


class Poly:
    """Sparse multivariate polynomial: packed monomial -> nonzero int coefficient.

    Equal term dicts make equal polynomials, so a denominator factor is
    found again in a dict of factors however it was built.
    """

    __slots__ = ("terms", "_support", "_h")

    def __init__(self, terms):
        self.terms = terms
        self._support = None
        self._h = None

    def __eq__(self, other):
        return self.terms == other.terms

    def __hash__(self):
        h = self._h
        if h is None:
            h = self._h = hash(frozenset(self.terms.items()))
        return h

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
                    raise next(_too_large(e, g) for g, e in _mono_items(m) if e > MAX_EXPONENT)
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


def _primitive(poly):
    """(c, poly / c) for the integer content c of ``poly``, signed so that the
    quotient's largest packed monomial has a positive coefficient."""
    c = math.gcd(*poly.terms.values())
    if poly.terms[max(poly.terms)] < 0:
        c = -c
    return c, poly if c == 1 else Poly({m: v // c for m, v in poly.terms.items()})


def _split(poly):
    """``poly`` as c * prod f^e: (integer c, {f: e}), each f a generator or a
    primitive polynomial without monomial content."""
    factors = {}
    content = _content(poly)
    if content:
        poly = Poly({m - content: c for m, c in poly.terms.items()})
        for g, e in _mono_items(content):
            factors[_poly_gen(g)] = e
    c, poly = _primitive(poly)
    if not _is_const(poly):
        factors[poly] = 1
    return c, factors


def _poly_key(poly, lead):
    """Sorted (monomial key, (p, q)) pairs of the coefficients divided by ``lead``."""
    sign = 1 if lead > 0 else -1
    out = []
    for mono, c in poly.terms.items():
        g = math.gcd(c, lead) * sign
        out.append((_mono_key(mono), (c // g, lead // g)))
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# exact division and gcds of polynomials


def _degree(poly, off):
    """Degree of ``poly`` in the generator whose field starts at bit ``off``."""
    return max((m >> off) & _FIELD_MASK for m in poly.terms)


def _divide(a, b):
    """a / b when b divides a exactly, else None.

    Leading terms are the largest packed monomials (a monomial order); the
    quotient's terms are put in :func:`_mono_key` order, so that it does
    not depend on the exponent-field layout.
    """
    rest = dict(a.terms)
    tail = dict(b.terms)
    lead = max(tail)
    lc = tail.pop(lead)
    quotient = []
    while rest:
        m = max(rest)
        c = rest.pop(m)
        if ((m | _GUARD) - lead) & _GUARD != _GUARD or c % lc:
            return None
        m -= lead
        c //= lc
        quotient.append((_mono_key(m), m, c))
        for mb, cb in tail.items():
            k = m + mb
            if k & _GUARD:  # beyond a's degrees: no exact quotient reaches it
                return None
            s = rest.pop(k, 0) - c * cb
            if s:
                rest[k] = s
    quotient.sort()
    return Poly({m: c for _, m, c in quotient})


def _coeffs(poly, off):
    """{k: coefficient of gen^k} for the generator whose field starts at bit ``off``."""
    out = {}
    for m, c in poly.terms.items():
        k = (m >> off) & _FIELD_MASK
        out.setdefault(k, {})[m - (k << off)] = c
    return {k: Poly(t) for k, t in out.items()}


def _content_in(poly, off):
    """(content of ``poly`` in one generator, the primitive part), both primitive."""
    content = None
    for c in _coeffs(poly, off).values():
        content = _primitive(c)[1] if content is None else _gcd(content, c)
        if _is_const(content):
            return _P_ONE, _primitive(poly)[1]
    return content, _primitive(_divide(poly, content))[1]


def _shared_gen(a, b):
    """Bit offset of the first generator, in ``a``'s order, that both
    polynomials contain, or None: then their gcd is a constant."""
    shared = b.support()
    for g, _ in _mono_items(a.support()):
        off = g.unit.bit_length() - 1
        if shared >> off & _FIELD_MASK:
            return off
    return None


def _gcd(a, b):
    """Primitive gcd of two nonzero polynomials: Brown's primitive PRS
    (J. ACM 1971), recursive in the generators by name."""
    off = _shared_gen(a, b)
    if off is None:
        return _P_ONE
    ca, a = _content_in(a, off)
    cb, b = _content_in(b, off)
    if _degree(a, off) < _degree(b, off):
        a, b = b, a
    while _degree(b, off):
        db = _degree(b, off)
        lb = _coeffs(b, off)[db]
        while a.terms and _degree(a, off) >= db:  # pseudo-remainder
            da = _degree(a, off)
            a = a.mul(lb).add(_coeffs(a, off)[da].mul(b).mul(Poly({(da - db) << off: -1})))
        if not a.terms:
            break
        a, b = b, _content_in(a, off)[1]
    return _primitive(_gcd(ca, cb).mul(b))[1]


def _image(poly, off):
    """``poly`` mod _PRIME with every generator but one at its screen value:
    the coefficients of gen^0, gen^1, ... for the generator at bit ``off``."""
    out = [0] * (_degree(poly, off) + 1)
    for mono, c in poly.terms.items():
        k = (mono >> off) & _FIELD_MASK
        mono -= k << off
        while mono:
            i = (mono.bit_length() - 1) // FIELD_BITS
            e = mono >> i * FIELD_BITS
            c = c * pow(_GENS[i].ev, e, _PRIME) % _PRIME
            mono -= e << i * FIELD_BITS
        out[k] = (out[k] + c) % _PRIME
    return out


def _gcd_degree(a, b):
    """Degree of the gcd mod _PRIME of two images, ``b``'s top coefficient
    nonzero; both lists are used up."""
    while b:
        n = len(b) - 1
        inv = pow(b[n], -1, _PRIME)
        while len(a) > n:
            q = a.pop() * inv % _PRIME
            k = len(a) - n
            for i in range(n):
                a[k + i] = (a[k + i] - q * b[i]) % _PRIME
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1


def _common(num, f):
    """(g, num / g) for the primitive gcd g of ``num`` and the factor ``f``,
    or None when they are coprime.

    Polynomials with no generator in common are coprime.  The screen is
    a proof: when f's coefficient of some power of one
    generator is an integer, f (primitive over the integers) is primitive
    in that generator, and if the images of num and f (other generators
    at their screen values, f keeping its degree) are coprime mod _PRIME,
    any common factor is free of that generator and so divides f's
    content, 1.  Otherwise f itself is tried by exact division, and then
    the gcd is computed.
    """
    if _shared_gen(f, num) is None:
        return None
    for g, _ in _mono_items(f.support()):
        off = g.unit.bit_length() - 1
        if any(_is_const(c) for c in _coeffs(f, off).values()):
            fi = _image(f, off)
            deg = len(fi) - 1
            if fi[deg]:
                d = _gcd_degree(_image(num, off), fi)
                if d == 0:
                    return None
                q = _divide(num, f) if d == deg else None
                if q is not None:
                    return f, q
            break
    g = _gcd(num, f)
    return None if _is_const(g) else (g, _divide(num, g))


def _cancel(num, factors, todo):
    """Divide ``num`` by what it shares with each factor in the list ``todo``.

    ``factors`` ({f: e}) is updated in place: a factor f that shares only
    a proper divisor g with ``num`` is split into g and f / g.  Returns the
    reduced numerator.
    """
    while todo:
        f = todo.pop()
        e = factors.get(f)
        if not e:
            continue
        if len(f.terms) == 1:  # a generator: cancel all its power in num's monomial content at once
            (unit,) = f.terms
            k = min(e, _content(num) // unit & _FIELD_MASK)
            if k:
                num = Poly({m - k * unit: c for m, c in num.terms.items()})
                factors[f] = e - k
            continue
        found = _common(num, f)
        if found is None:
            continue
        g, num = found
        del factors[f]
        if g != f:  # f^e = g^e (f/g)^e
            h = _divide(f, g)
            factors[h] = factors.get(h, 0) + e
            todo.append(h)
        factors[g] = factors.get(g, 0) + e - 1
        todo.append(g)
    return num


# ---------------------------------------------------------------------------
# canonical scalar expressions


_NO_FACTORS: dict = {}  # the denominator factors of a polynomial; never mutated


class ScalarExpr:
    """Immutable rational function num / (scale * prod f^e for f, e in dens).

    ``num`` has integer coefficients, ``scale`` is a positive integer and
    each factor f is a generator or a primitive polynomial whose largest
    packed monomial has a positive coefficient.  ``num`` shares no divisor
    with any factor or with ``scale`` (see :func:`_make`).  Use the module
    constructors (:func:`sym`, :func:`rat`, :func:`exp`, ...) and the
    arithmetic operators.
    """

    __slots__ = ("num", "_dens", "_scale", "_den", "_lead", "_key", "_h", "_plan")

    def __init__(self, num, dens=_NO_FACTORS, scale=1):
        self.num = num
        self._dens = dens
        self._scale = scale
        self._den = self._lead = self._key = self._h = self._plan = None

    @property
    def den(self):
        """The denominator multiplied out, factors in ``dens`` order."""
        d = self._den
        if d is None:
            d = Poly({0: self._scale})
            for f, e in self._dens.items():
                d = d.mul(f.pow(e))
            self._den = d
        return d

    @property
    def lead(self):
        """The leading coefficient of :attr:`den` in :func:`_mono_key` order.

        Keys, rendering and evaluation read every coefficient divided by
        it, which makes the leading denominator coefficient 1.
        """
        lead = self._lead
        if lead is None:
            dt = self.den.terms
            lead = self._lead = dt[max(dt, key=_mono_key)]
        return lead

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
        return isinstance(other, ScalarExpr) and other.num == self.num and other.den == self.den

    @property
    def is_zero(self):
        return not self.num.terms

    @property
    def is_one(self):
        return self.num == _P_ONE and self.den == _P_ONE

    @property
    def is_polynomial(self):
        """True when the denominator is a constant."""
        return not self._dens

    def as_fraction(self):
        """Exact rational value, or None if the expression is not constant."""
        if self._dens:
            return None
        if not self.num.terms:
            return Fraction(0)
        if _is_const(self.num):
            return Fraction(self.num.terms[0], self._scale)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return add_all((self, other))

    __radd__ = __add__

    def __neg__(self):
        return ScalarExpr(self.num.neg(), self._dens, self._scale)

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
        if self.is_zero or other.is_zero:
            return ZERO
        dens = dict(self._dens)
        for f, e in other._dens.items():
            dens[f] = dens.get(f, 0) + e
        # each numerator is already coprime to its own factors
        a = _cancel(self.num, dens, [f for f in other._dens if f not in self._dens])
        b = _cancel(other.num, dens, [f for f in self._dens if f not in other._dens])
        return _make(a.mul(b), dens, self._scale * other._scale, ())

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("denominator normalizes to the zero polynomial")
        # 1 / other is canonical as it stands: its parts share no factor
        c, dens = _split(other.num)
        return self * ScalarExpr(other.den if c > 0 else other.den.neg(), dens, abs(c))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero expression raised to a negative power")
            return (ONE / self) ** -k
        if k == 0:
            return ONE
        # powers of coprime parts stay coprime
        return _make(self.num.pow(k), {f: n * k for f, n in self._dens.items()}, self._scale ** k, ())

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


def _lift(e, dens, scale):
    """The numerator of ``e`` over the denominator scale * prod f^k for f, k in dens."""
    num = e.num
    if scale != e._scale:
        num = num.mul(Poly({0: scale // e._scale}))
    for f, k in dens.items():
        k -= e._dens.get(f, 0)
        if k:
            num = num.mul(f.pow(k))
    return num


def add_all(terms):
    """The sum of a sequence of expressions over the lcm of their
    denominators (the largest exponent of each factor), cancelled once
    rather than after each addition.  A lone term, canonical already,
    comes back as it is."""
    if len(terms) == 1:
        return terms[0]
    dens = {}
    scale = 1
    for t in terms:
        for f, e in t._dens.items():
            if dens.get(f, 0) < e:
                dens[f] = e
        scale = math.lcm(scale, t._scale)
    out = {}
    get = out.get
    for t in terms:
        for m, c in _lift(t, dens, scale).terms.items():
            out[m] = get(m, 0) + c
    return _make(Poly({m: c for m, c in out.items() if c}), dens, scale)


def _make(num, dens, scale, todo=None):
    """The canonical fraction num / (scale * prod f^e for f, e in dens).

    ``num`` is divided by what it shares with ``scale`` and with each
    factor in ``todo`` (all of ``dens`` by default), splitting a factor
    that shares only a proper divisor; ``dens`` is updated in place.
    """
    if not num.terms:
        return ZERO
    if dens:
        for f, e in dens.items():
            if e > MAX_EXPONENT:
                raise _too_large(e, _poly_str(f))
        num = _cancel(num, dens, list(dens if todo is None else todo))
        if 0 in dens.values():
            dens = {f: e for f, e in dens.items() if e}
    if scale != 1:
        g = math.gcd(scale, *num.terms.values())
        if g != 1:
            num = Poly({m: c // g for m, c in num.terms.items()})
            scale //= g
    return ScalarExpr(num, dens, scale)


ZERO = ScalarExpr(_P_ZERO)
ONE = ScalarExpr(_P_ONE)


# ---------------------------------------------------------------------------
# constructors


def sym(name):
    """The coordinate symbol ``name``."""
    return ScalarExpr(_poly_gen(_coord_gen(name)))


def rat(p, q=1):
    """Exact rational constant p/q."""
    return const(Fraction(p, q))


def const(value):
    """Exact constant from an int or Fraction."""
    f = Fraction(value)
    if not f:
        return ZERO
    return ScalarExpr(Poly({0: f.numerator}), _NO_FACTORS, f.denominator)


def _atom_expr(kind, arg):
    return ScalarExpr(_poly_gen(_atom_gen(kind, arg)))


def exp(u):
    """Atom exp(u).  exp(0) folds to 1."""
    u = normalize(u)
    if u.is_zero:
        return ONE
    return _atom_expr("exp", u)


def log(u):
    """Atom log(u).  log(1) folds to 0.  Evaluation requires u > 0."""
    u = normalize(u)
    if u.is_one:
        return ZERO
    return _atom_expr("log", u)


def psi0(u):
    """Flat sigmoid atom: exp(-1/u^2)/(1+exp(-1/u^2)) for u != 0, else 0.

    Smooth on all of R, flat at u = 0, with values in [0, 1/2].
    psi0(0) folds to the zero expression.
    """
    u = normalize(u)
    if u.is_zero:
        return ZERO
    return _atom_expr("psi0", u)


def flatexp(u):
    """Flat exponential atom: exp(-1/u) for u > 0, identically 0 for u <= 0.

    A nonpositive constant argument folds to the zero expression.
    """
    u = normalize(u)
    c = u.as_fraction()
    if c is not None and c <= 0:
        return ZERO
    return _atom_expr("flatexp", u)


# ---------------------------------------------------------------------------
# normalization and calculus


def normalize(e):
    """Return the canonical form of ``e``.

    Every :class:`ScalarExpr` is built canonical, so this is the identity
    on them; it exists as the explicit entry point and coerces plain
    numbers.
    """
    c = _coerce(e)
    if c is NotImplemented:
        raise TypeError("cannot normalize %r" % (e,))
    return c


def _atom_derivative(gen):
    """d atom / d arg, expressed with the atom itself and rational factors."""
    u = gen.arg
    a = ScalarExpr(_poly_gen(gen))
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
    """d(poly / d) / d name for a positive integer d, by the chain rule:
    the sum of d poly / d g * dg / d name over the generators g."""
    parts = {}  # generator -> terms of d poly / d generator
    dgens = {}
    for mono, c in poly.terms.items():
        for g, e in _mono_items(mono):
            dgen = dgens.get(g)
            if dgen is None:
                if isinstance(g, CoordGen):
                    dgen = ONE if g.name == name else ZERO
                else:
                    darg = partial(g.arg, name)
                    dgen = darg if darg.is_zero else _atom_derivative(g) * darg
                dgens[g] = dgen
            if not dgen.is_zero:
                parts.setdefault(g, {})[mono - g.unit] = c * e
    return add_all([_make(Poly(t), _NO_FACTORS, d) * dgens[g] for g, t in parts.items()])


def partial(e, name):
    """Exact partial derivative of ``e`` with respect to coordinate ``name``."""
    e = normalize(e)
    if e.is_polynomial:
        return _poly_partial(e.num, name, e._scale)
    # d(N / (s prod f^k)) = dN / (s prod f^k) - (N / (s prod f^k)) sum k df / f,
    # so each factor's exponent grows by at most one
    terms = [_poly_partial(e.num, name) * ScalarExpr(_P_ONE, e._dens, e._scale)]
    for f, k in e._dens.items():
        df = _poly_partial(f, name)
        if not df.is_zero:
            terms.append(-e * df * ScalarExpr(Poly({0: k}), {f: 1}))
    return add_all(terms)


def free_coords(e):
    """Names of the coordinates the expression actually depends on."""
    out = set()

    def walk(x):
        for poly in (x.num, *x._dens):
            for g, _ in _mono_items(poly.support()):
                if isinstance(g, CoordGen):
                    out.add(g.name)
                else:
                    walk(g.arg)

    walk(e)
    return frozenset(out)


def substitute(e, mapping):
    """Substitute expressions for coordinate symbols (exact composition).

    ``mapping`` maps coordinate names to ScalarExpr (or numbers);
    unmentioned coordinates stay themselves.
    """
    e = normalize(e)
    table = {k: normalize(v) for k, v in mapping.items()}
    powers = {}  # (generator, exponent) -> image ** exponent, each built once

    def power(g, k):
        p = powers.get((g, k))
        if p is None:
            base = powers.get((g, 1))
            if base is None:
                if isinstance(g, CoordGen):
                    base = table.get(g.name)
                    if base is None:
                        base = ScalarExpr(_poly_gen(g))
                else:
                    base = _atom_expr(g.kind, sub_expr(g.arg))
                powers[(g, 1)] = base
            p = powers[(g, k)] = base if k == 1 else base**k
        return p

    def sub_poly(p):
        terms = []
        for mono, c in p.terms.items():
            term = const(c)
            for g, k in _mono_items(mono):
                term = term * power(g, k)
            terms.append(term)
        return add_all(terms)

    def sub_expr(x):
        out = sub_poly(x.num) / x._scale
        for f, k in x._dens.items():
            out = out / sub_poly(f) ** k
        return out

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
                # u * u underflows to 0.0 for |u| below about 1e-162, where
                # exp(-1/u^2) rounds to 0.0 anyway
                uu = u * u
                if uu == 0.0:
                    v = 0.0
                else:
                    g = math.exp(-1.0 / uu)
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
    factors in generator order and the terms in dict order.  A
    coefficient beyond the float range raises :class:`EvaluationError`,
    as any evaluation overflow does.
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
            try:
                coeff = c / lead
            except OverflowError:
                term = _poly_str(Poly({mono: 1}))
                raise EvaluationError(
                    "coefficient of %s (about 1e%d) is beyond the float range"
                    % (term, len(str(abs(c) // abs(lead))) - 1),
                    offender=term,
                )
            terms.append((coeff, tuple(factors)))
        self.gens = tuple(gen_index)
        self.powers = tuple(power_index)
        self.terms = terms

    def evaluate(self, point, cache):
        """(value, sum of the absolute term values), computed once per ``cache``."""
        pair = cache.get(self)
        if pair is None:
            vals = [_eval_gen(g, point, cache) for g in self.gens]
            pw = [vals[i] if e == 1 else _ipow(vals[i], e) for i, e in self.powers]
            total = magnitude = 0.0
            for v, factors in self.terms:
                for j in factors:
                    v *= pw[j]
                total += v
                magnitude += abs(v)
            pair = cache[self] = (total, magnitude)
        return pair


def _plan(e):
    """(numerator plan, denominator plan or None), built once per expression."""
    plan = e._plan
    if plan is None:
        den = None if e.is_polynomial else _PolyPlan(e.den, e.lead)
        plan = e._plan = (_PolyPlan(e.num, e.lead), den)
    return plan


def _eval_expr(e, point, cache):
    num_plan, den_plan = _plan(e)
    num = num_plan.evaluate(point, cache)[0]
    if den_plan is None:
        return num
    den = den_plan.evaluate(point, cache)[0]
    if den == 0.0:
        raise EvaluationError(
            "division by zero evaluating %s" % e,
            offender=_poly_str(e.den, e.lead),
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
    total = num_plan.evaluate(point, cache)[1]
    if den_plan is None:
        return total
    den = den_plan.evaluate(point, cache)[0]
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

    def points(self, region):
        """The seeded sample points of ``region``, ``region.sample_point(rng_seed, i)``
        for i = 0 .. sample_count - 1, each drawn only when it is asked for,
        so a search that stops at its first witness draws no further point."""
        for i in range(self.sample_count):
            yield region.sample_point(self.rng_seed, i)


def is_zero_on(e, region, cfg=None):
    """Tri-state zero test of ``e`` on a sampleable region.

    PASS when normalization reduces e to the zero expression; FAIL
    with a witness point when a seeded sample clears the mixed
    absolute/relative tolerance; UNDECIDED otherwise.  ``region`` only
    needs a ``sample_point(seed, index)`` method.
    """
    e = normalize(e)
    if e.is_zero:
        return Outcome(Verdict.PASS)
    if cfg is None:
        cfg = ZeroTestConfig()
    max_abs = 0.0
    skipped = 0
    for point in cfg.points(region):
        try:
            cache = {}
            v = _eval_expr(e, point, cache)
            scale = _scale_at(e, point, cache)
        except EvaluationError:
            skipped += 1
            continue
        threshold = cfg.abs_tol + cfg.rel_tol * scale
        if abs(v) > threshold:
            return Outcome(Verdict.FAIL, witness=dict(point), value=v)
        if abs(v) > max_abs:
            max_abs = abs(v)
    detail = "max |value| %.3e over %d samples" % (max_abs, cfg.sample_count - skipped)
    if skipped:
        detail += " (%d samples skipped: evaluation error)" % skipped
    return Outcome(Verdict.UNDECIDED, detail=detail)


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
    if not p.terms:
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


def _poly_str(p, lead=1):
    # a generator's repr is its text: the name, or the atom's cached kind(arg)
    return _render_poly(p, lead, _frac_str, repr, "%s^%d", "*", "%s*%s")


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
    latex = g._latex
    if latex is None:
        latex = g._latex = r"%s\!\left(%s\right)" % (_ATOM_LATEX[g.kind], to_latex(g.arg))
    return latex


def _poly_latex(p, lead=1):
    return _render_poly(p, lead, _frac_latex, _gen_latex, "%s^{%d}", r" \, ", r"%s \, %s")


def to_latex(e):
    """LaTeX rendering of a scalar expression."""
    e = normalize(e)
    num = _poly_latex(e.num, e.lead)
    if e.is_polynomial:
        return num
    return r"\frac{%s}{%s}" % (num, _poly_latex(e.den, e.lead))
