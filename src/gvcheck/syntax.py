"""Tokenizer and expression parser for the document format.

One grammar covers scalars and differential forms.  Identifiers resolve
against an environment of coordinates, named scalars, and named forms;
``dx`` is the differential of the coordinate x; ``d(...)`` is the
exterior derivative; ``exp/log/flatexp`` build scalar atoms, and
``psi0(u)`` is the quotient flatexp(u^2) / (1 + flatexp(u^2)).
Operator meaning depends on operand types: ``^`` is the integer power
on scalars, the wedge when a form is involved, and the form power when
a form meets an integer constant.  ``^`` binds tightest and associates
to the left; ``*`` and ``/`` come next, then ``+`` and ``-``.  Number
literals are exact: ``1/3`` stays a rational, ``0.3`` means 3/10.
"""
from __future__ import annotations

from decimal import Decimal, InvalidOperation
from fractions import Fraction

from .errors import GvError
from .forms import DiffForm, differential, ext_d, form_power, scalar_form, wedge
from .symbolic import ONE, const, exp, flatexp, log, psi0, sym

_SCALAR_FUNCTIONS = {"exp": exp, "log": log, "psi0": psi0, "flatexp": flatexp}
FUNCTIONS = (*_SCALAR_FUNCTIONS, "d")
RESERVED = set(FUNCTIONS) | {
    "on", "in", "at", "of", "for", "with", "expect", "anchors", "window",
    "zeroset", "balls", "complement", "center", "radius", "primitive",
    "weight", "tubular", "rank", "all", "saturated", "transverse", "gens",
    "nu", "leafdim", "via", "near", "alpha", "beta", "eps", "outer",
}


class ParseError(Exception):
    """Syntax or resolution failure at a column of one statement."""

    def __init__(self, message, col=None):
        super().__init__(message)
        self.message = message
        self.col = col


class Token:
    __slots__ = ("kind", "text", "col")

    def __init__(self, kind: str, text: str, col: int):
        self.kind = kind  # NUM IDENT OP END
        self.text = text
        self.col = col


_OPS = ("==", "->", "+", "-", "*", "/", "^", "(", ")", ",", ">", "<", "=", ";", ":")
_DIGITS = "0123456789"  # str.isdigit() also takes '²' and '٣'


def tokenize(text: str) -> list:
    """Split one statement into tokens; raises ParseError on junk."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    while k < n and text[k] in _DIGITS:
                        k += 1
                    j = k
            out.append(Token("NUM", text[i:j], col))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("IDENT", text[i:j], col))
            i = j
            continue
        for op in _OPS:
            if text.startswith(op, i):
                out.append(Token("OP", op, col))
                i += len(op)
                break
        else:
            raise ParseError("unexpected character %r" % c, col=col)
    out.append(Token("END", "", n + 1))
    return out


def parse_number(text: str) -> Fraction:
    """Exact value of a numeric literal (integer or decimal)."""
    try:
        return Fraction(Decimal(text))
    except InvalidOperation:
        raise ParseError("bad number literal %r" % text) from None


class Environment:
    """Name resolution for expressions."""

    __slots__ = ("coords", "scalars", "forms")

    def __init__(self, coords: tuple, scalars: dict, forms: dict):
        self.coords = coords
        self.scalars = scalars
        self.forms = forms

    def resolve(self, name: str, col: int):
        if name in self.coords:
            return sym(name)
        if len(name) > 1 and name[0] == "d" and name[1:] in self.coords:
            return differential(self.coords, name[1:])
        if name in self.scalars:
            return self.scalars[name]
        if name in self.forms:
            return self.forms[name]
        raise ParseError("unresolved reference %r" % name, col=col)


_BIN_POWER = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 40}
_UNARY_POWER = 30  # binds tighter than * but looser than ^, so -x^2 = -(x^2)


class ExprParser:
    """Token cursor with a Pratt parser for expressions, from a position.

    The statement parser of :mod:`gvcheck.specdoc` extends this cursor,
    so one position walks a whole statement.
    """

    def __init__(self, tokens, pos, env: Environment):
        self.tokens = tokens
        self.pos = pos
        self.env = env

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def at(self, text) -> bool:
        return self.peek().text == text

    def accept(self, text) -> bool:
        """Consume the next token when its text is ``text``."""
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expected(self, what):
        """Fail at the next token, which is not ``what``."""
        t = self.peek()
        raise ParseError("expected %s, found %r" % (what, t.text or "end"), col=t.col)

    def expect(self, text):
        if not self.accept(text):
            self.expected(repr(text))

    def parse(self, min_power=0):
        value = self._prefix()
        while True:
            t = self.peek()
            if t.kind != "OP" or t.text not in _BIN_POWER:
                return value
            power = _BIN_POWER[t.text]
            if power < min_power:
                return value
            self.advance()
            # left-associative: the right side must bind strictly tighter
            rhs = self.parse(power + 1)
            value = self._apply(t, value, rhs)

    def _prefix(self):
        t = self.advance()
        if t.kind == "NUM":
            return const(parse_number(t.text))
        if t.text == "(":
            inner = self.parse()
            self.expect(")")
            return inner
        if t.text == "-":
            return -self.parse(_UNARY_POWER)
        if t.text == "+":
            return self.parse(_UNARY_POWER)
        if t.kind == "IDENT":
            if t.text in FUNCTIONS and self.accept("("):
                arg = self.parse()
                self.expect(")")
                return self._call(t, arg)
            return self.env.resolve(t.text, t.col)
        raise ParseError("expected an expression, found %r" % (t.text or "end"), col=t.col)

    def _call(self, t: Token, arg):
        if t.text == "d":
            if isinstance(arg, DiffForm):
                return ext_d(arg)
            return ext_d(scalar_form(self.env.coords, arg))
        if isinstance(arg, DiffForm):
            raise ParseError("%s() needs a scalar argument" % t.text, col=t.col)
        return _SCALAR_FUNCTIONS[t.text](arg)

    def _apply(self, t: Token, a, b):
        fa, fb = isinstance(a, DiffForm), isinstance(b, DiffForm)
        op = t.text
        try:
            if op == "^":
                if fa and fb:
                    return wedge(a, b)
                if fa:
                    k = _int_exponent(b, t.col)
                    return form_power(a, k)
                if fb:
                    raise ParseError("cannot raise a scalar to a form", col=t.col)
                return a ** _int_exponent(b, t.col, negative_ok=True)
            if op == "*":
                if fa and fb:
                    raise ParseError(
                        "use ^ for the wedge of two forms", col=t.col
                    )
                if fa:
                    return a * b
                if fb:
                    return b * a
                return a * b
            if op == "/":
                if fb:
                    raise ParseError("cannot divide by a form", col=t.col)
                if fa:
                    return a * (ONE / b)
                return a / b
            if op == "+":
                _check_same_species(fa, fb, t.col)
                return a + b
            if op == "-":
                _check_same_species(fa, fb, t.col)
                return a - b
        except ParseError:
            raise
        except (ZeroDivisionError, ValueError, GvError) as exc:
            raise ParseError(str(exc), col=t.col) from None
        raise ParseError("unknown operator %r" % op, col=t.col)


def _check_same_species(fa, fb, col):
    if fa != fb:
        raise ParseError("cannot add a scalar and a form", col=col)


def _int_exponent(value, col, negative_ok=False):
    if isinstance(value, DiffForm):
        raise ParseError("exponent must be an integer constant", col=col)
    f = value.as_fraction()
    if f is None or f.denominator != 1:
        raise ParseError("exponent must be an integer constant", col=col)
    k = int(f)
    if k < 0 and not negative_ok:
        raise ParseError("exponent must be nonnegative here", col=col)
    return k


def parse_expression(tokens, pos, env: Environment):
    """Parse one expression; returns (value, next position)."""
    p = ExprParser(tokens, pos, env)
    value = p.parse()
    return value, p.pos
