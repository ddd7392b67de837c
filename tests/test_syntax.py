"""Expression tokenizer and Pratt parser."""
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gvcheck import (
    Environment,
    ParseError,
    basis_form,
    differential,
    exp,
    ext_d,
    flatexp,
    form_power,
    parse_expression,
    rat,
    scalar_form,
    sym,
    tokenize,
)
from gvcheck.cli import main
from gvcheck.syntax import Token, parse_number
from conftest import XYZ

x, y, z = sym("x"), sym("y"), sym("z")

ENV = Environment(XYZ, {}, {})


def parse(text, env=ENV):
    toks = tokenize(text)
    value, pos = parse_expression(toks, 0, env)
    return value, toks[pos]


def expr(text, env=ENV):
    value, nxt = parse(text, env)
    assert nxt.kind == "END", "unparsed trailing input at %r" % nxt.text
    return value


# ---------------------------------------------------------------------------
# tokenizer


def test_tokenize_kinds_and_columns():
    toks = tokenize("x + 12*foo")
    assert [(t.kind, t.text) for t in toks] == [
        ("IDENT", "x"),
        ("OP", "+"),
        ("NUM", "12"),
        ("OP", "*"),
        ("IDENT", "foo"),
        ("END", ""),
    ]
    assert [t.col for t in toks] == [1, 3, 5, 7, 8, 11]


def test_tokenize_comments_and_junk():
    assert [t.kind for t in tokenize("x # trailing words")] == ["IDENT", "END"]
    with pytest.raises(ParseError) as err:
        tokenize("x + $")
    assert err.value.col == 5


def test_tokenize_scientific_notation():
    assert [t.text for t in tokenize("1e-9")[:-1]] == ["1e-9"]
    assert [t.text for t in tokenize("2.5E+10")[:-1]] == ["2.5E+10"]
    # a bare trailing 'e' is not part of the number
    assert [(t.kind, t.text) for t in tokenize("2e")[:-1]] == [("NUM", "2"), ("IDENT", "e")]
    assert [t.text for t in tokenize("3e-")[:-1]] == ["3", "e", "-"]


@pytest.mark.parametrize("statement, col", [
    ("check zero x - \u0663 on R", 16),  # ARABIC-INDIC DIGIT THREE: isdigit(), int() reads 3
    ("check zero \u00b2 on R", 12),  # SUPERSCRIPT TWO: isdigit(), but no decimal digit
])
def test_number_literals_take_ascii_digits_only(tmp_path, capsys, statement, col):
    with pytest.raises(ParseError) as err:
        tokenize(statement)
    assert err.value.col == col
    doc = tmp_path / "digits.fol"
    doc.write_text("chart x\nregion R = all\n%s\n" % statement, encoding="utf-8")
    with pytest.raises(SystemExit) as exit_:
        main(["check", str(doc)])
    assert exit_.value.code == 5
    assert capsys.readouterr().err == "%s: line 3, col %d: unexpected character %r\n" % (doc, col, statement[col - 1])


_OPS = ("==", "->", "+", "-", "*", "/", "^", "(", ")", ",", ">", "<", "=", ";", ":")
_DIGITS = "0123456789"  # str.isdigit() also takes '²' and '٣'


def reference_tokenize(text):
    """The character scanner that the master pattern replaced, kept as the reference."""
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


def scanned(scan, text):
    """``scan``'s (kind, text, col) triples for ``text``, or its error's (message, col)."""
    try:
        return [(t.kind, t.text, t.col) for t in scan(text)]
    except ParseError as exc:
        return exc.message, exc.col


_ALPHABET = (
    string.ascii_letters + string.digits + ".eE" + "".join(sorted(set("".join(_OPS))))
    + " \t\n#_\u00b2\u0663\u00bd\u00b5\u00e9$"
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.text(st.sampled_from(_ALPHABET), max_size=24))
def test_tokenize_matches_the_reference_scanner(text):
    assert scanned(tokenize, text) == scanned(reference_tokenize, text)


@pytest.mark.parametrize("text", ["1.2.3", "1.e5", ".5e", "..5", "x\u00b2", "\u00b2x", "1\u0663", "\u00bd", "\u00b5s",
                                  "\u00e9=1", "a==b->c", "3e-", "_1 # 2\n$", "x\t\n$"])
def test_tokenize_matches_the_reference_scanner_on_edges(text):
    assert scanned(tokenize, text) == scanned(reference_tokenize, text)


def test_parse_number_is_exact():
    assert parse_number("0.1") == Fraction(1, 10)
    assert parse_number("1e-9") == Fraction(1, 10 ** 9)
    assert parse_number("2.5e2") == 250
    assert parse_number("007") == 7


# ---------------------------------------------------------------------------
# scalar grammar


def test_precedence_power_beats_unary_minus():
    assert (expr("-x^2") + x * x).is_zero
    assert (expr("(-x)^2") - x * x).is_zero


def test_power_is_left_associative():
    assert (expr("x^2^3") - x ** 6).is_zero


def test_product_and_sum_precedence():
    assert (expr("1 - 2 - 3") + 4).is_zero
    assert (expr("2*x + 3*y") - (2 * x + 3 * y)).is_zero
    assert (expr("1/2*x") - x / 2).is_zero
    assert (expr("x/2/2") - x / 4).is_zero


def test_negative_exponents_on_scalars():
    assert (expr("x^-1") - 1 / x).is_zero
    assert (expr("2^-2") - rat(1, 4)).is_zero


def test_function_calls():
    assert (expr("exp(x*y)") - exp(x * y)).is_zero
    assert (expr("flatexp(-x)") - flatexp(-x)).is_zero
    d = expr("d(x^2*y)")
    assert d == ext_d(scalar_form(XYZ, x * x * y))


def test_exact_rational_literals():
    assert (expr("0.125") - rat(1, 8)).is_zero
    assert (expr("1e-9") - rat(1, 10 ** 9)).is_zero


# ---------------------------------------------------------------------------
# form grammar


def test_differentials_resolve_by_name():
    assert expr("dx") == differential(XYZ, "x")
    assert expr("-dz") == -differential(XYZ, "z")


def test_wedge_and_form_powers():
    assert expr("dx^dy") == basis_form(XYZ, ("x", "y"))
    assert expr("dx^dy^dz") == basis_form(XYZ, ("x", "y", "z"))
    w = expr("(dx^dy + dy^dz)^2")
    assert w == form_power(basis_form(XYZ, ("x", "y")) + basis_form(XYZ, ("y", "z")), 2)
    assert expr("dx^2").is_zero  # a 1-form squared


def test_scalar_form_mixing():
    assert expr("x*dy") == differential(XYZ, "y") * x
    assert expr("dy*x") == differential(XYZ, "y") * x
    assert expr("dy/2") == differential(XYZ, "y") * rat(1, 2)
    got = expr("dy - y*dx")
    assert got == differential(XYZ, "y") - differential(XYZ, "x") * y


def test_form_operator_misuse_is_reported():
    with pytest.raises(ParseError):
        expr("dx * dy")  # wedge must be spelled ^
    with pytest.raises(ParseError):
        expr("x + dx")
    with pytest.raises(ParseError):
        expr("2 / dx")
    with pytest.raises(ParseError):
        expr("2 ^ dx")
    with pytest.raises(ParseError):
        expr("dx ^ x")  # form power needs an integer constant
    with pytest.raises(ParseError):
        expr("x^(1/2)")
    with pytest.raises(ParseError):
        expr("exp(dx)")


def test_degree_mismatch_is_a_located_parse_error():
    # engine degree errors must surface as ParseError, not crash the parser
    with pytest.raises(ParseError) as err:
        expr("dy + dz^dx", Environment(("x", "y", "z"), {}, {}))
    assert "cannot add a 1-form and a 2-form" in err.value.message
    assert err.value.col == 4


def test_environment_lookup_and_shadowing():
    env = Environment(XYZ, {"h": 1 + x * x}, {"w": differential(XYZ, "y") * 3})
    assert (expr("h^2", env) - (1 + x * x) ** 2).is_zero
    assert expr("d(w)", env) == ext_d(differential(XYZ, "y") * 3)
    assert expr("x*w", env) == differential(XYZ, "y") * (3 * x)


def test_unresolved_names_carry_columns():
    with pytest.raises(ParseError) as err:
        expr("x + mystery")
    assert err.value.col == 5
    assert "mystery" in err.value.message


def test_division_by_zero_becomes_parse_error():
    with pytest.raises(ParseError):
        expr("x/(2-2)")
    with pytest.raises(ParseError):
        expr("(x-x)^-1")


def test_expressions_stop_before_keywords():
    value, nxt = parse("y - y*x on U")
    assert (value - (y - y * x)).is_zero
    assert nxt.kind == "IDENT" and nxt.text == "on"
    # no implicit multiplication: adjacent idents split the expression
    value2, nxt2 = parse("2*x foo")
    assert nxt2.text == "foo"


def test_reserved_function_names_need_parens():
    with pytest.raises(ParseError) as err:
        expr("exp x")
    assert "exp" in err.value.message


def test_incomplete_expressions():
    with pytest.raises(ParseError):
        expr("x +")
    with pytest.raises(ParseError):
        expr("(x + 1")
    with pytest.raises(ParseError):
        expr("* x")
