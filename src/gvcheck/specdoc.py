"""Line-oriented document format for batch verification runs.

A document declares a chart, sampling boxes, run configuration, named
objects (scalars, forms, maps, regions, foliations, families, witness
1-forms, closed sets, bumps, test functions, collars), and a list of
check directives.  Parsing is total: every malformed statement becomes
a diagnostic with its line and column, and a document is produced only
when there are no diagnostics.  Declarations must precede use.

Statement reference (one per line, ``#`` starts a comment):

    chart x y z
    box x -2 2
    seed 20140917 | samples 32 | abs_tol 1e-9 | rel_tol 1e-9
    scalar f = 1 + x^2
    form w1 = (1 + x^2)*dy
    map sigma = x -> -x, y -> -y
    region U1 = x^2 + y^2 - 1/4 > 0
    region R = all
    foliation F1 on U1 leafdim 2 nu (1+x^2)*dy transverse y
    foliation F2 on U2 leafdim 3
    family fam = F1 F2 saturated
    mu F1 = -(2*x/(1+x^2))*dx
    closedset M0 = zeroset x^2+y^2 anchors (0,0) window x 0.3 1.1, y 0.3 1.1
    closedset W = balls (0,0,1/2)
    closedset B = complement balls (0,0,1/2)
    bump b1 = center (0.5, 0.5) radius 3/10
    testfn phi = cover b1 b2 of M0
    tubular td on R f y*exp(-x) t y eps 1/4 outer 1/2
    check <kind> ... [as <label>]
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import GvError
from .foliations import Foliation, FoliationFamily, one_leaf
from .forms import CoordinateMap, DiffForm, scalar_form, zero_form
from .regions import Region
from .symbolic import ScalarExpr, normalize, sym
from .syntax import (
    Environment,
    ParseError,
    RESERVED,
    Token,
    parse_expression,
    parse_number,
    tokenize,
)
from .testfn import BumpSpec, ClosedSetSpec, bump as bump_expr
from .singular import TubularData

DEFAULT_BOX = (-2.0, 2.0)
DEFAULT_SEED = 20140917
DEFAULT_SAMPLES = 32
DEFAULT_TOL = 1e-9

CHECK_KINDS = (
    "zero", "forms-equal", "ideal-member", "foliation", "family", "rank",
    "invariance", "frobenius", "gv-closed", "gv-form", "overlap-vanishing",
    "gv-min", "basic", "gv-weighted", "overlap-identities", "theta", "cover",
    "flatness", "df-closed", "exactness", "exactness-pipeline", "iso",
    "tubular",
)


@dataclass(frozen=True)
class Diagnostic:
    line: int
    col: int | None
    message: str

    def __str__(self):
        where = "line %d" % self.line
        if self.col is not None:
            where += ", col %d" % self.col
        return "%s: %s" % (where, self.message)


@dataclass(frozen=True)
class TestFnDecl:
    phi: ScalarExpr
    balls: tuple
    closedset: ClosedSetSpec


@dataclass(frozen=True)
class CheckDirective:
    index: int
    kind: str
    label: str
    line: int
    payload: dict


@dataclass
class SpecDocument:
    coords: tuple = ()
    box: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED
    seed_declared: bool = False
    samples: int = DEFAULT_SAMPLES
    abs_tol: float = DEFAULT_TOL
    rel_tol: float = DEFAULT_TOL
    scalars: dict = field(default_factory=dict)
    forms: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    regions: dict = field(default_factory=dict)
    foliations: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    mus: dict = field(default_factory=dict)
    closedsets: dict = field(default_factory=dict)
    bumps: dict = field(default_factory=dict)
    testfns: dict = field(default_factory=dict)
    tubulars: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)

    def env(self) -> Environment:
        return Environment(self.coords, self.scalars, self.forms)

    def witness(self, fol, one_leaf_zero) -> DiffForm:
        """The Frobenius witness mu declared for a foliation.

        With ``one_leaf_zero`` a one-leaf foliation without a declared
        witness gets the zero 1-form, its canonical witness.  Raises
        KeyError, with the message as its argument, when there is none.
        """
        if fol.name in self.mus:
            return self.mus[fol.name]
        if one_leaf_zero and fol.leaf_dim == len(self.coords):
            return zero_form(self.coords, 1)
        raise KeyError("no mu declared for foliation %r" % fol.name)


class _StatementParser:
    """Cursor over one statement's tokens with shared helpers."""

    def __init__(self, doc: SpecDocument, tokens, line):
        self.doc = doc
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def done(self) -> bool:
        return self.peek().kind == "END"

    def fail(self, message, col=None):
        raise ParseError(message, col=col if col is not None else self.peek().col)

    def expect_end(self):
        if not self.done():
            self.fail("unexpected trailing %r" % self.peek().text)

    def ident(self, what="a name") -> str:
        t = self.advance()
        if t.kind != "IDENT":
            self.fail("expected %s, found %r" % (what, t.text or "end"), t.col)
        return t.text

    def fresh_name(self, table, what) -> str:
        t = self.peek()
        name = self.ident("a %s name" % what)
        if name in RESERVED:
            self.fail("%r is a reserved word" % name, t.col)
        if name in table:
            self.fail("duplicate %s name %r" % (what, name), t.col)
        return name

    def fresh_expr_name(self, table, what) -> str:
        """A fresh name that will also be visible to expressions."""
        t = self.peek()
        name = self.fresh_name(table, what)
        doc = self.doc
        if name in doc.coords or name in doc.scalars or name in doc.forms:
            self.fail("name %r is already visible to expressions" % name, t.col)
        if any(name == "d" + c for c in doc.coords):
            self.fail("name %r collides with a coordinate differential" % name, t.col)
        return name

    def op(self, text):
        t = self.advance()
        if t.text != text:
            self.fail("expected %r, found %r" % (text, t.text or "end"), t.col)

    def keyword(self, word):
        t = self.advance()
        if t.kind != "IDENT" or t.text != word:
            self.fail("expected %r, found %r" % (word, t.text or "end"), t.col)

    def at_word(self, word) -> bool:
        t = self.peek()
        return t.kind == "IDENT" and t.text == word

    def number(self) -> Fraction:
        sign = 1
        while self.peek().text in ("-", "+"):
            if self.advance().text == "-":
                sign = -sign
        t = self.advance()
        if t.kind != "NUM":
            self.fail("expected a number, found %r" % (t.text or "end"), t.col)
        value = parse_number(t.text)
        if self.peek().text == "/":
            self.advance()
            d = self.advance()
            if d.kind != "NUM":
                self.fail("expected a denominator", d.col)
            denominator = parse_number(d.text)
            if not denominator:
                self.fail("zero denominator", d.col)
            value = value / denominator
        return sign * value

    def integer(self) -> int:
        v = self.number()
        if v.denominator != 1:
            self.fail("expected an integer")
        return int(v)

    def expression(self):
        value, self.pos = parse_expression(self.tokens, self.pos, self.doc.env())
        return value

    def scalar_expression(self) -> ScalarExpr:
        t = self.peek()
        v = self.expression()
        if isinstance(v, DiffForm):
            if v.degree == 0:
                return v.coefficient(())
            self.fail("expected a scalar expression", t.col)
        return normalize(v)

    def form_expression(self) -> DiffForm:
        v = self.expression()
        if isinstance(v, ScalarExpr):
            return scalar_form(self.doc.coords, v)
        return v

    def need_chart(self):
        if not self.doc.coords:
            self.fail("a chart must be declared first")

    def point_values(self) -> list:
        self.op("(")
        values = [self.number()]
        while self.peek().text == ",":
            self.advance()
            values.append(self.number())
        self.op(")")
        return values

    def point(self) -> dict:
        values = self.point_values()
        if len(values) != len(self.doc.coords):
            self.fail("point needs %d coordinates" % len(self.doc.coords))
        return {n: float(v) for n, v in zip(self.doc.coords, values)}

    def ball(self):
        values = self.point_values()
        if len(values) != len(self.doc.coords) + 1:
            self.fail("ball needs %d center coordinates and a radius" % len(self.doc.coords))
        center = {n: float(v) for n, v in zip(self.doc.coords, values[:-1])}
        return center, float(values[-1])

    def hyphenated(self, word, extends) -> str:
        """Extend ``word``, the text of the token just read, by the
        adjacent ``- IDENT`` pairs that follow it.

        Only pairs written without spaces merge, and only while
        ``extends(candidate)`` holds, so a spaced or unary minus stays a
        token of its own.
        """
        end = self.tokens[self.pos - 1].col + len(word)
        while self.peek().text == "-" and self.peek().col == end:
            part = self.tokens[self.pos + 1]
            if part.kind != "IDENT" or part.col != end + 1 or not extends(word + "-" + part.text):
                break
            self.pos += 2
            word += "-" + part.text
            end = part.col + len(part.text)
        return word

    def witness(self, fol, one_leaf_zero) -> DiffForm:
        """:meth:`SpecDocument.witness`, failing at the current token."""
        try:
            return self.doc.witness(fol, one_leaf_zero)
        except KeyError as e:
            self.fail(e.args[0])

    def lookup(self, table, what) -> object:
        t = self.peek()
        name = self.ident("a %s name" % what)
        if name not in table:
            self.fail("unresolved %s reference %r" % (what, name), t.col)
        return table[name]

    def window(self) -> dict:
        box = dict(self.doc.box)
        self.keyword("window")
        while True:
            coord = self.ident("a coordinate")
            if coord not in self.doc.coords:
                self.fail("unknown coordinate %r" % coord)
            lo = float(self.number())
            hi = float(self.number())
            box[coord] = (lo, hi)
            if self.peek().text == ",":
                self.advance()
                continue
            break
        return box


def _stmt_chart(p: _StatementParser):
    if p.doc.coords:
        p.fail("chart already declared")
    names = []
    error = None
    while not p.done():
        t = p.peek()
        try:
            name = p.ident("a coordinate name")
            if name in RESERVED:
                p.fail("%r is a reserved word" % name, t.col)
            if name in names:
                p.fail("duplicate coordinate %r" % name, t.col)
            for other in names:
                if name == "d" + other or other == "d" + name:
                    p.fail("coordinate %r collides with the differential of %r"
                           % (max(name, other, key=len), min(name, other, key=len)), t.col)
        except ParseError as e:
            error = e
            break
        names.append(name)
    # commit the valid prefix so later statements do not cascade
    p.doc.coords = tuple(names)
    p.doc.box = {n: DEFAULT_BOX for n in names}
    if error is not None:
        raise error
    if not names:
        p.fail("chart needs at least one coordinate")


def _stmt_box(p: _StatementParser):
    p.need_chart()
    coord = p.ident("a coordinate")
    if coord not in p.doc.coords:
        p.fail("unknown coordinate %r" % coord)
    lo = float(p.number())
    hi = float(p.number())
    p.expect_end()
    if not lo < hi:
        p.fail("box bounds must satisfy lo < hi")
    p.doc.box[coord] = (lo, hi)


def _stmt_config(p: _StatementParser, key):
    value = p.number()
    p.expect_end()
    if key == "seed":
        p.doc.seed = int(value)
        p.doc.seed_declared = True
    elif key == "samples":
        if value.denominator != 1 or value <= 0:
            p.fail("samples must be a positive integer")
        p.doc.samples = int(value)
    else:
        try:
            tol = float(value)
        except OverflowError:
            tol = math.inf
        if not 0 < tol < math.inf:
            p.fail("%s must be a positive finite number" % key)
        setattr(p.doc, key, tol)


def _stmt_scalar(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.scalars, "scalar")
    p.op("=")
    value = p.scalar_expression()
    p.expect_end()
    p.doc.scalars[name] = value


def _stmt_form(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.forms, "form")
    p.op("=")
    value = p.form_expression()
    p.expect_end()
    p.doc.forms[name] = value


def _stmt_map(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.maps, "map")
    p.op("=")
    comps = {}
    while True:
        coord = p.ident("a coordinate")
        if coord not in p.doc.coords:
            p.fail("unknown coordinate %r" % coord)
        if coord in comps:
            p.fail("coordinate %r mapped twice" % coord)
        p.op("->")
        comps[coord] = p.scalar_expression()
        if p.done():
            break
        p.op(",")
    for c in p.doc.coords:
        comps.setdefault(c, sym(c))
    p.doc.maps[name] = CoordinateMap(p.doc.coords, p.doc.coords, comps)


def _stmt_region(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.regions, "region")
    p.op("=")
    constraints = []
    if p.at_word("all"):
        p.advance()
    else:
        while True:
            g = p.scalar_expression()
            p.op(">")
            t = p.advance()
            if t.text != "0":
                p.fail("inequalities must have the shape <expr> > 0", t.col)
            constraints.append(g)
            if p.peek().text == ",":
                p.advance()
                continue
            break
    p.expect_end()
    p.doc.regions[name] = Region(p.doc.coords, tuple(constraints), dict(p.doc.box), name=name)


def _stmt_foliation(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.foliations, "foliation")
    p.keyword("on")
    region = p.lookup(p.doc.regions, "region")
    p.keyword("leafdim")
    leafdim = p.integer()
    nu = None
    gens = None
    transverse = None
    while not p.done():
        if p.at_word("nu"):
            p.advance()
            nu = p.form_expression()
        elif p.at_word("gens"):
            p.advance()
            gens = [p.form_expression()]
            while p.peek().text == ",":
                p.advance()
                gens.append(p.form_expression())
        elif p.at_word("transverse"):
            p.advance()
            transverse = [p.ident("a coordinate")]
            while p.peek().text == ",":
                p.advance()
                transverse.append(p.ident("a coordinate"))
        else:
            p.fail("expected 'nu', 'gens' or 'transverse', found %r" % p.peek().text)
    m = len(p.doc.coords)
    if nu is None:
        if leafdim != m:
            p.fail("a foliation without a defining form must have leaf dimension %d" % m)
        p.doc.foliations[name] = one_leaf(name, region)
        return
    q = m - leafdim
    if gens is None:
        if q == 1:
            gens = [nu]
        elif q == 0:
            gens = []
        else:
            p.fail("codimension %d needs an explicit gens list" % q)
    p.doc.foliations[name] = Foliation(
        name, region, leafdim, nu, tuple(gens),
        transverse=tuple(transverse) if transverse else None,
    )


def _stmt_family(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.families, "family")
    p.op("=")
    members = []
    saturated = False
    while not p.done():
        if p.at_word("saturated"):
            p.advance()
            saturated = True
            break
        members.append(p.lookup(p.doc.foliations, "foliation"))
    p.expect_end()
    if not members:
        p.fail("a family needs at least one member")
    p.doc.families[name] = FoliationFamily(tuple(members), box=dict(p.doc.box), saturated=saturated)


def _stmt_mu(p: _StatementParser):
    p.need_chart()
    t = p.peek()
    fol = p.lookup(p.doc.foliations, "foliation")
    if fol.name in p.doc.mus:
        p.fail("mu for %r declared twice" % fol.name, t.col)
    p.op("=")
    value = p.form_expression()
    p.expect_end()
    if not value.is_zero and value.degree != 1:
        p.fail("a Frobenius witness must be a 1-form")
    p.doc.mus[fol.name] = value


def _stmt_closedset(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.closedsets, "closed set")
    p.op("=")
    kind = None
    expr = None
    balls = []
    if p.at_word("zeroset"):
        p.advance()
        kind = "zeroset"
        expr = p.scalar_expression()
    elif p.at_word("balls"):
        p.advance()
        kind = "balls"
        while p.peek().text == "(":
            balls.append(p.ball())
    elif p.at_word("complement"):
        p.advance()
        p.keyword("balls")
        kind = "complement-of-balls"
        while p.peek().text == "(":
            balls.append(p.ball())
    else:
        p.fail("expected 'zeroset', 'balls' or 'complement'")
    anchors = []
    if p.at_word("anchors"):
        p.advance()
        while p.peek().text == "(":
            anchors.append(p.point())
    box = dict(p.doc.box)
    if p.at_word("window"):
        box = p.window()
    p.expect_end()
    p.doc.closedsets[name] = ClosedSetSpec(
        p.doc.coords, box, kind, expr=expr, balls=tuple(balls), anchors=tuple(anchors)
    )


def _stmt_bump(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.bumps, "bump")
    p.op("=")
    p.keyword("center")
    values = p.point_values()
    if len(values) != len(p.doc.coords):
        p.fail("center needs %d coordinates" % len(p.doc.coords))
    p.keyword("radius")
    radius = p.number()
    p.expect_end()
    center = dict(zip(p.doc.coords, values))
    p.doc.bumps[name] = BumpSpec(center, radius, box=dict(p.doc.box))


def _stmt_testfn(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.testfns, "test function")
    p.op("=")
    p.keyword("cover")
    balls = []
    while not p.at_word("of"):
        balls.append(p.lookup(p.doc.bumps, "bump"))
    p.keyword("of")
    m0 = p.lookup(p.doc.closedsets, "closed set")
    p.expect_end()
    phi = normalize(sum((bump_expr(b) for b in balls), start=normalize(0)))
    decl = TestFnDecl(phi, tuple(balls), m0)
    p.doc.testfns[name] = decl
    p.doc.scalars[name] = phi


def _stmt_tubular(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.tubulars, "collar")
    p.keyword("on")
    region = p.lookup(p.doc.regions, "region")
    p.keyword("f")
    f = p.scalar_expression()
    p.keyword("t")
    t = p.ident("a coordinate")
    if t not in p.doc.coords:
        p.fail("unknown coordinate %r" % t)
    p.keyword("eps")
    eps = p.number()
    p.keyword("outer")
    outer = p.number()
    p.expect_end()
    p.doc.tubulars[name] = TubularData(region, f, t, eps, outer)


def _parse_check(p: _StatementParser):
    t = p.advance()
    kind = t.text
    if t.kind != "IDENT":
        p.fail("expected a check kind, found %r" % (t.text or "end"), t.col)
    # Hyphenated kinds arrive as IDENT '-' IDENT: merge only while the
    # result still extends a known kind.
    kind = p.hyphenated(kind, lambda w: any(k == w or k.startswith(w + "-") for k in CHECK_KINDS))
    if kind not in CHECK_KINDS:
        p.fail("unknown check kind %r" % kind, t.col)
    payload = {}
    d = p.doc
    if kind == "zero":
        payload["expr"] = p.scalar_expression()
        p.keyword("on")
        payload["region"] = p.lookup(d.regions, "region")
    elif kind == "forms-equal":
        payload["left"] = p.form_expression()
        p.op("==")
        payload["right"] = p.form_expression()
        p.keyword("on")
        payload["region"] = p.lookup(d.regions, "region")
    elif kind == "ideal-member":
        payload["form"] = p.form_expression()
        p.keyword("in")
        gens = [p.form_expression()]
        while p.peek().text == ",":
            p.advance()
            gens.append(p.form_expression())
        payload["gens"] = tuple(gens)
        p.keyword("on")
        payload["region"] = p.lookup(d.regions, "region")
    elif kind == "foliation":
        payload["foliation"] = p.lookup(d.foliations, "foliation")
    elif kind == "family":
        payload["family"] = p.lookup(d.families, "family")
    elif kind == "rank":
        payload["family"] = p.lookup(d.families, "family")
        p.keyword("at")
        payload["point"] = p.point()
        p.keyword("expect")
        payload["expect"] = p.integer()
    elif kind == "invariance":
        payload["map"] = p.lookup(d.maps, "map")
        payload["foliation"] = p.lookup(d.foliations, "foliation")
    elif kind in ("frobenius", "gv-closed"):
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        if p.at_word("with"):
            p.advance()
            payload["mu"] = p.form_expression()
        else:
            payload["mu"] = p.witness(fol, one_leaf_zero=False)
    elif kind == "gv-form":
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        payload["mu"] = p.witness(fol, one_leaf_zero=False)
        p.op("==")
        payload["expected"] = p.form_expression()
    elif kind in ("overlap-vanishing", "gv-min"):
        fam = p.lookup(d.families, "family")
        payload["family"] = fam
        payload["mus"] = {f.name: p.witness(f, one_leaf_zero=True) for f in fam.members}
        if kind == "gv-min":
            p.keyword("rank")
            payload["rank"] = p.integer()
    elif kind in ("basic", "gv-weighted"):
        payload["weight"] = p.scalar_expression()
        p.keyword("for")
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        if kind == "gv-weighted":
            payload["mu"] = p.witness(fol, one_leaf_zero=False)
    elif kind in ("overlap-identities", "theta"):
        sub = p.lookup(d.foliations, "foliation")
        sup = p.lookup(d.foliations, "foliation")
        payload["sub"] = sub
        payload["sup"] = sup
        if kind == "overlap-identities":
            payload["mus"] = {f.name: p.witness(f, one_leaf_zero=False) for f in (sub, sup)}
        if kind == "theta" and p.peek().text == "==":
            p.advance()
            payload["expected"] = p.form_expression()
    elif kind == "cover":
        payload["testfn"] = p.lookup(d.testfns, "test function")
    elif kind == "flatness":
        payload["expr"] = p.scalar_expression()
        p.keyword("near")
        payload["closedset"] = p.lookup(d.closedsets, "closed set")
    elif kind == "df-closed":
        payload["f"] = p.scalar_expression()
        p.keyword("with")
        payload["form"] = p.form_expression()
        p.keyword("on")
        payload["region"] = p.lookup(d.regions, "region")
    elif kind == "exactness":
        payload["form"] = p.form_expression()
        p.keyword("primitive")
        payload["primitive"] = p.form_expression()
        p.keyword("on")
        payload["region"] = p.lookup(d.regions, "region")
    elif kind == "exactness-pipeline":
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        payload["mu"] = p.witness(fol, one_leaf_zero=False)
        p.keyword("weight")
        payload["weight"] = p.scalar_expression()
        p.keyword("via")
        payload["tubular"] = p.lookup(d.tubulars, "collar")
        p.keyword("primitive")
        payload["primitive"] = p.form_expression()
    elif kind == "iso":
        p.keyword("via")
        payload["tubular"] = p.lookup(d.tubulars, "collar")
        p.keyword("weight")
        payload["weight"] = p.scalar_expression()
        p.keyword("alpha")
        payload["alpha"] = p.form_expression()
        p.keyword("beta")
        payload["beta"] = p.form_expression()
    elif kind == "tubular":
        payload["tubular"] = p.lookup(d.tubulars, "collar")
    label = "check-%d-%s" % (len(d.checks) + 1, kind)
    if p.at_word("as"):
        p.advance()
        first = p.advance()
        if first.kind != "IDENT":
            p.fail("expected a label, found %r" % (first.text or "end"), first.col)
        label = p.hyphenated(first.text, lambda w: True)
    p.expect_end()
    d.checks.append(CheckDirective(len(d.checks), kind, label, p.line, payload))


_HANDLERS = {
    "chart": _stmt_chart,
    "box": _stmt_box,
    "scalar": _stmt_scalar,
    "form": _stmt_form,
    "map": _stmt_map,
    "region": _stmt_region,
    "foliation": _stmt_foliation,
    "family": _stmt_family,
    "mu": _stmt_mu,
    "closedset": _stmt_closedset,
    "bump": _stmt_bump,
    "testfn": _stmt_testfn,
    "tubular": _stmt_tubular,
    "check": _parse_check,
}


def parse_spec(text: str):
    """Parse a document.  Returns (document | None, diagnostics).

    The document is produced only when the diagnostics list is empty;
    parsing always continues past a bad statement so that one run
    reports every problem.
    """
    doc = SpecDocument()
    diagnostics = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            tokens = tokenize(raw)
        except ParseError as e:
            diagnostics.append(Diagnostic(lineno, e.col, e.message))
            continue
        if tokens[0].kind == "END":
            continue
        head = tokens[0]
        if head.kind != "IDENT" or head.text not in set(_HANDLERS) | {"seed", "samples", "abs_tol", "rel_tol"}:
            diagnostics.append(
                Diagnostic(lineno, head.col, "unknown statement %r" % (head.text or raw.strip()))
            )
            continue
        p = _StatementParser(doc, tokens, lineno)
        p.advance()
        try:
            if head.text in ("seed", "samples", "abs_tol", "rel_tol"):
                _stmt_config(p, head.text)
            else:
                _HANDLERS[head.text](p)
        except ParseError as e:
            diagnostics.append(Diagnostic(lineno, e.col, e.message))
        except (ValueError, KeyError, ZeroDivisionError, GvError) as e:
            diagnostics.append(Diagnostic(lineno, None, str(e)))
    if diagnostics:
        return None, diagnostics
    return doc, []
