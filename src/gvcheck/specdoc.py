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
from .symbolic import ScalarExpr, ZeroTestConfig, normalize, sym
from .syntax import Environment, ExprParser, ParseError, RESERVED, parse_number, tokenize
from .testfn import BumpSpec, ClosedSetSpec, bump_sum
from .singular import TubularData

DEFAULT_BOX = (-2.0, 2.0)
_SAMPLING = ZeroTestConfig()  # the sampling defaults of a document

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
    balls: tuple
    closedset: ClosedSetSpec
    phi: ScalarExpr  # bump_sum(balls), built once at parse time


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
    seed: int = _SAMPLING.rng_seed
    seed_declared: bool = False
    samples: int = _SAMPLING.sample_count
    abs_tol: float = _SAMPLING.abs_tol
    rel_tol: float = _SAMPLING.rel_tol
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


class _StatementParser(ExprParser):
    """The token cursor over one statement, with its value readers.

    The readers ``ident``, ``number``, ``real``, ``expression`` and
    ``point_values`` record in ``start`` the column where their value
    began, and :meth:`reject` fails there: a check made after a value
    has been read points at that value.
    """

    def __init__(self, doc: SpecDocument, tokens, line):
        super().__init__(tokens, 1, doc.env())  # token 0 names the statement
        self.doc = doc
        self.line = line
        self.start = tokens[0].col

    def done(self) -> bool:
        return self.peek().kind == "END"

    def fail(self, message):
        raise ParseError(message, col=self.peek().col)

    def reject(self, message):
        """Fail at the column where the value read last began."""
        raise ParseError(message, col=self.start)

    def expect_end(self):
        if not self.done():
            self.fail("unexpected trailing %r" % self.peek().text)

    def ident(self, what="a name") -> str:
        self.start = self.peek().col
        if self.peek().kind != "IDENT":
            self.expected(what)
        return self.advance().text

    def fresh_name(self, table, what) -> str:
        name = self.ident("a %s name" % what)
        if name in RESERVED:
            self.reject("%r is a reserved word" % name)
        if name in table:
            self.reject("duplicate %s name %r" % (what, name))
        return name

    def fresh_expr_name(self, table, what) -> str:
        """A fresh name that will also be visible to expressions."""
        name = self.fresh_name(table, what)
        doc = self.doc
        if name in doc.coords or name in doc.scalars or name in doc.forms:
            self.reject("name %r is already visible to expressions" % name)
        if any(name == "d" + c for c in doc.coords):
            self.reject("name %r collides with a coordinate differential" % name)
        return name

    def number(self) -> Fraction:
        self.start = self.peek().col
        sign = 1
        while self.peek().text in ("-", "+"):
            if self.advance().text == "-":
                sign = -sign
        if self.peek().kind != "NUM":
            self.expected("a number")
        value = parse_number(self.advance().text)
        if self.accept("/"):
            if self.peek().kind != "NUM":
                self.fail("expected a denominator")
            denominator = parse_number(self.peek().text)
            if not denominator:
                self.fail("zero denominator")
            self.advance()
            value = value / denominator
        return sign * value

    def real(self) -> Fraction:
        """An exact number that is also used as a float, so it must fit one."""
        value = self.number()
        try:
            float(value)
        except OverflowError:
            self.reject("number is too large for a float")
        return value

    def integer(self) -> int:
        v = self.number()
        if v.denominator != 1:
            self.reject("expected an integer")
        return int(v)

    def expression(self):
        self.start = self.peek().col
        return self.parse()

    def scalar_expression(self) -> ScalarExpr:
        v = self.expression()
        if isinstance(v, DiffForm):
            if v.degree == 0:
                return v.coefficient(())
            self.reject("expected a scalar expression")
        return normalize(v)

    def form_expression(self) -> DiffForm:
        v = self.expression()
        if isinstance(v, ScalarExpr):
            return scalar_form(self.doc.coords, v)
        return v

    def need_chart(self):
        if not self.doc.coords:
            self.fail("a chart must be declared first")

    def separated(self, read) -> list:
        """One or more values read by ``read``, separated by commas."""
        values = [read()]
        while self.accept(","):
            values.append(read())
        return values

    def point_values(self) -> list:
        start = self.peek().col
        self.expect("(")
        values = self.separated(self.real)
        self.expect(")")
        self.start = start
        return values

    def point(self) -> dict:
        values = self.point_values()
        if len(values) != len(self.doc.coords):
            self.reject("point needs %d coordinates" % len(self.doc.coords))
        return {n: float(v) for n, v in zip(self.doc.coords, values)}

    def ball(self):
        values = self.point_values()
        if len(values) != len(self.doc.coords) + 1:
            self.reject("ball needs %d center coordinates and a radius" % len(self.doc.coords))
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

    def coordinate(self) -> str:
        name = self.ident("a coordinate")
        if name not in self.doc.coords:
            self.reject("unknown coordinate %r" % name)
        return name

    def lookup(self, table, what) -> object:
        name = self.ident("a %s name" % what)
        if name not in table:
            self.reject("unresolved %s reference %r" % (what, name))
        return table[name]

    def on_region(self) -> Region:
        self.expect("on")
        return self.lookup(self.doc.regions, "region")


def _stmt_chart(p: _StatementParser):
    if p.doc.coords:
        p.fail("chart already declared")
    names = []
    error = None
    while not p.done():
        try:
            name = p.ident("a coordinate name")
            if name in RESERVED:
                p.reject("%r is a reserved word" % name)
            if name in names:
                p.reject("duplicate coordinate %r" % name)
            for other in names:
                if name == "d" + other or other == "d" + name:
                    p.reject("coordinate %r collides with the differential of %r"
                             % (max(name, other, key=len), min(name, other, key=len)))
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
    coord = p.coordinate()
    lo = float(p.real())
    hi = float(p.real())
    p.expect_end()
    if not lo < hi:
        p.reject("box bounds must satisfy lo < hi")
    p.doc.box[coord] = (lo, hi)


def _stmt_seed(p: _StatementParser):
    seed = p.integer()
    p.expect_end()
    p.doc.seed = seed
    p.doc.seed_declared = True


def _stmt_samples(p: _StatementParser):
    value = p.number()
    p.expect_end()
    if value.denominator != 1 or value <= 0:
        p.reject("samples must be a positive integer")
    p.doc.samples = int(value)


def _stmt_tolerance(p: _StatementParser, key):
    value = p.number()
    p.expect_end()
    try:
        tol = float(value)
    except OverflowError:
        tol = math.inf
    if not 0 < tol < math.inf:
        p.reject("%s must be a positive finite number" % key)
    setattr(p.doc, key, tol)


def _stmt_scalar(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.scalars, "scalar")
    p.expect("=")
    value = p.scalar_expression()
    p.expect_end()
    p.doc.scalars[name] = value


def _stmt_form(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.forms, "form")
    p.expect("=")
    value = p.form_expression()
    p.expect_end()
    p.doc.forms[name] = value


def _stmt_map(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.maps, "map")
    p.expect("=")
    comps = {}
    while True:
        coord = p.coordinate()
        if coord in comps:
            p.reject("coordinate %r mapped twice" % coord)
        p.expect("->")
        comps[coord] = p.scalar_expression()
        if p.done():
            break
        p.expect(",")
    for c in p.doc.coords:
        comps.setdefault(c, sym(c))
    p.doc.maps[name] = CoordinateMap(p.doc.coords, p.doc.coords, comps)


def _constraint(p: _StatementParser) -> ScalarExpr:
    g = p.scalar_expression()
    p.expect(">")
    if not p.accept("0"):
        p.fail("inequalities must have the shape <expr> > 0")
    return g


def _stmt_region(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.regions, "region")
    p.expect("=")
    constraints = [] if p.accept("all") else p.separated(lambda: _constraint(p))
    p.expect_end()
    p.doc.regions[name] = Region(p.doc.coords, tuple(constraints), dict(p.doc.box), name=name)


def _stmt_foliation(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.foliations, "foliation")
    region = p.on_region()
    p.expect("leafdim")
    leafdim = p.integer()
    nu = None
    gens = None
    transverse = None
    while not p.done():
        if p.accept("nu"):
            nu = p.form_expression()
        elif p.accept("gens"):
            gens = p.separated(p.form_expression)
        elif p.accept("transverse"):
            transverse = p.separated(p.coordinate)
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
    p.expect("=")
    members = []
    saturated = False
    while not p.done():
        if p.accept("saturated"):
            saturated = True
            break
        members.append(p.lookup(p.doc.foliations, "foliation"))
    p.expect_end()
    if not members:
        p.fail("a family needs at least one member")
    p.doc.families[name] = FoliationFamily(tuple(members), box=dict(p.doc.box), saturated=saturated)


def _stmt_mu(p: _StatementParser):
    p.need_chart()
    fol = p.lookup(p.doc.foliations, "foliation")
    if fol.name in p.doc.mus:
        p.reject("mu for %r declared twice" % fol.name)
    p.expect("=")
    value = p.form_expression()
    p.expect_end()
    if not value.is_zero and value.degree != 1:
        p.reject("a Frobenius witness must be a 1-form")
    p.doc.mus[fol.name] = value


def _stmt_closedset(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.closedsets, "closed set")
    p.expect("=")
    expr = None
    balls = []
    if p.accept("zeroset"):
        kind = "zeroset"
        expr = p.scalar_expression()
    elif p.at("balls") or p.at("complement"):
        kind = "complement-of-balls" if p.accept("complement") else "balls"
        p.expect("balls")
        while p.at("("):
            balls.append(p.ball())
    else:
        p.fail("expected 'zeroset', 'balls' or 'complement'")
    anchors = []
    if p.accept("anchors"):
        while p.at("("):
            anchors.append(p.point())
    box = dict(p.doc.box)
    if p.accept("window"):
        for coord, lo, hi in p.separated(lambda: (p.coordinate(), float(p.real()), float(p.real()))):
            box[coord] = (lo, hi)
    p.expect_end()
    p.doc.closedsets[name] = ClosedSetSpec(
        p.doc.coords, box, kind, expr=expr, balls=tuple(balls), anchors=tuple(anchors)
    )


def _stmt_bump(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.bumps, "bump")
    p.expect("=")
    p.expect("center")
    values = p.point_values()
    if len(values) != len(p.doc.coords):
        p.reject("center needs %d coordinates" % len(p.doc.coords))
    p.expect("radius")
    radius = p.real()
    p.expect_end()
    center = dict(zip(p.doc.coords, values))
    p.doc.bumps[name] = BumpSpec(center, radius, box=dict(p.doc.box))


def _stmt_testfn(p: _StatementParser):
    p.need_chart()
    name = p.fresh_expr_name(p.doc.testfns, "test function")
    p.expect("=")
    p.expect("cover")
    balls = []
    while not p.at("of"):
        balls.append(p.lookup(p.doc.bumps, "bump"))
    p.expect("of")
    m0 = p.lookup(p.doc.closedsets, "closed set")
    p.expect_end()
    phi = p.doc.scalars[name] = bump_sum(balls)
    p.doc.testfns[name] = TestFnDecl(tuple(balls), m0, phi)


def _stmt_tubular(p: _StatementParser):
    p.need_chart()
    name = p.fresh_name(p.doc.tubulars, "collar")
    region = p.on_region()
    p.expect("f")
    f = p.scalar_expression()
    p.expect("t")
    t = p.coordinate()
    p.expect("eps")
    eps = p.real()
    p.expect("outer")
    outer = p.real()
    p.expect_end()
    p.doc.tubulars[name] = TubularData(region, f, t, eps, outer)


def _parse_check(p: _StatementParser):
    # Hyphenated kinds arrive as IDENT '-' IDENT: merge only while the
    # result still extends a known kind.
    kind = p.hyphenated(
        p.ident("a check kind"), lambda w: any(k == w or k.startswith(w + "-") for k in CHECK_KINDS)
    )
    if kind not in CHECK_KINDS:
        p.reject("unknown check kind %r" % kind)
    payload = {}
    d = p.doc
    if kind == "zero":
        payload["expr"] = p.scalar_expression()
        payload["region"] = p.on_region()
    elif kind == "forms-equal":
        payload["left"] = p.form_expression()
        p.expect("==")
        payload["right"] = p.form_expression()
        payload["region"] = p.on_region()
    elif kind == "ideal-member":
        payload["form"] = p.form_expression()
        p.expect("in")
        payload["gens"] = tuple(p.separated(p.form_expression))
        payload["region"] = p.on_region()
    elif kind == "foliation":
        payload["foliation"] = p.lookup(d.foliations, "foliation")
    elif kind == "family":
        payload["family"] = p.lookup(d.families, "family")
    elif kind == "rank":
        payload["family"] = p.lookup(d.families, "family")
        p.expect("at")
        payload["point"] = p.point()
        p.expect("expect")
        payload["expect"] = p.integer()
    elif kind == "invariance":
        payload["map"] = p.lookup(d.maps, "map")
        payload["foliation"] = p.lookup(d.foliations, "foliation")
    elif kind in ("frobenius", "gv-closed"):
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        if p.accept("with"):
            payload["mu"] = p.form_expression()
        else:
            payload["mu"] = p.witness(fol, one_leaf_zero=False)
    elif kind == "gv-form":
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        payload["mu"] = p.witness(fol, one_leaf_zero=False)
        p.expect("==")
        payload["expected"] = p.form_expression()
    elif kind in ("overlap-vanishing", "gv-min"):
        fam_name = p.peek().text
        fam = p.lookup(d.families, "family")
        payload["family"] = fam
        payload["mus"] = {f.name: p.witness(f, one_leaf_zero=True) for f in fam.members}
        if kind == "gv-min":
            p.expect("rank")
            payload["rank"] = p.integer()
            problem = fam.rank_error(payload["rank"], fam_name)
            if problem:
                p.reject(problem)
    elif kind in ("basic", "gv-weighted"):
        payload["weight"] = p.scalar_expression()
        p.expect("for")
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
        if kind == "theta" and p.accept("=="):
            payload["expected"] = p.form_expression()
    elif kind == "cover":
        payload["testfn"] = p.lookup(d.testfns, "test function")
    elif kind == "flatness":
        payload["expr"] = p.scalar_expression()
        p.expect("near")
        payload["closedset"] = p.lookup(d.closedsets, "closed set")
    elif kind == "df-closed":
        payload["f"] = p.scalar_expression()
        p.expect("with")
        payload["form"] = p.form_expression()
        payload["region"] = p.on_region()
    elif kind == "exactness":
        payload["form"] = p.form_expression()
        p.expect("primitive")
        payload["primitive"] = p.form_expression()
        payload["region"] = p.on_region()
    elif kind == "exactness-pipeline":
        fol = p.lookup(d.foliations, "foliation")
        payload["foliation"] = fol
        payload["mu"] = p.witness(fol, one_leaf_zero=False)
        p.expect("weight")
        payload["weight"] = p.scalar_expression()
        p.expect("via")
        payload["tubular"] = p.lookup(d.tubulars, "collar")
        p.expect("primitive")
        payload["primitive"] = p.form_expression()
    elif kind == "iso":
        p.expect("via")
        payload["tubular"] = p.lookup(d.tubulars, "collar")
        p.expect("weight")
        payload["weight"] = p.scalar_expression()
        p.expect("alpha")
        payload["alpha"] = p.form_expression()
        p.expect("beta")
        payload["beta"] = p.form_expression()
    elif kind == "tubular":
        payload["tubular"] = p.lookup(d.tubulars, "collar")
    label = "check-%d-%s" % (len(d.checks) + 1, kind)
    if p.accept("as"):
        label = p.hyphenated(p.ident("a label"), lambda w: True)
    p.expect_end()
    d.checks.append(CheckDirective(len(d.checks), kind, label, p.line, payload))


_HANDLERS = {
    "chart": _stmt_chart,
    "box": _stmt_box,
    "seed": _stmt_seed,
    "samples": _stmt_samples,
    "abs_tol": lambda p: _stmt_tolerance(p, "abs_tol"),
    "rel_tol": lambda p: _stmt_tolerance(p, "rel_tol"),
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
        if head.kind != "IDENT" or head.text not in _HANDLERS:
            diagnostics.append(
                Diagnostic(lineno, head.col, "unknown statement %r" % (head.text or raw.strip()))
            )
            continue
        try:
            _HANDLERS[head.text](_StatementParser(doc, tokens, lineno))
        except ParseError as e:
            diagnostics.append(Diagnostic(lineno, e.col, e.message))
        except (ValueError, KeyError, ZeroDivisionError, GvError) as e:
            diagnostics.append(Diagnostic(lineno, None, str(e)))
    if diagnostics:
        return None, diagnostics
    return doc, []
