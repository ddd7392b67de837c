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
    seed 20140917 | samples 32
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

from fractions import Fraction

from .errors import GvError
from .foliations import (
    Foliation,
    FoliationFamily,
    check_family,
    check_invariance,
    one_leaf,
    rank_at,
    validate_foliation,
)
from .forms import (
    CoordinateMap,
    DiffForm,
    ext_d,
    forms_equal,
    ideal_member,
    scalar_form,
    vanishes_on,
    zero_form,
)
from .gv import (
    check_basic,
    check_minimal_vanishing,
    check_overlap_identities,
    gv_form,
    gv_min,
    gv_weighted,
    solve_theta,
    verify_frobenius,
)
from .regions import Region, intersect
from .singular import TubularData, check_exactness_pipeline, d_f, iso_decompose, verify_exact
from .symbolic import ONE, ScalarExpr, ZeroTestConfig, is_zero_on, normalize, sym, to_latex
from .syntax import Environment, ExprParser, ParseError, RESERVED, parse_number, tokenize
from .testfn import BumpSpec, ClosedSetSpec, bump_sum, check_cover, flatness_check
from .verdicts import Outcome, Verdict

DEFAULT_BOX = (-2.0, 2.0)
_SAMPLING = ZeroTestConfig()  # the sampling defaults of a document
_NOT_A_WITNESS = "a Frobenius witness must be a 1-form"


class Diagnostic:
    __slots__ = ("line", "col", "message")

    def __init__(self, line: int, col: int | None, message: str):
        self.line = line
        self.col = col
        self.message = message

    def __str__(self):
        where = "line %d" % self.line
        if self.col is not None:
            where += ", col %d" % self.col
        return "%s: %s" % (where, self.message)


class CheckDirective:
    __slots__ = ("index", "kind", "label", "run")

    def __init__(self, index: int, kind: str, label: str, run):
        self.index = index
        self.kind = kind
        self.label = label
        self.run = run  # made by CHECKS[kind]: ZeroTestConfig -> (Outcome, LaTeX)


class SpecDocument:
    """What a document declares, filled in statement by statement.

    ``testfns`` maps a test function's name to ``(balls, closed set,
    phi)``, where phi is ``bump_sum(balls)``, built once at parse time.
    """

    __slots__ = ("coords", "box", "seed", "seed_declared", "samples", "scalars", "forms", "maps",
                 "regions", "foliations", "families", "mus", "closedsets", "bumps", "testfns", "tubulars",
                 "checks")

    def __init__(self):
        self.coords = ()
        self.box = {}
        self.seed = _SAMPLING.rng_seed
        self.seed_declared = False
        self.samples = _SAMPLING.sample_count
        self.scalars = {}
        self.forms = {}
        self.maps = {}
        self.regions = {}
        self.foliations = {}
        self.families = {}
        self.mus = {}
        self.closedsets = {}
        self.bumps = {}
        self.testfns = {}
        self.tubulars = {}
        self.checks = []

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

    The readers ``ident``, ``number``, ``real``, ``expression``,
    ``separated`` and ``point_values`` record in ``start`` the column
    where their value began, and :meth:`reject` fails there: a check
    made after a value has been read points at that value.
    """

    def __init__(self, doc: SpecDocument, tokens):
        super().__init__(tokens, 1, doc.env())  # token 0 names the statement
        self.doc = doc
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
        try:
            return self.parse()
        except OverflowError as e:  # an exponent beyond what a monomial holds
            self.reject(str(e))

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

    def one_form(self, message) -> DiffForm:
        """A 1-form expression, else fail at it with ``message``; zero is the zero 1-form."""
        value = self.form_expression()
        if value.is_zero:
            return zero_form(self.doc.coords, 1)
        if value.degree != 1:
            self.reject(message)
        return value

    def separated(self, read) -> list:
        """One or more values read by ``read``, separated by commas; the
        list's value begins at the first one."""
        start = self.peek().col
        values = [read()]
        while self.accept(","):
            values.append(read())
        self.start = start
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
        if values[-1] <= 0:
            self.reject("ball radius must be positive")
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


def _stmt_scalar(p: _StatementParser):
    name = p.fresh_expr_name(p.doc.scalars, "scalar")
    p.expect("=")
    value = p.scalar_expression()
    p.expect_end()
    p.doc.scalars[name] = value


def _stmt_form(p: _StatementParser):
    name = p.fresh_expr_name(p.doc.forms, "form")
    p.expect("=")
    value = p.form_expression()
    p.expect_end()
    p.doc.forms[name] = value


def _stmt_map(p: _StatementParser):
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
    name = p.fresh_name(p.doc.regions, "region")
    p.expect("=")
    constraints = [] if p.accept("all") else p.separated(lambda: _constraint(p))
    p.expect_end()
    p.doc.regions[name] = Region(p.doc.coords, tuple(constraints), dict(p.doc.box), name=name)


def _stmt_foliation(p: _StatementParser):
    name = p.fresh_name(p.doc.foliations, "foliation")
    region = p.on_region()
    p.expect("leafdim")
    leafdim = p.integer()
    m = len(p.doc.coords)
    if not 0 <= leafdim <= m:
        p.reject("leaf dimension %d outside 0..%d" % (leafdim, m))
    q = m - leafdim
    nu = None
    gens = None
    transverse = None
    while not p.done():
        if p.accept("nu"):
            nu = p.form_expression()
            if nu.degree != q:
                p.reject("defining form has degree %d, expected codimension %d" % (nu.degree, q))
            if q == 0 and nu.coefficient(()) != ONE:
                p.reject("a one-leaf foliation must use the constant 0-form 1")
        elif p.accept("gens"):
            gens = p.separated(lambda: p.one_form("decomposition entries must be 1-forms"))
            if len(gens) != q:
                p.reject("decomposition must have exactly %d transverse 1-forms" % q)
        elif p.accept("transverse"):
            transverse = p.separated(p.coordinate)
            if len(transverse) != q:
                p.reject("transverse coordinate list must have length %d" % q)
        else:
            p.fail("expected 'nu', 'gens' or 'transverse', found %r" % p.peek().text)
    if nu is None:
        if leafdim != m:
            p.fail("a foliation without a defining form must have leaf dimension %d" % m)
        p.doc.foliations[name] = one_leaf(name, region)
        return
    if gens is None:
        if q > 1:
            p.fail("codimension %d needs an explicit gens list" % q)
        gens = [nu] * q  # codimension 1: nu itself; codimension 0: none
    p.doc.foliations[name] = Foliation(
        name, region, leafdim, nu, tuple(gens),
        transverse=tuple(transverse) if transverse else None,
    )


def _stmt_family(p: _StatementParser):
    name = p.fresh_name(p.doc.families, "family")
    p.expect("=")
    members = []
    saturated = False
    while not p.done():
        if p.accept("saturated"):
            saturated = True
            break
        member = p.lookup(p.doc.foliations, "foliation")
        if any(f.name == member.name for f in members):
            p.reject("family members must have distinct names")
        members.append(member)
    p.expect_end()
    if not members:
        p.fail("a family needs at least one member")
    p.doc.families[name] = FoliationFamily(tuple(members), box=dict(p.doc.box), saturated=saturated)


def _stmt_mu(p: _StatementParser):
    fol = p.lookup(p.doc.foliations, "foliation")
    if fol.name in p.doc.mus:
        p.reject("mu for %r declared twice" % fol.name)
    p.expect("=")
    value = p.one_form(_NOT_A_WITNESS)
    p.expect_end()
    p.doc.mus[fol.name] = value


def _window_bounds(p: _StatementParser):
    """``coord lo hi`` of a closed set's window, failing at hi unless lo < hi."""
    coord = p.coordinate()
    lo, hi = float(p.real()), float(p.real())
    if not lo < hi:
        p.reject("window bounds must satisfy lo < hi")
    return coord, (lo, hi)


def _stmt_closedset(p: _StatementParser):
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
        box.update(p.separated(lambda: _window_bounds(p)))
    p.expect_end()
    p.doc.closedsets[name] = ClosedSetSpec(
        p.doc.coords, box, kind, expr=expr, balls=tuple(balls), anchors=tuple(anchors)
    )


def _stmt_bump(p: _StatementParser):
    name = p.fresh_name(p.doc.bumps, "bump")
    p.expect("=")
    p.expect("center")
    values = p.point_values()
    if len(values) != len(p.doc.coords):
        p.reject("center needs %d coordinates" % len(p.doc.coords))
    at_center = p.start
    p.expect("radius")
    radius = p.real()
    p.expect_end()
    center = dict(zip(p.doc.coords, values))
    try:
        p.doc.bumps[name] = BumpSpec(center, radius, box=dict(p.doc.box))
    except ValueError as e:  # BumpSpec checks the radius, then the support against the box
        raise ParseError(str(e), col=p.start if radius <= 0 else at_center) from None


def _stmt_testfn(p: _StatementParser):
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
    p.doc.testfns[name] = (tuple(balls), m0, phi)


def _stmt_tubular(p: _StatementParser):
    name = p.fresh_name(p.doc.tubulars, "collar")
    region = p.on_region()
    p.expect("f")
    f = p.scalar_expression()
    p.expect("t")
    t = p.coordinate()
    p.expect("eps")
    eps = p.real()
    if eps <= 0:
        p.reject("need eps_outer > eps > 0")
    p.expect("outer")
    outer = p.real()
    p.expect_end()
    if outer <= eps:
        p.reject("need eps_outer > eps > 0")
    p.doc.tubulars[name] = TubularData(region, f, t, eps, outer)


# check kinds: each reader parses a check's arguments and returns its run, cfg ->
# (Outcome, LaTeX); the outcome is the whole report row but its name, kind, LaTeX
# and timing.  A run looks its engine functions up by this module's names when it
# runs, so a patched binding (the benchmark's tracer) takes effect, and builds its
# LaTeX after them: a check that raises has none.


def _check_zero(p: _StatementParser):
    expr = p.scalar_expression()
    region = p.on_region()
    return lambda cfg: (is_zero_on(expr, region, cfg), r"%s \overset{?}{=} 0" % to_latex(expr))


def _check_forms_equal(p: _StatementParser):
    left = p.form_expression()
    p.expect("==")
    right = p.form_expression()
    region = p.on_region()
    return lambda cfg: (
        forms_equal(left, right, region, cfg),
        r"%s \overset{?}{=} %s" % (left.to_latex(), right.to_latex()),
    )


def _check_ideal_member(p: _StatementParser):
    form = p.form_expression()
    p.expect("in")
    gens = tuple(p.separated(lambda: p.one_form("ideal generators must be 1-forms")))
    region = p.on_region()
    return lambda cfg: (
        ideal_member(form, gens, region, cfg),
        r"%s \in \left\langle %s \right\rangle" % (form.to_latex(), ", ".join(g.to_latex() for g in gens)),
    )


def _check_foliation(p: _StatementParser):
    fol = p.lookup(p.doc.foliations, "foliation")
    return lambda cfg: (validate_foliation(fol, cfg), r"\nu = %s" % fol.nu.to_latex())


def _check_family(p: _StatementParser):
    fam = p.lookup(p.doc.families, "family")
    return lambda cfg: (check_family(fam, cfg), "")


def _check_rank(p: _StatementParser):
    fam = p.lookup(p.doc.families, "family")
    p.expect("at")
    point = p.point()
    p.expect("expect")
    want = p.integer()

    def run(cfg):
        got = rank_at(fam, point)
        ok = got == want
        # an exact comparison: equal ranks are proved, unequal ones refuted at the point
        out = Outcome(
            Verdict.PASS if ok else Verdict.FAIL,
            witness=None if ok else dict(point),
            detail="rank %d at the sample point (expected %d)" % (got, want),
        )
        return out, ""
    return run


def _check_invariance(p: _StatementParser):
    phi = p.lookup(p.doc.maps, "map")
    fol = p.lookup(p.doc.foliations, "foliation")
    return lambda cfg: (check_invariance(phi, fol, cfg), "")


def _with_witness(p: _StatementParser):
    """A foliation and its witness: the one after ``with``, else the declared one."""
    fol = p.lookup(p.doc.foliations, "foliation")
    if p.accept("with"):
        return fol, p.one_form(_NOT_A_WITNESS)
    return fol, p.witness(fol, one_leaf_zero=False)


def _check_frobenius(p: _StatementParser):
    fol, mu = _with_witness(p)
    return lambda cfg: (
        verify_frobenius(fol.nu, mu, fol.region, cfg),
        r"d\nu \overset{?}{=} \nu \wedge \mu,\ \mu = %s" % mu.to_latex(),
    )


def _check_gv_closed(p: _StatementParser):
    fol, mu = _with_witness(p)

    def run(cfg):
        w = gv_form(mu, fol.codim)
        return vanishes_on(ext_d(w), fol.region, cfg), r"d\left(%s\right) \overset{?}{=} 0" % w.to_latex()
    return run


def _check_gv_form(p: _StatementParser):
    fol = p.lookup(p.doc.foliations, "foliation")
    mu = p.witness(fol, one_leaf_zero=False)
    p.expect("==")
    expected = p.form_expression()

    def run(cfg):
        w = gv_form(mu, fol.codim)
        out = forms_equal(w, expected, fol.region, cfg)
        return out, r"\mu \wedge (d\mu)^{%d} = %s" % (fol.codim, w.to_latex())
    return run


def _family_witnesses(p: _StatementParser):
    """A family and the witness of each member, the zero 1-form for a one-leaf one."""
    fam = p.lookup(p.doc.families, "family")
    return fam, {f.name: p.witness(f, one_leaf_zero=True) for f in fam.members}


def _check_overlap_vanishing(p: _StatementParser):
    fam, mus = _family_witnesses(p)
    return lambda cfg: (check_minimal_vanishing(fam, mus, cfg), "")


def _check_gv_min(p: _StatementParser):
    name = p.peek().text
    fam, mus = _family_witnesses(p)
    p.expect("rank")
    rank = p.integer()
    problem = fam.rank_error(rank, name)
    if problem:
        p.reject(problem)

    def run(cfg):
        pw, out = gv_min(fam, mus, rank, cfg)
        entries = out.entry("vanishing").entries + out.entry("closedness").entries
        return Outcome.of(entries, out.notes, out.detail), pw.pieces[0][1].to_latex()
    return run


def _check_basic(p: _StatementParser):
    weight = p.scalar_expression()
    p.expect("for")
    fol = p.lookup(p.doc.foliations, "foliation")
    return lambda cfg: (
        check_basic(weight, fol, fol.region, cfg),
        r"d\varphi \in \left\langle \nu \right\rangle,\ \varphi = %s" % to_latex(weight),
    )


def _check_gv_weighted(p: _StatementParser):
    weight = p.scalar_expression()
    p.expect("for")
    fol = p.lookup(p.doc.foliations, "foliation")
    mu = p.witness(fol, one_leaf_zero=False)

    def run(cfg):
        nu_bar, report = gv_weighted(weight, mu, fol, cfg)
        return report, r"\bar\nu = %s" % nu_bar.to_latex()
    return run


def _check_overlap_identities(p: _StatementParser):
    sub = p.lookup(p.doc.foliations, "foliation")
    sup = p.lookup(p.doc.foliations, "foliation")
    mu_sub = p.witness(sub, one_leaf_zero=False)
    mu_sup = p.witness(sup, one_leaf_zero=False)

    def run(cfg):
        overlap = intersect(sub.region, sup.region, name="overlap")
        theta, sign = solve_theta(sub, sup, overlap, cfg)
        report = check_overlap_identities(sub, sup, mu_sub, mu_sup, theta, overlap, cfg)
        return Outcome.of(report.entries, detail="theta sign %+d" % sign), r"\theta = %s" % theta.to_latex()
    return run


def _check_theta(p: _StatementParser):
    sub = p.lookup(p.doc.foliations, "foliation")
    sup = p.lookup(p.doc.foliations, "foliation")
    expected = p.form_expression() if p.accept("==") else None

    def run(cfg):
        # solve_theta returns only a proved factorization (it raises otherwise),
        # so the row's verdict is that of the optional comparison
        overlap = intersect(sub.region, sup.region, name="overlap")
        theta, sign = solve_theta(sub, sup, overlap, cfg)
        entries = ()
        if expected is not None:
            cmp = forms_equal(theta, expected, overlap, cfg)
            entries = (("matches-expected", cmp),)
        return Outcome.of(entries, detail="sign %+d" % sign), r"\theta = %s" % theta.to_latex()
    return run


def _check_cover(p: _StatementParser):
    balls, m0, phi = p.lookup(p.doc.testfns, "test function")
    return lambda cfg: (check_cover(phi, balls, m0, cfg), r"\varphi = %s" % to_latex(phi))


def _check_flatness(p: _StatementParser):
    expr = p.scalar_expression()
    p.expect("near")
    m0 = p.lookup(p.doc.closedsets, "closed set")
    return lambda cfg: (flatness_check(expr, m0, cfg), to_latex(expr))


def _check_df_closed(p: _StatementParser):
    f = p.scalar_expression()
    p.expect("with")
    form = p.form_expression()
    region = p.on_region()

    def run(cfg):
        residual = d_f(f, form)
        return vanishes_on(residual, region, cfg), r"d_f\,\omega = %s" % residual.to_latex()
    return run


def _check_exactness(p: _StatementParser):
    form = p.form_expression()
    p.expect("primitive")
    primitive = p.form_expression()
    region = p.on_region()
    return lambda cfg: (
        verify_exact(form, primitive, region, cfg),
        r"d\left(%s\right) \overset{?}{=} %s" % (primitive.to_latex(), form.to_latex()),
    )


def _check_exactness_pipeline(p: _StatementParser):
    fol = p.lookup(p.doc.foliations, "foliation")
    mu = p.witness(fol, one_leaf_zero=False)
    p.expect("weight")
    weight = p.scalar_expression()
    p.expect("via")
    td = p.lookup(p.doc.tubulars, "collar")
    p.expect("primitive")
    primitive = p.form_expression()
    return lambda cfg: (
        check_exactness_pipeline(fol, weight, mu, td, primitive, cfg), r"\varphi = %s" % to_latex(weight)
    )


def _check_iso(p: _StatementParser):
    p.expect("via")
    td = p.lookup(p.doc.tubulars, "collar")
    p.expect("weight")
    weight = p.scalar_expression()
    p.expect("alpha")
    alpha = p.form_expression()
    p.expect("beta")
    beta = p.form_expression()

    def run(cfg):
        composite, report = iso_decompose(weight, alpha, beta, td, cfg)
        return report, composite.to_latex()
    return run


def _check_tubular(p: _StatementParser):
    td = p.lookup(p.doc.tubulars, "collar")
    return lambda cfg: (td.validate(cfg), r"\rho = %s" % to_latex(td.rho))


CHECKS = {
    "zero": _check_zero,
    "forms-equal": _check_forms_equal,
    "ideal-member": _check_ideal_member,
    "foliation": _check_foliation,
    "family": _check_family,
    "rank": _check_rank,
    "invariance": _check_invariance,
    "frobenius": _check_frobenius,
    "gv-closed": _check_gv_closed,
    "gv-form": _check_gv_form,
    "overlap-vanishing": _check_overlap_vanishing,
    "gv-min": _check_gv_min,
    "basic": _check_basic,
    "gv-weighted": _check_gv_weighted,
    "overlap-identities": _check_overlap_identities,
    "theta": _check_theta,
    "cover": _check_cover,
    "flatness": _check_flatness,
    "df-closed": _check_df_closed,
    "exactness": _check_exactness,
    "exactness-pipeline": _check_exactness_pipeline,
    "iso": _check_iso,
    "tubular": _check_tubular,
}


def _stmt_check(p: _StatementParser):
    # Hyphenated kinds arrive as IDENT '-' IDENT: merge only while the
    # result still extends a known kind.
    kind = p.hyphenated(
        p.ident("a check kind"), lambda w: any(k == w or k.startswith(w + "-") for k in CHECKS)
    )
    if kind not in CHECKS:
        p.reject("unknown check kind %r" % kind)
    run = CHECKS[kind](p)
    checks = p.doc.checks
    label = "check-%d-%s" % (len(checks) + 1, kind)
    if p.accept("as"):
        label = p.hyphenated(p.ident("a label"), lambda w: True)
    p.expect_end()
    # only a given label can repeat: a generated one holds the check's
    # number, and a given one is names joined by '-'
    if any(c.label == label for c in checks):
        p.reject("duplicate check label %r" % label)
    checks.append(CheckDirective(len(checks), kind, label, run))


# statements that need no chart; a check before the chart fails at its
# first name, which nothing can have declared yet
_CHART_FREE = ("chart", "seed", "samples", "check")

_HANDLERS = {
    "chart": _stmt_chart,
    "box": _stmt_box,
    "seed": _stmt_seed,
    "samples": _stmt_samples,
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
    "check": _stmt_check,
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
        if not doc.coords and head.text not in _CHART_FREE:
            diagnostics.append(Diagnostic(lineno, tokens[1].col, "a chart must be declared first"))
            continue
        try:
            _HANDLERS[head.text](_StatementParser(doc, tokens))
        except ParseError as e:
            diagnostics.append(Diagnostic(lineno, e.col, e.message))
        except (ValueError, KeyError, ZeroDivisionError, GvError) as e:
            diagnostics.append(Diagnostic(lineno, None, str(e)))
    if diagnostics:
        return None, diagnostics
    return doc, []
