"""Seeded workload generation: one cycle of operations per workload.

A workload is a fixed cycle of operations.  The worker runs whole cycles,
so every run sees the same mix of operation types in the same
proportions; the seed only picks rational constants, coordinate
permutations and sample seeds.  The expression shapes stay fixed, so
term counts do not depend on the seed.

The cycle compositions are chosen so that the 50th and 90th percentile
of the per-operation times each fall in the middle of one operation
type's cluster of times, never on the gap between two clusters, where
the percentile would jump from run to run.

Each operation is timed by the caller around ``Op.run`` alone; the
verdict check in ``Op.check`` runs outside the timed region and returns
a mismatch description, or None when the result matches its known
answer.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from gvcheck import cli
from gvcheck.forms import CoordinateMap, basis_form, forms_equal, ideal_member, pullback, wedge
from gvcheck.gv import gv_form
from gvcheck.regions import Region, box_region
from gvcheck.symbolic import ZeroTestConfig, exp, flatexp, is_zero_on, rat, sym
from gvcheck.verdicts import verdict_of

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GALLERY_DIR = os.path.join(ROOT, "gallery")

# Small rationals of similar bit size, so that the seed does not change
# the cost of the exact arithmetic.
_CONSTANTS = tuple(Fraction(p, q) for p, q in
                   ((1, 2), (2, 3), (3, 4), (3, 2), (4, 3), (5, 4), (4, 5), (5, 3), (3, 5), (2, 5)))


@dataclass
class Op:
    """One benchmark operation: ``run`` is timed, ``check`` is not."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    # construction ops whose GV form the sympy oracle re-derives
    mu_spec: "MuSpec | None" = None


def _const(rng):
    c = rng.choice(_CONSTANTS)
    return -c if rng.random() < 0.5 else c


# ---------------------------------------------------------------------------
# generic rational 1-forms


@dataclass(frozen=True)
class MuSpec:
    """A generic 1-form on R^(2q+1), as plain data.

    The coefficient of dx_p(i) is
    ``a_i * x_p(i+2) * exp(x_p(i+3)) + b_i * r_i`` with indices mod m, where
    ``r_i = x_p(i+1) / (1 + x_p(i)^2)`` for the first k coefficients and
    ``r_i = x_p(i+1) * x_p(i)`` for the rest.  The same data drive the
    gvcheck construction and the sympy oracle.
    """

    q: int
    k: int
    perm: tuple
    a: tuple
    b: tuple

    @property
    def coords(self):
        return tuple("x%d" % i for i in range(2 * self.q + 1))

    def build(self):
        coords = self.coords
        m = len(coords)
        x = [sym(coords[self.perm[i % m]]) for i in range(m)]
        mu = None
        for i in range(m):
            xi = lambda j: x[(i + j) % m]  # noqa: E731
            rational = xi(1) / (1 + xi(0) * xi(0)) if i < self.k else xi(1) * xi(0)
            coeff = rat(self.a[i]) * xi(2) * exp(xi(3)) + rat(self.b[i]) * rational
            term = basis_form(coords, [coords[self.perm[i]]]) * coeff
            mu = term if mu is None else mu + term
        return mu


def mu_spec(rng, q, k):
    m = 2 * q + 1
    perm = list(range(m))
    rng.shuffle(perm)
    return MuSpec(q, k, tuple(perm), tuple(_const(rng) for _ in range(m)), tuple(_const(rng) for _ in range(m)))


def form_terms(form):
    """Total numerator and denominator term counts over a form's coefficients."""
    num = sum(len(c.num.terms) for c in form.coeffs.values())
    den = sum(len(c.den.terms) for c in form.coeffs.values())
    return num, den


def load_known():
    """The hand-written known answers (bench/known_answers.json)."""
    with open(os.path.join(BENCH_DIR, "known_answers.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _expect(known, kind):
    want = known["ops"][kind]
    return lambda verdict: None if verdict == want else "%s: got %s, known answer %s" % (kind, verdict, want)


def _box(coords):
    return box_region(coords, {c: (-1, 1) for c in coords}, "box")


# ---------------------------------------------------------------------------
# gallery: the shipped documents through the CLI, in process

_VERDICT_LINE = {
    "text": re.compile(r"^\[(PASS|FAIL|UNDECIDED)\] (\S+) \(", re.M),
    "latex": re.compile(r"^\\item\[\\verdict(pass|fail|open)\] \\texttt\{(.*?)\} \(", re.M),
}
_LATEX_VERDICT = {"pass": "PASS", "fail": "FAIL", "open": "UNDECIDED"}


def _report_verdicts(fmt, text):
    if fmt == "json":
        return [[c["name"], c["verdict"]] for c in json.loads(text)["checks"]]
    pairs = _VERDICT_LINE[fmt].findall(text)
    if fmt == "latex":
        return [[name.replace("\\", ""), _LATEX_VERDICT[v]] for v, name in pairs]
    return [[name, v] for v, name in pairs]


def run_report(argv):
    """Run ``cli.main`` in process with stdout captured: (exit status, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def _gallery_check(want, doc, fmt):
    def check(result):
        status, text = result
        if status != want["exit"]:
            return "%s (%s): exit status %s, known answer %s" % (doc, fmt, status, want["exit"])
        got = _report_verdicts(fmt, text)
        if got != want["checks"]:
            return "%s (%s): verdicts %s, known answer %s" % (doc, fmt, got, want["checks"])
        return None

    return check


def build_gallery(seed, known):
    # testfn_gallery.fol (a bump cover and a flat profile) is the slowest
    # document; listing it twice puts the 90th percentile in the middle of
    # its cluster instead of on the edge.
    rng = random.Random(seed)
    docs = sorted(known["gallery"]) + ["testfn_gallery.fol"]
    formats = ("json", "text", "latex")
    ops = []
    # 11 documents x 3 formats: every (document, format) pair once per cycle
    for i in range(len(docs) * len(formats)):
        doc, fmt = docs[i % len(docs)], formats[i % len(formats)]
        argv = ["report", os.path.join(GALLERY_DIR, doc), "--seed", str(rng.randrange(1 << 31)), "--format", fmt]
        check = _gallery_check(known["gallery"][doc], doc, fmt)
        ops.append(Op(doc, "%s (%s)" % (doc, fmt), lambda argv=argv: run_report(argv), check))
    return ops


# ---------------------------------------------------------------------------
# swell: exact construction at growing size


def _gv_op(spec):
    mu = spec.build()
    kind = "gv_q%d_k%d" % (spec.q, spec.k)
    return Op(kind, "%s perm=%s" % (kind, spec.perm), lambda: gv_form(mu, spec.q),
              lambda form: None if not form.is_zero else kind + ": GV form is zero", mu_spec=spec)


def _shift_map(rng, spec, shift, t_role, s_role):
    """x_t -> x_t + shift(c, x_s), with t and s given by their roles in ``spec``.

    Naming the coordinates by role keeps the map's structure relative to
    mu, and so the cost of the op, independent of the seeded permutation.
    """
    coords = spec.coords
    t, s = coords[spec.perm[t_role]], coords[spec.perm[s_role]]
    comps = {c: sym(c) for c in coords}
    comps[t] = sym(t) + shift(rat(_const(rng)), sym(s))
    return CoordinateMap(coords, coords, comps)


def _exp_shift(c, x):
    return c * exp(x)


def _rat_shift(c, x):
    return c / (1 + x * x)


def _naturality_op(kind, spec, phi, scale, cfg, check):
    """forms_equal(gv_form(phi* mu), scale * phi* gv_form(mu)): PASS at scale 1, FAIL at 2."""
    mu = spec.build()
    region = _box(spec.coords)

    def run():
        lhs = gv_form(pullback(phi, mu), spec.q)
        rhs = pullback(phi, gv_form(mu, spec.q))
        return verdict_of(forms_equal(lhs, rhs * rat(scale), region, cfg)).value

    return Op(kind, kind, run, check)


def build_swell(seed, known):
    rng = random.Random(seed)
    cfg = lambda: ZeroTestConfig(rng_seed=rng.randrange(1 << 63))  # noqa: E731

    def nat(kind, k, shift, s_role, scale):
        spec = mu_spec(rng, 1, k)
        phi = _shift_map(rng, spec, shift, 2, s_role)
        return _naturality_op(kind, spec, phi, scale, cfg(), _expect(known, kind))

    # 23 ops, by time: 7 fast ones, 8 q=1 k=3 ops across the median,
    # 3 rational naturality ops (whose cost varies a little with the
    # seed), and 5 q=2 ops across the 90th percentile.
    return (
        [_gv_op(mu_spec(rng, 1, 1)) for _ in range(2)]
        + [_gv_op(mu_spec(rng, 1, 2)) for _ in range(2)]
        + [nat("naturality_exp", 1, _exp_shift, s_role, 1) for s_role in (0, 1)]
        + [nat("naturality_exp_control", 1, _exp_shift, 0, 2)]
        + [_gv_op(mu_spec(rng, 1, 3)) for _ in range(8)]
        + [nat("naturality_rat", 0, _rat_shift, s_role, 1) for s_role in (0, 1)]
        + [nat("naturality_rat_control", 0, _rat_shift, 0, 2)]
        + [_gv_op(mu_spec(rng, 2, 1)) for _ in range(5)]
    )


# ---------------------------------------------------------------------------
# sampling: the symbolic layer read (evaluated) rather than written


def build_sampling(seed, known):
    rng = random.Random(seed)
    cfg = lambda: ZeroTestConfig(rng_seed=rng.randrange(1 << 63))  # noqa: E731
    spec = mu_spec(rng, 1, 3)
    coords = spec.coords
    x = [sym(c) for c in coords]
    (c,) = gv_form(spec.build(), 1).coeffs.values()  # the 1098-term coefficient
    box = _box(coords)
    # a band of half-width 1/10 around a seeded plane: about 9 in 10 draws rejected
    s, t = rng.sample(range(3), 2)
    band = rat(1, 100) - (x[s] - rat(_const(rng)) * x[t]) ** 2
    thin = Region(coords, (band,), dict(box.box), "thin")
    # flatexp(u) * flatexp(-u) is identically zero, but no normalization or
    # sample can show it: every one of the 32 samples is evaluated.
    u = x[rng.randrange(3)]
    flat = flatexp(u) * flatexp(-u) * c

    def one_form(*pairs):
        out = None
        for i, coeff in pairs:
            term = basis_form(coords, [coords[i]]) * coeff
            out = term if out is None else out + term
        return out

    p = list(range(3))
    rng.shuffle(p)
    g1 = one_form((p[0], 1 + rat(abs(_const(rng))) * x[p[1]] ** 2), (p[2], x[p[0]]))
    g2 = one_form((p[1], 1), (p[2], rat(_const(rng)) * exp(x[p[0]])))
    omega = one_form((p[1], x[p[2]]), (p[0], rat(_const(rng))))

    def zero_test(kind, expr, region):
        cfg_ = cfg()
        return Op(kind, kind, lambda: verdict_of(is_zero_on(expr, region, cfg_)).value, _expect(known, kind))

    def ideal(kind, b, gens):
        cfg_ = cfg()
        return Op(kind, kind, lambda: verdict_of(ideal_member(b, gens, box, cfg_)).value, _expect(known, kind))

    member = wedge(g1, omega)
    nonmember = wedge(omega, basis_form(coords, [coords[p[2]]]))
    # 20 ops, by time: 3 nonmember and 4 one-generator ideal tests, the
    # 7 two-generator ideal tests across the median, 2 refutations (one
    # evaluation of c each), and the 4 undecided tests, which carry most of
    # the time, across the 90th percentile.  The long ops come first, so
    # that the short ones do not pay for the move to another CPU at the
    # start of each cycle.
    return (
        [zero_test(kind, flat, region) for _ in range(2) for kind, region in (("undecided_box", box),
                                                                              ("undecided_thin", thin))]
        + [zero_test("refute_box", c, box), zero_test("refute_thin", c, thin)]
        + [ideal("ideal_member", member, [g1, g2]) for _ in range(7)]
        + [ideal("ideal_member", member, [g1]) for _ in range(4)]
        + [ideal("ideal_nonmember", nonmember, [g1]) for _ in range(3)]
    )


CYCLES = {"gallery": build_gallery, "swell": build_swell, "sampling": build_sampling}
