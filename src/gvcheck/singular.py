"""Twisted differential, collar extensions, and exactness verification.

For a reference function f whose zero set S is the coordinate slice
{t = 0}, the twisted differential d_f w = f*dw - p*df^w acts on p-forms;
f^p * w maps the ordinary complex into it.  Forms on S extend to the
full chart through a collar: a slice form involves neither t nor dt, so
it is its own pullback along t -> 0, and it is extended by multiplying
it by a cutoff in t that is 1 near S and supported in a slightly larger
band.  The exactness checks verify user-supplied primitives and
decompositions; nothing here computes cohomology.
"""
from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from .errors import DegreeError, DomainError, PreconditionError
from .foliations import Foliation
from .forms import (
    DiffForm,
    ext_d,
    forms_equal,
    scalar_form,
    vanishes_on,
    wedge,
)
from .gv import require_basic, weighted_gv_form
from .regions import Region
from .symbolic import (
    ScalarExpr,
    ZeroTestConfig,
    evaluate,
    free_coords,
    left_sum,
    mix_seed,
    normalize,
    rat,
    sym,
)
from .testfn import smooth_step
from .verdicts import Outcome

REGULAR_VALUE_FLOOR = 1e-6


class TubularData:
    """A collar around the slice S = {t = 0} of the chart.

    ``f`` is the reference function cutting out S, ``t`` the transverse
    coordinate, and eps < eps_outer the half-widths of the inner and
    outer bands.  The cutoff ``rho`` (built on construction) is 1 for
    |t| <= eps and 0 for |t| >= eps_outer; a slice form is extended to
    the chart by multiplying it by ``rho``.
    """

    __slots__ = ("region", "f", "t", "eps", "eps_outer", "rho")

    def __init__(self, region: Region, f: ScalarExpr, t: str, eps: Fraction, eps_outer: Fraction):
        if t not in region.coords:
            raise ValueError("transverse coordinate %r is not in the chart" % t)
        eps = Fraction(eps)
        outer = Fraction(eps_outer)
        if not (outer > eps > 0):
            raise ValueError("need eps_outer > eps > 0")
        self.region = region
        self.f = normalize(f)
        self.t = t
        self.eps = eps
        self.eps_outer = outer
        tv = sym(t)
        u = (rat(outer * outer) - tv * tv) / rat(outer * outer - eps * eps)
        self.rho = smooth_step(u)

    def validate(self, cfg: ZeroTestConfig) -> Outcome:
        """Sampled cutoff invariants: 1 on the inner band, 0 outside the outer."""
        rng = Random(mix_seed(cfg.rng_seed, 0x7B))
        draws = range(cfg.sample_count)
        eps, outer = float(self.eps), float(self.eps_outer)
        inner = ({self.t: rng.uniform(-eps, eps)} for _ in draws)
        inner_bad = next((p for p in inner if evaluate(self.rho, p) != 1.0), None)
        hi = max(self.region.box[self.t][1], outer + 1.0)
        # each point draws its magnitude, then its sign
        beyond = (rng.uniform(outer, hi) for _ in draws)
        outside = ({self.t: t if rng.random() < 0.5 else -t} for t in beyond)
        outer_bad = next((p for p in outside if evaluate(self.rho, p) != 0.0), None)
        return Outcome.of(
            (
                ("cutoff-inner", Outcome.from_witness(inner_bad)),
                ("cutoff-support", Outcome.from_witness(outer_bad)),
            )
        )


def d_f(f: ScalarExpr, w: DiffForm) -> DiffForm:
    """Twisted differential f*dw - p*df^w on a p-form."""
    f = normalize(f)
    p = w.degree
    df = ext_d(scalar_form(w.coords, f))
    return ext_d(w) * f - wedge(df, w) * rat(p)


def phi_map(f: ScalarExpr, w: DiffForm) -> DiffForm:
    """The chain map into the twisted complex: multiply a p-form by f^p."""
    f = normalize(f)
    return w * (f ** w.degree)


def tilde_extend(beta: DiffForm, td: TubularData) -> DiffForm:
    """Extend a form living on the slice to the chart via the collar:
    beta * rho.

    The input must not involve the transverse coordinate at all — not
    in its coefficients and not as a differential — so it is its own
    pullback along t -> 0.
    """
    t_index = beta.coords.index(td.t)
    for idx, c in beta.coeffs.items():
        if t_index in idx:
            raise DomainError(
                "form carries the transverse differential d%s" % td.t, offender=str(beta)
            )
        if td.t in free_coords(c):
            raise DomainError(
                "coefficient depends on the transverse coordinate %r" % td.t,
                offender=str(c),
            )
    return beta * td.rho


def iso_decompose(
    f: ScalarExpr,
    alpha: DiffForm,
    beta: DiffForm,
    td: TubularData,
    cfg: ZeroTestConfig,
):
    """Assemble f^p alpha + f^(p-1) df ^ beta~ and verify its pedigree.

    alpha (degree p) and beta (degree p-1, slice form) must both be
    closed — a refuted closedness raises; an undecided one is reported.
    The assembled form is then checked to be d_f-closed on the region.
    Returns (form, report).
    """
    f = normalize(f)
    p = alpha.degree
    if not beta.is_zero and beta.degree != p - 1:
        raise DegreeError(
            "slice form has degree %d, expected %d" % (beta.degree, p - 1)
        )
    entries = []
    for name, w in (("alpha-closed", alpha), ("beta-closed", beta)):
        out = vanishes_on(ext_d(w), td.region, cfg)
        if out.nonzero:
            raise PreconditionError(
                "%s input is not closed" % name.split("-")[0], witness=out.witness
            )
        entries.append((name, out))
    df = ext_d(scalar_form(alpha.coords, f))
    composite = alpha * (f ** p)
    if not beta.is_zero:
        composite = composite + wedge(df, tilde_extend(beta, td)) * (f ** (p - 1))
    entries.append(("df-closed", vanishes_on(d_f(f, composite), td.region, cfg)))
    return composite, Outcome.of(entries)


def verify_exact(nu_bar: DiffForm, tau: DiffForm, region: Region, cfg: ZeroTestConfig):
    """Is the supplied primitive genuine?  Verdict on d(tau) == nu_bar."""
    if not tau.is_zero and not nu_bar.is_zero and tau.degree != nu_bar.degree - 1:
        raise DegreeError(
            "primitive has degree %d, expected %d" % (tau.degree, nu_bar.degree - 1)
        )
    return forms_equal(ext_d(tau), nu_bar, region, cfg)


def _regular_value_check(dphi: DiffForm, td: TubularData, cfg: ZeroTestConfig):
    """Sampled lower bound for the norm of d(phi) on the slice {t = 0}."""
    worst = None
    worst_norm = math.inf
    for point in cfg.points(td.region):
        point = dict(point)
        point[td.t] = 0.0
        norm2 = left_sum(evaluate(g, point) ** 2 for g in dphi.coeffs.values())
        norm = math.sqrt(norm2)
        if norm < worst_norm:
            worst_norm = norm
            worst = point
    if worst_norm <= REGULAR_VALUE_FLOOR:
        raise PreconditionError(
            "gradient of the weight degenerates on the slice {%s = 0}" % td.t,
            witness=worst,
            detail="min sampled gradient norm %.3e" % worst_norm,
        )
    return worst_norm


def check_exactness_pipeline(
    fol: Foliation,
    phi: ScalarExpr,
    mu: DiffForm,
    td: TubularData,
    tau: DiffForm,
    cfg: ZeroTestConfig,
) -> Outcome:
    """End-to-end verdicts for a weighted GV form and its primitive.

    Preconditions (each refutation raises with a witness): phi is basic
    for the foliation, and 0 is a regular value of phi along the slice.
    With q the codimension and nu_bar = (phi*mu) ^ (d(phi*mu))^q, the
    verdicts are:

    * identity:     nu_bar == phi^(1+q) * mu ^ (d mu)^q;
    * closedness:   d(nu_bar) == 0;
    * transversal:  d(phi) ^ nu_bar == 0;
    * exactness:    d(tau) == phi^q * nu_bar (the twisted-level object
      phi^q nu_bar is the form the supplied primitive integrates).
    """
    phi = normalize(phi)
    basic, dphi = require_basic(phi, fol, cfg)
    floor = _regular_value_check(dphi, td, cfg)
    nu_bar, _, rows = weighted_gv_form(phi, mu, fol, basic, cfg)
    transversal = vanishes_on(wedge(dphi, nu_bar), fol.region, cfg)
    exact = verify_exact(nu_bar * (phi ** fol.codim), tau, fol.region, cfg)
    entries = rows + (("transversal", transversal), ("exactness", exact))
    notes = (
        "slice connectedness is assumed, not verified",
        "min sampled gradient norm on the slice: %.3e" % floor,
    )
    return Outcome.of(entries, notes)
