"""Godbillon-Vey machinery: Frobenius witnesses, GV forms, gluing.

The central objects are a Frobenius witness mu for a defining form nu
(d nu = nu ^ mu), the closed Godbillon-Vey form mu ^ (d mu)^q of a
codimension-q foliation, the factorization nu_sub = nu_sup ^ theta on
overlaps of nested foliations, and the extension-by-zero gluing of the
minimal-stratum GV form across a family.  A weighted variant multiplies
mu by a basic function before building the GV form.
"""
from __future__ import annotations

from .errors import GluingError, GvError, PreconditionError, UnsupportedShapeError
from .foliations import Foliation, FoliationFamily, PiecewiseForm, overlap_or_none, stratum
from .forms import (
    DiffForm,
    basis_form,
    ext_d,
    form_power,
    forms_equal,
    ideal_member,
    perm_sign,
    scalar_form,
    vanishes_on,
    wedge,
    zero_form,
)
from .regions import Region
from .symbolic import ONE, ScalarExpr, ZeroTestConfig, certified_nonzero, enclose, evaluate, normalize, rat
from .verdicts import Outcome

_GAUGE_ADVICE = "consider a different Frobenius witness (gauge change mu -> mu + f*nu)"


def _sign(q):
    """(-1)^q as an exact scalar."""
    return rat(-1 if q % 2 else 1)


def adapted_gauge(fol: Foliation) -> ScalarExpr:
    """Extract h from a defining form of shape nu = h * dc_1 ^ ... ^ dc_q.

    Requires the foliation to name its transverse coordinates; the
    defining form must be a single term over exactly those coordinate
    differentials.  Anything else raises UnsupportedShapeError, which
    directs the caller to supply a Frobenius witness explicitly.
    """
    if fol.transverse is None:
        raise UnsupportedShapeError(
            "foliation %r does not name transverse coordinates; supply mu explicitly" % fol.name
        )
    coords = fol.coords
    if fol.codim == 0:
        return ONE
    idx = tuple(coords.index(c) for c in fol.transverse)
    key = tuple(sorted(idx))
    extra = [k for k in fol.nu.coeffs if k != key]
    if extra or key not in fol.nu.coeffs:
        raise UnsupportedShapeError(
            "defining form of %r is not a single term over its transverse differentials; "
            "supply mu explicitly" % fol.name
        )
    return fol.nu.coeffs[key] * rat(perm_sign(idx))


def _require_nonvanishing(h, region, cfg, message):
    """Raise ``message`` with the first sampled point where h is not
    :func:`certified_nonzero`, or the evaluation error h raises there.

    No point is drawn when h's enclosure over the region's box excludes 0:
    enclosures are inclusion-isotonic, so each sample's would exclude it too.
    """
    lo, hi = enclose(h, region.box) or (0.0, 0.0)
    if lo > 0.0 or hi < 0.0:
        return
    for point in cfg.points(region):
        if not certified_nonzero(h, point):
            evaluate(h, point)
            raise PreconditionError(message, witness=point)


def solve_mu(fol: Foliation, cfg: ZeroTestConfig | None = None) -> DiffForm:
    """Frobenius witness for an adapted defining form.

    For nu = h * dc_1 ^ ... ^ dc_q the witness is mu = (-1)^q dh/h,
    kept as a quotient (no logarithm atom).  The identity
    d nu = nu ^ mu is re-derived exactly before returning.  When a
    config is supplied, the gauge h is additionally sampled for zeros
    on the region (a vanishing h breaks the quotient).
    """
    h = adapted_gauge(fol)
    q = fol.codim
    if cfg is not None and h.as_fraction() is None:
        _require_nonvanishing(h, fol.region, cfg, "gauge of %r vanishes at a sample" % fol.name)
    dh = ext_d(scalar_form(fol.coords, h))
    mu = dh * (_sign(q) / h)
    residual = ext_d(fol.nu) - wedge(fol.nu, mu)
    if not residual.is_zero:
        raise GvError("derived witness fails d(nu) = nu ^ mu: residual %s" % residual)
    return mu


def verify_frobenius(nu: DiffForm, mu: DiffForm, region: Region, cfg: ZeroTestConfig) -> Outcome:
    """Tri-state verdict on the integrability identity d(nu) = nu ^ mu."""
    return forms_equal(ext_d(nu), wedge(nu, mu), region, cfg)


def gv_form(mu: DiffForm, q: int) -> DiffForm:
    """The Godbillon-Vey form mu ^ (d mu)^q of degree 2q+1."""
    if q < 0:
        raise ValueError("power must be nonnegative")
    return wedge(mu, form_power(ext_d(mu), q))


def solve_theta(
    f_sub: Foliation, f_sup: Foliation, overlap: Region, cfg: ZeroTestConfig
) -> tuple:
    """Factor the smaller-leaved defining form through the larger one.

    Both foliations must be adapted with the sup's transverse
    coordinates a subset of the sub's.  The candidate is
    theta = (h_sub/h_sup) * d(tilde coordinates), and nu_sup ^ theta is
    nu_sub up to the sign of the permutation that takes the sub's
    transverse coordinates to the sup's followed by tilde: the result is
    (theta, +1) or (-theta, -1), the wedge-ordering correction.  The
    only sampling is the sup gauge's nonvanishing check on the overlap.
    """
    h1 = adapted_gauge(f_sub)
    h2 = adapted_gauge(f_sup)
    if not set(f_sup.transverse) <= set(f_sub.transverse):
        raise UnsupportedShapeError(
            "transverse coordinates of %r are not a subset of those of %r"
            % (f_sup.name, f_sub.name)
        )
    tilde = tuple(c for c in f_sub.transverse if c not in set(f_sup.transverse))
    if not tilde:
        raise UnsupportedShapeError("codimension gap must be positive to factor")
    _require_nonvanishing(h2, overlap, cfg, "gauge of %r vanishes at an overlap sample" % f_sup.name)
    theta = basis_form(f_sub.coords, tilde) * (h1 / h2)
    sign = perm_sign([f_sub.transverse.index(c) for c in f_sup.transverse + tilde])
    return (theta if sign > 0 else -theta), sign


def transition_mu(mu1: DiffForm, mu2: DiffForm, q1: int, q2: int) -> DiffForm:
    """The combined witness (-1)^q2 (mu1 - (-1)^q1 mu2) on an overlap.

    Here q1 is the codimension gap between the nested foliations and q2
    the codimension of the larger-leaved one.
    """
    return (mu1 - mu2 * _sign(q1)) * _sign(q2)


def check_overlap_identities(
    f_sub: Foliation,
    f_sup: Foliation,
    mu1: DiffForm,
    mu2: DiffForm,
    theta: DiffForm,
    overlap: Region,
    cfg: ZeroTestConfig,
) -> Outcome:
    """Ideal memberships tying the two witnesses together on an overlap.

    With q1 the codimension gap, q2 = codim of the larger-leaved
    foliation, and I the ideal spanned by the sup's transverse 1-forms:

    * dtheta-residual:        d theta - theta ^ mu3 in I, with
      mu3 = (-1)^q2 (mu1 - (-1)^q1 mu2) the transition witness;
    * theta-wedge-dtransition: theta ^ d(mu3) in I;
    * dtransition-membership:  d(mu3) in I;
    * dmu-sub-membership:      d(mu1) in I.
    """
    q1 = f_sub.codim - f_sup.codim
    q2 = f_sup.codim
    if q1 <= 0:
        raise ValueError("expected a positive codimension gap, got %d" % q1)
    gens = f_sup.decomposition
    mu3 = transition_mu(mu1, mu2, q1, q2)
    d_mu3 = ext_d(mu3)
    checks = (
        ("dtheta-residual", ext_d(theta) - wedge(theta, mu3)),
        ("theta-wedge-dtransition", wedge(theta, d_mu3)),
        ("dtransition-membership", d_mu3),
        ("dmu-sub-membership", ext_d(mu1)),
    )
    return Outcome.of((name, ideal_member(form, gens, overlap, cfg)) for name, form in checks)


def check_minimal_vanishing(fam: FoliationFamily, mu: dict, cfg: ZeroTestConfig) -> Outcome:
    """Vanishing of the minimal-stratum GV form on larger-leaved overlaps.

    ``mu`` maps each member's name to its Frobenius witness.  Verifies
    each witness first, then, writing mu_min for the witness of the
    smallest-leaved member (codimension q_max), checks
    (d mu_min)^(1+q_j) == 0 and gv_form(mu_min, q_max) == 0 on every
    overlap with a member of codimension q_j < q_max.  A refuted
    vanishing gets gauge-change advice in the detail.
    """
    return _minimal_vanishing(fam, mu, cfg)[0]


def _minimal_vanishing(fam, mu, cfg):
    """:func:`check_minimal_vanishing`'s report, the smallest-leaved
    member and the GV form of its witness."""
    entries = []
    for f in fam.members:
        out = verify_frobenius(f.nu, mu[f.name], f.region, cfg)
        entries.append(("frobenius[%s]" % f.name, out))
    f_min = min(fam.members, key=lambda f: f.leaf_dim)
    mu_min = mu[f_min.name]
    q_max = f_min.codim
    d_mu = ext_d(mu_min)
    gv = gv_form(mu_min, q_max)
    for f in fam.members:
        if f.leaf_dim <= f_min.leaf_dim:
            continue
        ov = overlap_or_none(f_min.region, f.region, cfg)
        label_pow = "power-vanishing[%s]" % f.name
        label_gv = "gv-vanishing[%s]" % f.name
        if ov is None:
            entries.append((label_pow, Outcome.from_witness(None, passed="no overlap detected")))
            entries.append((label_gv, Outcome.from_witness(None, passed="no overlap detected")))
            continue
        out_pow = vanishes_on(form_power(d_mu, 1 + f.codim), ov, cfg)
        out_gv = vanishes_on(gv, ov, cfg)
        for label, out in ((label_pow, out_pow), (label_gv, out_gv)):
            if out.nonzero:  # a refuting forms_equal outcome has no other fields
                out = Outcome(out.status, out.witness, out.value, _GAUGE_ADVICE)
            entries.append((label, out))
    return Outcome.of(entries), f_min, gv


def gv_min(fam: FoliationFamily, mu: dict, rank: int, cfg: ZeroTestConfig):
    """Glue the GV form of the rank stratum across the family.

    Restricts the family to its open stratum :func:`stratum` (fam, rank)
    (a rank that is no member's leaf dimension raises ValueError), takes
    the member realizing the minimum (leaf dimension == rank, codim q),
    and extends gv_form(mu, q) from its region by explicit zero pieces
    on the other regions; the piecewise degree is always 2q+1.  Returns
    (piecewise form, outcome).  The outcome has two entries:
    ``vanishing`` (the overlap rows of :func:`check_minimal_vanishing`)
    and ``closedness`` (one ``closed[region]`` row per piece).  The glue
    holds only when ``vanishing`` is proved; an undecided overlap leaves
    it unestablished, with a note.  A refuted overlap vanishing raises a
    gluing error with its witness.
    """
    sub = stratum(fam, rank)
    vanishing, f_min, gv = _minimal_vanishing(sub, mu, cfg)
    for name, out in vanishing.entries:
        if out.nonzero:
            raise GluingError("overlap vanishing refuted: %s" % name, witness=out.witness, detail=out.detail)
    degree = 2 * f_min.codim + 1
    pieces = [(f_min.region, gv)]
    for f in sub.members:
        if f is not f_min:
            pieces.append((f.region, zero_form(fam.coords, degree)))
    pw = PiecewiseForm(tuple(pieces), degree)
    closedness = Outcome.of(
        ("closed[%s]" % region.name, vanishes_on(ext_d(piece), region, cfg)) for region, piece in pw.pieces
    )
    detail = "degree %d form, glued with zero on %d region(s)" % (degree, len(pieces) - 1)
    notes = ()
    if not vanishing.proved:
        detail += "; gluing not established"
        notes = ("gluing not certified: an overlap verdict stayed undecided",)
    return pw, Outcome.of((("vanishing", vanishing), ("closedness", closedness)), notes, detail)


def check_basic(
    phi: ScalarExpr, fol: Foliation, region: Region, cfg: ZeroTestConfig
) -> Outcome:
    """Is phi constant along the leaves?  d(phi) must lie in the ideal."""
    dphi = ext_d(scalar_form(fol.coords, normalize(phi)))
    return ideal_member(dphi, fol.decomposition, region, cfg)


def require_basic(phi: ScalarExpr, fol: Foliation, cfg: ZeroTestConfig):
    """:func:`check_basic` of a normalized phi on the foliation's region; a
    refuted weight raises with the refutation's witness and detail.
    Returns the outcome and d(phi)."""
    dphi = ext_d(scalar_form(fol.coords, phi))
    basic = ideal_member(dphi, fol.decomposition, fol.region, cfg)
    if basic.nonzero:
        raise PreconditionError(
            "weight is not basic for the foliation", witness=basic.witness, detail=basic.detail
        )
    return basic, dphi


def weighted_gv_form(phi, mu: DiffForm, fol: Foliation, basic: Outcome, cfg: ZeroTestConfig):
    """The weighted GV form nu_bar = gv_form(phi*mu, q), q the codimension,
    and the plain gv_form(mu, q), with the rows every weighted report
    opens with: ``basic`` (the outcome of :func:`require_basic`),
    ``identity`` (nu_bar == phi^(1+q) times the plain form) and
    ``closedness`` (d(nu_bar) == 0).  Returns (nu_bar, plain, rows).
    """
    q = fol.codim
    nu_bar = gv_form(mu * phi, q)
    plain = gv_form(mu, q)
    identity = forms_equal(nu_bar, plain * (phi ** (1 + q)), fol.region, cfg)
    closed = vanishes_on(ext_d(nu_bar), fol.region, cfg)
    rows = (("basic", basic), ("identity", identity), ("closedness", closed))
    return nu_bar, plain, rows


def gv_weighted(phi: ScalarExpr, mu: DiffForm, fol: Foliation, cfg: ZeroTestConfig):
    """Weighted GV form (phi*mu) ^ (d(phi*mu))^q with its verdicts, q the
    codimension.

    Preconditions: phi basic for the foliation (a refutation raises)
    and mu Frobenius-verified by the caller.  The report carries the
    rows of :func:`weighted_gv_form` plus ``gradient-wedge``:
    d(phi) ^ mu ^ (d mu)^q vanishes.  Returns (form, report).
    """
    phi = normalize(phi)
    basic, dphi = require_basic(phi, fol, cfg)
    nu_bar, plain, rows = weighted_gv_form(phi, mu, fol, basic, cfg)
    gradient = vanishes_on(wedge(dphi, plain), fol.region, cfg)
    return nu_bar, Outcome.of(rows + (("gradient-wedge", gradient),))
