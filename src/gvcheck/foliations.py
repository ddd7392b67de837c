"""Families of regular foliations on open regions of one global chart.

Each :class:`Foliation` is presented by a defining q-form together with
a decomposition into q pointwise independent transverse 1-forms, where q
is the codimension.  A :class:`FoliationFamily` collects foliations with
pairwise distinct leaf dimensions whose regions cover the working box,
nested in the sense that a foliation with smaller leaves is tangent to
every overlapping one with larger leaves.  One-leaf members (q = 0) use
the constant 0-form 1 as their defining form and have no generators.
"""
from __future__ import annotations

from .errors import PreconditionError, SamplingError
from .forms import (
    CoordinateMap,
    DiffForm,
    dependent_sample,
    ext_d,
    forms_equal,
    pullback,
    scalar_form,
    vanishes_on,
    wedge,
    wedge_all,
)
from .regions import Region, box_region, hull_box, intersect
from .symbolic import ONE, ZeroTestConfig
from .verdicts import Outcome, Verdict, combine_outcomes, point_str


class Foliation:
    """A regular foliation of an open region, presented by forms.

    ``nu`` is the defining (m - leaf_dim)-form and ``decomposition`` the
    transverse 1-forms whose wedge recovers nu.  ``transverse`` optionally
    names coordinates c_1..c_q for which nu = h * dc_1 ^ ... ^ dc_q; the
    adapted-shape solvers require it.
    """

    __slots__ = ("name", "region", "leaf_dim", "nu", "decomposition", "transverse")

    def __init__(self, name: str, region: Region, leaf_dim: int, nu: DiffForm, decomposition: tuple = (),
                 transverse: tuple | None = None):
        m = len(region.coords)
        q = m - leaf_dim
        if not (0 <= leaf_dim <= m):
            raise ValueError("leaf dimension %d outside 0..%d" % (leaf_dim, m))
        if nu.degree != q:
            raise ValueError("defining form has degree %d, expected codimension %d" % (nu.degree, q))
        decomposition = tuple(decomposition)
        if len(decomposition) != q:
            raise ValueError("decomposition must have exactly %d transverse 1-forms" % q)
        for w in decomposition:
            if w.degree != 1:
                raise ValueError("decomposition entries must be 1-forms")
        if q == 0 and nu.coefficient(()) != ONE:
            raise ValueError("a one-leaf foliation must use the constant 0-form 1")
        if transverse is not None:
            transverse = tuple(transverse)
            if len(transverse) != q:
                raise ValueError("transverse coordinate list must have length %d" % q)
        self.name = name
        self.region = region
        self.leaf_dim = leaf_dim
        self.nu = nu
        self.decomposition = decomposition
        self.transverse = transverse

    @property
    def coords(self):
        return self.region.coords

    @property
    def codim(self):
        return len(self.region.coords) - self.leaf_dim


def one_leaf(name, region):
    """The trivial foliation with a single leaf (codimension 0)."""
    coords = region.coords
    return Foliation(name, region, len(coords), scalar_form(coords, ONE), ())


def validate_foliation(fol: Foliation, cfg: ZeroTestConfig) -> Outcome:
    """Semantic checks behind the foliation presentation.

    * decomposition-product: wedge of the transverse 1-forms equals nu;
    * independence: the transverse 1-forms are pointwise independent at
      sampled points (normalized Gram determinant);
    * integrability: d(w) ^ nu == 0 for every transverse generator w
      (the Frobenius condition for the annihilator ideal).
    """
    product = wedge_all(fol.coords, fol.decomposition)
    entries = [("decomposition-product", forms_equal(product, fol.nu, fol.region, cfg))]
    if fol.decomposition:
        dependent = dependent_sample(fol.decomposition, fol.region, cfg)
        entries.append(("independence", Outcome.from_witness(dependent, "generators dependent at sample")))
    for k, w in enumerate(fol.decomposition):
        residual = wedge(ext_d(w), fol.nu)
        outcome = vanishes_on(residual, fol.region, cfg)
        if not outcome.proved:
            outcome = Outcome(outcome.status, outcome.witness, outcome.value, outcome.detail,
                              witness_form=str(residual))
        entries.append(("integrability[%d]" % k, outcome))
    return Outcome.of(entries)


class FoliationFamily:
    """Foliations with pairwise distinct leaf dimensions covering a box."""

    __slots__ = ("members", "box", "saturated")

    def __init__(self, members: tuple, box: dict | None = None, saturated: bool = False):
        members = tuple(members)
        if not members:
            raise ValueError("a family needs at least one member")
        coords = members[0].coords
        for f in members:
            if f.coords != coords:
                raise ValueError("family members live on different charts")
        names = [f.name for f in members]
        if len(set(names)) != len(names):
            raise ValueError("family members must have distinct names")
        self.members = members
        self.box = box or hull_box([f.region for f in members])
        self.saturated = saturated

    @property
    def coords(self):
        return self.members[0].coords

    def member(self, name):
        for f in self.members:
            if f.name == name:
                return f
        raise KeyError(name)

    def working_region(self):
        return box_region(self.coords, self.box, name="working-box")

    def ranks(self):
        return sorted({f.leaf_dim for f in self.members})

    def rank_error(self, rank, name):
        """Why ``rank`` selects no stratum of this family, called ``name``
        in the message, or None when it is a member's leaf dimension."""
        if rank in self.ranks():
            return None
        return "rank %d is not the leaf dimension of any member of family %s (leaf dimensions: %s)" % (
            rank, name, ", ".join(map(str, self.ranks()))
        )


def _overlap_or_none(a: Region, b: Region, cfg):
    """Intersection region plus a sampled nonemptiness witness, or None.

    Overlap emptiness is decided by sampling only, so "no overlap
    detected" is distinct from a proof of disjointness.
    """
    try:
        ov = intersect(a, b)
    except ValueError:
        return None
    try:
        next(cfg.points(ov))
    except SamplingError:
        return None
    return ov


def check_family(fam: FoliationFamily, cfg: ZeroTestConfig) -> Outcome:
    """Family-level conditions.

    * member-validity: every member passes :func:`validate_foliation`;
    * distinct-leaf-dims: leaf dimensions are pairwise distinct;
    * coverage: sampled working-box points all lie in some member region;
    * overlap-nesting: for leaf dims r_i < r_j, every transverse
      generator of the larger-leaved foliation lies in the span of the
      smaller one's generators on the overlap (tangency of leaves).
    """
    entries = []
    notes = []
    for f in fam.members:
        rep = validate_foliation(f, cfg)
        member = Outcome(
            rep.status,
            witness=next((o.witness for _, o in rep.entries if o.witness), None),
            detail="; ".join("%s: %s" % (n, o.status.value) for n, o in rep.entries if not o.proved),
        )
        entries.append(("member-validity[%s]" % f.name, member))
    dims = [f.leaf_dim for f in fam.members]
    distinct = Verdict.PASS if len(set(dims)) == len(dims) else Verdict.FAIL
    entries.append(("distinct-leaf-dims", Outcome(distinct, detail="leaf dimensions %s" % dims)))
    points = cfg.points(fam.working_region())
    gap = next((p for p in points if not any(f.region.contains(p) for f in fam.members)), None)
    coverage = Outcome.from_witness(
        gap, "sampled box point escapes every region", passed="%d box samples covered" % cfg.sample_count
    )
    entries.append(("coverage", coverage))
    ordered = sorted(fam.members, key=lambda f: f.leaf_dim)
    for i, fi in enumerate(ordered):
        for fj in ordered[i + 1:]:
            label = "overlap-nesting[%s<%s]" % (fi.name, fj.name)
            ov = _overlap_or_none(fi.region, fj.region, cfg)
            if ov is None:
                entries.append((label, Outcome.from_witness(None, passed="no overlap detected")))
                continue
            if fj.decomposition:
                outcome = combine_outcomes(
                    vanishes_on(wedge_all(fam.coords, (w,) + fi.decomposition), ov, cfg)
                    for w in fj.decomposition
                )
            else:
                outcome = Outcome(Verdict.PASS, detail="larger-leaved member has no generators")
            entries.append((label, outcome))
    notes.append("saturation asserted by user: %s" % ("yes" if fam.saturated else "no"))
    return Outcome.of(entries, notes)


def rank_at(fam: FoliationFamily, point):
    """max leaf dimension among the member regions containing the point."""
    dims = [f.leaf_dim for f in fam.members if f.region.contains(point)]
    if not dims:
        raise PreconditionError("point lies in no member region", witness=dict(point))
    return max(dims)


def stratum(fam: FoliationFamily, rank: int) -> FoliationFamily:
    """The open rank stratum: the members with leaf dimension >= ``rank``,
    as a family on the same box and with the same saturation flag."""
    if rank not in fam.ranks():
        raise ValueError("rank %d is not the leaf dimension of any member" % rank)
    members = tuple(f for f in fam.members if f.leaf_dim >= rank)
    return FoliationFamily(members, box=fam.box, saturated=fam.saturated)


def check_invariance(m: CoordinateMap, fol: Foliation, cfg: ZeroTestConfig):
    """Does the map preserve the foliation?

    Precondition (sampled): the map sends the region into itself; a
    violation raises with the witness sample.  Then each pulled-back
    transverse generator must stay in the annihilator ideal:
    pullback(m, w) ^ nu == 0 on the region.
    """
    for point in cfg.points(fol.region):
        image = m.apply(point)
        if not fol.region.contains(image):
            raise PreconditionError(
                "map does not preserve the region at a sample",
                witness=dict(point),
                detail="image %s" % point_str(image),
            )
    return combine_outcomes(
        vanishes_on(wedge(pullback(m, w), fol.nu), fol.region, cfg) for w in fol.decomposition
    )


class PiecewiseForm:
    """A form given by pieces on regions, all of one degree.

    Consistency on overlaps is a checked claim, not a construction
    invariant: :func:`check_piecewise` samples pairwise overlaps and
    tests that the pieces agree there.
    """

    __slots__ = ("pieces", "degree")

    def __init__(self, pieces: tuple, degree: int):
        for _, f in pieces:
            if f.degree != degree and not f.is_zero:
                raise ValueError("piece degree %d differs from declared %d" % (f.degree, degree))
        self.pieces = pieces  # of (Region, DiffForm)
        self.degree = degree

    def piece_on(self, region_name):
        for r, f in self.pieces:
            if r.name == region_name:
                return f
        raise KeyError(region_name)


def check_piecewise(pw: PiecewiseForm, cfg: ZeroTestConfig) -> Outcome:
    """Pairwise overlap agreement of the pieces (tri-state per pair)."""
    entries = []
    for i, (ri, fi) in enumerate(pw.pieces):
        for j in range(i + 1, len(pw.pieces)):
            rj, fj = pw.pieces[j]
            label = "agree[%s,%s]" % (ri.name or i, rj.name or j)
            ov = _overlap_or_none(ri, rj, cfg)
            if ov is None:
                entries.append((label, Outcome.from_witness(None, passed="no overlap detected")))
                continue
            entries.append((label, forms_equal(fi, fj, ov, cfg)))
    return Outcome.of(entries)
