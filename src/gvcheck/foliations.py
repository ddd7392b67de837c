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

from dataclasses import dataclass, field

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
from .verdicts import CheckEntry, Outcome, Verdict, combine_outcomes


@dataclass(frozen=True)
class Foliation:
    """A regular foliation of an open region, presented by forms.

    ``nu`` is the defining (m - leaf_dim)-form and ``decomposition`` the
    transverse 1-forms whose wedge recovers nu.  ``transverse`` optionally
    names coordinates c_1..c_q for which nu = h * dc_1 ^ ... ^ dc_q; the
    adapted-shape solvers require it.
    """

    name: str
    region: Region
    leaf_dim: int
    nu: DiffForm
    decomposition: tuple = ()
    transverse: tuple | None = None

    def __post_init__(self):
        m = len(self.region.coords)
        q = m - self.leaf_dim
        if not (0 <= self.leaf_dim <= m):
            raise ValueError("leaf dimension %d outside 0..%d" % (self.leaf_dim, m))
        if self.nu.degree != q:
            raise ValueError("defining form has degree %d, expected codimension %d" % (self.nu.degree, q))
        object.__setattr__(self, "decomposition", tuple(self.decomposition))
        if len(self.decomposition) != q:
            raise ValueError("decomposition must have exactly %d transverse 1-forms" % q)
        for w in self.decomposition:
            if w.degree != 1:
                raise ValueError("decomposition entries must be 1-forms")
        if q == 0 and self.nu.coefficient(()) != ONE:
            raise ValueError("a one-leaf foliation must use the constant 0-form 1")
        if self.transverse is not None:
            object.__setattr__(self, "transverse", tuple(self.transverse))
            if len(self.transverse) != q:
                raise ValueError("transverse coordinate list must have length %d" % q)

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
    entries = []
    product = wedge_all(fol.coords, fol.decomposition)
    entries.append(
        CheckEntry.from_outcome(
            "decomposition-product", forms_equal(product, fol.nu, fol.region, cfg)
        )
    )
    if fol.decomposition:
        dependent = dependent_sample(fol.decomposition, fol.region, cfg)
        entries.append(CheckEntry.from_witness("independence", dependent, "generators dependent at sample"))
    for k, w in enumerate(fol.decomposition):
        residual = wedge(ext_d(w), fol.nu)
        outcome = vanishes_on(residual, fol.region, cfg)
        entries.append(
            CheckEntry.from_outcome(
                "integrability[%d]" % k,
                outcome,
                witness_form=None if outcome.proved else str(residual),
            )
        )
    return Outcome.of(entries)


@dataclass(frozen=True)
class FoliationFamily:
    """Foliations with pairwise distinct leaf dimensions covering a box."""

    members: tuple
    box: dict = field(default_factory=dict)
    saturated: bool = False

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a family needs at least one member")
        coords = members[0].coords
        for f in members:
            if f.coords != coords:
                raise ValueError("family members live on different charts")
        names = [f.name for f in members]
        if len(set(names)) != len(names):
            raise ValueError("family members must have distinct names")
        object.__setattr__(self, "members", members)
        if not self.box:
            object.__setattr__(self, "box", hull_box([f.region for f in members]))

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
        entries.append(
            CheckEntry(
                "member-validity[%s]" % f.name,
                rep.status,
                detail="; ".join(
                    "%s: %s" % (e.name, e.verdict.value) for e in rep.entries if e.verdict is not Verdict.PASS
                ),
                witness_point=next((e.witness_point for e in rep.entries if e.witness_point), None),
            )
        )
    dims = [f.leaf_dim for f in fam.members]
    entries.append(
        CheckEntry(
            "distinct-leaf-dims",
            Verdict.PASS if len(set(dims)) == len(dims) else Verdict.FAIL,
            detail="leaf dimensions %s" % dims,
        )
    )
    points = cfg.points(fam.working_region())
    gap = next((p for p in points if not any(f.region.contains(p) for f in fam.members)), None)
    entries.append(
        CheckEntry.from_witness(
            "coverage",
            gap,
            "sampled box point escapes every region",
            passed="%d box samples covered" % cfg.sample_count,
        )
    )
    ordered = sorted(fam.members, key=lambda f: f.leaf_dim)
    for i, fi in enumerate(ordered):
        for fj in ordered[i + 1:]:
            label = "overlap-nesting[%s<%s]" % (fi.name, fj.name)
            ov = _overlap_or_none(fi.region, fj.region, cfg)
            if ov is None:
                entries.append(CheckEntry.from_witness(label, None, passed="no overlap detected"))
                continue
            outcome = combine_outcomes(
                vanishes_on(wedge_all(fam.coords, (w,) + fi.decomposition), ov, cfg)
                for w in fj.decomposition
            )
            detail = "" if fj.decomposition else "larger-leaved member has no generators"
            entries.append(CheckEntry.from_outcome(label, outcome, detail=detail))
    notes.append("saturation asserted by user: %s" % ("yes" if fam.saturated else "no"))
    return Outcome.of(entries, notes)


def rank_at(fam: FoliationFamily, point):
    """max leaf dimension among the member regions containing the point."""
    dims = [f.leaf_dim for f in fam.members if f.region.contains(point)]
    if not dims:
        raise PreconditionError("point lies in no member region", witness=dict(point))
    return max(dims)


@dataclass(frozen=True)
class Stratum:
    """A rank stratum of a family.

    For '>=' and '>' the stratum is an explicit finite union of open
    regions (strict inequalities only); for '=', '<' and '<=' only the
    membership predicate is available.
    """

    family: FoliationFamily
    mode: str
    rank: int
    regions: tuple | None

    def contains(self, point):
        try:
            r = rank_at(self.family, point)
        except PreconditionError:
            return False
        return {
            ">=": r >= self.rank,
            ">": r > self.rank,
            "=": r == self.rank,
            "<": r < self.rank,
            "<=": r <= self.rank,
        }[self.mode]

    def describe(self):
        if self.regions is not None:
            return "union of %d open region(s)" % len(self.regions)
        return "membership predicate only (not open as a union of regions)"


def stratum(fam: FoliationFamily, rank, mode=">=") -> Stratum:
    """The locus where the family rank compares to ``rank`` as requested."""
    if mode not in (">=", ">", "=", "<", "<="):
        raise ValueError("unknown stratum mode %r" % mode)
    regions = None
    if mode in (">=", ">"):
        keep = [
            f.region
            for f in fam.members
            if (f.leaf_dim >= rank if mode == ">=" else f.leaf_dim > rank)
        ]
        regions = tuple(keep)
    return Stratum(fam, mode, rank, regions)


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
                detail="image %s" % {k: round(v, 6) for k, v in image.items()},
            )
    return combine_outcomes(
        vanishes_on(wedge(pullback(m, w), fol.nu), fol.region, cfg) for w in fol.decomposition
    )


@dataclass(frozen=True)
class PiecewiseForm:
    """A form given by pieces on regions, all of one degree.

    Consistency on overlaps is a checked claim, not a construction
    invariant: :func:`check_piecewise` samples pairwise overlaps and
    tests that the pieces agree there.
    """

    pieces: tuple  # of (Region, DiffForm)
    degree: int

    def __post_init__(self):
        for _, f in self.pieces:
            if f.degree != self.degree and not f.is_zero:
                raise ValueError("piece degree %d differs from declared %d" % (f.degree, self.degree))

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
                entries.append(CheckEntry.from_witness(label, None, passed="no overlap detected"))
                continue
            entries.append(CheckEntry.from_outcome(label, forms_equal(fi, fj, ov, cfg)))
    return Outcome.of(entries)
