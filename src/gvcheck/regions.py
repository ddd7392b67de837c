"""Open regions in a single global chart, with seeded rejection sampling.

A :class:`Region` is the set of points satisfying a conjunction of
strict inequalities ``g > 0`` inside a finite bounding box.  The box is
the sampling window (and the working volume for coverage arguments);
membership is decided by the constraints alone.  Sampling draws from
a stream the caller passes in, so a seeded stream yields the same
points in the same order.
"""
from __future__ import annotations

from .errors import DomainError, SamplingError
from .symbolic import evaluate, free_coords, normalize

_MAX_REJECT = 2000


class Region:
    """Conjunction of strict inequalities over a boxed chart.

    ``constraints`` are expressions required to be > 0; an empty tuple
    means the whole box.  ``box`` maps every chart coordinate to finite
    (lo, hi) bounds.
    """

    __slots__ = ("coords", "constraints", "box", "name", "_draws")

    def __init__(self, coords: tuple, constraints: tuple, box: dict, name: str = ""):
        self.coords = coords
        self.constraints = tuple(normalize(g) for g in constraints)
        self.box = box
        self.name = name
        self._draws = []  # (coordinate, lo, hi - lo): random.uniform's arithmetic
        for c in coords:
            lo, hi = self.box[c]
            if not (lo < hi):
                raise ValueError("empty box bound for %r" % c)
            self._draws.append((c, lo, hi - lo))
        for g in self.constraints:
            extra = free_coords(g) - set(coords)
            if extra:
                raise ValueError("constraint uses coordinates outside the chart: %s" % sorted(extra))

    def contains(self, point):
        """Strict membership: every constraint evaluates positive.  A point
        where a constraint is undefined lies outside; an overflow still
        raises, since an overflowed value has a sign."""
        try:
            for g in self.constraints:
                if not evaluate(g, point) > 0.0:
                    return False
        except DomainError:
            return False
        return True

    def sample_point(self, rnd):
        """Rejection-sample the region with ``rnd``, a function that returns
        the next uniform float in [0, 1) of a stream."""
        draws = self._draws
        contains = self.contains
        for _ in range(_MAX_REJECT):
            point = {c: lo + w * rnd() for c, lo, w in draws}
            if contains(point):
                return point
        raise SamplingError("no sample found in region %s after %d attempts (region may be empty or thin)"
                            % (self.name or self.constraints, _MAX_REJECT))


def box_region(coords, box, name="box"):
    """The whole working box as a region."""
    return Region(tuple(coords), (), dict(box), name=name)


def intersect(a: Region, b: Region, name=""):
    """Intersection of two regions on the same chart.

    The box of the intersection is the per-coordinate overlap of the two
    sampling boxes; raises ValueError when the boxes do not overlap.
    """
    if a.coords != b.coords:
        raise ValueError("regions live on different charts")
    box = {}
    for c in a.coords:
        lo = max(a.box[c][0], b.box[c][0])
        hi = min(a.box[c][1], b.box[c][1])
        if not (lo < hi):
            raise ValueError("sampling boxes do not overlap on %r" % c)
        box[c] = (lo, hi)
    constraints = tuple(dict.fromkeys(a.constraints + b.constraints))  # the first of equal ones
    return Region(a.coords, constraints, box, name=name or "%s&%s" % (a.name, b.name))


def hull_box(regions):
    """Smallest box containing every region's box (per coordinate)."""
    coords = regions[0].coords
    out = {}
    for c in coords:
        out[c] = (min(r.box[c][0] for r in regions), max(r.box[c][1] for r in regions))
    return out
