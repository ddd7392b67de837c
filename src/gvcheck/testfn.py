"""Weak and strong test functions: bumps, covers, flatness verification.

A weak test function of a closed set vanishes exactly on it and is
positive elsewhere; a strong one additionally has all derivatives
vanishing on the set.  The constructions here are the classical ones
over flatexp: the sigmoid psi0(u) = flatexp(u^2)/(1 + flatexp(u^2)), the
quotient smooth step, radial bumps with a fixed 2:1 support ratio, and
finite sums of bumps covering the complement of the set.  Flatness is
decided numerically by finite-difference decay near the set, with a
structural shortcut when every numerator term carries a flatexp factor.
"""
from __future__ import annotations

import math
from random import Random

from .errors import CoverageError, SamplingError
from .symbolic import (
    ScalarExpr,
    ZERO,
    ZeroTestConfig,
    _mono_items,
    certified_nonzero,
    const,
    evaluate,
    flatexp,
    left_sum,
    normalize,
    psi0,
    rat,
    sym,
)
from .verdicts import Outcome, Verdict

FLAT_DISTANCES = (0.1, 0.01, 0.001)
FLAT_TOL = 1e-6
ANCHORS_PER_BALL = 2  # sphere points per ball among the flatness base points


def smooth_step(u) -> ScalarExpr:
    """Monotone step built from flat atoms: 0 for u <= 0, 1 for u >= 1."""
    u = normalize(u)
    a = flatexp(u)
    b = flatexp(const(1) - u)
    return a / (a + b)


def strengthen(f) -> ScalarExpr:
    """Compose with the flat sigmoid: same zeros, all derivatives flat there."""
    return psi0(normalize(f))


class BumpSpec:
    """A radial bump: 1 on the closed ball B(center, radius), 0 outside
    B(center, 2*radius).  When a chart box is supplied, the support ball
    must fit inside it."""

    __slots__ = ("center", "radius", "box")

    def __init__(self, center: dict, radius, box: dict | None = None):
        r = rat(radius) if not isinstance(radius, ScalarExpr) else radius
        rv = r.as_fraction()
        if rv is None or rv <= 0:
            raise ValueError("bump radius must be a positive rational constant")
        self.center = center
        self.radius = r
        self.box = box
        if box is not None:
            for name, c in center.items():
                lo, hi = box[name]
                if not (lo < float(c) - 2 * float(rv) and float(c) + 2 * float(rv) < hi):
                    raise ValueError(
                        "support ball of bump at (%s) leaves the chart box along %r"
                        % (", ".join(str(v) for v in center.values()), name)
                    )

    def dist2(self, point) -> float:
        return left_sum((point[n] - float(c)) ** 2 for n, c in self.center.items())

    def in_inner(self, point) -> bool:
        return self.dist2(point) <= float(self.radius.as_fraction()) ** 2


def bump(b: BumpSpec) -> ScalarExpr:
    """The expression of a radial bump from its spec."""
    d2 = ZERO
    for name, c in b.center.items():
        delta = sym(name) - rat(c)
        d2 = d2 + delta * delta
    r2 = b.radius * b.radius
    u = (r2 * rat(4) - d2) / (r2 * rat(3))
    return smooth_step(u)


def bump_sum(balls) -> ScalarExpr:
    """The sum of the bumps, in order: the candidate weak test function of a cover."""
    phi = ZERO
    for b in balls:
        phi = phi + bump(b)
    return phi


class ClosedSetSpec:
    """A closed reference set inside a sampling window.

    Three descriptions are supported:

    * ``zeroset``: the zero set of ``expr`` (anchors must be supplied,
      since zero sets cannot be hit by random sampling);
    * ``balls``: a finite union of closed balls (center, radius);
    * ``complement-of-balls``: the window minus a union of open balls.

    ``box`` is the window used to sample the complement and, where
    possible, the set itself.  ``anchors`` are explicit points on (or
    adjacent to) the set, used by the flatness check.
    """

    __slots__ = ("coords", "box", "kind", "expr", "balls", "anchors")

    _KINDS = ("zeroset", "balls", "complement-of-balls")

    def __init__(self, coords: tuple, box: dict, kind: str, expr: ScalarExpr | None = None,
                 balls: tuple = (), anchors: tuple = ()):
        if kind not in self._KINDS:
            raise ValueError("unknown closed-set kind %r" % kind)
        if kind == "zeroset" and expr is None:
            raise ValueError("zeroset description needs an expression")
        if kind != "zeroset" and expr is not None:
            raise ValueError("only the zeroset description takes an expression")
        self.balls = tuple((dict(c), float(r)) for c, r in balls)
        if any(r <= 0 for _, r in self.balls):
            raise ValueError("ball radius must be positive")
        if any(not lo < hi for lo, hi in box.values()):
            raise ValueError("window bounds must satisfy lo < hi")
        self.coords = coords
        self.box = box
        self.kind = kind
        self.expr = expr
        self.anchors = tuple(dict(a) for a in anchors)

    def _rejection(self, out: list, seed: int, count: int, keep) -> list:
        """Extend ``out`` with the window draws that ``keep`` accepts, drawn
        in order from one ``Random(seed)`` stream, until it holds ``count``
        points or 50 * count draws are spent."""
        rng = Random(seed)
        for _ in range(50 * max(count, 1)):
            if len(out) >= count:
                break
            p = {n: rng.uniform(*self.box[n]) for n in self.coords}
            if keep(p):
                out.append(p)
        return out

    def _in_ball(self, point, strict: bool) -> bool:
        for center, r in self.balls:
            d2 = left_sum((point[n] - center[n]) ** 2 for n in self.coords)
            if d2 < r * r or (not strict and d2 == r * r):
                return True
        return False

    def contains(self, point) -> bool:
        if self.kind == "zeroset":  # on the set unless certified off it
            return not certified_nonzero(self.expr, point)
        if self.kind == "balls":
            return self._in_ball(point, strict=False)
        return all(self.box[n][0] <= point[n] <= self.box[n][1] for n in self.coords) and not self._in_ball(
            point, strict=True
        )

    def sample_complement(self, seed: int, count: int) -> list:
        """Window samples off the set; may return fewer when the
        complement is empty or thin."""
        return self._rejection([], seed, count, lambda p: not self.contains(p))

    def sample_set(self, seed: int, count: int) -> list:
        """Points of the set itself: anchors, ball interiors, or
        rejection samples, depending on the description."""
        out = list(self.anchors)
        if self.kind == "zeroset":
            return out[:count]
        return self._rejection(out, seed ^ 0x5E7, count, self.contains)

    def boundary_anchors(self, seed: int) -> list:
        """Flatness base points: explicit anchors, plus sphere points
        for the ball description; for the complement of balls, the
        first max(4, #anchors) points of :meth:`sample_set`, which
        start with the anchors."""
        if self.kind == "complement-of-balls":
            return self.sample_set(seed, max(4, len(self.anchors)))
        out = list(self.anchors)
        if self.kind == "balls":
            rng = Random(seed ^ 0xB0A7)
            for center, r in self.balls:
                for _ in range(ANCHORS_PER_BALL):
                    direction = [rng.gauss(0.0, 1.0) for _ in self.coords]
                    norm = math.sqrt(left_sum(d * d for d in direction)) or 1.0
                    out.append({n: center[n] + r * d / norm for n, d in zip(self.coords, direction)})
        return out


def weak_test_from_cover(balls, m0: ClosedSetSpec, cfg: ZeroTestConfig):
    """Sum of bumps as a weak test function for the set's complement.

    Returns (expression, report): the :func:`bump_sum` of the balls and
    its :func:`check_cover` report.
    """
    balls = tuple(balls)
    phi = bump_sum(balls)
    return phi, check_cover(phi, balls, m0, cfg)


def check_cover(phi, balls, m0: ClosedSetSpec, cfg: ZeroTestConfig) -> Outcome:
    """Is ``phi``, the bump sum of ``balls``, a weak test function for the complement?

    The inner balls must cover every sampled complement point (a gap
    raises a coverage error with the witness); the sum must then vanish
    at sampled set points and anchors and be positive at the covered
    complement samples.
    """
    complement = m0.sample_complement(cfg.rng_seed, cfg.sample_count)
    gap = next((p for p in complement if not any(b.in_inner(p) for b in balls)), None)
    if gap:
        raise CoverageError("complement sample lies in no inner ball", witness=gap)
    covered = "%d complement samples covered by %d inner balls" % (len(complement), len(balls))
    entries = [("coverage", Outcome.from_witness(gap, passed=covered))]
    on_set = m0.sample_set(cfg.rng_seed, cfg.sample_count)
    bad_zero = next((p for p in on_set if evaluate(phi, p) != 0.0), None)
    entries.append(("vanishes-on-set", Outcome.from_witness(bad_zero, "a bump support reaches the set")))
    bad_pos = next((p for p in complement if not evaluate(phi, p) > 0.0), None)
    entries.append(("positive-on-complement", Outcome.from_witness(bad_pos)))
    return Outcome.of(entries)


def _has_flat_atom(e: ScalarExpr) -> bool:
    """True when every numerator term carries a flatexp factor."""
    if e.is_zero:
        return True
    for mono in e.num.terms:
        if not any(getattr(g, "kind", None) == "flatexp" for g, _ in _mono_items(mono)):
            return False
    return True


def _directional_fd(phi, base, direction, h, order, values):
    """Central finite difference of the given order along a direction.

    ``values`` maps each offset s already evaluated at this base point
    to the value of phi at base + s*direction, and gains the new ones.
    """

    def at(s):
        v = values.get(s)
        if v is None:
            v = values[s] = evaluate(
                phi, {n: base[n] + s * d for n, d in zip(sorted(base), direction)}
            )
        return v

    # direction is aligned with sorted coordinate order of the base point
    if order == 1:
        return (at(h) - at(-h)) / (2 * h)
    if order == 2:
        return (at(h) - 2 * at(0.0) + at(-h)) / (h * h)
    return (at(1.5 * h) - 3 * at(0.5 * h) + 3 * at(-0.5 * h) - at(-1.5 * h)) / (h ** 3)


def flatness_check(phi, m0: ClosedSetSpec, cfg: ZeroTestConfig) -> Outcome:
    """Do all derivatives of phi vanish on approach to the set?

    For each anchor and seeded unit direction, directional derivatives
    of orders 1..3 are estimated by central differences at base points
    anchor + d*direction for d in {1e-1, 1e-2, 1e-3} (step d/4).  Each
    order passes when the closest estimate is below 1e-6 and no larger
    than the farthest one.  The three orders share probe points (+-step
    for orders 1 and 2, the base point itself for order 2), and each
    distinct point is evaluated once: 7 evaluations per base point, the
    first of each in the order the estimates ask for it.  A structural
    entry records when every term of phi carries a flat atom.  A set
    with no base point raises :class:`SamplingError`.
    """
    phi = normalize(phi)
    entries = []
    if _has_flat_atom(phi):
        flat = Outcome(Verdict.PASS, detail="every numerator term carries a flat atom factor")
        entries.append(("structural-flatness", flat))
    anchors = m0.boundary_anchors(cfg.rng_seed)
    if not anchors:  # a set with no sampled point refutes nothing
        raise SamplingError("flatness check has no base point: the sample of the set is empty")
    names = sorted(m0.coords)
    probes = []
    rng = Random(cfg.rng_seed ^ 0xF1A7)
    for a in anchors:
        for _ in range(2):
            v = [rng.gauss(0.0, 1.0) for _ in names]
            norm = math.sqrt(left_sum(x * x for x in v)) or 1.0
            probes.append((a, [x / norm for x in v]))
    memo = {}  # (distance, probe index) -> values at that base point
    for order in (1, 2, 3):
        estimates = []
        worst_point = None
        for d in FLAT_DISTANCES:
            worst = 0.0
            for k, (a, u) in enumerate(probes):
                base = {n: a[n] + d * x for n, x in zip(names, u)}
                values = memo.setdefault((d, k), {})
                value = abs(_directional_fd(phi, base, u, d / 4.0, order, values))
                if value > worst:
                    worst = value
                    if d == FLAT_DISTANCES[-1]:
                        worst_point = base
            estimates.append(worst)
        ok = estimates[-1] < FLAT_TOL and estimates[-1] <= estimates[0] + 1e-9
        estimate = Outcome(
            Verdict.PASS if ok else Verdict.FAIL,
            witness=None if ok else worst_point,
            detail="estimates " + ", ".join("%g: %.3e" % (d, e) for d, e in zip(FLAT_DISTANCES, estimates)),
        )
        entries.append(("order-%d" % order, estimate))
    return Outcome.of(entries)
