"""Shared fixtures: configs, regions, and seeded random generators.

The randomized property tests all draw from the generators below, so the
distribution of test expressions lives in one place.  Generators take an
explicit ``random.Random`` so every loop is reproducible from its seed.
"""
import itertools
import random

import pytest

from gvcheck import (
    DiffForm,
    Outcome,
    Region,
    Verdict,
    ZeroTestConfig,
    box_region,
    exp,
    flatexp,
    psi0,
    rat,
    scalar_form,
    sym,
    wedge,
    zero_form,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def square_box(coords, half=2.0):
    return {c: (-half, half) for c in coords}


class CountingRegion:
    """A stub region on XY whose i-th draw is the point (xs[i], 0); it
    logs the stream it is given at every draw."""

    def __init__(self, xs):
        self.xs = xs
        self.drawn = []

    def sample_point(self, rnd):
        self.drawn.append(rnd)
        return {"x": self.xs[len(self.drawn) - 1], "y": 0.0}


@pytest.fixture
def sampling_proves_nothing(monkeypatch):
    """Patch ``Outcome.from_witness`` so that a sampled search which
    found no counterexample gives UNDECIDED instead of PASS."""
    plain = Outcome.from_witness.__func__

    def undecided(cls, witness, detail="", passed=""):
        if witness:
            return plain(cls, witness, detail, passed)
        return cls(Verdict.UNDECIDED, detail=passed)

    monkeypatch.setattr(Outcome, "from_witness", classmethod(undecided))


@pytest.fixture
def cfg():
    return ZeroTestConfig()


@pytest.fixture
def plane():
    return box_region(XY, square_box(XY), name="plane")


@pytest.fixture
def space():
    return box_region(XYZ, square_box(XYZ), name="space")


def random_scalar(rng, names, depth=3, atoms=True):
    """A random exact scalar over ``names``: rationals, coordinates,
    sums/products, and (optionally) exp/psi0/flatexp wrappers."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.45:
            return sym(rng.choice(names))
        if roll < 0.8:
            return rat(rng.randint(-4, 4), rng.randint(1, 3))
        return sym(rng.choice(names)) + rat(rng.randint(-2, 2))
    a = random_scalar(rng, names, depth - 1, atoms)
    b = random_scalar(rng, names, depth - 1, atoms)
    roll = rng.random()
    if roll < 0.35:
        return a + b
    if roll < 0.60:
        return a * b
    if roll < 0.75:
        return a - b
    if atoms and roll < 0.83:
        return exp(a)
    if atoms and roll < 0.91:
        return psi0(b)
    if atoms and roll < 0.95:
        return flatexp(b)
    return a * a


def random_polynomial(rng, names, depth=3):
    """Atom-free variant: sums and products of coordinates and rationals."""
    return random_scalar(rng, names, depth, atoms=False)


def random_form(rng, coords, degree, depth=2, atoms=True):
    """A random exact form of the given degree with 1-3 sparse terms."""
    coords = tuple(coords)
    if degree == 0:
        return scalar_form(coords, random_scalar(rng, coords, depth, atoms))
    combos = list(itertools.combinations(range(len(coords)), degree))
    if not combos:
        return zero_form(coords, degree)
    total = zero_form(coords, degree)
    for _ in range(rng.randint(1, min(3, len(combos)))):
        idx = rng.choice(combos)
        coeff = random_scalar(rng, coords, depth, atoms)
        total = total + DiffForm(coords, degree, {idx: coeff})
    return total


def random_map(rng, coords, depth=2):
    """A random polynomial self-map of the chart (not necessarily invertible)."""
    from gvcheck import CoordinateMap

    comps = {c: random_polynomial(rng, coords, depth) for c in coords}
    return CoordinateMap(tuple(coords), tuple(coords), comps)


@pytest.fixture
def make_scalar():
    return random_scalar


@pytest.fixture
def make_form():
    return random_form


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one verdict line per acceptance criterion after the run."""
    rows = {}
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            tail = nodeid.split("::test_criterion_", 1)[1]
            number, _, rest = tail.partition("_")
            rows[number] = (rest.replace("_", " "), label)
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(rows):
        description, label = rows[number]
        terminalreporter.write_line("criterion %s %s  (%s)" % (number, label, description))
