"""Tri-state verdicts shared by every checking layer.

Every check answers with one :class:`Outcome` whose status is a
:class:`Verdict`: PASS when proved by exact normalization, FAIL when
refuted by a numeric witness, UNDECIDED otherwise.  An UNDECIDED is
never upgraded to PASS.  A zero test's outcome carries its witness and
value.  A structured outcome, built by :meth:`Outcome.of`, holds named
``(name, Outcome)`` entries and takes the :func:`worst` of their
statuses; a sampled search answers through :meth:`Outcome.from_witness`.
"""
from __future__ import annotations

from enum import Enum


class Verdict(Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    UNDECIDED = "UNDECIDED"


def worst(verdicts) -> Verdict:
    """FAIL over UNDECIDED over PASS; no verdicts at all is a PASS."""
    verdicts = set(verdicts)
    for v in (Verdict.FAIL, Verdict.UNDECIDED):
        if v in verdicts:
            return v
    return Verdict.PASS


# exit status of a command whose worst verdict is the key
EXIT_STATUS = {Verdict.PASS: 0, Verdict.FAIL: 1, Verdict.UNDECIDED: 2}


class Outcome:
    """Result of a check: PASS when proved, FAIL when refuted (with a
    witness point, if any), UNDECIDED otherwise; ``witness_form`` is the
    text of a residual form left unproved.  A structured outcome also
    holds named entries, ``(name, Outcome)`` pairs in report order, and
    notes."""

    __slots__ = ("status", "witness", "value", "detail", "entries", "notes", "witness_form")

    def __init__(self, status: Verdict, witness: dict | None = None, value: float | None = None,
                 detail: str = "", entries: tuple = (), notes: tuple = (), witness_form: str | None = None):
        self.status = status
        self.witness = witness
        self.value = value
        self.detail = detail
        self.entries = entries
        self.notes = notes
        self.witness_form = witness_form

    def __eq__(self, other):
        if not isinstance(other, Outcome):
            return NotImplemented
        return [getattr(self, n) for n in Outcome.__slots__] == [getattr(other, n) for n in Outcome.__slots__]

    @classmethod
    def of(cls, entries, notes=(), detail=""):
        """A structured outcome: the :func:`worst` of its entries' statuses."""
        entries = tuple(entries)
        return cls(worst(o.status for _, o in entries), detail=detail, entries=entries, notes=tuple(notes))

    @classmethod
    def from_witness(cls, witness, detail="", passed=""):
        """Refuted at a sampled witness point, or passed (with the
        ``passed`` detail) when the sampling found none: the one place where
        "no counterexample sampled" becomes a PASS."""
        if witness:
            return cls(Verdict.FAIL, witness=witness, detail=detail)
        return cls(Verdict.PASS, detail=passed)

    @property
    def proved(self):
        return self.status is Verdict.PASS

    @property
    def nonzero(self):
        return self.status is Verdict.FAIL

    def entry(self, name):
        """The outcome of the first entry with this name."""
        for n, o in self.entries:
            if n == name:
                return o
        raise KeyError(name)


def combine_outcomes(outcomes):
    """The :func:`worst` of the statuses; a FAIL is the first refutation, with its witness."""
    outcomes = list(outcomes)
    status = worst(o.status for o in outcomes)
    if status is Verdict.UNDECIDED:
        return Outcome(status, detail="not settled by normalization or sampling")
    return next((o for o in outcomes if o.nonzero), Outcome(status))


def point_str(point: dict) -> str:
    """A witness point as every report and verb writes it: ``{x: 0.5, y: -1}``."""
    return "{" + ", ".join("%s: %.6g" % (k, v) for k, v in sorted(point.items())) + "}"


def verdict_of(outcome: Outcome) -> Verdict:
    """The outcome's status, under the name the benchmark workloads import."""
    return outcome.status
