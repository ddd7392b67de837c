"""Tri-state verdicts shared by every checking layer.

The mathematical layer answers "is this expression zero on this region"
with a :class:`ZeroOutcome`: proved zero by exact normalization, refuted
by a numeric witness, or undecided.  Report layers map outcomes onto
PASS / FAIL / UNDECIDED, and an UNDECIDED is never upgraded to PASS.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class ZeroStatus(Enum):
    PROVED_ZERO = "PROVED-ZERO"
    NONZERO = "NONZERO"
    UNDECIDED = "UNDECIDED"


@dataclass(frozen=True)
class ZeroOutcome:
    """Result of a zero test, with a witness when the answer is NONZERO."""

    status: ZeroStatus
    witness: dict | None = None
    value: float | None = None
    detail: str = ""

    @property
    def proved(self):
        return self.status is ZeroStatus.PROVED_ZERO

    @property
    def nonzero(self):
        return self.status is ZeroStatus.NONZERO

    @property
    def undecided(self):
        return self.status is ZeroStatus.UNDECIDED


PROVED = ZeroOutcome(ZeroStatus.PROVED_ZERO)


def combine_outcomes(outcomes, detail=""):
    """All proved -> proved; any refuted -> first refutation; else undecided."""
    outcomes = list(outcomes)
    for o in outcomes:
        if o.nonzero:
            return o
    if all(o.proved for o in outcomes):
        return ZeroOutcome(ZeroStatus.PROVED_ZERO, detail=detail)
    return ZeroOutcome(ZeroStatus.UNDECIDED, detail=detail or "not settled by normalization or sampling")


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


def verdict_of(outcome: ZeroOutcome) -> Verdict:
    if outcome.proved:
        return Verdict.PASS
    if outcome.nonzero:
        return Verdict.FAIL
    return Verdict.UNDECIDED


@dataclass(frozen=True)
class CheckEntry:
    """One named line of a structured report."""

    name: str
    verdict: Verdict
    detail: str = ""
    witness_point: dict | None = None
    witness_form: str | None = None

    @classmethod
    def from_outcome(cls, name, outcome: ZeroOutcome, detail="", witness_form=None):
        return cls(
            name=name,
            verdict=verdict_of(outcome),
            detail=detail or outcome.detail,
            witness_point=outcome.witness,
            witness_form=witness_form,
        )


@dataclass(frozen=True)
class StructuredReport:
    """A bag of named entries with an aggregate verdict."""

    entries: tuple = field(default_factory=tuple)
    notes: tuple = field(default_factory=tuple)

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def verdict(self) -> Verdict:
        return worst(e.verdict for e in self.entries)

    @property
    def passed(self):
        return self.verdict is Verdict.PASS
