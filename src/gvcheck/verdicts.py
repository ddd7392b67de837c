"""Tri-state verdicts shared by every checking layer.

Every check answers with one :class:`Outcome` whose status is a
:class:`Verdict`: PASS when proved by exact normalization, FAIL when
refuted by a numeric witness, UNDECIDED otherwise.  An UNDECIDED is
never upgraded to PASS.  A zero test's outcome carries its witness and
value; a structured outcome, built by :meth:`Outcome.of`, carries named
:class:`CheckEntry` rows and takes the :func:`worst` of their verdicts.
The runner turns an outcome into a report row field by field.
"""
from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Outcome:
    """Result of a check: PASS when proved, FAIL when refuted (with a
    witness, if any), UNDECIDED otherwise.  A structured outcome also
    holds named entries and notes."""

    status: Verdict
    witness: dict | None = None
    value: float | None = None
    detail: str = ""
    entries: tuple = ()
    notes: tuple = ()

    @classmethod
    def of(cls, entries, notes=(), detail=""):
        """A structured outcome: the :func:`worst` of its entries' verdicts."""
        entries = tuple(entries)
        return cls(worst(e.verdict for e in entries), detail=detail, entries=entries, notes=tuple(notes))

    @property
    def proved(self):
        return self.status is Verdict.PASS

    @property
    def nonzero(self):
        return self.status is Verdict.FAIL

    def entry(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def combine_outcomes(outcomes):
    """The :func:`worst` of the statuses; a FAIL is the first refutation, with its witness."""
    outcomes = list(outcomes)
    status = worst(o.status for o in outcomes)
    if status is Verdict.UNDECIDED:
        return Outcome(status, detail="not settled by normalization or sampling")
    return next((o for o in outcomes if o.nonzero), Outcome(status))


def verdict_of(outcome: Outcome) -> Verdict:
    """The outcome's status, under the name the benchmark workloads import."""
    return outcome.status


@dataclass(frozen=True)
class CheckEntry:
    """One named line of a structured report."""

    name: str
    verdict: Verdict
    detail: str = ""
    witness_point: dict | None = None
    witness_form: str | None = None

    @classmethod
    def from_outcome(cls, name, outcome: Outcome, detail="", witness_form=None):
        return cls(
            name=name,
            verdict=outcome.status,
            detail=detail or outcome.detail,
            witness_point=outcome.witness,
            witness_form=witness_form,
        )

    @classmethod
    def from_witness(cls, name, witness, detail="", passed=""):
        """A row refuted at a sampled witness point, or passed (with the
        ``passed`` detail) when the sampling found none: the one place where
        "no counterexample sampled" becomes a PASS."""
        if witness:
            return cls(name, Verdict.FAIL, detail, witness_point=witness)
        return cls(name, Verdict.PASS, passed)
