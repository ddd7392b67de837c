"""Execute a document's checks and render deterministic reports.

What a check computes is its directive's ``run``, from
:data:`gvcheck.specdoc.CHECKS`, which returns one
:class:`~gvcheck.verdicts.Outcome` and its LaTeX; this module times the
run, writes the outcome and each of its ``(name, Outcome)`` entries into
a report row, and renders the rows.  Each check runs under its own
sub-seeded configuration, so reports do not depend on check order or on
which other checks appear in the document.  Engine errors never escape;
:func:`error_outcome`, which the ``gv`` verb shares, makes their row: a
check whose preconditions are refuted becomes a FAIL outcome carrying
the witness; one whose region cannot be sampled becomes UNDECIDED;
anything unexpected becomes a FAIL outcome flagged as an internal error.
The JSON rendering is byte-deterministic for a fixed document and seed
(timings are reported as null there; the text rendering shows live
timings).
"""
from __future__ import annotations

import time

from .errors import GvError, SamplingError, WitnessedError
from .specdoc import CheckDirective, SpecDocument
from .symbolic import ZeroTestConfig, mix_seed
from .verdicts import EXIT_STATUS, Outcome, Verdict, point_str, worst

SCHEMA_VERSION = 2


class CheckResult:
    """Plain-data outcome of one check, safe for exact JSON round-trips."""

    __slots__ = ("name", "kind", "verdict", "detail", "witness", "entries", "notes", "latex", "timing_ms")

    def __init__(self, name: str, kind: str, verdict: str, detail: str = "", witness: dict | None = None,
                 entries: list | None = None, notes: list | None = None, latex: str = "",
                 timing_ms: float | None = None):
        self.name = name
        self.kind = kind
        self.verdict = verdict
        self.detail = detail
        self.witness = witness
        self.entries = [] if entries is None else entries
        self.notes = [] if notes is None else notes
        self.latex = latex
        self.timing_ms = timing_ms

    def to_json(self) -> dict:
        """The row as the JSON report writes it: its timing is null there."""
        return {"name": self.name, "kind": self.kind, "verdict": self.verdict, "detail": self.detail,
                "witness": self.witness, "entries": self.entries, "notes": self.notes, "latex": self.latex,
                "timing_ms": None}


class RunReport:
    """Everything one run produced, in renderer-independent form."""

    __slots__ = ("seed", "seed_source", "samples", "checks", "notes", "schema_version")

    def __init__(self, seed: int, seed_source: str, samples: int, checks: list | None = None,
                 notes: list | None = None, schema_version: int = SCHEMA_VERSION):
        self.seed = seed
        self.seed_source = seed_source
        self.samples = samples
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes
        self.schema_version = schema_version

    @property
    def summary(self) -> dict:
        counts = {"pass": 0, "fail": 0, "undecided": 0}
        for c in self.checks:
            counts[c.verdict.lower()] += 1
        counts["total"] = len(self.checks)
        return counts

    def exit_code(self) -> int:
        return EXIT_STATUS[worst(Verdict(c.verdict) for c in self.checks)]

    def config(self, index: int) -> ZeroTestConfig:
        """The zero-test configuration of the check at ``index``: its own sub-seed."""
        return ZeroTestConfig(sample_count=self.samples, rng_seed=mix_seed(self.seed, index))

    def to_json(self) -> dict:
        """The JSON report's object, which :meth:`from_json` reads back."""
        return {"seed": self.seed, "seed_source": self.seed_source, "samples": self.samples,
                "checks": [c.to_json() for c in self.checks], "notes": self.notes,
                "schema_version": self.schema_version, "summary": self.summary}

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        import json  # only JSON reports need it: kept off the import path

        raw = json.loads(text)
        checks = [CheckResult(**c) for c in raw.pop("checks")]
        raw.pop("summary", None)
        return cls(checks=checks, **raw)


def error_outcome(e: Exception) -> Outcome:
    """The outcome of a check that raised ``e``: the one error policy of
    both the report rows and the ``gv`` verb."""
    # an error is a FAIL: a refuting outcome with the error's witness, if any
    if isinstance(e, WitnessedError):
        message = str(e) + (("; " + e.detail) if e.detail else "")
        return Outcome(Verdict.FAIL, witness=e.witness, detail=message)
    # but a region that yields no sample refutes nothing
    if isinstance(e, SamplingError):
        return Outcome(Verdict.UNDECIDED, detail="SamplingError: %s" % e)
    if isinstance(e, (GvError, ValueError, KeyError, ZeroDivisionError)):
        return Outcome(Verdict.FAIL, detail="%s: %s" % (type(e).__name__, e))
    return Outcome(Verdict.FAIL, detail="internal error (%s: %s)" % (type(e).__name__, e))


def _execute(directive: CheckDirective, cfg: ZeroTestConfig) -> CheckResult:
    start = time.perf_counter()
    try:
        outcome, latex = directive.run(cfg)
    except Exception as e:  # never let a run crash on one bad check
        outcome, latex = error_outcome(e), ""
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(
        name=directive.label,
        kind=directive.kind,
        verdict=outcome.status.value,
        detail=outcome.detail,
        witness=outcome.witness,
        entries=[
            {"name": name, "verdict": entry.status.value, "detail": entry.detail,
             "witness_point": entry.witness, "witness_form": entry.witness_form}
            for name, entry in outcome.entries
        ],
        notes=list(outcome.notes),
        latex=latex,
        timing_ms=elapsed,
    )


def start_report(doc: SpecDocument, seed, seed_source, samples) -> RunReport:
    """An empty report holding the run's settings: each override, else the document's."""
    if seed is None:
        seed = doc.seed
        seed_source = seed_source or ("document" if doc.seed_declared else "default")
    else:
        seed_source = seed_source or "caller"
    return RunReport(seed=seed, seed_source=seed_source, samples=doc.samples if samples is None else samples)


def run_checks(
    doc: SpecDocument,
    seed: int | None = None,
    seed_source: str | None = None,
    samples: int | None = None,
) -> RunReport:
    """Run every check in the document under derived sub-seeds."""
    report = start_report(doc, seed, seed_source, samples)
    report.checks = [_execute(d, report.config(d.index)) for d in doc.checks]
    return report


# ---------------------------------------------------------------------------
# rendering


def render_text(report: RunReport) -> str:
    lines = ["seed %d (%s)  samples %d" % (report.seed, report.seed_source, report.samples)]
    for c in report.checks:
        timing = "" if c.timing_ms is None else "  (%.1f ms)" % c.timing_ms
        head = "[%s] %s (%s)%s" % (c.verdict, c.name, c.kind, timing)
        if c.detail:
            head += " -- %s" % c.detail
        lines.append(head)
        if c.witness:
            lines.append("    witness: %s" % point_str(c.witness))
        for e in c.entries:
            row = "    - %-28s %s" % (e["name"], e["verdict"])
            if e.get("detail"):
                row += "  %s" % e["detail"]
            if e.get("witness_point"):
                row += "  at %s" % point_str(e["witness_point"])
            if e.get("witness_form"):
                row += "  residual %s" % e["witness_form"]
            lines.append(row)
        for n in c.notes:
            lines.append("    note: %s" % n)
    s = report.summary
    lines.append(
        "%d check(s): %d passed, %d failed, %d undecided"
        % (s["total"], s["pass"], s["fail"], s["undecided"])
    )
    return "\n".join(lines) + "\n"


def render_json(report: RunReport) -> str:
    import json  # only JSON reports need it: kept off the import path

    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


_LATEX_HEADER = "\n".join(
    [
        r"\documentclass{article}",
        r"\usepackage{amsmath,amssymb}",
        r"\usepackage[margin=2.5cm]{geometry}",
        r"\newcommand{\verdictpass}{\textbf{PASS}}",
        r"\newcommand{\verdictfail}{\textbf{FAIL}}",
        r"\newcommand{\verdictopen}{\textbf{UNDECIDED}}",
        r"\begin{document}",
        r"\section*{Verification report}",
    ]
)


_LATEX_ESCAPES = str.maketrans(
    {"~": r"\textasciitilde{}", "^": r"\textasciicircum{}", "\\": r"\textbackslash{}"}
    | {ch: "\\" + ch for ch in "&%$#_{}"}
)


def _latex_escape(s: str) -> str:
    return s.translate(_LATEX_ESCAPES)


def render_latex(report: RunReport) -> str:
    verdict_cmd = {
        "PASS": r"\verdictpass",
        "FAIL": r"\verdictfail",
        "UNDECIDED": r"\verdictopen",
    }
    lines = [_LATEX_HEADER]
    lines.append(
        r"\noindent seed %d (%s), samples %d.\par\medskip"
        % (report.seed, _latex_escape(report.seed_source), report.samples)
    )
    lines.append(r"\begin{itemize}")
    for c in report.checks:
        item = r"\item[%s] \texttt{%s} (%s)" % (
            verdict_cmd[c.verdict],
            _latex_escape(c.name),
            _latex_escape(c.kind),
        )
        if c.detail:
            item += r" --- %s" % _latex_escape(c.detail)
        if c.witness:
            item += r" \\ witness: %s" % _latex_escape(point_str(c.witness))
        if c.latex:
            item += "\n" + r"\begin{equation*}" + "\n" + c.latex + "\n" + r"\end{equation*}"
        if c.entries:
            rows = []
            for e in c.entries:
                row = r"\texttt{%s}: %s" % (_latex_escape(e["name"]), verdict_cmd[e["verdict"]])
                if e.get("detail"):
                    row += " (%s)" % _latex_escape(e["detail"])
                if e.get("witness_point"):
                    row += " at %s" % _latex_escape(point_str(e["witness_point"]))
                if e.get("witness_form"):
                    row += ", residual %s" % _latex_escape(e["witness_form"])
                rows.append(row)
            item += "\n" + r"\begin{itemize}" + "\n"
            item += "\n".join(r"\item " + r for r in rows)
            item += "\n" + r"\end{itemize}"
        for n in c.notes:
            item += "\n" + r"\par note: %s" % _latex_escape(n)
        lines.append(item)
    lines.append(r"\end{itemize}")
    s = report.summary
    lines.append(
        r"\noindent Totals: %d checks, %d passed, %d failed, %d undecided."
        % (s["total"], s["pass"], s["fail"], s["undecided"])
    )
    lines.append(r"\end{document}")
    return "\n".join(lines) + "\n"


def render_report(report: RunReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    if fmt == "latex":
        return render_latex(report)
    raise ValueError("unknown report format %r" % fmt)
