"""Execute a document's checks and render deterministic reports.

What a check computes is its directive's ``run``, from
:data:`gvcheck.specdoc.CHECKS`, which returns one
:class:`~gvcheck.verdicts.Outcome` and its LaTeX; this module times the
run, copies the outcome's fields into a report row and renders the
rows.  Each check runs under its own sub-seeded configuration, so
reports do not depend on check order or on which other checks appear in
the document.  Engine errors never escape: a check whose preconditions
are refuted, or that cannot be sampled, becomes a FAIL outcome carrying
the witness; anything unexpected becomes a FAIL outcome flagged as an
internal error.  The JSON rendering is byte-deterministic for a fixed
document and seed (timings are reported as null there; the text
rendering shows live timings).
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from .errors import GvError, WitnessedError
from .specdoc import CheckDirective, SpecDocument
from .symbolic import ZeroTestConfig, mix_seed
from .verdicts import EXIT_STATUS, Outcome, Verdict, worst

SCHEMA_VERSION = 1


@dataclass
class CheckResult:
    """Plain-data outcome of one check, safe for exact JSON round-trips."""

    name: str
    kind: str
    verdict: str
    detail: str = ""
    witness: dict | None = None
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    latex: str = ""
    timing_ms: float | None = None


@dataclass
class RunReport:
    """Everything one run produced, in renderer-independent form."""

    seed: int
    seed_source: str
    samples: int
    abs_tol: float
    rel_tol: float
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

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
        return ZeroTestConfig(
            sample_count=self.samples,
            abs_tol=self.abs_tol,
            rel_tol=self.rel_tol,
            rng_seed=mix_seed(self.seed, index),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        import json  # only JSON reports need it: kept off the import path

        raw = json.loads(text)
        checks = [CheckResult(**c) for c in raw.pop("checks")]
        raw.pop("summary", None)
        return cls(checks=checks, **raw)


def _execute(directive: CheckDirective, cfg: ZeroTestConfig) -> CheckResult:
    start = time.perf_counter()
    latex = ""
    try:
        outcome, latex = directive.run(cfg)
    # an error becomes a FAIL row: a refuting outcome with the error's witness, if any
    except WitnessedError as e:
        message = str(e) + (("; " + e.detail) if e.detail else "")
        outcome = Outcome(Verdict.FAIL, witness=e.witness, detail=message)
    except (GvError, ValueError, KeyError, ZeroDivisionError) as e:
        outcome = Outcome(Verdict.FAIL, detail="%s: %s" % (type(e).__name__, e))
    except Exception as e:  # never let a run crash on one bad check
        outcome = Outcome(Verdict.FAIL, detail="internal error (%s: %s)" % (type(e).__name__, e))
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckResult(
        name=directive.label,
        kind=directive.kind,
        verdict=outcome.status.value,
        detail=outcome.detail,
        witness=outcome.witness,
        entries=[dict(asdict(e), verdict=e.verdict.value) for e in outcome.entries],
        notes=list(outcome.notes),
        latex=latex,
        timing_ms=elapsed,
    )


def start_report(doc: SpecDocument, seed, seed_source, samples, abs_tol, rel_tol) -> RunReport:
    """An empty report holding the run's settings: each override, else the document's."""
    if seed is None:
        seed = doc.seed
        seed_source = seed_source or ("document" if doc.seed_declared else "default")
    else:
        seed_source = seed_source or "caller"
    return RunReport(
        seed=seed,
        seed_source=seed_source,
        samples=doc.samples if samples is None else samples,
        abs_tol=doc.abs_tol if abs_tol is None else abs_tol,
        rel_tol=doc.rel_tol if rel_tol is None else rel_tol,
    )


def run_checks(
    doc: SpecDocument,
    seed: int | None = None,
    seed_source: str | None = None,
    samples: int | None = None,
    abs_tol: float | None = None,
    rel_tol: float | None = None,
) -> RunReport:
    """Run every check in the document under derived sub-seeds."""
    report = start_report(doc, seed, seed_source, samples, abs_tol, rel_tol)
    report.checks = [_execute(d, report.config(d.index)) for d in doc.checks]
    return report


# ---------------------------------------------------------------------------
# rendering


def render_text(report: RunReport) -> str:
    lines = [
        "seed %d (%s)  samples %d  abs_tol %g  rel_tol %g"
        % (report.seed, report.seed_source, report.samples, report.abs_tol, report.rel_tol)
    ]
    for c in report.checks:
        timing = "" if c.timing_ms is None else "  (%.1f ms)" % c.timing_ms
        head = "[%s] %s (%s)%s" % (c.verdict, c.name, c.kind, timing)
        if c.detail:
            head += " -- %s" % c.detail
        lines.append(head)
        if c.witness:
            lines.append("    witness: %s" % _point_str(c.witness))
        for e in c.entries:
            row = "    - %-28s %s" % (e["name"], e["verdict"])
            if e.get("detail"):
                row += "  %s" % e["detail"]
            if e.get("witness_point"):
                row += "  at %s" % _point_str(e["witness_point"])
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


def _point_str(point: dict) -> str:
    return "{" + ", ".join("%s: %.6g" % (k, v) for k, v in sorted(point.items())) + "}"


def render_json(report: RunReport) -> str:
    import json  # only JSON reports need it: kept off the import path

    data = asdict(report)
    for c in data["checks"]:
        c["timing_ms"] = None
    data["summary"] = report.summary
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


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
        r"\noindent seed %d (%s), samples %d, tolerances $%g$ / $%g$.\par\medskip"
        % (report.seed, _latex_escape(report.seed_source), report.samples, report.abs_tol, report.rel_tol)
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
        if c.latex:
            item += "\n" + r"\begin{equation*}" + "\n" + c.latex + "\n" + r"\end{equation*}"
        if c.entries:
            rows = []
            for e in c.entries:
                row = r"\texttt{%s}: %s" % (_latex_escape(e["name"]), verdict_cmd[e["verdict"]])
                if e.get("detail"):
                    row += " (%s)" % _latex_escape(e["detail"])
                rows.append(row)
            item += "\n" + r"\begin{itemize}" + "\n"
            item += "\n".join(r"\item " + r for r in rows)
            item += "\n" + r"\end{itemize}"
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
