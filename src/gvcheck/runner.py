"""Execute a document's checks and render deterministic reports.

Each check directive runs under its own sub-seeded configuration, so
reports do not depend on check order or on which other checks appear in
the document.  Engine errors never escape: a check whose preconditions
are refuted, or that cannot be sampled, becomes a FAIL row carrying the
witness; anything unexpected becomes a FAIL row flagged as an internal
error.  The JSON rendering is byte-deterministic for a fixed document
and seed (timings are reported as null there; the text rendering shows
live timings).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

from .errors import GvError, WitnessedError
from .foliations import (
    check_family,
    check_invariance,
    rank_at,
    validate_foliation,
)
from .forms import ext_d, forms_equal, ideal_member, vanishes_on
from .gv import (
    MuChoice,
    check_basic,
    check_minimal_vanishing,
    check_overlap_identities,
    gv_form,
    gv_min,
    gv_weighted,
    solve_theta,
    verify_frobenius,
)
from .regions import intersect
from .singular import check_exactness_pipeline, d_f, iso_decompose, verify_exact
from .specdoc import CheckDirective, SpecDocument
from .symbolic import ZeroTestConfig, is_zero_on, mix_seed, to_latex
from .testfn import check_cover, flatness_check
from .verdicts import (
    EXIT_STATUS,
    CheckEntry,
    StructuredReport,
    Verdict,
    ZeroOutcome,
    ZeroStatus,
    verdict_of,
    worst,
)

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
        raw = json.loads(text)
        checks = [CheckResult(**c) for c in raw.pop("checks")]
        raw.pop("summary", None)
        return cls(checks=checks, **raw)


def _entry_dict(e: CheckEntry) -> dict:
    return {
        "name": e.name,
        "verdict": e.verdict.value,
        "detail": e.detail,
        "witness_point": e.witness_point,
        "witness_form": e.witness_form,
    }


# ---------------------------------------------------------------------------
# per-kind executors: directive payload + config -> (engine result, LaTeX,
# extra detail), where the engine result is a ZeroOutcome or a StructuredReport


def _run_zero(p, cfg):
    out = is_zero_on(p["expr"], p["region"], cfg)
    return out, r"%s \overset{?}{=} 0" % to_latex(p["expr"]), ""


def _run_forms_equal(p, cfg):
    out = forms_equal(p["left"], p["right"], p["region"], cfg)
    return out, r"%s \overset{?}{=} %s" % (p["left"].to_latex(), p["right"].to_latex()), ""


def _run_ideal_member(p, cfg):
    out = ideal_member(p["form"], p["gens"], p["region"], cfg)
    latex = r"%s \in \left\langle %s \right\rangle" % (
        p["form"].to_latex(),
        ", ".join(g.to_latex() for g in p["gens"]),
    )
    return out, latex, ""


def _run_foliation(p, cfg):
    fol = p["foliation"]
    return validate_foliation(fol, cfg), r"\nu = %s" % fol.nu.to_latex(), ""


def _run_family(p, cfg):
    return check_family(p["family"], cfg), "", ""


def _run_rank(p, cfg):
    got = rank_at(p["family"], p["point"])
    want = p["expect"]
    ok = got == want
    # an exact comparison: equal ranks are proved, unequal ones refuted at the point
    out = ZeroOutcome(
        ZeroStatus.PROVED_ZERO if ok else ZeroStatus.NONZERO,
        witness=None if ok else dict(p["point"]),
        detail="rank %d at the sample point (expected %d)" % (got, want),
    )
    return out, "", ""


def _run_invariance(p, cfg):
    return check_invariance(p["map"], p["foliation"], cfg), "", ""


def _run_frobenius(p, cfg):
    fol = p["foliation"]
    out = verify_frobenius(fol.nu, p["mu"], fol.region, cfg)
    return out, r"d\nu \overset{?}{=} \nu \wedge \mu,\ \mu = %s" % p["mu"].to_latex(), ""


def _run_gv_closed(p, cfg):
    fol = p["foliation"]
    w = gv_form(p["mu"], fol.codim)
    out = vanishes_on(ext_d(w), fol.region, cfg)
    return out, r"d\left(%s\right) \overset{?}{=} 0" % w.to_latex(), ""


def _run_gv_form(p, cfg):
    fol = p["foliation"]
    w = gv_form(p["mu"], fol.codim)
    out = forms_equal(w, p["expected"], fol.region, cfg)
    return out, r"\mu \wedge (d\mu)^{%d} = %s" % (fol.codim, w.to_latex()), ""


def _run_overlap_vanishing(p, cfg):
    return check_minimal_vanishing(p["family"], MuChoice(dict(p["mus"])), cfg), "", ""


def _run_gv_min(p, cfg):
    report = gv_min(p["family"], MuChoice(dict(p["mus"])), p["rank"], cfg)
    rows = StructuredReport(report.vanishing.entries + report.closedness.entries, report.notes)
    detail = "degree %d form, glued with zero on %d region(s)" % (
        report.degree,
        len(report.piecewise.pieces) - 1,
    )
    if not report.glued:
        detail += "; gluing not established"
    return rows, report.piecewise.pieces[0][1].to_latex(), detail


def _run_basic(p, cfg):
    fol = p["foliation"]
    out = check_basic(p["weight"], fol, fol.region, cfg)
    return out, r"d\varphi \in \left\langle \nu \right\rangle,\ \varphi = %s" % to_latex(p["weight"]), ""


def _run_gv_weighted(p, cfg):
    fol = p["foliation"]
    nu_bar, report = gv_weighted(p["weight"], p["mu"], fol, cfg)
    return report, r"\bar\nu = %s" % nu_bar.to_latex(), ""


def _run_overlap_identities(p, cfg):
    sub, sup = p["sub"], p["sup"]
    overlap = intersect(sub.region, sup.region, name="overlap")
    theta = solve_theta(sub, sup, overlap, cfg)
    report = check_overlap_identities(
        sub, sup, p["mus"][sub.name], p["mus"][sup.name], theta.theta, overlap, cfg
    )
    return report, r"\theta = %s" % theta.theta.to_latex(), "theta sign %+d" % theta.sign


def _run_theta(p, cfg):
    # solve_theta returns only a proved factorization (it raises otherwise),
    # so the row's verdict is that of the optional comparison
    sub, sup = p["sub"], p["sup"]
    overlap = intersect(sub.region, sup.region, name="overlap")
    res = solve_theta(sub, sup, overlap, cfg)
    entries = ()
    if "expected" in p:
        cmp = forms_equal(res.theta, p["expected"], overlap, cfg)
        entries = (CheckEntry.from_outcome("matches-expected", cmp),)
    return StructuredReport(entries), r"\theta = %s" % res.theta.to_latex(), "sign %+d" % res.sign


def _run_cover(p, cfg):
    decl = p["testfn"]
    return check_cover(decl.phi, decl.balls, decl.closedset, cfg), r"\varphi = %s" % to_latex(decl.phi), ""


def _run_flatness(p, cfg):
    return flatness_check(p["expr"], p["closedset"], cfg), to_latex(p["expr"]), ""


def _run_df_closed(p, cfg):
    residual = d_f(p["f"], p["form"])
    out = vanishes_on(residual, p["region"], cfg)
    return out, r"d_f\,\omega = %s" % residual.to_latex(), ""


def _run_exactness(p, cfg):
    out = verify_exact(p["form"], p["primitive"], p["region"], cfg)
    latex = r"d\left(%s\right) \overset{?}{=} %s" % (
        p["primitive"].to_latex(),
        p["form"].to_latex(),
    )
    return out, latex, ""


def _run_exactness_pipeline(p, cfg):
    report = check_exactness_pipeline(
        p["foliation"], p["weight"], p["mu"], p["tubular"], p["primitive"], cfg
    )
    return report, r"\varphi = %s" % to_latex(p["weight"]), ""


def _run_iso(p, cfg):
    composite, report = iso_decompose(
        p["weight"], p["alpha"], p["beta"], p["tubular"], cfg
    )
    return report, composite.to_latex(), ""


def _run_tubular(p, cfg):
    td = p["tubular"]
    return td.validate(cfg), r"\rho = %s" % to_latex(td.rho), ""


_EXECUTORS = {
    "zero": _run_zero,
    "forms-equal": _run_forms_equal,
    "ideal-member": _run_ideal_member,
    "foliation": _run_foliation,
    "family": _run_family,
    "rank": _run_rank,
    "invariance": _run_invariance,
    "frobenius": _run_frobenius,
    "gv-closed": _run_gv_closed,
    "gv-form": _run_gv_form,
    "overlap-vanishing": _run_overlap_vanishing,
    "gv-min": _run_gv_min,
    "basic": _run_basic,
    "gv-weighted": _run_gv_weighted,
    "overlap-identities": _run_overlap_identities,
    "theta": _run_theta,
    "cover": _run_cover,
    "flatness": _run_flatness,
    "df-closed": _run_df_closed,
    "exactness": _run_exactness,
    "exactness-pipeline": _run_exactness_pipeline,
    "iso": _run_iso,
    "tubular": _run_tubular,
}


def _check_result(directive, result, latex, detail, timing_ms) -> CheckResult:
    """The report row of one check from its engine result.

    A zero test's row shows the test's own detail; a structured report
    has none, so its row shows the executor's.
    """
    if isinstance(result, ZeroOutcome):
        verdict, witness, entries, notes = verdict_of(result), result.witness, (), ()
        detail = result.detail
    else:
        verdict, witness, entries, notes = result.verdict, None, result.entries, result.notes
    return CheckResult(
        name=directive.label,
        kind=directive.kind,
        verdict=verdict.value,
        detail=detail,
        witness=witness,
        entries=[_entry_dict(e) for e in entries],
        notes=list(notes),
        latex=latex,
        timing_ms=timing_ms,
    )


def _execute(directive: CheckDirective, cfg: ZeroTestConfig) -> CheckResult:
    start = time.perf_counter()
    latex = detail = ""
    try:
        result, latex, detail = _EXECUTORS[directive.kind](directive.payload, cfg)
    # an error becomes a FAIL row: a refuting outcome with the error's witness, if any
    except WitnessedError as e:
        message = str(e) + (("; " + e.detail) if e.detail else "")
        result = ZeroOutcome(ZeroStatus.NONZERO, witness=e.witness, detail=message)
    except (GvError, ValueError, KeyError, ZeroDivisionError) as e:
        result = ZeroOutcome(ZeroStatus.NONZERO, detail="%s: %s" % (type(e).__name__, e))
    except Exception as e:  # never let a run crash on one bad check
        result = ZeroOutcome(ZeroStatus.NONZERO, detail="internal error (%s: %s)" % (type(e).__name__, e))
    elapsed = (time.perf_counter() - start) * 1000.0
    return _check_result(directive, result, latex, detail, elapsed)


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


def _latex_escape(s: str) -> str:
    out = []
    for ch in s:
        if ch in "&%$#_{}":
            out.append("\\" + ch)
        elif ch == "~":
            out.append("\\textasciitilde{}")
        elif ch == "^":
            out.append("\\textasciicircum{}")
        elif ch == "\\":
            out.append("\\textbackslash{}")
        else:
            out.append(ch)
    return "".join(out)


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
