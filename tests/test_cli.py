"""End-to-end tests for the command line and the check runner."""

import copy
import json
import os
import subprocess
import sys
import textwrap

import pytest

import gvcheck.cli
import gvcheck.runner
from gvcheck.cli import ENV_SEED, build_parser, main
from gvcheck.gv import gv_min
from gvcheck.runner import CheckResult, RunReport, render_json, render_latex, render_report, render_text, run_checks
from gvcheck.specdoc import CheckDirective, parse_spec
from gvcheck.symbolic import ZeroTestConfig
from gvcheck.verdicts import point_str


GALLERY = os.path.join(os.path.dirname(__file__), os.pardir, "gallery")

TINY_DOC = "chart x\nregion R = all\ncheck zero x - x on R as tautology\n"


def gallery_path(name):
    return os.path.join(GALLERY, name)


def with_checks(obj, checks):
    """A copy of a document or report that holds ``checks`` instead of its own."""
    out = copy.copy(obj)
    out.checks = checks
    return out


def run_cli(argv):
    """Call the entry point, normalizing SystemExit into a return code."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv(ENV_SEED, raising=False)


def parse_doc(text):
    doc, diagnostics = parse_spec(text)
    assert diagnostics == [], [str(d) for d in diagnostics]
    return doc


class TestExitStatus:
    def test_all_pass_document_exits_zero(self, capsys):
        assert run_cli(["check", gallery_path("golden_pass.fol")]) == 0
        out = capsys.readouterr().out
        assert "0 failed, 0 undecided" in out

    def test_failing_document_exits_one(self, capsys):
        assert run_cli(["check", gallery_path("golden_fail.fol")]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "4 check(s): 1 passed, 3 failed, 0 undecided" in out

    def test_undecided_document_exits_two(self, capsys):
        assert run_cli(["check", gallery_path("golden_undecided.fol")]) == 2
        out = capsys.readouterr().out
        assert "[UNDECIDED]" in out

    @pytest.mark.parametrize("doc", [
        # psi0(t) is the quotient flatexp(t^2) / (1 + flatexp(t^2)), so this is exact
        "chart x\nregion R = all\nscalar t = 1 + (x - 1)^12\n"
        "check zero psi0(t) - flatexp(t*t)/(1 + flatexp(t*t)) on R\n",
        # and its derivative rule follows from the quotient
        "chart x y\nregion R = all\nscalar u = x*y + (x - 1)^3\n"
        "check forms-equal d(psi0(u)) == 2*psi0(u)*(1 - psi0(u))/u^3 * d(u) on R\n",
    ])
    def test_psi0_identities_are_proved(self, doc, tmp_path, capsys):
        spec = tmp_path / "psi0.fol"
        spec.write_text(doc)
        assert run_cli(["check", str(spec)]) == 0
        assert "1 check(s): 1 passed, 0 failed, 0 undecided" in capsys.readouterr().out

    def test_missing_file_exits_four(self, capsys):
        assert run_cli(["check", gallery_path("no_such_file.fol")]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_unparsable_document_exits_five(self, tmp_path, capsys):
        bad = tmp_path / "bad.fol"
        bad.write_text("chart x\nregion R = x < 1\n")
        assert run_cli(["check", str(bad)]) == 5
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_usage_errors_exit_three(self, capsys):
        assert run_cli([]) == 3
        assert run_cli(["check"]) == 3
        assert run_cli(["frobnicate", "x.fol"]) == 3
        capsys.readouterr()

    def test_the_parser_is_built_once_per_process(self, monkeypatch, capsys):
        built = []
        monkeypatch.setattr(gvcheck.cli, "_parser", None)
        monkeypatch.setattr(gvcheck.cli, "build_parser", lambda: built.append(1) or build_parser())
        for _ in range(2):
            assert run_cli(["check"]) == 3
            assert capsys.readouterr().err.endswith(
                "gvcheck check: error: the following arguments are required: specfile\n")
            assert run_cli(["check", gallery_path("golden_pass.fol"), "--seed", "7"]) == 0
            assert capsys.readouterr().out.startswith("seed 7 (flag)")
            assert run_cli(["check", gallery_path("golden_pass.fol")]) == 0
            assert capsys.readouterr().out.startswith("seed 1001 (document)")
        assert built == [1]


class TestInvalidSettings:
    """Bad sampling settings are usage or parse errors, never a refuted check."""

    @pytest.mark.parametrize("verb", ["check", "report", "gv"])
    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--samples", "2.5"),
        ("--samples", "abc"),
        ("--seed", "2.5"),
        ("--seed", "abc"),
    ])
    def test_bad_flag_exits_three(self, verb, flag, value, capsys):
        assert run_cli([verb, gallery_path("glued_family.fol"), flag, value]) == 3
        err = capsys.readouterr().err
        assert "argument %s" % flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("verb", ["check", "report", "gv"])
    @pytest.mark.parametrize("flag", ["--abs-tol", "--rel-tol"])
    def test_tolerance_flags_are_unrecognized(self, verb, flag, capsys):
        # a refutation is certified, not thresholded: there is no tolerance to set
        assert run_cli([verb, gallery_path("glued_family.fol"), flag, "1e-9"]) == 3
        err = capsys.readouterr().err
        assert err.endswith("error: unrecognized arguments: %s 1e-9\n" % flag)

    @pytest.mark.parametrize("statement", ["abs_tol 1e-9", "rel_tol 1e-9"])
    def test_tolerance_statements_are_unknown(self, statement, tmp_path, capsys):
        spec = tmp_path / "tol.fol"
        spec.write_text(TINY_DOC.replace("\n", "\n%s\n" % statement, 1))
        assert run_cli(["check", str(spec)]) == 5
        name = statement.split()[0]
        assert capsys.readouterr().err == "%s: line 2, col 1: unknown statement %r\n" % (spec, name)

    @pytest.mark.parametrize("statement", [
        "samples 0",
        "samples -1",
        "samples 3/2",
        "samples 2.5",
        "samples -2/4",
    ])
    def test_bad_document_samples_exits_five(self, statement, tmp_path, capsys):
        spec = tmp_path / "samples.fol"
        spec.write_text(TINY_DOC.replace("\n", "\n%s\n" % statement, 1))
        assert run_cli(["check", str(spec)]) == 5
        assert capsys.readouterr().err == "%s: line 2, col 9: samples must be a positive integer\n" % spec

    @pytest.mark.parametrize("statement, col", [
        ("samples 1/0", 11),
        ("samples -2/0.0", 12),
        ("seed 1/0", 8),
        ("box x 0 1/0", 11),
    ])
    def test_zero_denominator_exits_five(self, statement, col, tmp_path, capsys):
        spec = tmp_path / "zero.fol"
        spec.write_text(TINY_DOC.replace("\n", "\n%s\n" % statement, 1))
        assert run_cli(["check", str(spec)]) == 5
        assert capsys.readouterr().err == "%s: line 2, col %d: zero denominator\n" % (spec, col)

    TOO_LARGE = "exponent %d of x exceeds 32767, the largest a monomial field holds"
    NO_BASE_POINT = "flatness check needs anchors or a ball description of the set"

    @pytest.mark.parametrize("statement, token, message", [
        ("foliation L on R leafdim 0 nu dx transverse q", "q", "unknown coordinate 'q'"),
        ("family fam = K\ncheck gv-min fam rank 7", "7",
         "rank 7 is not the leaf dimension of any member of family fam (leaf dimensions: 0)"),
        ("seed 1/2", "1/2", "expected an integer"),
        ("seed 2.7", "2.7", "expected an integer"),
        ("box x -1 1e400", "1e400", "number is too large for a float"),
        ("closedset C = balls (0, 1e400)", "1e400", "number is too large for a float"),
        ("closedset C = zeroset x anchors (1e400)", "1e400", "number is too large for a float"),
        ("closedset C = zeroset x anchors (0) window x 0 1e400", "1e400", "number is too large for a float"),
        ("family fam = K\ncheck rank fam at (1e400) expect 0", "1e400", "number is too large for a float"),
        ("bump b = center (1e400) radius 1", "1e400", "number is too large for a float"),
        ("bump b = center (0) radius 1e400", "1e400", "number is too large for a float"),
        ("tubular td on R f x t x eps 1e400 outer 1e401", "1e400", "number is too large for a float"),
        ("tubular td on R f x t x eps 1/4 outer -1e400", "-1e400", "number is too large for a float"),
        # the kernel's exponent limit, at the expression, naming the
        # exponent written (psi0 squares its argument)
        ("check zero x^32768 on R", "x^32768", TOO_LARGE % 32768),
        ("check zero x^40000 - x^40000 + x on R", "x^40000 -", TOO_LARGE % 40000),
        ("check zero psi0(x^20000) - psi0(x^20000) on R", "psi0(x^20000) -", TOO_LARGE % 40000),
        ("scalar s = x^32768", "x^32768", TOO_LARGE % 32768),
        ("form w = dx*x^32768", "dx", TOO_LARGE % 32768),
        # a label names one report row; a generated label holds the
        # check's number, which no given label can
        ("check zero x - x on R as dup\ncheck zero x on R as dup", "dup", "duplicate check label 'dup'"),
        ("check zero x - x on R as a-b\ncheck zero x on R\ncheck zero x on R as a-b", "a-b",
         "duplicate check label 'a-b'"),
        # a flatness check without a base point lacks input; it refutes nothing
        ("closedset Z = zeroset x\ncheck flatness x near Z", "Z", NO_BASE_POINT),
        ("closedset Z = balls\ncheck flatness x near Z", "Z", NO_BASE_POINT),
    ])
    def test_document_errors_exit_five(self, statement, token, message, tmp_path, capsys):
        # errors a parser can see are diagnostics, never a refuted check
        spec = tmp_path / "doc.fol"
        spec.write_text("chart x\nregion R = all\nfoliation K on R leafdim 0 nu dx\nmu K = 0*dx\n"
                        + statement + "\n")
        assert run_cli(["check", str(spec)]) == 5
        line = 4 + statement.count("\n") + 1
        col = statement.splitlines()[-1].rindex(token) + 1
        assert capsys.readouterr().err == "%s: line %d, col %d: %s\n" % (spec, line, col, message)

    @pytest.mark.parametrize("anchors", ["(1, 0)", "(0, 0) (1, 0)"])
    def test_a_zeroset_anchor_off_its_set_exits_five(self, anchors, tmp_path, capsys):
        # flatness would be probed at the anchor, away from the set: that
        # refuted a function flat on the whole set
        spec = tmp_path / "doc.fol"
        statement = "closedset Z = zeroset x^2 + y^2 anchors " + anchors
        spec.write_text("chart x y\n%s\ncheck flatness flatexp(1/4 - (x - 1)^2 - y^2) near Z\n" % statement)
        assert run_cli(["check", str(spec)]) == 5
        col = statement.rindex("(1, 0)") + 1
        message = "anchor {x: 1, y: 0} is off the zero set of x^2 + y^2"
        assert capsys.readouterr().err.splitlines()[0] == "%s: line 2, col %d: %s" % (spec, col, message)

    @staticmethod
    def weighted_pipeline(old, new):
        """The gallery's weighted pipeline with one line replaced."""
        with open(gallery_path("weighted_pipeline.fol"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        index = lines.index(old)
        lines[index] = new
        return "\n".join(lines) + "\n", index + 1

    def test_a_collar_whose_f_misses_its_slice_exits_five(self, tmp_path, capsys):
        # the pipeline through col weights by col's f, so x would weight it;
        # neither x nor the old weight y*exp(-x) vanishes on {z = 0}
        line = "tubular col on R f x t z eps 1/4 outer 1/2"
        text, lineno = self.weighted_pipeline("tubular col on R f y*exp(-x) t y eps 1/4 outer 1/2", line)
        spec = tmp_path / "doc.fol"
        spec.write_text(text)
        assert run_cli(["check", str(spec)]) == 5
        col = line.index(" x ") + 2
        message = "x does not vanish on the slice {z = 0}"
        assert capsys.readouterr().err.splitlines()[0] == "%s: line %d, col %d: %s" % (spec, lineno, col, message)

    @pytest.mark.parametrize("old, new, found", [
        ("check exactness-pipeline F via col primitive tau as full-pipeline",
         "check exactness-pipeline F weight phi via col primitive tau as full-pipeline", "via"),
        ("check iso via slab alpha dx^dz beta dx as two-term-decomposition",
         "check iso via slab weight y alpha dx^dz beta dx as two-term-decomposition", "alpha"),
    ])
    def test_an_old_weight_clause_exits_five(self, old, new, found, tmp_path, capsys):
        # the collar owns the weight, so a check no longer takes one
        text, lineno = self.weighted_pipeline(old, new)
        spec = tmp_path / "doc.fol"
        spec.write_text(text)
        assert run_cli(["check", str(spec)]) == 5
        message = "expected %r, found 'weight'" % found
        assert capsys.readouterr().err == "%s: line %d, col %d: %s\n" % (spec, lineno, new.index("weight") + 1, message)

    def test_a_zeroset_anchor_within_rounding_of_its_set_is_accepted(self, tmp_path):
        # the float of 1/3 misses the set, but its enclosure holds 0
        spec = tmp_path / "doc.fol"
        spec.write_text("chart x y\nclosedset Z = zeroset 3*x - 1 anchors (0.3333333333333333, 0)\n"
                        "check flatness flatexp(x - 1) near Z\n")
        assert run_cli(["check", str(spec)]) == 0

    def test_flatness_near_a_set_with_no_sampled_point_is_undecided(self, tmp_path, capsys):
        # the balls fill the window, so the set's sample, and with it the
        # check's base points, is empty: nothing is refuted
        spec = tmp_path / "doc.fol"
        spec.write_text("chart x\nbox x -1 1\nclosedset Z = complement balls (0, 5)\ncheck flatness x near Z\n")
        assert run_cli(["check", str(spec)]) == 2
        row = capsys.readouterr().out.splitlines()[1]
        assert row.startswith("[UNDECIDED] check-1-flatness (flatness)")
        assert row.endswith(" -- SamplingError: flatness check has no base point: the sample of the set is empty")

    CODIM_ONE = "chart x y z\nregion R = all\nfoliation H on R leafdim 2 nu dy\n"

    @pytest.mark.parametrize("statement, col, message", [
        ("check frobenius H with dx^dy", 24, "a Frobenius witness must be a 1-form"),
        ("check gv-closed H with x", 24, "a Frobenius witness must be a 1-form"),
        ("check gv-closed H with dx^dy", 24, "a Frobenius witness must be a 1-form"),
        ("check ideal-member dx^dy in dx^dz on R", 29, "ideal generators must be 1-forms"),
        ("check ideal-member dx^dy in x on R", 29, "ideal generators must be 1-forms"),
        ("check ideal-member dx^dy in dz, y on R", 33, "ideal generators must be 1-forms"),
        ("foliation K on R leafdim 2 nu dy gens dx^dy", 39, "decomposition entries must be 1-forms"),
    ])
    def test_a_form_that_must_be_a_one_form_is_checked_at_the_form(
        self, statement, col, message, tmp_path, capsys
    ):
        # a witness or generator of another degree is a document error, not
        # a proof (it used to PASS) or a refutation (it used to FAIL)
        spec = tmp_path / "doc.fol"
        spec.write_text(self.CODIM_ONE + statement + "\n")
        assert run_cli(["check", str(spec)]) == 5
        assert capsys.readouterr().err == "%s: line 4, col %d: %s\n" % (spec, col, message)

    @pytest.mark.parametrize("statement", ["check frobenius H with 0*dx", "check gv-closed H with 0"])
    def test_a_zero_witness_is_accepted(self, statement, tmp_path):
        spec = tmp_path / "doc.fol"
        spec.write_text(self.CODIM_ONE + statement + "\n")
        assert run_cli(["check", str(spec)]) == 0

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_config_has_no_tolerance(self, field):
        with pytest.raises(TypeError):
            ZeroTestConfig(**{field: 1e-9})


class TestSeedResolution:
    def text_for(self, argv, capsys):
        code = run_cli(argv)
        assert code == 0
        return capsys.readouterr().out

    def test_flag_beats_everything(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SEED, "999")
        out = self.text_for(["check", gallery_path("golden_pass.fol"), "--seed", "7"], capsys)
        assert out.startswith("seed 7 (flag)")

    def test_env_beats_document(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SEED, "999")
        out = self.text_for(["check", gallery_path("golden_pass.fol")], capsys)
        assert out.startswith("seed 999 (env)")

    def test_document_seed_is_echoed(self, capsys):
        out = self.text_for(["check", gallery_path("golden_pass.fol")], capsys)
        assert out.startswith("seed 1001 (document)")

    def test_default_seed_when_nothing_declared(self, tmp_path, capsys):
        spec = tmp_path / "tiny.fol"
        spec.write_text(TINY_DOC)
        out = self.text_for(["check", str(spec)], capsys)
        assert "(default)" in out.splitlines()[0]

    def test_non_integer_env_is_warned_and_skipped(self, monkeypatch, capsys):
        monkeypatch.setenv(ENV_SEED, "lots")
        assert run_cli(["check", gallery_path("golden_pass.fol")]) == 0
        captured = capsys.readouterr()
        assert "ignoring non-integer" in captured.err
        assert captured.out.startswith("seed 1001 (document)")


class TestReportVerb:
    def test_json_report_fields(self, capsys):
        assert run_cli(["report", gallery_path("golden_pass.fol")]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["seed"] == 1001
        assert data["seed_source"] == "document"
        assert data["schema_version"] == 2
        assert "abs_tol" not in data and "rel_tol" not in data
        assert data["summary"]["fail"] == 0
        for check in data["checks"]:
            assert check["timing_ms"] is None
            assert check["verdict"] in ("PASS", "FAIL", "UNDECIDED")

    def test_json_bytes_are_reproducible(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert run_cli(["report", gallery_path("golden_fail.fol"), "--out", str(first)]) == 1
        assert run_cli(["report", gallery_path("golden_fail.fol"), "--out", str(second)]) == 1
        assert first.read_bytes() == second.read_bytes()

    def test_out_flag_writes_file_and_keeps_exit_code(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli(["report", gallery_path("golden_undecided.fol"), "--out", str(out)]) == 2
        assert json.loads(out.read_text())["summary"]["undecided"] >= 1
        assert capsys.readouterr().out == ""

    def test_unwritable_out_path_exits_four(self, tmp_path, capsys):
        target = tmp_path / "missing_dir" / "r.json"
        assert run_cli(["report", gallery_path("golden_pass.fol"), "--out", str(target)]) == 4
        assert "cannot write" in capsys.readouterr().err

    def test_latex_report_is_a_complete_article(self, capsys):
        assert run_cli(["report", gallery_path("golden_pass.fol"), "--format", "latex"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\\documentclass")
        assert "\\end{document}" in out

    def test_text_format_matches_check_verb(self, capsys, monkeypatch):
        # the text rendering shows each check's wall time: freeze the clock
        monkeypatch.setattr(gvcheck.runner.time, "perf_counter", lambda: 0.0)
        run_cli(["report", gallery_path("golden_pass.fol"), "--format", "text"])
        via_report = capsys.readouterr().out
        run_cli(["check", gallery_path("golden_pass.fol")])
        via_check = capsys.readouterr().out
        assert via_report == via_check


class TestGvVerb:
    def test_glued_family_summary(self, capsys):
        assert run_cli(["gv", gallery_path("glued_family.fol")]) == 0
        out = capsys.readouterr().out
        assert "stratum rank 2" in out
        assert "invariant degree 3" in out
        assert "glued: yes" in out

    def test_rank_flag_restricts_the_stratum(self, capsys):
        assert run_cli(["gv", gallery_path("glued_family.fol"), "--rank", "3"]) == 0
        out = capsys.readouterr().out
        assert "stratum rank 3" in out
        assert "invariant degree 1" in out

    @pytest.mark.parametrize("rank", ["0", "-1", "99"])
    def test_rank_outside_the_family_is_usage_error(self, rank, capsys):
        assert run_cli(["gv", gallery_path("glued_family.fol"), "--rank", rank]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "gvcheck: --rank %s is not the leaf dimension of any member of family fam"
            " (leaf dimensions: 2, 3)\n" % rank
        )

    def test_latex_format_wraps_pieces_in_math(self, capsys):
        assert run_cli(["gv", gallery_path("glued_family.fol"), "--format", "latex"]) == 0
        assert "$" in capsys.readouterr().out

    def test_document_without_single_family_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "nofam.fol"
        spec.write_text(TINY_DOC)
        assert run_cli(["gv", str(spec)]) == 3
        assert "exactly one family" in capsys.readouterr().err

    FAMILY = (
        "chart x y z\nregion Core = 1 - x^2 - y^2 - z^2 > 0\nregion Whole = all\n"
        "foliation L on Core leafdim 2 nu dy transverse y\nfoliation W on Whole leafdim 3\nfamily fam = L W\n"
    )

    def test_refuted_vanishing_prints_the_witness_and_advice(self, tmp_path, capsys):
        spec = tmp_path / "refuted.fol"
        spec.write_text(self.FAMILY + "mu L = z*dy\n")
        assert run_cli(["gv", str(spec)]) == 1
        head, witness = capsys.readouterr().out.splitlines()
        assert head == (
            "FAIL: overlap vanishing refuted: power-vanishing[W]; "
            "consider a different Frobenius witness (gauge change mu -> mu + f*nu)"
        )
        # the witness is a sampled point of the overlap, inside Core's ball,
        # written as reports write a point
        assert witness.startswith("witness: {") and witness.endswith("}")
        pairs = (item.split(": ") for item in witness[len("witness: {"):-1].split(", "))
        point = {name: float(value) for name, value in pairs}
        assert set(point) == {"x", "y", "z"} and sum(v * v for v in point.values()) < 1

    def test_undecided_vanishing_is_not_glued(self, tmp_path, capsys):
        # flatexp(x)*flatexp(-x) is zero, but no normalization proves it
        text = self.FAMILY + "mu L = flatexp(x)*flatexp(-x)*z*dx\n"
        spec = tmp_path / "undecided.fol"
        spec.write_text(text)
        assert run_cli(["gv", str(spec)]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[-3:] == [
            "glued: no",
            "vanishing: UNDECIDED   closedness: PASS",
            "note: gluing not certified: an overlap verdict stayed undecided",
        ]
        (row,) = run_checks(parse_doc(text + "check gv-min fam rank 2\n")).checks
        assert row.verdict == "UNDECIDED"
        assert row.detail.endswith("; gluing not established")

    # Core is empty, so no sample settles the Frobenius residual of mu
    EMPTY_CORE = FAMILY.replace("1 - x^2 - y^2 - z^2 > 0", "-1 - x^2 > 0") + (
        "mu L = flatexp(x)*flatexp(-x)*z*dx\n"
    )
    NO_SAMPLE = "no sample found in region Core after 2000 attempts (region may be empty or thin)"

    def test_unsampleable_region_is_undecided(self, tmp_path, capsys):
        spec = tmp_path / "empty.fol"
        spec.write_text(self.EMPTY_CORE)
        assert run_cli(["gv", str(spec)]) == 2
        assert capsys.readouterr() == ("UNDECIDED: SamplingError: %s\n" % self.NO_SAMPLE, "")

    def test_unsampleable_region_rows_are_undecided(self):
        doc = parse_doc(self.EMPTY_CORE + "check gv-min fam rank 2\ncheck zero x on Core\n")
        report = run_checks(doc)
        rows = [(c.verdict, c.detail, c.witness) for c in report.checks]
        assert rows == [("UNDECIDED", "SamplingError: " + self.NO_SAMPLE, None)] * 2
        assert report.exit_code() == 2

    OVERFLOW = (
        "chart x y z\nregion R = all\nfoliation F on R leafdim 2 nu dz transverse z\n"
        "mu F = y^20000*dx + y^20000*dz\nfamily fam = F\n"
    )
    # sampling the overlap of H and W meets points where log(x) is undefined
    LOG_REGION = (
        "chart x y\nregion R = log(x) > 0\nregion Whole = all\n"
        "foliation H on R leafdim 1 nu dy transverse y\nfoliation W on Whole leafdim 2\n"
        "mu H = 0*dx\nfamily fam = H W\n"
    )

    @pytest.mark.parametrize("source, status", [
        ("glued_family.fol", 0),
        ("nested_adapted.fol", 0),
        ("nonzero_gv.fol", 0),
        (FAMILY + "mu L = z*dy\n", 1),
        (FAMILY + "mu L = flatexp(x)*flatexp(-x)*z*dx\n", 2),
        (EMPTY_CORE, 2),
        (OVERFLOW, 1),
        (LOG_REGION, 0),
    ], ids=["glued", "nested", "nonzero", "refuted", "undecided", "unsampleable", "overflow", "log-region"])
    def test_the_verb_agrees_with_the_gv_min_row(self, source, status, tmp_path, capsys):
        if source.endswith(".fol"):
            with open(gallery_path(source), encoding="utf-8") as fh:
                source = fh.read()
        spec = tmp_path / "family.fol"
        spec.write_text(source)
        assert run_cli(["gv", str(spec)]) == status
        captured = capsys.readouterr()
        assert captured.err == ""  # no traceback, and no engine error read as a usage error
        out = captured.out.splitlines()
        # the same family alone in a report: the row runs under the verb's sub-seed
        (name, fam), = parse_doc(source).families.items()
        body = "".join(line for line in source.splitlines(True) if not line.startswith("check "))
        report = run_checks(parse_doc(body + "check gv-min %s rank %d\n" % (name, min(fam.ranks()))))
        (row,) = report.checks
        assert report.exit_code() == status
        if row.entries:
            assert ("glued: yes" in out) == (not row.detail.endswith("; gluing not established"))
            assert [line[len("note: "):] for line in out if line.startswith("note: ")] == row.notes
        else:  # an engine error: the verb prints the row
            witness = ["witness: " + point_str(row.witness)] if row.witness else []
            assert out == ["%s: %s" % (row.verdict, row.detail)] + witness

    def test_missing_mu_is_usage_error(self, tmp_path, capsys):
        spec = tmp_path / "nomu.fol"
        spec.write_text(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\nfamily fam = H\n"
        )
        assert run_cli(["gv", str(spec)]) == 3
        assert "no mu declared" in capsys.readouterr().err


class TestRunnerApi:
    @pytest.mark.parametrize("name", ["plane_basics.fol", "golden_fail.fol", "testfn_gallery.fol"])
    def test_reversed_and_isolated_runs_agree_byte_for_byte(self, name):
        # every directive samples under its own sub-seed, so neither the
        # order of the checks nor their neighbours may change a row
        with open(gallery_path(name), "r", encoding="utf-8") as fh:
            doc = parse_doc(fh.read())
        assert len(doc.checks) > 1
        full = run_checks(doc, seed=doc.seed, seed_source="document")
        backwards = run_checks(with_checks(doc, doc.checks[::-1]), seed=doc.seed, seed_source="document")
        alone = [
            run_checks(with_checks(doc, [d]), seed=doc.seed, seed_source="document").checks[0]
            for d in doc.checks
        ]
        assert render_json(with_checks(backwards, backwards.checks[::-1])) == render_json(full)
        assert render_json(with_checks(full, alone)) == render_json(full)

    def test_from_json_round_trip(self):
        doc = parse_doc(TINY_DOC)
        report = run_checks(doc, seed=5, seed_source="flag")
        text = render_json(report)
        again = RunReport.from_json(text)
        assert again.summary == report.summary
        assert again.exit_code() == report.exit_code()
        assert render_json(again) == text

    def test_overrides_reach_the_report(self):
        doc = parse_doc(TINY_DOC)
        report = run_checks(doc, seed=5, seed_source="flag", samples=8)
        assert report.samples == 8
        assert report.config(0).sample_count == 8

    def test_check_names_use_labels(self):
        doc = parse_doc(TINY_DOC)
        report = run_checks(doc, seed=5, seed_source="flag")
        assert [c.name for c in report.checks] == ["tautology"]
        assert report.checks[0].kind == "zero"

    def test_runtime_error_becomes_fail_row(self):
        # rank probe outside every region: a precondition error, not a crash
        doc = parse_doc(
            "chart x y\nregion U = x > 0\n"
            "foliation H on U leafdim 1 nu dy transverse y\nfamily fam = H\n"
            "check rank fam at (-1, 0) expect 1 as off-family\n"
        )
        report = run_checks(doc, seed=5, seed_source="flag")
        row = report.checks[0]
        assert row.verdict == "FAIL"
        assert row.witness == {"x": -1.0, "y": 0.0}
        assert row.detail == "point lies in no member region"
        assert report.exit_code() == 1

    def test_engine_value_error_becomes_fail_row(self):
        # the parser turns away a rank that is no leaf dimension, so the
        # engine's own guard is reached through an edited directive
        doc = parse_doc(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\nmu H = 0*dx\nfamily fam = H\n"
            "check gv-min fam rank 1 as wrong-rank\n"
        )
        fam, mus = doc.families["fam"], dict(doc.mus)
        d = doc.checks[0]
        doc.checks[0] = CheckDirective(d.index, d.kind, d.label, lambda cfg: (gv_min(fam, mus, 2, cfg), ""))
        row = run_checks(doc, seed=5, seed_source="flag").checks[0]
        assert (row.verdict, row.witness, row.entries, row.latex) == ("FAIL", None, [], "")
        assert row.detail == "ValueError: rank 2 is not the leaf dimension of any member"

    def test_unexpected_error_becomes_internal_error_row(self):
        doc = parse_doc(TINY_DOC)

        def run(cfg):
            raise TypeError("unsupported operand")
        d = doc.checks[0]
        doc.checks[0] = CheckDirective(d.index, d.kind, d.label, run)
        report = run_checks(doc, seed=5, seed_source="flag")
        (row,) = report.checks
        assert (row.verdict, row.witness, row.entries, row.latex) == ("FAIL", None, [], "")
        assert row.detail == "internal error (TypeError: unsupported operand)"
        assert report.exit_code() == 1

    @pytest.mark.parametrize("expr, value", [
        # undefined at the second base point's first order-1 probe point
        ("log(-x)", "-0.0776982069134273"),
        # defined at every order-1 and order-2 point, undefined at an order-3 one
        ("log(y - 1/2000)", "-1.0408623379704572e-05"),
    ])
    def test_flatness_evaluation_error_keeps_its_row(self, expr, value):
        # the probe points are first evaluated in the order the estimates
        # ask for them, so the same evaluation raises and the row stays
        doc = parse_doc(
            "chart x y\n"
            "closedset Origin = zeroset x^2 + y^2 anchors (0, 0) window x 0.3 1.1, y 0.3 1.1\n"
            "check flatness %s near Origin as log-near-origin\n" % expr
        )
        row = run_checks(doc, seed=1, seed_source="flag").checks[0]
        assert (row.verdict, row.witness, row.entries) == ("FAIL", None, [])
        assert row.detail == "DomainError: log of non-positive value " + value

    def test_coefficient_beyond_the_float_range_is_undecided(self):
        # an engine limit: the samples are skipped, nothing is refuted
        doc = parse_doc("chart x\nregion R = all\nscalar f = 1e400*x\ncheck zero f - x on R as huge\n")
        report = run_checks(doc, seed=5, seed_source="flag")
        row = report.checks[0]
        assert row.verdict == "UNDECIDED"
        assert row.detail == "max |value| 0.000e+00 over 0 samples (32 samples skipped: evaluation error)"
        assert report.exit_code() == 2

    @pytest.mark.parametrize("verdicts, status", [
        ((), 0),
        (("PASS", "PASS"), 0),
        (("PASS", "UNDECIDED"), 2),
        (("UNDECIDED", "FAIL", "PASS"), 1),
        (("FAIL", "UNDECIDED"), 1),
    ])
    def test_failure_outranks_undecided_in_the_exit_status(self, verdicts, status):
        report = RunReport(1, "flag", 4, checks=[
            CheckResult("c%d" % i, "zero", v) for i, v in enumerate(verdicts)
        ])
        assert report.exit_code() == status

    def test_integrability_residual_in_both_renderings(self):
        # a contact form: the refuted Frobenius condition carries its residual form
        doc = parse_doc(
            "chart x y z\nregion R = all\nfoliation C on R leafdim 2 nu dz - y*dx\ncheck foliation C\n"
        )
        report = run_checks(doc)
        (row,) = [line for line in render_text(report).splitlines() if "integrability[0]" in line]
        assert row.split()[:3] == ["-", "integrability[0]", "FAIL"]
        assert row.endswith("  residual dx^dy^dz")
        entry = json.loads(render_json(report))["checks"][0]["entries"][-1]
        assert entry["name"] == "integrability[0]" and entry["verdict"] == "FAIL"
        assert entry["witness_form"] == "dx^dy^dz"

    def test_integrability_residual_in_latex(self):
        doc = parse_doc(
            "chart x y z\nregion R = all\nfoliation C on R leafdim 2 nu dz - y*dx\ncheck foliation C\n"
        )
        report = run_checks(doc)
        (row,) = [line for line in render_latex(report).splitlines() if "integrability[0]" in line]
        witness = point_str(report.checks[0].entries[-1]["witness_point"]).replace("{", r"\{").replace("}", r"\}")
        assert row == (
            r"\item \texttt{integrability[0]}: \verdictfail (coefficient of dx\textasciicircum{}dy"
            r"\textasciicircum{}dz differs) at " + witness
            + r", residual dx\textasciicircum{}dy\textasciicircum{}dz"
        )

    def test_a_point_where_the_region_is_undefined_lies_outside_it(self, tmp_path, capsys):
        # flatexp(x)*flatexp(-x) is zero, but no normalization proves it;
        # the sampler skips x <= 0, where log(x) is undefined
        spec = tmp_path / "log_region.fol"
        spec.write_text("chart x y\nregion R = log(x) > 0\ncheck zero flatexp(x)*flatexp(-x) on R\n")
        assert run_cli(["check", str(spec)]) == 2
        assert "[UNDECIDED] check-1-zero (zero)" in capsys.readouterr().out

    def test_render_report_rejects_unknown_format(self):
        doc = parse_doc(TINY_DOC)
        report = run_checks(doc, seed=5, seed_source="flag")
        with pytest.raises(ValueError):
            render_report(report, "yaml")


def test_cli_never_loads_numpy():
    # numpy backs only the pointwise ideal-membership oracle, and the
    # package has no dataclass: a fresh interpreter running every verb on
    # every gallery document must import neither, nor inspect, which
    # dataclasses pulls in (what the interpreter loads before gvcheck
    # does not count)
    script = textwrap.dedent("""
        import contextlib, io, sys
        before = set(sys.modules)
        import gvcheck
        from gvcheck import cli
        with contextlib.redirect_stdout(io.StringIO()):
            for doc in sys.argv[1:]:
                for fmt in ("text", "json", "latex"):
                    cli.main(["report", doc, "--format", fmt])
                cli.main(["check", doc])
            cli.main(["gv", %r])
        loaded = {"dataclasses", "inspect", "numpy"} & (set(sys.modules) - before)
        assert not loaded, sorted(loaded)
    """ % gallery_path("glued_family.fol"))
    docs = sorted(os.path.join(GALLERY, n) for n in os.listdir(GALLERY) if n.endswith(".fol"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(gvcheck.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script] + docs, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
