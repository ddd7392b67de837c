"""Tests for the plain-text document format."""

from fractions import Fraction

import pytest

from gvcheck import ZeroTestConfig, parse_spec, run_checks
from gvcheck.specdoc import DEFAULT_BOX, Diagnostic
from gvcheck.symbolic import rat, sym
from gvcheck.forms import basis_form


FULL_TEXT = """\
# A document that uses every statement once.
chart x y z
box x -1 1
seed 42
samples 16

scalar h = 1 + x^2
form w = h*dy
map shift = x -> x + 1

region R = all
region U = 1 - x^2 > 0, 1 - y^2 > 0

foliation F on R leafdim 2 nu dy - y*dx
foliation G on U leafdim 3
mu F = -(1 + y*z)*dx + z*dy

family fam = F G saturated

closedset Axis = zeroset x^2 + y^2 anchors (0, 0, 0) window x 0.3 1.1, y 0.3 1.1
bump b1 = center (0, 0, 0) radius 3/10
testfn phi = cover b1 of Axis

tubular col on R f y*exp(-x) t y eps 1/4 outer 1/2

check zero h - 1 - x^2 on R as normalization
check foliation F
"""


def parse_ok(text):
    doc, diagnostics = parse_spec(text)
    assert diagnostics == [], [str(d) for d in diagnostics]
    assert doc is not None
    return doc


def only_row(text):
    """The report row of a document's one check."""
    (row,) = run_checks(parse_ok(text), seed=1, seed_source="flag").checks
    return row


def entry_rows(row):
    return [(e["name"], e["verdict"]) for e in row.entries]


class TestHappyPath:
    def test_every_statement_parses(self):
        doc = parse_ok(FULL_TEXT)
        assert doc.coords == ("x", "y", "z")
        assert doc.box["x"] == (-1.0, 1.0)
        assert doc.box["y"] == DEFAULT_BOX
        assert doc.seed == 42 and doc.seed_declared
        assert doc.samples == 16
        assert set(doc.scalars) == {"h", "phi"}  # testfn registers its sum
        assert set(doc.forms) == {"w"}
        assert set(doc.maps) == {"shift"}
        assert set(doc.regions) == {"R", "U"}
        assert set(doc.foliations) == {"F", "G"}
        assert set(doc.families) == {"fam"}
        assert set(doc.mus) == {"F"}
        assert set(doc.closedsets) == {"Axis"}
        assert set(doc.bumps) == {"b1"}
        assert set(doc.testfns) == {"phi"}
        assert set(doc.tubulars) == {"col"}
        assert len(doc.checks) == 2

    def test_declared_objects_have_expected_shapes(self):
        doc = parse_ok(FULL_TEXT)
        x = sym("x")
        assert doc.scalars["h"] == rat(1) + x * x
        assert doc.forms["w"] == basis_form(doc.coords, ("y",)) * doc.scalars["h"]
        assert doc.maps["shift"].components["x"] == x + 1
        assert doc.maps["shift"].components["y"] == sym("y")
        assert doc.regions["R"].constraints == ()
        assert len(doc.regions["U"].constraints) == 2
        fol = doc.foliations["F"]
        assert fol.leaf_dim == 2 and fol.region.name == "R"
        assert doc.foliations["G"].leaf_dim == 3
        fam = doc.families["fam"]
        assert [m.name for m in fam.members] == ["F", "G"]
        assert fam.saturated
        assert doc.tubulars["col"].eps == Fraction(1, 4)
        assert doc.tubulars["col"].t == "y"

    def test_check_directives_carry_payloads(self):
        doc = parse_ok(FULL_TEXT)
        first, second = doc.checks
        assert (first.kind, first.label, first.index) == ("zero", "normalization", 0)
        assert (second.kind, second.label, second.index) == ("foliation", "check-2-foliation", 1)
        zero_row, foliation_row = run_checks(doc).checks
        # h - 1 - x^2 normalizes to zero before the run, which the LaTeX shows
        assert (zero_row.verdict, zero_row.latex) == ("PASS", r"0 \overset{?}{=} 0")
        assert foliation_row.latex == r"\nu = " + doc.foliations["F"].nu.to_latex()

    def test_defaults_when_config_lines_absent(self):
        doc = parse_ok("chart x y\nregion R = all\ncheck zero x - x on R\n")
        defaults = ZeroTestConfig()
        assert doc.seed == defaults.rng_seed and not doc.seed_declared
        assert doc.samples == defaults.sample_count
        assert doc.box == {"x": DEFAULT_BOX, "y": DEFAULT_BOX}

    def test_comments_and_blank_lines_are_skipped(self):
        doc = parse_ok("# leading comment\n\nchart x\n  # indented comment\nregion R = all\n")
        assert doc.coords == ("x",)

    def test_environment_exposes_declared_names(self):
        doc = parse_ok(FULL_TEXT)
        env = doc.env()
        assert env.coords == doc.coords
        assert env.scalars["h"] == doc.scalars["h"]
        assert env.forms["w"] == doc.forms["w"]


class TestDiagnostics:
    def test_bad_line_yields_located_diagnostic(self):
        doc, diagnostics = parse_spec("chart x y\nregion R = all\ncheck zero q on R\n")
        assert doc is None
        assert len(diagnostics) == 1
        d = diagnostics[0]
        assert d.line == 3
        assert "unresolved reference 'q'" in d.message
        assert d.col == 12

    def test_parsing_continues_past_errors(self):
        text = "chart x\nregion R = all\nscalar a = nope\nscalar b = x + 1\ncheck zero b - x - 1 on R\nwibble 3\n"
        doc, diagnostics = parse_spec(text)
        assert doc is None
        assert [d.line for d in diagnostics] == [3, 6]
        assert "unresolved reference" in diagnostics[0].message
        assert "unknown statement 'wibble'" in diagnostics[1].message

    def test_diagnostic_str_includes_location(self):
        assert str(Diagnostic(7, 4, "boom")) == "line 7, col 4: boom"
        assert str(Diagnostic(7, None, "boom")) == "line 7: boom"

    def test_engine_errors_become_diagnostics(self):
        # a degree mismatch inside a declaration must not escape the parser
        doc, diagnostics = parse_spec("chart x y z\nform w = dy + dz^dx\n")
        assert doc is None
        assert diagnostics[0].line == 2
        assert "cannot add a 1-form and a 2-form" in diagnostics[0].message

    def test_statement_before_chart(self):
        doc, diagnostics = parse_spec("region R = all\nchart x\n")
        assert doc is None
        assert diagnostics[0].line == 1
        assert "chart" in diagnostics[0].message

    def test_comment_only_document_is_empty_but_valid(self):
        doc, diagnostics = parse_spec("# nothing here\n")
        assert diagnostics == []
        assert doc is not None
        assert doc.coords == () and doc.checks == []


class TestChartStatement:
    def test_reserved_coordinate_rejected(self):
        doc, diagnostics = parse_spec("chart x exp\n")
        assert doc is None
        assert "'exp' is a reserved word" in diagnostics[0].message

    def test_duplicate_coordinate_rejected(self):
        _, diagnostics = parse_spec("chart x x\n")
        assert "duplicate coordinate 'x'" in diagnostics[0].message

    def test_differential_collision_rejected(self):
        _, diagnostics = parse_spec("chart x dx\n")
        assert "collides with the differential" in diagnostics[0].message

    def test_second_chart_rejected(self):
        _, diagnostics = parse_spec("chart x\nchart y\n")
        assert [d.line for d in diagnostics] == [2]
        assert "chart already declared" in diagnostics[0].message

    def test_empty_chart_rejected(self):
        _, diagnostics = parse_spec("chart\n")
        assert "chart needs at least one coordinate" in diagnostics[0].message

    def test_valid_prefix_commits_before_error(self):
        # x and y should survive the bad third name, so later lines parse.
        doc, diagnostics = parse_spec("chart x y exp\nregion R = all\ncheck zero x*y - y*x on R\n")
        assert doc is None
        assert [d.line for d in diagnostics] == [1]


class TestNameCollisions:
    def test_scalar_shadowing_coord_rejected(self):
        _, diagnostics = parse_spec("chart x\nscalar x = 1\n")
        assert "name 'x' is already visible to expressions" in diagnostics[0].message

    def test_form_shadowing_scalar_rejected(self):
        _, diagnostics = parse_spec("chart x\nscalar h = x\nform h = dx\n")
        assert "already visible" in diagnostics[0].message

    def test_scalar_shadowing_differential_rejected(self):
        _, diagnostics = parse_spec("chart x\nscalar dx = x\n")
        assert "collides with a coordinate differential" in diagnostics[0].message

    def test_duplicate_region_rejected(self):
        _, diagnostics = parse_spec("chart x\nregion R = all\nregion R = all\n")
        assert "duplicate region name 'R'" in diagnostics[0].message

    def test_reserved_scalar_name_rejected(self):
        _, diagnostics = parse_spec("chart x\nscalar nu = x\n")
        assert "'nu' is a reserved word" in diagnostics[0].message


class TestRegionStatement:
    def test_constraint_must_compare_against_zero(self):
        _, diagnostics = parse_spec("chart x\nregion U = x > 1\n")
        assert "inequalities must have the shape <expr> > 0" in diagnostics[0].message

    def test_less_than_rejected(self):
        _, diagnostics = parse_spec("chart x\nregion U = x < 0\n")
        assert diagnostics and diagnostics[0].line == 2

    def test_all_keyword(self):
        doc = parse_ok("chart x\nregion R = all\n")
        assert doc.regions["R"].constraints == ()

    def test_multiple_constraints(self):
        doc = parse_ok("chart x y\nregion U = 1 - x^2 > 0, 1 - y^2 > 0\n")
        u = doc.regions["U"]
        assert u.contains({"x": 0.0, "y": 0.0})
        assert not u.contains({"x": 1.5, "y": 0.0})


class TestConfigStatements:
    def test_samples_must_be_positive_integer(self):
        _, diagnostics = parse_spec("chart x\nsamples 0\n")
        assert "samples must be a positive integer" in diagnostics[0].message
        _, diagnostics = parse_spec("chart x\nsamples 3/2\n")
        assert "samples must be a positive integer" in diagnostics[0].message

    def test_scientific_notation_settings(self):
        doc = parse_ok("chart x\nsamples 2.5e1\nseed 1e3\nbox x -2.5e-1 1e0\n")
        assert doc.samples == 25
        assert doc.seed == 1000
        assert doc.box["x"] == (Fraction(-1, 4), Fraction(1))

    def test_box_requires_known_coordinate_and_order(self):
        _, diagnostics = parse_spec("chart x\nbox q -1 1\n")
        assert "unknown coordinate 'q'" in diagnostics[0].message
        _, diagnostics = parse_spec("chart x\nbox x 1 -1\n")
        assert "box bounds must satisfy lo < hi" in diagnostics[0].message


class TestCheckParsing:
    def test_unknown_check_kind(self):
        _, diagnostics = parse_spec("chart x\nregion R = all\ncheck frobnicate x on R\n")
        assert diagnostics[0].line == 3
        assert "check kind" in diagnostics[0].message

    def test_hyphenated_kind_merges_adjacent_tokens(self):
        row = only_row(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\n"
            "mu H = 0*dx\nfamily fam = H\n"
            "check gv-min fam rank 1\n"
        )
        assert row.kind == "gv-min"
        assert row.detail == "degree 3 form, glued with zero on 0 region(s)"

    def test_spaced_hyphen_stays_with_expression(self):
        # "zero -x" must parse as the zero check of the negated coordinate,
        # not as a kind named "zero-x".
        row = only_row("chart x\nregion U = x > 0\ncheck zero - x + x on U\n")
        assert (row.kind, row.verdict, row.latex) == ("zero", "PASS", r"0 \overset{?}{=} 0")

    def test_default_labels_count_from_one(self):
        doc = parse_ok("chart x\nregion R = all\ncheck zero x - x on R\ncheck zero 0*x on R\n")
        assert [c.label for c in doc.checks] == ["check-1-zero", "check-2-zero"]
        assert [c.index for c in doc.checks] == [0, 1]

    def test_hyphenated_label(self):
        doc = parse_ok("chart x\nregion R = all\ncheck zero x - x on R as my-fancy-label\n")
        assert doc.checks[0].label == "my-fancy-label"

    def test_label_with_spaced_hyphen_is_trailing_junk(self):
        _, diagnostics = parse_spec("chart x\nregion R = all\ncheck zero x - x on R as foo - bar\n")
        assert diagnostics and "trailing" in diagnostics[0].message

    def test_forms_equal_payload(self):
        row = only_row("chart x y\nregion R = all\ncheck forms-equal d(x*y) == y*dx + x*dy on R\n")
        assert row.verdict == "PASS"
        # d(x*y) is expanded at parse time, so both sides render alike
        assert row.latex == r"y \, dx + x \, dy \overset{?}{=} y \, dx + x \, dy"

    def test_ideal_member_payload_collects_generators(self):
        row = only_row("chart x y z\nregion R = all\ncheck ideal-member dx^dy in dx, dy on R\n")
        assert row.verdict == "PASS"
        assert row.latex == r"dx \wedge dy \in \left\langle dx, dy \right\rangle"

    def test_rank_check_payload(self):
        text = (
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\nfamily fam = H\n"
            "check rank fam at (0.5, -1) expect %d\n"
        )
        row = only_row(text % 1)
        assert (row.verdict, row.witness) == ("PASS", None)
        assert row.detail == "rank 1 at the sample point (expected 1)"
        row = only_row(text % 2)
        assert (row.verdict, row.witness) == ("FAIL", {"x": 0.5, "y": -1.0})
        assert row.detail == "rank 1 at the sample point (expected 2)"

    def test_theta_check_with_expected_form(self):
        text = (
            "chart x y z\nregion R = all\n"
            "foliation Surf on R leafdim 2 nu dz transverse z\n"
            "foliation Curves on R leafdim 1 nu exp(x)*dy^dz gens exp(x)*dy, dz transverse y, z\n"
            "check theta Curves Surf"
        )
        row = only_row(text + " == -exp(x)*dy\n")
        assert (row.verdict, row.detail) == ("PASS", "sign -1")
        assert row.latex == r"\theta = -\exp\!\left(x\right) \, dy"
        assert entry_rows(row) == [("matches-expected", "PASS")]
        assert only_row(text + " == exp(x)*dy\n").verdict == "FAIL"
        assert entry_rows(only_row(text + "\n")) == []

    def test_gv_min_autofills_zero_mu_for_one_leaf_members(self):
        doc = parse_ok(
            "chart x y\nregion Core = 1 - x^2 > 0\nregion Shell = x^2 - 1/4 > 0\n"
            "foliation Leaves on Core leafdim 1 nu (1 + x^2)*dy transverse y\n"
            "foliation Whole on Shell leafdim 2\n"
            "mu Leaves = -(2*x/(1 + x^2))*dx\n"
            "family fam = Leaves Whole\n"
            "check gv-min fam rank 1\n"
        )
        (row,) = run_checks(doc).checks
        assert row.verdict == "PASS"
        assert ("frobenius[Leaves]", "PASS") in entry_rows(row)
        assert ("frobenius[Whole]", "PASS") in entry_rows(row)

    def test_missing_mu_for_proper_foliation_is_an_error(self):
        _, diagnostics = parse_spec(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\nfamily fam = H\n"
            "check gv-min fam rank 1\n"
        )
        assert diagnostics and diagnostics[0].line == 5

    @pytest.mark.parametrize("check, col", [
        ("check frobenius W", 18),
        ("check gv-form W == 0", 17),
        ("check gv-weighted x for W", 26),
        ("check overlap-identities W W", 29),
        ("check exactness-pipeline W weight x via td primitive 0", 28),
    ])
    def test_zero_mu_default_is_for_families_only(self, check, col):
        # a one-leaf foliation gets the zero witness only as a family member
        text = (
            "chart x y\nregion R = all\nfoliation W on R leafdim 2\nfamily fam = W\n"
            "tubular td on R f y t y eps 1/4 outer 1/2\n"
        )
        assert entry_rows(only_row(text + "check overlap-vanishing fam\n")) == [("frobenius[W]", "PASS")]
        _, diagnostics = parse_spec(text + check + "\n")
        assert [str(d) for d in diagnostics] == ["line 6, col %d: no mu declared for foliation 'W'" % col]

    def test_kind_merge_stops_at_a_non_kind(self):
        # "zero-x" extends no kind, so the minus starts the expression
        row = only_row("chart x\nregion R = all\ncheck zero-x + x on R\n")
        assert (row.kind, row.verdict, row.latex) == ("zero", "PASS", r"0 \overset{?}{=} 0")

    def test_frobenius_with_inline_mu(self):
        row = only_row(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy - y*dx\n"
            "check frobenius H with -dx\n"
        )
        assert row.verdict == "PASS"
        assert row.latex == r"d\nu \overset{?}{=} \nu \wedge \mu,\ \mu = -dx"

    def test_equal_atom_arguments_are_proved_equal(self):
        # 2/(1+x) and (2+2x)/(1+x)^2 normalize to one fraction, so one atom
        row = only_row("chart x\nregion R = all\ncheck zero exp(2/(1+x)) - exp((2+2*x)/(1+x)^2) on R\n")
        assert row.verdict == "PASS"

    def test_a_zero_ideal_generator_is_the_zero_one_form(self):
        # the zero generator is a 1-form, so the row is the refuted
        # independence precondition, with its witness
        row = only_row("chart x y\nregion R = all\ncheck ideal-member dx^dy in 0 on R\n")
        assert (row.verdict, row.detail) == ("FAIL", "ideal generators are linearly dependent at a sample")
        assert set(row.witness) == {"x", "y"}

    def test_a_zero_decomposition_entry_is_the_zero_one_form(self):
        text = "chart x y z\nregion R = all\nfoliation K on R leafdim 2 nu dy gens 0\n"
        (entry,) = parse_ok(text).foliations["K"].decomposition
        assert (entry.degree, entry.is_zero) == (1, True)
        row = only_row(text + "check foliation K\n")
        assert row.verdict == "FAIL"
        assert ("decomposition-product", "FAIL") in entry_rows(row)

    def test_lookup_of_undeclared_object(self):
        _, diagnostics = parse_spec("chart x\ncheck foliation F\n")
        assert "foliation" in diagnostics[0].message and "'F'" in diagnostics[0].message


class TestDiagnosticColumns:
    """A diagnostic points at the token that caused it."""

    @pytest.mark.parametrize("line, col, message", [
        ("box x -1 1", 5, "a chart must be declared first"),
        ("scalar a = x", 8, "a chart must be declared first"),
        ("form w = dx", 6, "a chart must be declared first"),
        ("map m = x -> y", 5, "a chart must be declared first"),
        ("region R = all", 8, "a chart must be declared first"),
        ("foliation H on R leafdim 1 nu dy", 11, "a chart must be declared first"),
        ("family fam = H", 8, "a chart must be declared first"),
        ("mu H = dx", 4, "a chart must be declared first"),
        ("closedset C = balls (0, 0, 1)", 11, "a chart must be declared first"),
        ("bump b = center (0, 0) radius 1", 6, "a chart must be declared first"),
        ("testfn t = cover b of C", 8, "a chart must be declared first"),
        ("tubular T on R f y t y eps 1/4 outer 1/2", 9, "a chart must be declared first"),
        ("check zero x on R", 12, "unresolved reference 'x'"),
    ])
    def test_chart_precondition_at_first_argument(self, line, col, message):
        """Only chart, seed, samples and check need no chart."""
        _, diagnostics = parse_spec("seed 3\nsamples 4\n" + line + "\nchart x y\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [(3, col, message)]

    FAMILY = "chart x y\nregion R = all\nfoliation H on R leafdim 1 nu dy transverse y\nfamily fam = H\n"

    @pytest.mark.parametrize("line, token", [
        ("check rank fam at (0, 0) expect 1/2", "1/2"),
        ("check rank fam at (0, 0) expect -3/2", "-3/2"),
        ("check gv-min fam rank 1/2", "1/2"),
        ("foliation K on R leafdim 1/2 nu dy", "1/2"),
        ("seed 1/2", "1/2"),
        ("seed 2.7", "2.7"),
    ])
    def test_non_integer_is_reported_at_the_literal(self, line, token):
        _, diagnostics = parse_spec(self.FAMILY + "mu H = 0*dx\n" + line + "\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [
            (6, line.index(token) + 1, "expected an integer")
        ]

    @pytest.mark.parametrize("line, token, message", [
        ("samples 3/2", "3/2", "samples must be a positive integer"),
        ("samples 0", "0", "samples must be a positive integer"),
        ("samples -1", "-1", "samples must be a positive integer"),
        ("samples 2.5", "2.5", "samples must be a positive integer"),
        ("seed 1/2", "1/2", "expected an integer"),
        ("box x 1 -1", "-1", "box bounds must satisfy lo < hi"),
        ("mu K = dx^dy", "dx^dy", "a Frobenius witness must be a 1-form"),
        ("closedset C = balls (0, 0)", "(", "ball needs 2 center coordinates and a radius"),
        ("closedset C = complement balls (0, 0, 1, 2)", "(", "ball needs 2 center coordinates and a radius"),
        ("closedset C = zeroset x anchors (0)", "(", "point needs 2 coordinates"),
        ("closedset W = balls (0, 0, -1/2)", "(", "ball radius must be positive"),
        ("closedset C = complement balls (0, 0, 1/2) window x 1 -1", "-1", "window bounds must satisfy lo < hi"),
        ("bump b = center (0) radius 1", "(", "center needs 2 coordinates"),
        ("check rank fam at (0) expect 1", "(", "point needs 2 coordinates"),
    ])
    def test_value_check_is_reported_at_the_value(self, line, token, message):
        _, diagnostics = parse_spec(self.FAMILY + "foliation K on R leafdim 2\n" + line + "\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [
            (6, line.index(token) + 1, message)
        ]

    def test_bump_leaving_the_box_names_its_center_as_written(self):
        _, diagnostics = parse_spec("chart x y\nbump b = center (1.9, 0) radius 1\n")
        assert [str(d) for d in diagnostics] == [
            "line 2, col 17: support ball of bump at (19/10, 0) leaves the chart box along 'x'"
        ]

    @pytest.mark.parametrize("line, col, message", [
        ("foliation F on R leafdim 7 nu dx", 26, "leaf dimension 7 outside 0..2"),
        ("foliation F on R leafdim -1 nu dx", 26, "leaf dimension -1 outside 0..2"),
        ("foliation F on R leafdim 1 nu dx^dy", 31, "defining form has degree 2, expected codimension 1"),
        ("foliation F on R leafdim 1 nu dy gens dx, dy", 39, "decomposition must have exactly 1 transverse 1-forms"),
        ("foliation F on R leafdim 1 nu dy transverse x, y", 45, "transverse coordinate list must have length 1"),
        ("foliation F on R leafdim 2 nu 2", 31, "a one-leaf foliation must use the constant 0-form 1"),
        ("family f2 = K H K", 17, "family members must have distinct names"),
        ("tubular td on R f y t y eps 1/2 outer 1/4", 39, "need eps_outer > eps > 0"),
        ("tubular td on R f y t y eps 1/2 outer 1/2", 39, "need eps_outer > eps > 0"),
        ("tubular td on R f y t y eps 0 outer 1/2", 29, "need eps_outer > eps > 0"),
        ("bump b = center (0, 0) radius -1", 31, "bump radius must be a positive rational constant"),
    ])
    def test_constructor_check_is_reported_at_the_value(self, line, col, message):
        _, diagnostics = parse_spec(self.FAMILY + "foliation K on R leafdim 2\n" + line + "\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [(6, col, message)]

    @pytest.mark.parametrize("line", [
        "box q -1 1",
        "map m = x -> y, q -> x",
        "closedset C = zeroset x anchors (0, 0) window x 0 1, q 0 1",
        "tubular td on R f y t q eps 1/4 outer 1/2",
        "foliation K on R leafdim 1 nu dy transverse q",
    ])
    def test_unknown_coordinate_is_reported_at_the_name(self, line):
        _, diagnostics = parse_spec(self.FAMILY + line + "\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [
            (5, line.index("q") + 1, "unknown coordinate 'q'")
        ]

    def test_coordinate_mapped_twice_is_reported_at_the_name(self):
        line = "map m = x -> y, x -> x"
        _, diagnostics = parse_spec(self.FAMILY + line + "\n")
        assert [(d.col, d.message) for d in diagnostics] == [
            (line.rindex("x ->") + 1, "coordinate 'x' mapped twice")
        ]

    def test_gv_min_rank_must_be_a_leaf_dimension(self):
        line = "check gv-min fam rank 7"
        _, diagnostics = parse_spec(self.FAMILY + "mu H = 0*dx\n" + line + "\n")
        assert [(d.line, d.col, d.message) for d in diagnostics] == [(
            6,
            line.index("7") + 1,
            "rank 7 is not the leaf dimension of any member of family fam (leaf dimensions: 1)",
        )]
