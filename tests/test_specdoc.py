"""Tests for the plain-text document format."""

from fractions import Fraction

import pytest

from gvcheck import parse_spec
from gvcheck.specdoc import (
    DEFAULT_BOX,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_TOL,
    Diagnostic,
)
from gvcheck.symbolic import rat, sym
from gvcheck.forms import basis_form, zero_form


FULL_TEXT = """\
# A document that uses every statement once.
chart x y z
box x -1 1
seed 42
samples 16
abs_tol 1e-12
rel_tol 1e-7

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


class TestHappyPath:
    def test_every_statement_parses(self):
        doc = parse_ok(FULL_TEXT)
        assert doc.coords == ("x", "y", "z")
        assert doc.box["x"] == (-1.0, 1.0)
        assert doc.box["y"] == DEFAULT_BOX
        assert doc.seed == 42 and doc.seed_declared
        assert doc.samples == 16
        assert doc.abs_tol == 1e-12
        assert doc.rel_tol == 1e-7
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
        assert first.kind == "zero"
        assert first.label == "normalization"
        assert first.index == 0
        assert first.payload["region"] is doc.regions["R"]
        assert first.payload["expr"].is_zero
        assert second.kind == "foliation"
        assert second.label == "check-2-foliation"
        assert second.payload["foliation"] is doc.foliations["F"]

    def test_defaults_when_config_lines_absent(self):
        doc = parse_ok("chart x y\nregion R = all\ncheck zero x - x on R\n")
        assert doc.seed == DEFAULT_SEED and not doc.seed_declared
        assert doc.samples == DEFAULT_SAMPLES
        assert doc.abs_tol == DEFAULT_TOL and doc.rel_tol == DEFAULT_TOL
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

    def test_scientific_notation_tolerances(self):
        doc = parse_ok("chart x\nabs_tol 2.5e-11\nrel_tol 1e-6\n")
        assert doc.abs_tol == 2.5e-11
        assert doc.rel_tol == 1e-6

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
        doc = parse_ok(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\n"
            "mu H = 0*dx\nfamily fam = H\n"
            "check gv-min fam rank 1\n"
        )
        assert doc.checks[0].kind == "gv-min"
        assert doc.checks[0].payload["rank"] == 1

    def test_spaced_hyphen_stays_with_expression(self):
        # "zero -x" must parse as the zero check of the negated coordinate,
        # not as a kind named "zero-x".
        doc, diagnostics = parse_spec("chart x\nregion U = x > 0\ncheck zero - x + x on U\n")
        assert diagnostics == []
        assert doc.checks[0].kind == "zero"
        assert doc.checks[0].payload["expr"].is_zero

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
        doc = parse_ok("chart x y\nregion R = all\ncheck forms-equal d(x*y) == y*dx + x*dy on R\n")
        payload = doc.checks[0].payload
        assert payload["left"] == payload["right"]

    def test_ideal_member_payload_collects_generators(self):
        doc = parse_ok("chart x y z\nregion R = all\ncheck ideal-member dx^dy in dx, dy on R\n")
        payload = doc.checks[0].payload
        assert len(payload["gens"]) == 2
        assert payload["form"].degree == 2

    def test_rank_check_payload(self):
        doc = parse_ok(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy transverse y\nfamily fam = H\n"
            "check rank fam at (0.5, -1) expect 1\n"
        )
        payload = doc.checks[0].payload
        assert payload["point"] == {"x": 0.5, "y": -1.0}
        assert payload["expect"] == 1

    def test_theta_check_with_expected_form(self):
        doc = parse_ok(
            "chart x y z\nregion R = all\n"
            "foliation Surf on R leafdim 2 nu dz transverse z\n"
            "foliation Curves on R leafdim 1 nu exp(x)*dy^dz gens exp(x)*dy, dz transverse y, z\n"
            "check theta Curves Surf == -exp(x)*dy\n"
        )
        payload = doc.checks[0].payload
        assert payload["sub"].name == "Curves"
        assert payload["sup"].name == "Surf"
        assert payload["expected"].degree == 1

    def test_gv_min_autofills_zero_mu_for_one_leaf_members(self):
        doc = parse_ok(
            "chart x y\nregion Core = 1 - x^2 > 0\nregion Shell = x^2 - 1/4 > 0\n"
            "foliation Leaves on Core leafdim 1 nu (1 + x^2)*dy transverse y\n"
            "foliation Whole on Shell leafdim 2\n"
            "mu Leaves = -(2*x/(1 + x^2))*dx\n"
            "family fam = Leaves Whole\n"
            "check gv-min fam rank 1\n"
        )
        mus = doc.checks[0].payload["mus"]
        assert set(mus) == {"Leaves", "Whole"}
        assert mus["Whole"] == zero_form(doc.coords, 1)
        assert not mus["Leaves"].is_zero

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
        assert parse_ok(text + "check overlap-vanishing fam\n").checks[0].payload["mus"] == {
            "W": zero_form(("x", "y"), 1)
        }
        _, diagnostics = parse_spec(text + check + "\n")
        assert [str(d) for d in diagnostics] == ["line 6, col %d: no mu declared for foliation 'W'" % col]

    def test_kind_merge_stops_at_a_non_kind(self):
        # "zero-x" extends no kind, so the minus starts the expression
        doc = parse_ok("chart x\nregion R = all\ncheck zero-x + x on R\n")
        assert doc.checks[0].kind == "zero"
        assert doc.checks[0].payload["expr"].is_zero

    def test_frobenius_with_inline_mu(self):
        doc = parse_ok(
            "chart x y\nregion R = all\n"
            "foliation H on R leafdim 1 nu dy - y*dx\n"
            "check frobenius H with -dx\n"
        )
        payload = doc.checks[0].payload
        assert payload["mu"] == basis_form(("x", "y"), ("x",)) * rat(-1)

    def test_lookup_of_undeclared_object(self):
        _, diagnostics = parse_spec("chart x\ncheck foliation F\n")
        assert "foliation" in diagnostics[0].message and "'F'" in diagnostics[0].message
