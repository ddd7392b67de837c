"""Exact exterior calculus and batch verification for foliated charts.

The package has three layers:

* a symbolic core (:mod:`gvcheck.symbolic`, :mod:`gvcheck.forms`) doing
  exact rational-coefficient exterior calculus with interned flat atoms;
* geometry and invariants (:mod:`gvcheck.foliations`, :mod:`gvcheck.gv`,
  :mod:`gvcheck.testfn`, :mod:`gvcheck.singular`) built on tri-state
  zero tests: PASS by normalization, FAIL by a numeric witness,
  UNDECIDED otherwise;
* a document format and runner (:mod:`gvcheck.specdoc`,
  :mod:`gvcheck.runner`, :mod:`gvcheck.cli`) for reproducible batch
  runs with deterministic JSON reports.
"""

from .errors import (
    ChartError,
    CoverageError,
    DegreeError,
    DomainError,
    EvaluationError,
    GluingError,
    GvError,
    PreconditionError,
    SamplingError,
    UnsupportedShapeError,
    WitnessedError,
)
from .verdicts import (
    CheckEntry,
    Outcome,
    Verdict,
    combine_outcomes,
)
from .symbolic import (
    ScalarExpr,
    ZeroTestConfig,
    evaluate,
    exp,
    flatexp,
    free_coords,
    is_zero_on,
    log,
    mix_seed,
    normalize,
    partial,
    psi0,
    rat,
    substitute,
    sym,
    to_latex,
)
from .forms import (
    CoordinateMap,
    DiffForm,
    basis_form,
    differential,
    ext_d,
    form_power,
    forms_equal,
    ideal_member,
    pullback,
    scalar_form,
    wedge,
    wedge_all,
    zero_form,
)
from .regions import Region, box_region, hull_box, intersect
from .foliations import (
    Foliation,
    FoliationFamily,
    PiecewiseForm,
    Stratum,
    check_family,
    check_invariance,
    check_piecewise,
    one_leaf,
    rank_at,
    stratum,
    validate_foliation,
)
from .gv import (
    GVReport,
    adapted_gauge,
    check_basic,
    check_minimal_vanishing,
    check_overlap_identities,
    gv_form,
    gv_min,
    gv_weighted,
    solve_mu,
    solve_theta,
    transition_mu,
    verify_frobenius,
)
from .testfn import (
    BumpSpec,
    ClosedSetSpec,
    bump,
    flatness_check,
    smooth_step,
    strengthen,
    weak_test_from_cover,
)
from .singular import (
    TubularData,
    check_exactness_pipeline,
    d_f,
    iso_decompose,
    phi_map,
    tilde_extend,
    verify_exact,
)
from .syntax import Environment, ParseError, parse_expression, tokenize
from .specdoc import Diagnostic, SpecDocument, parse_spec
from .runner import CheckResult, RunReport, render_report, run_checks

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
