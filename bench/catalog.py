"""The benchmark's workloads and metrics: the single source for BENCHMARK.json.

``python3 bench/run.py --write-manifest`` writes BENCHMARK.json from the
tables below.  Each per-layer metric names the end-to-end metric and
workload it should move.
"""
from __future__ import annotations

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 35

WORKLOADS = [
    ("gallery", "the 10 shipped gallery documents through `gvcheck report` in process, as users run them: "
                "parsing, the threaded runner, flatness sampling and all three renderers"),
    ("swell", "exact GV-form construction and naturality at growing expression size, with almost no "
              "sampling or parsing: the polynomial kernel and the exterior calculus"),
    ("sampling", "the symbolic layer read instead of written: seeded zero tests, rejection sampling on a "
                 "thin region and numpy-backed ideal membership, with almost no normalization"),
]

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p90_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("cold_report_s", "s", "lower", 0.25),
]

_SWELL = "swell op_p50_ms; little on gallery, none on sampling"
_FORMS = "swell op_p50_ms and op_p90_ms"
_SAMPLING = "sampling ops_per_s"
_GALLERY = "gallery op_p50_ms and cold_report_s"

# name, unit, better, what it should move.  Counts and self times are
# per traced operation; self time is span time not covered by child spans.
PER_LAYER = [
    ("symbolic.poly_mul.calls", "count/op", "lower", _SWELL),
    ("symbolic.poly_mul.term_products", "count/op", "lower", _SWELL),
    ("symbolic.poly_mul.self_s", "s/op", "lower", _SWELL),
    ("symbolic.poly_add.calls", "count/op", "lower", _SWELL),
    ("symbolic.poly_add.self_s", "s/op", "lower", _SWELL),
    ("symbolic.make.calls", "count/op", "lower", _SWELL),
    ("symbolic.make.self_s", "s/op", "lower", _SWELL),
    ("symbolic.partial.self_s", "s/op", "lower", _SWELL),
    ("symbolic.result_num_terms", "count", "lower", _SWELL),
    ("symbolic.result_den_terms", "count", "lower", _SWELL),
    ("forms.wedge.self_s", "s/op", "lower", _FORMS),
    ("forms.ext_d.self_s", "s/op", "lower", _FORMS),
    ("forms.pullback.self_s", "s/op", "lower", _FORMS),
    ("forms.forms_equal.self_s", "s/op", "lower", _FORMS),
    ("gv.gv_form.self_s", "s/op", "lower", _FORMS),
    ("symbolic.is_zero_on.self_s", "s/op", "lower", _SAMPLING),
    ("symbolic.is_zero_on.samples_evaluated", "count/op", "lower", _SAMPLING),
    ("symbolic.is_zero_on.samples_skipped", "count/op", "lower", _SAMPLING),
    ("regions.sample_point.calls", "count/op", "lower", _SAMPLING),
    ("regions.sample_point.self_s", "s/op", "lower", _SAMPLING),
    ("regions.rejections", "count/op", "lower", _SAMPLING),
    ("forms.gram_independent.calls", "count/op", "lower", _SAMPLING),
    ("forms.gram_independent.self_s", "s/op", "lower", _SAMPLING),
    ("specdoc.parse_spec.self_s", "s/op", "lower", _GALLERY),
    ("cli.main.self_s", "s/op", "lower", _GALLERY),
    ("runner.run_checks.self_s", "s/op", "lower", _GALLERY + " (thread-pool overhead)"),
    ("runner.render_report.json.self_s", "s/op", "lower", _GALLERY),
    ("runner.render_report.text.self_s", "s/op", "lower", _GALLERY),
    ("runner.render_report.latex.self_s", "s/op", "lower", _GALLERY),
    ("testfn.flatness_check.self_s", "s/op", "lower", _GALLERY),
    ("setup.import_gvcheck_s", "s", "lower", "setup_s and cold_report_s"),
    ("setup.import_numpy_s", "s", "lower", "setup_s and cold_report_s"),
    ("symbolic.atom_gens", "count", "lower", "peak_rss_mb"),
    ("trace.overhead_ops_per_s", "1/s", "higher", "nothing: traced minus untraced ops_per_s"),
]


def manifest():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
