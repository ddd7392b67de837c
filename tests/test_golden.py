"""Golden reports: every gallery document, byte for byte.

The files under ``tests/golden/`` pin the exact output, witnesses and
sampled values included, so a change that alters any verdict, detail,
floating-point value or rendering shows up here.  The JSON report is
pinned at two seeds; the text and LaTeX reports and both renderings of
the ``gv`` verb at seed 1, together with the exit status and stderr
(the text report's per-check timings run on a frozen clock).
Regenerate them (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import sys
from unittest import mock

import pytest

from gvcheck import cli, parse_spec, run_checks, runner
from gvcheck.specdoc import CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))
GALLERY = os.path.join(os.path.dirname(HERE), "gallery")
GOLDEN = os.path.join(HERE, "golden")
SEEDS = (1, 7)
DOCS = sorted(f for f in os.listdir(GALLERY) if f.endswith(".fol"))
# golden file suffix -> the CLI verb and flags that produce it, at seed 1
VIEWS = {
    "txt": ["report", "--format", "text"],
    "tex": ["report", "--format", "latex"],
    "gv.txt": ["gv"],
    "gv.tex": ["gv", "--format", "latex"],
}


def golden_name(doc, seed, suffix="json"):
    return "%s.seed%d.%s" % (doc[: -len(".fol")], seed, suffix)


def render(doc, seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["report", os.path.join(GALLERY, doc), "--seed", str(seed), "--format", "json"])
    return status, buf.getvalue()


def render_view(doc, suffix):
    """Exit status, stdout and stderr of one CLI view of a document at seed 1."""
    verb, *flags = VIEWS[suffix]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(runner.time, "perf_counter", lambda: 0.0), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main([verb, os.path.join(GALLERY, doc), "--seed", "1", *flags])
        except SystemExit as e:
            status = e.code
    return "exit %d\n[stdout]\n%s[stderr]\n%s" % (status, out.getvalue(), err.getvalue())


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("doc", DOCS)
def test_json_report_matches_golden(doc, seed):
    _, out = render(doc, seed)
    assert out == _read(golden_name(doc, seed))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("doc", DOCS)
def test_json_golden_reads_back_byte_for_byte(doc, seed):
    text = _read(golden_name(doc, seed))
    assert runner.render_json(runner.RunReport.from_json(text)) == text


@pytest.mark.parametrize("suffix", sorted(VIEWS))
@pytest.mark.parametrize("doc", DOCS)
def test_view_matches_golden(doc, suffix):
    assert render_view(doc, suffix) == _read(golden_name(doc, 1, suffix))


@pytest.mark.parametrize("doc", DOCS)
def test_second_run_in_one_process_is_byte_identical(doc):
    # the rendering and evaluation memos carry nothing from one run to the next
    assert render(doc, 1) == render(doc, 1)
    for suffix in sorted(VIEWS):
        assert render_view(doc, suffix) == render_view(doc, suffix)


def _entry_verdicts(doc, checks):
    """(document, check label, entry name) -> verdict, from (label, entries) pairs."""
    return {(doc, name, e["name"]): e["verdict"] for name, entries in checks for e in entries}


# the gallery rows that pass because a sampled search found no counterexample,
# and the member-validity rows that aggregate them
SAMPLED_SEARCH_ROWS = {
    ("glued_family.fol", "check-1-foliation", "independence"),
    ("glued_family.fol", "check-2-family", "member-validity[Leaves]"),
    ("glued_family.fol", "check-2-family", "coverage"),
    ("golden_pass.fol", "check-3-foliation", "independence"),
    ("nested_adapted.fol", "check-1-foliation", "independence"),
    ("nested_adapted.fol", "check-2-foliation", "independence"),
    ("nested_adapted.fol", "check-3-family", "member-validity[Curves]"),
    ("nested_adapted.fol", "check-3-family", "member-validity[Surf]"),
    ("nested_adapted.fol", "check-3-family", "coverage"),
    ("nonzero_gv.fol", "check-1-foliation", "independence"),
    ("plane_basics.fol", "check-7-foliation", "independence"),
    ("spheres_symmetry.fol", "check-1-foliation", "independence"),
    ("testfn_gallery.fol", "window-cover", "coverage"),
    ("testfn_gallery.fol", "window-cover", "vanishes-on-set"),
    ("testfn_gallery.fol", "window-cover", "positive-on-complement"),
    ("weighted_pipeline.fol", "check-4-tubular", "cutoff-inner"),
    ("weighted_pipeline.fol", "check-4-tubular", "cutoff-support"),
    ("weighted_pipeline.fol", "check-5-tubular", "cutoff-inner"),
    ("weighted_pipeline.fol", "check-5-tubular", "cutoff-support"),
}


def test_every_sampled_search_row_passes_through_from_witness(sampling_proves_nothing):
    # read "no counterexample sampled" as UNDECIDED: against the seed-1 goldens,
    # exactly the rows that rest on a sampled search flip, so none builds its PASS by hand
    golden, patched = {}, {}
    for doc in DOCS:
        checks = json.loads(_read(golden_name(doc, 1)))["checks"]
        golden.update(_entry_verdicts(doc, ((c["name"], c["entries"]) for c in checks)))
        with open(os.path.join(GALLERY, doc), encoding="utf-8") as fh:
            parsed, _ = parse_spec(fh.read())
        run = run_checks(parsed, seed=1)
        patched.update(_entry_verdicts(doc, ((c.name, c.entries) for c in run.checks)))
    assert patched.keys() == golden.keys()
    flipped = {key: (golden[key], patched[key]) for key in golden if golden[key] != patched[key]}
    assert flipped == {key: ("PASS", "UNDECIDED") for key in SAMPLED_SEARCH_ROWS}


def test_every_gallery_document_has_goldens():
    assert len(DOCS) == 10
    expected = {golden_name(d, s) for d in DOCS for s in SEEDS}
    expected |= {golden_name(d, 1, suffix) for d in DOCS for suffix in VIEWS}
    assert expected == set(os.listdir(GOLDEN))


def test_every_check_kind_has_a_gallery_golden():
    # so the byte-identical goldens cover the run of every check kind
    kinds = set()
    for doc in DOCS:
        with open(os.path.join(GALLERY, doc), encoding="utf-8") as fh:
            parsed, diagnostics = parse_spec(fh.read())
        assert diagnostics == []
        kinds.update(c.kind for c in parsed.checks)
    assert kinds == set(CHECKS)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    written = 0
    for doc in DOCS:
        renderings = {golden_name(doc, seed): render(doc, seed)[1] for seed in SEEDS}
        renderings.update({golden_name(doc, 1, suffix): render_view(doc, suffix) for suffix in VIEWS})
        for name, text in renderings.items():
            with open(os.path.join(GOLDEN, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        written += len(renderings)
    sys.stdout.write("wrote %d golden files to %s\n" % (written, GOLDEN))
