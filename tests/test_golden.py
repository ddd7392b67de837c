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
import os
import sys
from unittest import mock

import pytest

from gvcheck import cli, runner

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


def test_every_gallery_document_has_goldens():
    assert len(DOCS) == 10
    expected = {golden_name(d, s) for d in DOCS for s in SEEDS}
    expected |= {golden_name(d, 1, suffix) for d in DOCS for suffix in VIEWS}
    assert expected == set(os.listdir(GOLDEN))


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
