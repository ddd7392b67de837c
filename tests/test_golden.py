"""Golden JSON reports: every gallery document at two seeds, byte for byte.

The files under ``tests/golden/`` pin the exact report output, witnesses
and sampled values included, so a change to the symbolic kernel that
alters any verdict, detail or floating-point value shows up here.
Regenerate them (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import os
import sys

import pytest

from gvcheck import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GALLERY = os.path.join(os.path.dirname(HERE), "gallery")
GOLDEN = os.path.join(HERE, "golden")
SEEDS = (1, 7)
DOCS = sorted(f for f in os.listdir(GALLERY) if f.endswith(".fol"))


def golden_name(doc, seed):
    return "%s.seed%d.json" % (doc[: -len(".fol")], seed)


def render(doc, seed):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["report", os.path.join(GALLERY, doc), "--seed", str(seed), "--format", "json"])
    return status, buf.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("doc", DOCS)
def test_json_report_matches_golden(doc, seed):
    _, out = render(doc, seed)
    with open(os.path.join(GOLDEN, golden_name(doc, seed)), encoding="utf-8") as fh:
        assert out == fh.read()


def test_every_gallery_document_has_goldens():
    assert len(DOCS) == 10
    expected = {golden_name(d, s) for d in DOCS for s in SEEDS}
    assert expected == set(os.listdir(GOLDEN))


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for doc in DOCS:
        for seed in SEEDS:
            with open(os.path.join(GOLDEN, golden_name(doc, seed)), "w", encoding="utf-8") as fh:
                fh.write(render(doc, seed)[1])
    sys.stdout.write("wrote %d golden reports to %s\n" % (len(DOCS) * len(SEEDS), GOLDEN))
