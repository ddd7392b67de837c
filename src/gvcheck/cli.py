"""Command-line front end.

Exit status contract, for the ``gv`` verb as for a report's rows (an
engine error reads as the row :func:`gvcheck.runner.error_outcome` makes):

* 0 -- every check passed;
* 1 -- at least one check failed;
* 2 -- no failures, but at least one check was undecided;
* 3 -- usage error (bad flags or arguments);
* 4 -- I/O error reading the document or writing the output;
* 5 -- the document did not parse (diagnostics on stderr).

The seed is resolved in priority order: ``--seed`` flag, then the
``GVCHECK_SEED`` environment variable, then a ``seed`` statement in the
document, then the built-in default.  The resolved value and its source
are echoed in every report.
"""
from __future__ import annotations

import argparse
import os
import sys

from .gv import gv_min
from .runner import error_outcome, render_report, run_checks, start_report
from .specdoc import parse_spec
from .verdicts import EXIT_STATUS, point_str

EXIT_USAGE = 3
EXIT_IO = 4
EXIT_PARSE = 5

ENV_SEED = "GVCHECK_SEED"


class _ArgumentParser(argparse.ArgumentParser):
    """argparse with the usage-error exit status pinned to 3."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(EXIT_USAGE)


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gvcheck",
        description="Batch verifier for foliation documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("specfile", help="path to the document to run")
        p.add_argument("--seed", type=int, default=None, help="override the sampling seed")
        p.add_argument("--samples", type=_positive_int, default=None, help="override the sample count")

    p_check = sub.add_parser("check", help="run all checks, print a text report")
    common(p_check)
    p_check.set_defaults(format="text", out=None)

    p_report = sub.add_parser("report", help="run all checks, render a report")
    common(p_report)
    p_report.add_argument(
        "--format", choices=("text", "json", "latex"), default="json",
        help="report rendering (default json)",
    )
    p_report.add_argument("--out", default=None, help="write the report to a file")

    p_gv = sub.add_parser("gv", help="glue the minimal-stratum invariant of the document's family")
    common(p_gv)
    p_gv.add_argument("--rank", type=int, default=None, help="stratum rank (default: smallest leaf dimension)")
    p_gv.add_argument(
        "--format", choices=("text", "latex"), default="text",
        help="output rendering (default text)",
    )
    return parser


def _resolve_seed(args):
    """The seed from the flag or the environment with its source, else (None, None)."""
    if args.seed is not None:
        return args.seed, "flag"
    env = os.environ.get(ENV_SEED)
    if env is not None:
        try:
            return int(env), "env"
        except ValueError:
            sys.stderr.write("gvcheck: ignoring non-integer %s=%r\n" % (ENV_SEED, env))
    return None, None


def _load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        sys.stderr.write("gvcheck: cannot read %s: %s\n" % (path, e.strerror or e))
        raise SystemExit(EXIT_IO)
    doc, diagnostics = parse_spec(text)
    if doc is None:
        for d in diagnostics:
            sys.stderr.write("%s: %s\n" % (path, d))
        raise SystemExit(EXIT_PARSE)
    return doc


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        sys.stderr.write("gvcheck: cannot write %s: %s\n" % (out_path, e.strerror or e))
        raise SystemExit(EXIT_IO)


def _cmd_report(args) -> int:
    doc = _load_document(args.specfile)
    seed, source = _resolve_seed(args)
    report = run_checks(doc, seed=seed, seed_source=source, samples=args.samples)
    _emit(render_report(report, args.format), args.out)
    return report.exit_code()


def _cmd_gv(args) -> int:
    doc = _load_document(args.specfile)
    seed, source = _resolve_seed(args)
    if len(doc.families) != 1:
        sys.stderr.write(
            "gvcheck: the gv command needs exactly one family in the document (found %d)\n"
            % len(doc.families)
        )
        return EXIT_USAGE
    (fam_name, fam), = doc.families.items()
    try:
        mus = {f.name: doc.witness(f, one_leaf_zero=True) for f in fam.members}
    except KeyError as e:
        sys.stderr.write("gvcheck: %s\n" % e.args[0])
        return EXIT_USAGE
    rank = args.rank if args.rank is not None else min(fam.ranks())
    problem = fam.rank_error(rank, fam_name)
    if problem:
        sys.stderr.write("gvcheck: --%s\n" % problem)
        return EXIT_USAGE
    settings = start_report(doc, seed, source, args.samples)
    try:
        pw, out = gv_min(fam, mus, rank, settings.config(0))
    except Exception as e:  # an engine error reads as its report row does
        out = error_outcome(e)
        sys.stdout.write("%s: %s\n" % (out.status.value, out.detail))
        if out.witness:
            sys.stdout.write("witness: %s\n" % point_str(out.witness))
        return EXIT_STATUS[out.status]
    lines = []
    lines.append(
        "family %s: stratum rank %d, invariant degree %d, seed %d (%s)"
        % (fam_name, rank, pw.degree, settings.seed, settings.seed_source)
    )
    for region, piece in pw.pieces:
        label = region.name or "<region>"
        if args.format == "latex":
            lines.append("  on %s:  $%s$" % (label, piece.to_latex()))
        else:
            lines.append("  on %s:  %s" % (label, piece))
    vanishing, closedness = out.entry("vanishing"), out.entry("closedness")
    lines.append("glued: %s" % ("yes" if vanishing.proved else "no"))
    lines.append("vanishing: %s   closedness: %s" % (vanishing.status.value, closedness.status.value))
    for n in out.notes:
        lines.append("note: %s" % n)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_STATUS[out.status]


_parser = None  # built on the first call, then reused: parsing leaves it unchanged


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    if args.command == "gv":
        return _cmd_gv(args)
    return _cmd_report(args)


if __name__ == "__main__":
    raise SystemExit(main())
