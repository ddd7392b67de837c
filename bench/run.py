"""gvcheck benchmark: one workload per invocation, each in fresh processes.

    python3 bench/run.py --workload {gallery,swell,sampling} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --write-manifest     # regenerate BENCHMARK.json from bench/catalog.py

Run from the repository root; gvcheck is imported from ``src/``, nothing
is installed.  ``--trace 0`` measures the end-to-end metrics in one run
of bench/worker.py: the timed closed loop, set-up time (the median of
fresh worker processes, each from spawn to its ``ready`` line) and the
cold CLI time (one fresh ``python -m gvcheck.cli report`` per gallery
document); the worker spreads the set-up and cold samples over its
loop.  ``--trace 1`` makes one traced run instead and reports the
per-layer metrics, the import times from ``-X importtime`` and the
tracing overhead.

Every metric is printed by name with its unit.  The full result, stamped
with the Python and numpy versions, the CPU count, the source revision
and the tracing flag, goes to .bench_results/; the last line of standard
output is the summary JSON.  Any verdict that differs from
bench/known_answers.json makes the run fail with exit status 1.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import catalog

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKER = os.path.join(BENCH_DIR, "worker.py")

IMPORT_RUNS = 3
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Deadline:
    def __init__(self, seconds):
        self.end = perf_counter() + seconds

    def left(self):
        left = self.end - perf_counter()
        if left <= 0:
            raise BenchError("out of time (limit %.0f s)" % TIME_LIMIT_S)
        return left


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline):
    """Spawn one worker; return (seconds from spawn to ``ready``, final JSON or None).

    The worker runs in a session of its own, so that on the way out the
    processes it started are stopped with it.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(deadline.left(), kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        ready_s = perf_counter() - start
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError("worker %s exited with status %s" % (" ".join(args), proc.returncode))
    lines = rest.strip().splitlines()
    return ready_s, json.loads(lines[-1]) if lines else None


_IMPORT_LINE = re.compile(r"^import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


def import_times(deadline):
    """Median cumulative import seconds of gvcheck and numpy, from ``-X importtime``."""
    runs = {"gvcheck": [], "numpy": []}
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gvcheck"], cwd=ROOT, env=_env(),
                              stderr=subprocess.PIPE, text=True, timeout=deadline.left())
        if proc.returncode != 0:
            raise BenchError("import gvcheck failed:\n" + proc.stderr[-2000:])
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m and m.group(2) in runs:
                runs[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: statistics.median(v) if v else 0.0 for name, v in runs.items()}


def stamps(trace):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "gvcheck")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "trace": trace,
    }


def measure(args, known):
    deadline = Deadline(TIME_LIMIT_S)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    base = "%s-seed%d" % (args.workload, args.seed)
    worker_args = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "stamps": stamps(args.trace)}
    if args.trace:
        spans = os.path.join(RESULTS_DIR, base + ".spans.jsonl")
        _, res = run_worker(worker_args + ["--trace", "--spans", spans], deadline)
        imports = import_times(deadline)
        metrics = dict(res["layers"])
        metrics["setup.import_gvcheck_s"] = imports["gvcheck"]
        metrics["setup.import_numpy_s"] = imports["numpy"]
        report["spans_file"] = os.path.relpath(spans, ROOT)
    else:
        ready_s, res = run_worker(worker_args, deadline)
        setups = res["setup_runs_s"] + [ready_s]
        cold = res["cold_report_runs_s"]
        if not cold:
            raise BenchError("no cold report completed")
        loop = res["untraced"]
        metrics = {
            "ops_per_s": loop["ops_per_s"],
            "op_p50_ms": loop["op_p50_ms"],
            "op_p90_ms": loop["op_p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "cold_report_s": statistics.median(cold),
        }
        report["samples"] = {"ops": loop["ops"], "cycles": loop["cycles"], "setup_runs": len(setups),
                             "cold_reports": len(cold)}
        report["setup_runs_s"] = setups
        report["cold_report_runs_s"] = cold
    attempted, failed, mismatches = res["attempted"], res["failed"], res["mismatches"]
    drift = {kind: {"now": terms, "recorded": known["terms"].get(kind)}
             for kind, terms in res["terms"].items() if terms != known["terms"].get(kind)}
    report.update({
        "metrics": metrics,
        "verdict_mismatches": mismatches,
        "failed_op_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": res["problems"],
        "terms": res["terms"],
        "terms_drift": drift,
        "oracle_checked_forms": res["oracle_checked"],
        "worker": res,
    })
    with open(os.path.join(RESULTS_DIR, base + "-trace%d.json" % args.trace), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report


def print_report(report, trace):
    w = report["worker"]
    print("gvcheck benchmark: workload %s, seed %d, %s s, trace %d"
          % (report["workload"], report["seed"], report["seconds"], trace))
    print("  " + "  ".join("%s=%s" % kv for kv in sorted(report["stamps"].items())))
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    for row in table:
        name, unit = row[0], row[1]
        note = ""
        if name in ("op_p50_ms", "op_p90_ms"):
            note = "  (n=%d ops)" % report["samples"]["ops"]
        elif name == "ops_per_s":
            note = "  (median of %d cycles, n=%d ops)" % (report["samples"]["cycles"], report["samples"]["ops"])
        elif name == "setup_s":
            note = "  (median of %d)" % report["samples"]["setup_runs"]
        elif name == "cold_report_s":
            note = "  (median of %d)" % report["samples"]["cold_reports"]
        elif trace:
            note = "  -> %s" % row[3]
        print("  %-40s %14.6g %-9s%s" % (name, report["metrics"][name], unit, note))
    print("  %-40s %14d %-9s" % ("verdict_mismatches", report["verdict_mismatches"], "count"))
    print("  %-40s %14.6g %-9s  (%d of %d ops)" % ("failed_op_share", report["failed_op_share"], "1",
                                                  report["failed"], report["attempted"]))
    if trace:
        t, u = w["traced"], w["untraced"]
        print("  tracing overhead: %.4g ops/s traced (n=%d) - %.4g ops/s untraced (n=%d) = %.4g ops/s"
              % (t["ops_per_s"], t["ops"], u["ops_per_s"], u["ops"], t["ops_per_s"] - u["ops_per_s"]))
    for kind, row in sorted(w["untraced"]["per_kind"].items()):
        terms = report["terms"].get(kind)
        size = "  terms %d/%d" % tuple(terms) if terms else ""
        print("  op %-28s p50 %10.3f ms  n=%d%s" % (kind, row["p50_ms"], row["count"], size))
    if report["oracle_checked_forms"]:
        print("  sympy oracle: %d GV forms checked" % report["oracle_checked_forms"])
    for kind, d in sorted(report["terms_drift"].items()):
        print("  term-count drift: %s now %s, recorded %s" % (kind, d["now"], d["recorded"]))
    for p in report["problems"]:
        print("  MISMATCH: %s" % p)


def write_manifest():
    data = catalog.manifest()
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in data[key]]
    bad = [n for n in names if not name_ok.match(n)] + [n for n in set(names) if names.count(n) > 1]
    bad += [w["name"] for w in data["workloads"] if len(w["why"]) > 200 or "\n" in w["why"]]
    if bad:
        raise BenchError("invalid names or descriptions in the catalogue: %s" % bad)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="gvcheck benchmark")
    parser.add_argument("--workload", choices=[w for w, _ in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_manifest:
            write_manifest()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not os.path.isdir(os.path.join(SRC, "gvcheck")) or not os.path.isdir(os.path.join(ROOT, "gallery")):
            raise BenchError("run from a gvcheck checkout: src/gvcheck and gallery/ are missing under %s" % ROOT)
        with open(os.path.join(BENCH_DIR, "known_answers.json"), encoding="utf-8") as fh:
            known = json.load(fh)
        report = measure(args, known)
    except BenchError as e:
        sys.stderr.write("bench: %s\n" % e)
        return 2
    print_report(report, args.trace)
    correct = report["verdict_mismatches"] == 0
    names = [row[0] for row in (catalog.PER_LAYER if args.trace else catalog.END_TO_END)]
    units = {row[0]: row[1] for row in catalog.PER_LAYER + catalog.END_TO_END}
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": report["metrics"][n], "unit": units[n]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
