"""One benchmark workload in a fresh process, driven by a single thread.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

The worker imports gvcheck, builds the workload's seeded inputs, and
prints ``ready`` the moment set-up is done (bench/run.py times set-up up
to that line).  It then runs one untimed warm-up cycle, so that lazy
set-up and caches are done before timing, and then a closed loop with
one client: each operation starts after the previous one returns, in
whole cycles, until the time is up and, untraced, at least MIN_OPS
operations are done.

Untraced, the set-up probes (fresh ``--setup-only`` workers) and the
cold CLI runs (one fresh ``python -m gvcheck.cli report`` per gallery
document) run between cycles, spread evenly over the timed loop.  The
speed of a shared host drifts over tens of seconds; spread out, these
samples see the same mix of host states as the loop, instead of the few
seconds before it.

With ``--trace`` the time is split: the first half runs untraced and the
second half with the layer wrappers installed, so the per-layer numbers
come with their tracing overhead.  The last line of standard output is
one JSON object with the raw results.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

MIN_OPS = 100  # p90 needs ten samples beyond it
OP_TIMEOUT_S = 60.0  # a slower op still completes, but counts as failed
PROBE_TIMEOUT_S = 30.0
SETUP_PROBES = 6  # with the worker's own start, setup_s is a median of 7
MAX_PROBLEMS = 20


def _percentiles(durations):
    ms = [d * 1000.0 for d in durations]
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90


class Phase:
    """Per-operation times and verdict checks of one timed loop."""

    def __init__(self, cpus):
        # On a shared host one CPU can run much slower than another for
        # tens of seconds, depending on other tenants.  A run that stayed
        # where the scheduler first put it would report that placement, so
        # the loop moves to the next allowed CPU every cycle.
        self.cpus = cpus
        self.durations = []
        self.kinds = []
        self.cycle_s = []
        self.failed = 0
        self.mismatches = 0
        self.problems = []
        self.results = {}

    def problem(self, text):
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)

    def run(self, ops, seconds, min_ops, call=None, between=None):
        """Run whole cycles until ``seconds`` have passed and ``min_ops`` are done.

        ``between(done)`` is called after each cycle with the share of
        ``seconds`` gone so far.
        """
        start_s = perf_counter()
        deadline = start_s + seconds
        cycle = 0
        while True:
            if self.cpus:
                os.sched_setaffinity(0, {self.cpus[cycle % len(self.cpus)]})
            cycle += 1
            first = len(self.durations)
            for i, op in enumerate(ops):
                start = perf_counter()
                try:
                    result = call(op.run) if call else op.run()
                except Exception as e:  # one broken op must not stop the run
                    self.record(op, perf_counter() - start)
                    self.failed += 1
                    self.mismatches += 1
                    self.problem("%s raised %s: %s" % (op.label, type(e).__name__, e))
                    continue
                elapsed = self.record(op, perf_counter() - start)
                if elapsed > OP_TIMEOUT_S:
                    self.failed += 1
                    self.problem("%s took %.1f s (limit %.0f s)" % (op.label, elapsed, OP_TIMEOUT_S))
                mismatch = op.check(result)
                if mismatch:
                    self.mismatches += 1
                    self.problem(mismatch)
                if op.mu_spec is not None:
                    self.results.setdefault(i, result)
            self.cycle_s.append(sum(self.durations[first:]))
            if between is not None:
                between((perf_counter() - start_s) / seconds)
            if perf_counter() >= deadline and len(self.durations) >= min_ops:
                return self

    def record(self, op, elapsed):
        self.durations.append(elapsed)
        self.kinds.append(op.kind)
        return elapsed

    def summary(self):
        """Times over the whole run.  ``ops_per_s`` is one cycle's operations
        over the median cycle time, so that a burst of other load on the
        host during a few cycles does not move it."""
        busy = sum(self.durations)
        p50, p90 = _percentiles(self.durations)
        per_kind = {}
        for kind in sorted(set(self.kinds)):
            ds = [d for d, k in zip(self.durations, self.kinds) if k == kind]
            per_kind[kind] = {"count": len(ds), "p50_ms": statistics.median(ds) * 1000.0}
        return {
            "ops": len(self.durations),
            "cycles": len(self.cycle_s),
            "busy_s": busy,
            "ops_per_s": len(self.durations) / len(self.cycle_s) / statistics.median(self.cycle_s),
            "op_p50_ms": p50,
            "op_p90_ms": p90,
            "failed": self.failed,
            "mismatches": self.mismatches,
            "per_kind": per_kind,
        }


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Probes:
    """Set-up and cold-start samples, each in a fresh process, run between cycles.

    The samples are spread evenly over the timed loop.  A child inherits
    the CPU the loop is on at that moment, so the samples also rotate
    over the CPUs with the loop.
    """

    def __init__(self, worker_argv, seed, known):
        rng = random.Random(seed)
        cold = [("cold", doc, str(rng.randrange(1 << 31))) for doc in sorted(known["gallery"])]
        setup = [("setup", None, None)] * SETUP_PROBES
        # merge the two kinds evenly: each at the middle of its share of the run
        keyed = [((i + 0.5) / len(cold), p) for i, p in enumerate(cold)]
        keyed += [((i + 0.5) / len(setup), p) for i, p in enumerate(setup)]
        self.queue = sorted(keyed, key=lambda kp: kp[0])
        self.worker_argv = worker_argv
        self.known = known
        self.setup_s = []
        self.cold_s = []
        self.problems = []
        self.failed = 0
        self.mismatches = 0
        self.attempted = 0

    def due(self, done):
        while self.queue and self.queue[0][0] <= done:
            self._run(self.queue.pop(0)[1])

    def finish(self):
        self.due(float("inf"))

    def _run(self, probe):
        kind, doc, seed = probe
        self.attempted += 1
        if kind == "setup":
            argv = [sys.executable, os.path.abspath(__file__)] + self.worker_argv + ["--setup-only"]
            stdout = subprocess.PIPE
        else:
            argv = [sys.executable, "-m", "gvcheck.cli", "report", os.path.join("gallery", doc), "--seed", seed]
            stdout = subprocess.DEVNULL
        # Blocking reads and waits, with a watchdog thread for the time
        # limit: a wait with a timeout polls, and would round the times up
        # to its polling interval (up to 50 ms).
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=stdout, text=True)
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            if kind == "setup":
                first = proc.stdout.readline()
                elapsed = perf_counter() - start
                proc.communicate()
            else:
                proc.wait()
                elapsed = perf_counter() - start
        finally:
            timed_out = not watchdog.is_alive()
            watchdog.cancel()
            proc.kill()
            proc.wait()
        if kind == "setup":
            if first.strip() != "ready" or proc.returncode != 0:
                self.failed += 1
                self.problems.append("set-up probe failed (exit status %s)" % proc.returncode)
            else:
                self.setup_s.append(elapsed)
            return
        if timed_out:
            self.failed += 1
            self.problems.append("cold report of %s timed out" % doc)
            return
        self.cold_s.append(elapsed)
        want = self.known["gallery"][doc]["exit"]
        if proc.returncode != want:
            self.mismatches += 1
            self.problems.append("cold report of %s: exit status %d, known answer %d" % (doc, proc.returncode, want))

def layer_metrics(tracer, ops, untraced, traced):
    """Per-layer metrics of the traced phase (the setup.* ones come from run.py)."""
    from catalog import PER_LAYER
    from gvcheck import symbolic

    calls, self_s, counts = tracer.totals()
    gv_calls = calls.get("gv.gv_form", 0)
    special = {
        "symbolic.result_num_terms": counts.get("symbolic.result_num_terms", 0) / max(gv_calls, 1),
        "symbolic.result_den_terms": counts.get("symbolic.result_den_terms", 0) / max(gv_calls, 1),
        "symbolic.is_zero_on.samples_evaluated": (counts.get("symbolic.is_zero_on.samples_drawn", 0)
                                                  - counts.get("symbolic.is_zero_on.samples_skipped", 0)) / ops,
        "symbolic.atom_gens": len(symbolic._ATOM_GENS),
        "trace.overhead_ops_per_s": traced["ops_per_s"] - untraced["ops_per_s"],
    }
    out = {}
    for name, _, _, _ in PER_LAYER:
        if name.startswith("setup."):
            continue
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[: -len(".calls")], 0) / ops
        elif name.endswith(".self_s"):
            out[name] = self_s.get(name[: -len(".self_s")], 0.0) / ops
        else:
            out[name] = counts.get(name, 0) / ops
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="where the traced run writes its spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import workloads

    known = workloads.load_known()
    ops = workloads.CYCLES[args.workload](args.seed, known)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    warmup = Phase(cpus).run(ops, 0, 0)
    warmup.results.clear()  # only one phase keeps its forms, so the warm-up does not raise peak_rss_mb
    untraced = Phase(cpus)
    traced = probes = None
    if args.trace:
        from tracing import Tracer, targets

        untraced.run(ops, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install(targets())
        try:
            traced = Phase(cpus).run(ops, args.seconds / 2, 1, tracer.op)
        finally:
            tracer.uninstall()
    else:
        worker_argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
        probes = Probes(worker_argv, args.seed, known)
        untraced.run(ops, args.seconds, MIN_OPS, between=probes.due)
        probes.finish()
    if cpus:
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    phases = [p for p in (warmup, untraced, traced) if p is not None]
    terms = {}
    checked = {}
    for phase in phases:
        for i, form in phase.results.items():
            terms[ops[i].kind] = list(workloads.form_terms(form))
            checked.setdefault(i, form)
    oracle_problems = []
    if checked:
        import oracle

        for i, form in sorted(checked.items()):
            oracle_problems += oracle.check_gv(ops[i].mu_spec, form, args.seed + i)

    out = {
        "untraced": untraced.summary(),
        "traced": traced.summary() if traced else None,
        "attempted": sum(len(p.durations) for p in phases) + (probes.attempted if probes else 0),
        "mismatches": sum(p.mismatches for p in phases) + len(oracle_problems)
        + (probes.mismatches if probes else 0),
        "failed": sum(p.failed for p in phases) + (probes.failed if probes else 0),
        "problems": (sum((p.problems for p in phases), []) + (probes.problems if probes else []))[:MAX_PROBLEMS]
        + oracle_problems[:MAX_PROBLEMS],
        "setup_runs_s": probes.setup_s if probes else [],
        "cold_report_runs_s": probes.cold_s if probes else [],
        "oracle_checked": len(checked),
        "terms": terms,
        "peak_rss_mb": peak_rss_mb,
    }
    if traced:
        out["layers"] = layer_metrics(tracer, traced.summary()["ops"], out["untraced"], out["traced"])
        if args.spans:
            out["spans_written"] = tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
