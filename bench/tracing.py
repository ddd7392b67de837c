"""Layer tracing by wrapping gvcheck's public entry points from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces each traced function with a wrapper everywhere it is bound: in
its defining module, in every loaded module that imported it by name
(the benchmark's own included), and on its class for methods.
:meth:`Tracer.uninstall` puts the originals back.

Each wrapped call is a span: name, start, end and the span that caused
it.  Spans opened in the runner's worker threads take the span open in
the thread that runs the benchmark operation (``runner.run_checks``)
as their parent.  A span's self time is its duration minus the part
covered by its children: children in the same thread never overlap,
children in other threads are merged as intervals.

Hot layers (polynomial kernel, partial derivatives, sampling) are only
aggregated into per-thread call counts and self times; the others are
also kept as span records, in memory, until :meth:`Tracer.write_spans`.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter

from gvcheck.errors import EvaluationError


class _Frame:
    __slots__ = ("name", "span", "parent", "owner", "start", "child_s", "foreign")

    def __init__(self, name, span, parent, owner):
        self.name = name
        self.span = span
        self.parent = parent
        self.owner = owner
        self.child_s = 0.0
        self.foreign = None


class _ThreadState:
    def __init__(self, index):
        self.index = index
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.eval_depth = 0

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n


def _union(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """In-memory spans and counters for one traced benchmark run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._ids = itertools.count(1)
        self._patches = []
        self._root = self._state()
        self.op_id = 0

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            with self._lock:
                st = _ThreadState(len(self._states))
                self._states.append(st)
            self._local.st = st
        return st

    # -- spans ----------------------------------------------------------

    def _enter(self, name, record):
        st = self._state()
        if st.stack:
            parent = st.stack[-1]
        else:
            root = self._root.stack
            parent = root[-1] if root and st is not self._root else None
        frame = _Frame(name, next(self._ids) if record else 0, parent, st)
        st.stack.append(frame)
        frame.start = perf_counter()
        return st, frame

    def _exit(self, st, frame, record):
        end = perf_counter()
        st.stack.pop()
        start = frame.start
        covered = frame.child_s
        if frame.foreign:
            covered += _union(frame.foreign, start, end)
        name = frame.name
        st.calls[name] = st.calls.get(name, 0) + 1
        st.self_s[name] = st.self_s.get(name, 0.0) + max(0.0, end - start - covered)
        parent = frame.parent
        if parent is not None:
            if parent.owner is st:
                parent.child_s += end - start
            else:
                with self._lock:
                    if parent.foreign is None:
                        parent.foreign = []
                    parent.foreign.append((start, end))
        if record:
            st.spans.append((frame.span, parent.span if parent is not None else 0, self.op_id,
                             name, st.index, start, end))

    def op(self, fn):
        """Run one benchmark operation as a root span with a fresh op id."""
        self.op_id += 1
        st, frame = self._enter("op", True)
        try:
            return fn()
        finally:
            self._exit(st, frame, True)

    def wrap(self, fn, name, record=True, hook=None):
        """A span-recording wrapper; ``hook(state, args, result)`` adds counts."""
        tracer = self

        def traced(*args, **kwargs):
            st, frame = tracer._enter(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(st, frame, record)
            if hook is not None:
                hook(st, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def install(self, targets):
        """Patch every binding of each (owner, attribute, make_wrapper) target."""
        modules = [m for m in list(sys.modules.values()) if isinstance(getattr(m, "__dict__", None), dict)]
        for owner, attr, make_wrapper in targets:
            original = getattr(owner, attr)
            wrapped = make_wrapper(self, original)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results --------------------------------------------------------

    def totals(self):
        """Merged (calls, self seconds, counts) over every thread."""
        calls, self_s, counts = {}, {}, {}
        for st in self._states:
            for table, merged in ((st.calls, calls), (st.self_s, self_s), (st.counts, counts)):
                for key, value in table.items():
                    merged[key] = merged.get(key, 0) + value
        return calls, self_s, counts

    def write_spans(self, path):
        """Write every recorded span as one JSON object per line; returns the count."""
        n = 0
        with open(path, "w", encoding="utf-8") as fh:
            for st in self._states:
                for span, parent, op, name, thread, start, end in st.spans:
                    fh.write(json.dumps({"id": span, "parent": parent, "op": op, "name": name,
                                         "thread": thread, "start": start, "end": end}) + "\n")
                    n += 1
        return n


# ---------------------------------------------------------------------------
# what is traced, and the counters each boundary adds


def _poly_mul_hook(st, args, result):
    st.count("symbolic.poly_mul.term_products", len(args[0].terms) * len(args[1].terms))


def _gv_form_hook(st, args, result):
    for c in result.coeffs.values():
        st.count("symbolic.result_num_terms", len(c.num.terms))
        st.count("symbolic.result_den_terms", len(c.den.terms))


def _sample_point_hook(st, args, result):
    if st.stack and st.stack[-1].name == "symbolic.is_zero_on":
        st.count("symbolic.is_zero_on.samples_drawn")


def _count_rejections(tracer, contains):
    """Region.contains, untimed: a False result inside sample_point is a rejection."""

    def counted(self, point):
        inside = contains(self, point)
        if not inside:
            st = tracer._state()
            if st.stack and st.stack[-1].name == "regions.sample_point":
                st.count("regions.rejections")
        return inside

    return counted


def _count_skips(tracer, evaluate):
    """_eval_expr / _scale_at, untimed: an evaluation error escaping to
    is_zero_on is a skipped sample."""

    def counted(e, point, cache):
        st = tracer._state()
        st.eval_depth += 1
        try:
            return evaluate(e, point, cache)
        except EvaluationError:
            if st.eval_depth == 1 and st.stack and st.stack[-1].name == "symbolic.is_zero_on":
                st.count("symbolic.is_zero_on.samples_skipped")
            raise
        finally:
            st.eval_depth -= 1

    return counted


def _span(name, record=True, hook=None):
    return lambda tracer, fn: tracer.wrap(fn, name, record, hook)


def targets():
    """(owner, attribute, make_wrapper) for each traced entry point.

    Hot layers are aggregated only (``record=False``).  ``_eval_expr``,
    ``_scale_at`` and ``Region.contains`` get untimed counting wrappers.
    """
    from gvcheck import cli, forms, gv, regions, runner, specdoc, symbolic, testfn

    return [
        (symbolic.Poly, "mul", _span("symbolic.poly_mul", False, _poly_mul_hook)),
        (symbolic.Poly, "add", _span("symbolic.poly_add", False)),
        (symbolic, "_make", _span("symbolic.make", False)),
        (symbolic, "partial", _span("symbolic.partial", False)),
        (symbolic, "is_zero_on", _span("symbolic.is_zero_on")),
        (symbolic, "_eval_expr", _count_skips),
        (symbolic, "_scale_at", _count_skips),
        (regions.Region, "sample_point", _span("regions.sample_point", False, _sample_point_hook)),
        (regions.Region, "contains", _count_rejections),
        (forms, "wedge", _span("forms.wedge")),
        (forms, "ext_d", _span("forms.ext_d")),
        (forms, "pullback", _span("forms.pullback")),
        (forms, "forms_equal", _span("forms.forms_equal")),
        (forms, "gram_independent", _span("forms.gram_independent")),
        (gv, "gv_form", _span("gv.gv_form", True, _gv_form_hook)),
        (specdoc, "parse_spec", _span("specdoc.parse_spec")),
        (cli, "main", _span("cli.main")),
        (runner, "run_checks", _span("runner.run_checks")),
        (runner, "render_json", _span("runner.render_report.json")),
        (runner, "render_text", _span("runner.render_report.text")),
        (runner, "render_latex", _span("runner.render_report.latex")),
        (testfn, "flatness_check", _span("testfn.flatness_check")),
    ]
