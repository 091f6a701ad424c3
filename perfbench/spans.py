"""In-memory spans around the program's layer boundaries.

Spans are recorded by wrappers the benchmark installs over module or class
attributes that the program looks up at call time (for example
``repro.core.bp.round_heuristic``), so nothing under ``src/`` changes and
the untraced runs execute the program's own functions.  Each span keeps
its parent (per thread), so a layer's self time is its duration minus the
time of its child spans.
"""

from __future__ import annotations

import importlib
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_s = 0.0
        self.attrs = {}

    @property
    def seconds(self):
        return self.end - self.start

    def root(self):
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Recorder:
    """Collects spans from every thread of this process."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sp = Span(name, stack[-1] if stack else None)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if sp.parent is not None:
                sp.parent.child_s += sp.seconds
            self.spans.append(sp)

    def wrap(self, name, fn, hook=None):
        """``fn`` timed as span ``name``; ``hook(span, args, result)`` may
        attach counts after the call."""

        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(sp, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, wrapper):
        """Replace ``owner.attr`` with ``wrapper(original)`` until
        :meth:`unpatch`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def unpatch(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- hooks attaching counts ---------------------------------------------
def _squares_hook(sp, args, kwargs, result):
    a_graph, b_graph, ell = args[:3]
    sp.attrs["candidate_pairs"] = int(
        (a_graph.degrees()[ell.edge_a] * b_graph.degrees()[ell.edge_b]).sum()
    )
    sp.attrs["nnz"] = int(result.nnz)


def _bp_hook(sp, args, kwargs, result):
    if kwargs.get("warm_from") is not None:
        sp.attrs["warm"] = 1
        sp.attrs["warm_iterations"] = result.params["iterations_run"]
        sp.attrs["full_sweeps"] = result.params["full_sweeps"]
    else:
        sp.attrs["cold"] = 1
        sp.attrs["iterations"] = len(result.history)
        best = max(result.history, key=lambda rec: rec.objective)
        sp.attrs["best_iteration"] = best.iteration


def _round_wrapper(recorder, fn):
    """``round_heuristic`` span noting whether the call raised the best."""

    def traced(*args, **kwargs):
        # The final exact rounding passes no tracker.
        tracker = kwargs.get("tracker")
        before = tracker.best_objective if tracker is not None else None
        with recorder.span("core.rounding.round") as sp:
            result = fn(*args, **kwargs)
        if tracker is not None:
            sp.attrs["tracked"] = 1
            sp.attrs["improved"] = tracker.best_objective > before
        return result

    traced.__wrapped__ = fn
    return traced


def _delta_hook(sp, args, kwargs, result):
    sp.attrs["touched_edges"] = len(result[1].touched_edges)


def _submit_hook(sp, args, kwargs, result):
    sp.attrs["cached"] = bool(result.cached)


def _cache_hook(sp, args, kwargs, result):
    sp.attrs["hit"] = result is not None


def _persist_hook(sp, args, kwargs, result):
    sp.attrs["writes"] = 1


SOLVER_TARGETS = (
    ("repro.core.problem", "build_squares", "core.squares.build",
     _squares_hook),
    ("repro.core.problem", "transpose_permutation", "core.squares.transpose",
     None),
    ("repro.incremental.delta", "squares_coo", "core.squares.delta", None),
    ("repro.registry", "belief_propagation_align", "core.bp", _bp_hook),
    ("repro.core.bp", "othermax_col", "core.othermax", None),
    ("repro.core.bp", "othermax_row", "core.othermax", None),
    ("repro.core.bp", "othermax_grouped", "core.othermax", None),
    ("repro.core.bp", "row_sums", "sparse.ops.row_sums", None),
    ("repro.core.rounding", "locally_dominant_matching_vectorized",
     "matching.locally_dominant", None),
    ("repro.core.rounding", "max_weight_matching", "matching.exact", None),
    ("repro.core.problem:NetworkAlignmentProblem", "objective_parts",
     "core.problem.objective", None),
    ("repro.incremental.engine", "apply_delta", "incremental.apply_delta",
     _delta_hook),
    ("repro.incremental.state", "seed_from_warm", "incremental.seed", None),
)

SERVE_TARGETS = (
    ("repro.serve.jobs", "problem_from_wire", "serve.wire.decode", None),
    ("repro.serve.jobs", "problem_digest", "serve.wire.digest", None),
    ("repro.serve.jobs", "result_to_wire", "serve.wire.encode", None),
    ("repro.serve.jobs:JobStore", "submit", "serve.jobs.submit",
     _submit_hook),
    ("repro.serve.store:SqliteJobStore", "_persist_submit",
     "serve.store.persist", _persist_hook),
    ("repro.serve.store:SqliteJobStore", "_persist_transition",
     "serve.store.persist", _persist_hook),
    ("repro.serve.cache:ResultCache", "get", "serve.cache.get",
     _cache_hook),
)


def _resolve(target):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def install(recorder, serve=False):
    """Wrap every solver layer (and the serve layers when ``serve``)."""
    targets = SOLVER_TARGETS + (SERVE_TARGETS if serve else ())
    for target, attr, name, hook in targets:
        recorder.patch(_resolve(target), attr,
                       lambda fn, n=name, h=hook: recorder.wrap(n, fn, h))
    recorder.patch(_resolve("repro.core.bp"), "round_heuristic",
                   lambda fn: _round_wrapper(recorder, fn))
    if serve:
        # The HTTP layer parses and renders JSON through ``server.json``.
        recorder.patch(
            _resolve("repro.serve.server"), "json",
            lambda mod: types.SimpleNamespace(
                loads=recorder.wrap("serve.http.json", mod.loads),
                dumps=recorder.wrap("serve.http.json", mod.dumps),
                JSONDecodeError=mod.JSONDecodeError,
            ))


# -- aggregation ----------------------------------------------------------
def summarize(spans):
    """Per-name totals: seconds, self seconds, calls, and summed attrs."""
    out = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        row = out[sp.name]
        row["s"] += sp.seconds
        row["self_s"] += sp.seconds - sp.child_s
        row["calls"] += 1
        for key, value in sp.attrs.items():
            row[key] += float(value)
    return {name: dict(row) for name, row in out.items()}


def solver_seconds_under(spans, root_name, prefixes=("core.", "matching.")):
    """Seconds of solver spans whose root span is a cached ``root_name``."""
    total = 0.0
    for sp in spans:
        if not sp.name.startswith(prefixes):
            continue
        root = sp.root()
        if root.name == root_name and root.attrs.get("cached"):
            total += sp.seconds
    return total
