"""Span tracing of catebench from outside the program.

``instrument(tracer)`` replaces public functions at the module attributes
the CLI and the estimators look them up by, and puts the originals back on
exit, so untraced runs execute unmodified code.  Every wrapped call records
one span: name, start, end, parent span and run id.  Spans stay in memory
until the benchmark writes them out.

Counts (rows read, rows predicted, distinct rows, nodes, bytes) need the
call's arguments or result.  The wrapper only keeps references; ``flush``
computes the counts after the command has returned, so no counting runs
inside any timed span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np

ROOT_SPAN = "cli.main"
EXPORT_SPAN = "cli.export"


class Tracer:
    """Span recorder.  Every wrapped function is called from the main thread
    (``--jobs`` threads run only the tree growing inside ``fit_forest``), so
    one stack of open spans gives each span its parent."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.run_id = None
        self._stack = []  # indices of the open spans
        self._pending = []  # (counter, args, result), counted by flush()

    def call(self, name, fn, args, kwargs, counter=None):
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else None, self.run_id]
        self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if counter is not None:
            self._pending.append((counter, args, result))
        return result

    def flush(self, counts: Counter) -> None:
        """Run the deferred counters into ``counts`` and drop the references."""
        pending, self._pending = self._pending, []
        for counter, args, result in pending:
            counter(counts, args, result)

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counter)

        return traced


# --- deferred counters --------------------------------------------------------


def _distinct_rows(X) -> int:
    X = np.asarray(X, dtype=float)
    return int(np.unique(X, axis=0).shape[0]) if X.size else 0


def _count_nodes(node) -> int:
    if node.split is None:
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def _file_size(path) -> int:
    return os.path.getsize(path)


def _load_cohort(counts, args, result):
    counts["dataset.rows_read"] += result[1].n_rows


def _fit_forest(counts, args, result):
    rows = args[0]
    counts["forest.fit_forest_calls"] += 1
    counts["forest.trees_fitted"] += len(result.trees)
    counts["forest.training_rows"] += len(rows)
    counts["forest.training_distinct"] += len({tuple(features) for features, _ in rows})
    counts["forest.nodes"] += sum(_count_nodes(tree) for tree in result.trees)


def _predict_many(counts, args, result):
    X = args[1]
    counts["forest.predict_calls"] += 1
    counts["forest.predict_rows"] += len(X)
    counts["forest.predict_distinct"] += _distinct_rows(X)


def _independence(counts, args, result):
    counts["treatcount.independence_probes"] += len(result.probes)


def _phi_surface(counts, args, result):
    counts["treatcount.phi_cells"] += int(result.phi.size)


def _save_synthetic(counts, args, result):
    counts["synth.bytes_written"] += _file_size(args[2]) + _file_size(result)


def _export_method(counts, args, result):
    counts["cli.export_bytes"] += _file_size(args[1])


def _export_function(counts, args, result):
    counts["cli.export_bytes"] += _file_size(args[0])


# (module, attribute, span name, deferred counter).  fit_forest is bound by
# name in each estimator module, so it is wrapped where it is looked up.
TARGETS = (
    ("dataset", "load_cohort", "dataset.load_cohort", _load_cohort),
    ("dataset", "summarize", "dataset.summarize", None),
    ("synth", "generate", "synth.generate", None),
    ("synth", "save_synthetic", "synth.save_synthetic", _save_synthetic),
    ("tlearner", "fit_forest", "forest.fit_forest", _fit_forest),
    ("treatcount", "fit_forest", "forest.fit_forest", _fit_forest),
    ("forest", "RegressionForest.predict_many", "forest.predict_many", _predict_many),
    ("cli", "fit_tree", "forest.fit_tree", None),
    ("tlearner", "fit_t_learner", "tlearner.fit_t_learner", None),
    ("tlearner", "effect_report", "tlearner.effect_report", None),
    ("treatcount", "fit_t_learner2", "treatcount.fit_t_learner2", None),
    ("treatcount", "check_base_independence", "treatcount.check_base_independence",
     _independence),
    ("treatcount", "phi_surface", "treatcount.phi_surface", _phi_surface),
    ("treatcount", "att2", "treatcount.att2", None),
    ("linreg", "tau_dose_regression", "linreg.tau_dose_regression", None),
    ("linreg", "ols_fit", "linreg.ols_fit", None),
    ("tlearner", "EffectReport.to_csv", EXPORT_SPAN, _export_method),
    ("treatcount", "CateSurface.to_csv", EXPORT_SPAN, _export_method),
    ("treatcount", "CateSurface.to_json", EXPORT_SPAN, _export_method),
    ("linreg", "OlsFit.to_json", EXPORT_SPAN, _export_method),
    ("linreg", "ScatterExport.to_csv", EXPORT_SPAN, _export_method),
    ("cli", "_write_json", EXPORT_SPAN, _export_function),
    ("cli", "_write_text", EXPORT_SPAN, _export_function),
)
COUNTS = (
    "dataset.rows_read",
    "synth.bytes_written",
    "forest.fit_forest_calls",
    "forest.trees_fitted",
    "forest.training_rows",
    "forest.training_distinct",
    "forest.nodes",
    "forest.predict_calls",
    "forest.predict_rows",
    "forest.predict_distinct",
    "treatcount.independence_probes",
    "treatcount.phi_cells",
    "cli.export_bytes",
)
RATIOS = ("forest.train_distinct_ratio", "forest.predict_distinct_ratio")


def known_metrics() -> set:
    """Every per-layer metric name a traced run can report; an unused layer reads 0."""
    names = {"cli.self_s", "trace_overhead_s", *COUNTS, *RATIOS}
    for _, _, span, _ in TARGETS:
        names |= {f"{span}_s", f"{span}_self_s"}
    return names


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer boundaries of catebench; restore the originals on exit."""
    saved = []
    try:
        for module, path, name, counter in TARGETS:
            owner = importlib.import_module(f"catebench.{module}")
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], counter))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- aggregation --------------------------------------------------------------


def top_level_time(spans, first: int = 0) -> float:
    """Summed duration of the layer spans called directly by ``cli.main``."""
    return sum(
        end - start
        for name, start, end, parent, _ in spans[first:]
        if parent is not None and spans[parent][0] == ROOT_SPAN
    )


def layer_times(spans, first: int = 0) -> dict:
    """Summed ``<name>_s`` and ``<name>_self_s`` for spans[first:], plus
    ``cli.self_s``: command wall time not covered by any layer span."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans[first:]:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for index in range(first, len(spans)):
        name, start, end, parent, _ = spans[index]
        duration = end - start
        self_time = duration - child_time[index]
        if name == ROOT_SPAN:
            out["cli.self_s"] += self_time
            continue
        out[f"{name}_s"] += duration
        out[f"{name}_self_s"] += self_time
    return dict(out)


def layer_counts(counts: Counter) -> dict:
    out = {name: float(counts[name]) for name in COUNTS}
    rows = counts["forest.training_rows"]
    out["forest.train_distinct_ratio"] = counts["forest.training_distinct"] / rows if rows else 0.0
    rows = counts["forest.predict_rows"]
    out["forest.predict_distinct_ratio"] = counts["forest.predict_distinct"] / rows if rows else 0.0
    return out
