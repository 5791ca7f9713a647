"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its span tree.

The recorder wraps public functions of each ``tsfl`` module where their
callers look them up (``tsfl.scheduler.local_train``, not
``tsfl.training.local_train``), so every span sits on a module boundary and
nothing under ``src/`` changes. Spans are kept in memory as parallel arrays
until the run ends; self times, nesting and counts are derived afterwards.

This module is stdlib-only so its arithmetic can be tested without numpy.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

# Spans that start a new cell id: one benchmark repeat, or one cell of an
# experiment matrix inside it.
CELL_SPANS = ("bench.repeat", "cli.cell")

# (module, attribute) looked up by a caller at call time -> span name.
FUNCTION_SPANS = [
    ("tsfl.scheduler", "run_tsfl", "scheduler.run"),
    ("tsfl.scheduler", "run_sfl", "scheduler.run"),
    ("tsfl.scheduler", "run_afl", "scheduler.run"),
    ("tsfl.scheduler", "run_semi_async", "scheduler.run"),
    ("tsfl.scheduler", "local_train", "training.local_train"),
    ("tsfl.scheduler", "estimate_constants", "training.estimate_constants"),
    ("tsfl.training", "stochastic_gradient", "training.stochastic_gradient"),
    ("tsfl.scheduler", "dms_weights", "aggregation.dms_weights"),
    ("tsfl.scheduler", "bound_optimal_weights", "aggregation.bound_optimal_weights"),
    ("tsfl.scheduler", "iteration_spaced_weights", "aggregation.iteration_spaced_weights"),
    ("tsfl.aggregation", "iteration_spaced_weights", "aggregation.iteration_spaced_weights"),
    ("tsfl.aggregation", "project_to_simplex", "aggregation.project_to_simplex"),
    ("tsfl.scheduler", "fedavg_weights", "aggregation.fedavg_weights"),
    ("tsfl.scheduler", "fedasync_update", "aggregation.fedasync_update"),
    ("tsfl.scheduler", "estimate_dissimilarity", "analysis.estimate_dissimilarity"),
    ("tsfl.cli", "evaluate_bound", "analysis.evaluate_bound"),
    ("tsfl.cli", "verify_convergence", "analysis.verify_convergence"),
    ("tsfl.scheduler", "IntervalRecord", "core.IntervalRecord"),
    ("tsfl.cli", "IntervalRecord", "core.IntervalRecord"),
    ("tsfl.cli", "run_experiment", "cli.run_experiment"),
    ("tsfl.cli", "_execute_cell", "cli.cell"),
    ("tsfl.cli", "write_metrics_csv", "cli.write_metrics_csv"),
    ("tsfl.cli", "log_to_dict", "cli.log_to_dict"),
    ("tsfl.cli", "build_report", "cli.build_report"),
    ("tsfl.cli", "reanalyze", "cli.reanalyze"),
    ("tsfl.cli", "log_from_dict", "cli.log_from_dict"),
]

_TASK_METHODS = ("local_grad", "sample_grad", "global_loss", "global_grad", "local_optimum")

# (module, class, method) -> span name; methods are looked up on the class.
METHOD_SPANS = [
    ("tsfl.core", "RunLog", "validate", "core.RunLog.validate"),
    ("tsfl.scenarios", "Scenario", "materialize", "scenarios.materialize"),
    ("tsfl.scenarios", "FixedIterations", "draw", "scenarios.draw"),
    ("tsfl.scenarios", "GaussianFloorIterations", "draw", "scenarios.draw"),
] + [
    ("tsfl.training", task, method, f"training.{method}")
    for task in ("QuadraticTask", "LogisticTask")
    for method in _TASK_METHODS
]


def _sgd_steps(signature):
    def amount(args, kwargs, result):
        return int(signature.bind(*args, **kwargs).arguments["tau"])
    return amount


def _intervals(signature):
    return lambda args, kwargs, result: len(result.records)


# Span name -> factory of a hook giving the count a call adds to its span.
AMOUNTS = {
    "training.local_train": _sgd_steps,
    "scheduler.run": _intervals,
}


class SpanRecorder:
    """In-memory spans: name, start, end, parent span and cell id, plus an
    integer amount (SGD steps of a local_train call, intervals of a run)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell = array("q")
        self.amount = array("q")
        self._open: list[int] = []
        self._cell_ids: set[int] = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            if name in CELL_SPANS:
                self._cell_ids.add(self._ids[name])
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        parent = self._open[-1] if self._open else -1
        self.name.append(name_id)
        self.parent.append(parent)
        if name_id in self._cell_ids:
            self.cell.append(index)
        else:
            self.cell.append(self.cell[parent] if parent >= 0 else -1)
        self.amount.append(0)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError("spans must close in the order they opened")

    def record(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span named ``name`` and return its result."""
        index = self.open(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def spans(self) -> "SpanTree":
        return SpanTree(
            [self.names[i] for i in self.name],
            self.start, self.end, self.parent, self.amount, self.cell,
        )


class SpanTree:
    """Closed spans as plain lists; parents always precede their children."""

    def __init__(self, names, starts, ends, parents, amounts=None, cells=None):
        self.names = list(names)
        self.starts = list(starts)
        self.ends = list(ends)
        self.parents = list(parents)
        self.amounts = list(amounts) if amounts is not None else [0] * len(self.names)
        self.cells = list(cells) if cells is not None else [-1] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= i:
                raise ValueError(f"span {i} has parent {p}, which does not precede it")
        self._ancestors = self._ancestor_names()

    def __len__(self) -> int:
        return len(self.names)

    def duration(self, i: int) -> float:
        return self.ends[i] - self.starts[i]

    def _ancestor_names(self) -> list[frozenset]:
        # Interned so a million spans share a handful of sets.
        interned: dict[tuple, frozenset] = {}
        out: list[frozenset] = []
        empty = frozenset()
        for p in self.parents:
            if p < 0:
                out.append(empty)
                continue
            key = (out[p], self.names[p])
            if key not in interned:
                interned[key] = out[p] | {self.names[p]}
            out.append(interned[key])
        return out

    def under(self, i: int, name: str) -> bool:
        """True when some ancestor of span ``i`` is named ``name``."""
        return name in self._ancestors[i]

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it that its children cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parents):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self)):
            covered = 0.0
            reach = self.starts[i]
            for c in sorted(children.get(i, ()), key=self.starts.__getitem__):
                lo = max(self.starts[c], reach)
                hi = min(self.ends[c], self.ends[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.duration(i) - covered)
        return out

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``s`` (outermost spans only, so
        recursion is not counted twice), ``self_s`` and summed ``amount``."""
        self_times = self.self_times()
        totals: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "amount": 0})
            t["calls"] += 1
            t["self_s"] += self_times[i]
            t["amount"] += self.amounts[i]
            if not self.under(i, name):
                t["s"] += self.duration(i)
        return totals


def percentile(values, q: float) -> float:
    """Percentile ``q`` in [0, 100] by linear interpolation between closest
    ranks (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(tree: SpanTree) -> dict[str, float]:
    """The per-layer metrics of one traced repeat, named as in BENCHMARK.json."""
    totals = tree.layer_totals()

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    metrics: dict[str, float] = {}
    for span, keys in [
        ("scheduler.run", ("calls", "self_s")),
        ("scenarios.materialize", ("calls", "s")),
        ("scenarios.draw", ("calls", "s")),
        ("training.local_train", ("calls", "self_s")),
        ("training.stochastic_gradient", ("calls", "self_s")),
        ("training.sample_grad", ("calls", "s")),
        ("training.local_grad", ("calls", "s")),
        ("training.global_loss", ("calls", "s")),
        ("training.global_grad", ("calls", "s")),
        ("training.estimate_constants", ("s",)),
        ("training.local_optimum", ("calls", "s")),
        ("aggregation.dms_weights", ("calls", "s")),
        ("aggregation.bound_optimal_weights", ("calls", "s")),
        ("aggregation.iteration_spaced_weights", ("s",)),
        ("aggregation.fedavg_weights", ("s",)),
        ("aggregation.fedasync_update", ("calls", "s")),
        ("analysis.estimate_dissimilarity", ("s",)),
        ("analysis.evaluate_bound", ("s",)),
        ("analysis.verify_convergence", ("s",)),
        ("core.IntervalRecord", ("calls", "s")),
        ("core.RunLog.validate", ("s",)),
        ("cli.run_experiment", ("s",)),
        ("cli.write_metrics_csv", ("s",)),
        ("cli.log_to_dict", ("s",)),
        ("cli.build_report", ("s",)),
        ("cli.reanalyze", ("s",)),
        ("cli.log_from_dict", ("s",)),
    ]:
        for key in keys:
            metrics[f"{span}.{key}"] = get(span, key)

    metrics["scheduler.intervals"] = get("scheduler.run", "amount")
    steps = get("training.local_train", "amount")
    metrics["training.sgd_steps"] = steps
    grad_evals = sum(
        1 for i, name in enumerate(tree.names)
        if name in ("training.sample_grad", "training.local_grad")
        and tree.under(i, "training.local_train")
    )
    metrics["training.grad_evals_per_step"] = grad_evals / steps if steps else 0.0
    solves = get("aggregation.bound_optimal_weights", "calls")
    iters = sum(
        1 for i, name in enumerate(tree.names)
        if name == "aggregation.project_to_simplex"
        and tree.under(i, "aggregation.bound_optimal_weights")
    )
    metrics["aggregation.fixed_point_iters"] = iters
    metrics["aggregation.fixed_point_iters_per_call"] = iters / solves if solves else 0.0

    metrics.update(cell_metrics(cell_durations(tree)))
    return metrics


def cell_durations(tree: SpanTree) -> list[float]:
    return [tree.duration(i) for i, name in enumerate(tree.names) if name == "cli.cell"]


def cell_metrics(cells: list[float]) -> dict[str, float]:
    """Spread of per-cell span times: median, max, and max over mean."""
    if not cells:
        return {"cli.cell_s_p50": 0.0, "cli.cell_s_max": 0.0, "cli.cell_imbalance": 0.0}
    return {
        "cli.cell_s_p50": percentile(cells, 50),
        "cli.cell_s_max": max(cells),
        "cli.cell_imbalance": max(cells) / (sum(cells) / len(cells)),
    }


def check_nesting(tree: SpanTree) -> None:
    """Raise unless every child span lies inside its parent and shares its
    cell id (unless it starts a cell), and the children's self times never
    exceed their parent's duration."""
    self_times = tree.self_times()
    child_self: dict[int, float] = {}
    for i, p in enumerate(tree.parents):
        if p < 0:
            continue
        if tree.starts[i] < tree.starts[p] or tree.ends[i] > tree.ends[p]:
            raise ValueError(f"span {tree.names[i]} escapes its parent {tree.names[p]}")
        if tree.names[i] not in CELL_SPANS and tree.cells[i] != tree.cells[p]:
            raise ValueError(f"span {tree.names[i]} has another cell id than its parent")
        child_self[p] = child_self.get(p, 0.0) + self_times[i]
    for p, total in child_self.items():
        if total > tree.duration(p) or self_times[p] < 0.0:
            raise ValueError(f"children of {tree.names[p]} exceed its span")


class Instrumentation:
    """Context manager that wraps every boundary above with spans on a
    recorder and restores the originals on exit."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        recorder = self.recorder
        name_id = recorder.name_id(name)
        hook = AMOUNTS.get(name)
        amount = hook(inspect.signature(fn)) if hook else None

        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if amount is not None:
                recorder.amount[index] = amount(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Instrumentation":
        targets = [(importlib.import_module(m), attr, span) for m, attr, span in FUNCTION_SPANS]
        targets += [
            (getattr(importlib.import_module(m), cls), attr, span)
            for m, cls, attr, span in METHOD_SPANS
        ]
        for owner, attr, span in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
