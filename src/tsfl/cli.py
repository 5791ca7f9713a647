"""Experiment orchestration: config parsing, run matrices, metrics, reports.

A config is a single JSON document. Every (scenario x strategy x seed) cell
produces one metrics CSV, one serialized run log, and one analysis report;
a summary table across seeds is written once all cells finish. Outputs carry
no timestamps, so identical configs produce byte-identical files.

Seed scheme: each cell's rng seed is derived as the first eight bytes of
sha256("<master>|<scenario>|<strategy>|<index>"), so adding scenarios,
strategies, or seeds never perturbs existing cells.

Metrics CSV columns follow the record dtype (``core.interval_records``); see
``write_metrics_csv``. One row per interval, evaluated at the interval's
starting model, plus a final row (t = T) carrying the final model's metrics.
The JSON files carry the schema version.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import sys
import typing
from pathlib import Path
from types import UnionType

import numpy as np

from .analysis import evaluate_bound, verify_convergence
from .core import IntervalRecord, RunLog, SystemConstants, interval_records, validate_constants
from .scenarios import (
    PRESETS,
    TASK_READS,
    FieldError,
    FixedIterations,
    GaussianFloorIterations,
    Scenario,
    TaskSpec,
    latency_table,
    tiered,
)
from .scheduler import STRATEGIES, RunSetup, participation_frequency

METRICS_SCHEMA_VERSION = 2
ENV_OUT_DIR = "TSFL_OUT_DIR"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending location."""


# ---------------------------------------------------------------------------
# Config parsing: every config object is converted by one ``_coerce`` call,
# whose key types are the annotations of what the object builds. Range checks
# belong to what is built (``TaskSpec``, ``SystemConstants``, ...).


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        config = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: nested too deeply to decode") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top-level value must be an object")
    return config


def _shape(kind) -> type:
    """The JSON value a type reads: a list, an object, or a scalar (object)."""
    origin = typing.get_origin(kind) or kind
    return list if origin in (list, tuple) else dict if origin is dict else object


def _cast(kind, value, location: str):
    """``value`` converted to the annotated type ``kind``, or a ConfigError
    naming ``location``. A union takes null where it holds None, else its
    first alternative of the value's JSON shape (list, object or scalar); a
    ``dict`` is an object converted by what it builds. A bool must be a JSON
    boolean, as ``bool("false")`` is True, and only a bool is one:
    ``int(True)`` is 1. A str must be a JSON string. An int must not drop a
    fraction, and a float must be finite; numeric strings convert."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, UnionType):
        if value is None and type(None) in args:
            return None
        shape = _shape(type(value))
        return _cast(next((a for a in args if _shape(a) is shape), args[0]), value, location)
    if origin is typing.Literal:
        if value in args:
            return value
        raise ConfigError(f"{location}: expected one of {list(args)}, got {value!r}")
    if origin in (list, tuple):
        if isinstance(value, list) and (origin is list or len(value) == len(args)):
            return origin(
                _cast(args[k] if origin is tuple else args[0], item, f"{location}[{k}]")
                for k, item in enumerate(value)
            )
        raise ConfigError(f"{location}: expected {kind}, got {value!r}")
    if kind is dict:
        if isinstance(value, dict):
            return value
        raise ConfigError(f"{location}: must be an object")
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if (
        result is None
        or (kind is bool) != isinstance(value, bool)
        or (kind is str and not isinstance(value, str))
        or (kind is int and isinstance(value, float) and result != value)
        or (isinstance(result, float) and not math.isfinite(result))
    ):
        raise ConfigError(f"{location}: expected {kind.__name__}, got {value!r}")
    return result


def _coerce(types: dict, raw, location: str) -> dict:
    """The object ``raw`` with each key converted to its type in ``types``;
    an unknown key is a ConfigError."""
    raw = _cast(dict, raw, location)
    unknown = set(raw) - set(types)
    if unknown:
        raise ConfigError(f"{location}: unknown keys {sorted(unknown)}")
    return {key: _cast(types[key], value, f"{location}.{key}") for key, value in raw.items()}


def _require(fields: dict, keys, location: str) -> None:
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ConfigError(f"{location}: missing key {missing[0]!r}")


_PROCESSES = {"fixed": FixedIterations, "gaussian-floor": GaussianFloorIterations}
_PRESET = typing.Literal[tuple(PRESETS)]
_PROCESS = typing.Literal[tuple(_PROCESSES)]
_STRATEGY = typing.Literal[tuple(STRATEGIES)]


class _Root(typing.TypedDict, total=False):
    """A config document; ``scenario`` is a preset name, an inline scenario,
    or a list of them."""

    scenario: _PRESET | dict | list[_PRESET | dict]
    scenario_options: dict
    task: dict
    constants: dict
    strategies: list[_STRATEGY]
    runner: dict
    seeds: int | list[int]
    master_seed: int
    estimate_probes: int
    full_batch: bool
    min_upload_iterations: int
    emit: dict
    latency: dict
    out_dir: str


# The key types of what each config object builds, resolved once.
_TYPES = {
    make: {key: kind for key, kind in typing.get_type_hints(make).items() if key != "return"}
    for make in (_Root, Scenario, TaskSpec, SystemConstants, latency_table, *_PROCESSES.values(), *PRESETS.values())
}
# A run takes N from its scenario, so config.constants has no N.
del _TYPES[SystemConstants]["N"]
# scenario_options: every preset factory's parameters; a preset takes its own.
_SCENARIO_OPTIONS = {key: kind for make in PRESETS.values() for key, kind in _TYPES[make].items()}
# runner: every strategy's options; a strategy takes its own.
_RUNNER = {key: kind for spec in STRATEGIES.values() for key, kind in spec.options.items()}
# The scenario settings that only the config root gives, to every scenario.
_SETTINGS = ("full_batch", "min_upload_iterations")
# An inline scenario: Scenario's fields but the task, which config.task gives,
# and the root's settings, with process specs tiled over n_clients and one data
# size or one per client.
_INLINE = {key: kind for key, kind in _TYPES[Scenario].items() if key not in ("task", *_SETTINGS)}
_INLINE.update(n_clients=int, processes=list[dict], data_sizes=int | list[int])
# emit: whether a run writes each cell's metrics.csv, its runlog.json and
# report.json, and the plotdata/ loss curves.
_EMIT = {"csv": True, "json": True, "plotdata": False}


def _make(make, fields: dict, location: str):
    """``make(**fields)``; a ValueError it raises becomes a ConfigError naming
    ``location``, or the field under it that a ``FieldError`` names."""
    try:
        return make(**fields)
    except FieldError as exc:
        raise ConfigError(f"{location}.{exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{location}: {exc}") from exc


def _build(make, raw, location: str):
    """``make`` called with the config object ``raw`` converted by its
    annotations."""
    return _make(make, _coerce(_TYPES[make], raw, location), location)


def _process_from_spec(spec, location: str) -> object:
    fields = dict(_cast(dict, spec, location))
    kind = _cast(_PROCESS, fields.pop("kind", None), f"{location}.kind")
    make = _PROCESSES[kind]
    fields = _coerce(_TYPES[make], fields, location)
    _require(fields, _TYPES[make], location)
    return _make(make, fields, location)


def _inline_scenario(obj) -> Scenario:
    fields = _coerce(_INLINE, obj, "config.scenario")
    _require(fields, ("n_clients", "processes"), "config.scenario")
    n_clients = fields.pop("n_clients")
    specs = [_process_from_spec(spec, f"config.scenario.processes[{k}]")
             for k, spec in enumerate(fields["processes"])]
    if not specs:
        raise ConfigError("config.scenario.processes: must be a non-empty list")
    sizes = fields.get("data_sizes", 1024)
    sizes = [sizes] * n_clients if isinstance(sizes, int) else sizes
    processes = _make(tiered, {"n_clients": n_clients, "tiers": specs}, "config.scenario")
    fields = {"name": "custom", **fields, "processes": processes, "data_sizes": sizes}
    return _make(Scenario, fields, "config.scenario")


def _preset_scenario(name: str, options: dict) -> Scenario:
    make = PRESETS[name]
    return _make(make, {key: value for key, value in options.items() if key in _TYPES[make]}, "config.scenario_options")


def _reject_unread(options: dict, readers: list, location: str, why: str) -> None:
    """A ConfigError naming the first key of ``options`` that no reader
    takes, and ``why``; ``readers`` holds the keys each reader takes."""
    unread = sorted(set(options).difference(*readers))
    if unread:
        raise ConfigError(f"{location}.{unread[0]}: {why}")


def build_scenarios(config: dict) -> list[Scenario]:
    """The config's scenarios, each with config.task and the root's settings."""
    root = _coerce(_TYPES[_Root], config, "config")
    task = _build(TaskSpec, root.get("task", {}), "config.task")
    _reject_unread(root.get("task", {}), [("kind", *TASK_READS[task.kind])], "config.task",
                   f"a {task.kind} task does not read it")
    options = _coerce(_SCENARIO_OPTIONS, root.get("scenario_options", {}), "config.scenario_options")
    entries = root.get("scenario", "case1")
    entries = entries if isinstance(entries, list) else [entries]
    if not entries:
        raise ConfigError("config.scenario: list must be non-empty")
    scenarios = [
        _preset_scenario(entry, options) if isinstance(entry, str) else _inline_scenario(entry)
        for entry in entries
    ]
    presets = [_TYPES[PRESETS[entry]] for entry in entries if isinstance(entry, str)]
    _reject_unread(options, presets, "config.scenario_options", "no configured scenario takes it")
    settings = {"task": task, **{key: root[key] for key in _SETTINGS if key in root}}
    return [_make(functools.partial(dataclasses.replace, scenario), settings, "config") for scenario in scenarios]


def build_constants(config: dict) -> SystemConstants:
    return _build(SystemConstants, config.get("constants", {}), "config.constants")


def cell_seed(master_seed: int, scenario: str, strategy: str, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}|{scenario}|{strategy}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _checked_seeds(config: dict) -> int | list[int]:
    """``seeds`` of a converted config: a positive count, or a non-empty list
    of distinct seeds of at least 0 with no ``master_seed`` beside it."""
    seeds = config.get("seeds", 1)
    if not isinstance(seeds, list):
        if seeds < 1:
            raise ConfigError("config.seeds: must be a positive count or a list of seeds")
        return seeds
    if not seeds:
        raise ConfigError("config.seeds: list must be non-empty")
    for k, seed in enumerate(seeds):
        if seed < 0:
            raise ConfigError(f"config.seeds[{k}]: must be at least 0, got {seed}")
        if seed in seeds[:k]:
            raise ConfigError(f"config.seeds[{k}]: repeats seed {seed}")
    if "master_seed" in config:
        raise ConfigError("config.master_seed (or --seed): unread, as config.seeds lists every seed")
    return seeds


def validate_run_config(config: dict) -> tuple[list[tuple], dict]:
    """Full validation pass; raises before any output. Returns the cells to
    run as groups ``(make_setup, cells)``, one per (scenario entry, seed), and
    the emit flags; each cell is ``(scenario, strategy, seed index, seed,
    runner kwargs)``, and ``make_setup()`` builds the setup they share."""
    root = _coerce(_TYPES[_Root], config, "config")
    strategies = root.get("strategies", [])
    if not strategies:
        raise ConfigError("config.strategies: a non-empty list of strategy names is required")
    for k, name in enumerate(strategies):
        if name in strategies[:k]:
            raise ConfigError(f"config.strategies[{k}]: repeats strategy {name!r}")
    runner = _coerce(_RUNNER, root.get("runner", {}), "config.runner")
    for key, value in runner.items():
        if isinstance(value, int) and value < 1:
            raise ConfigError(f"config.runner.{key}: must be at least 1, got {value}")
    probes = root.get("estimate_probes", 4)
    if probes < 0:
        raise ConfigError(f"config.estimate_probes: must be at least 0, got {probes}")
    readers = [STRATEGIES[name].options for name in strategies]
    _reject_unread(runner, readers, "config.runner", "no configured strategy takes it")
    kwargs = {name: {key: value for key, value in runner.items() if key in STRATEGIES[name].options}
              for name in strategies}
    emit = {**_EMIT, **_coerce(dict.fromkeys(_EMIT, bool), root.get("emit", {}), "config.emit")}
    constants = build_constants(root)
    configured = root.get("constants", {})
    probed = [key for key in ("L", "G", "sigma_global") if key in configured]
    if probes > 0 and probed:
        raise ConfigError(f"config.constants.{probed[0]}: estimate_probes={probes} replaces it with a "
                          "probed value, so it is read only with estimate_probes 0")
    equality_theta = configured.get("theta") is None
    groups: dict[tuple[int, int], tuple] = {}
    scenarios = build_scenarios(root)
    if probes == 1 and scenarios[0].task.kind == "logistic":
        raise ConfigError("config.estimate_probes: a logistic task probes L from pairs of points, "
                          "so it takes 0 or at least 2, got 1")
    seeds, master = _checked_seeds(root), root.get("master_seed", 0)
    for k, scenario in enumerate(scenarios):
        if scenario.name in [s.name for s in scenarios[:k]]:
            raise ConfigError(f"config.scenario[{k}]: repeats scenario name {scenario.name!r}")
        for strategy in strategies:
            if kwargs[strategy].get("buffer_size", 1) > scenario.n_clients:
                raise ConfigError(f"config.runner.buffer_size: more than the {scenario.n_clients} "
                                  f"clients of scenario {scenario.name!r}")
            # A cell column runs the listed seeds, or a count expanded from master_seed.
            column = enumerate(seeds) if isinstance(seeds, list) else (
                (i, cell_seed(master, scenario.name, strategy, i)) for i in range(seeds))
            for index, seed in column:
                make_setup = functools.partial(RunSetup, scenario, constants, seed, probes, equality_theta)
                group = groups.setdefault((k, seed), (make_setup, []))
                group[1].append((scenario, strategy, index, seed, kwargs[strategy]))
    return list(groups.values()), emit


# ---------------------------------------------------------------------------
# Serialization


def log_to_dict(log: RunLog) -> dict:
    # runlog.json keeps every column but the per-interval models.
    names = [name for name in log.records.dtype.names if name != "model"]
    rows = zip(*(log.records[name].tolist() for name in names))
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "scenario": log.scenario,
        "seed": log.seed,
        "strategy": log.strategy,
        "constants": dataclasses.asdict(log.constants),
        "constants_source": log.constants_source,
        "analysis_inputs": log.analysis_inputs,
        "initial_model": None if log.initial_model is None else log.initial_model.tolist(),
        "final_model": None if log.final_model is None else log.final_model.tolist(),
        "final_loss": log.final_loss,
        "final_grad_norm_sq": log.final_grad_norm_sq,
        "records": [dict(zip(names, row)) for row in rows],
    }


def _float_or_nan(value) -> float:
    return float("nan") if value is None else float(value)


def log_from_dict(data: dict) -> RunLog:
    """The RunLog that ``log_to_dict`` serialized; its per-interval models read
    back as NaN, and so does every float written as null (see ``_write_json``):
    numpy reads a None in a float column as NaN. A log of another schema
    version, or with no records, is a ValueError."""
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(f"schema_version {version!r}, expected {METRICS_SCHEMA_VERSION}")
    rows = data["records"]
    if not rows:
        raise ValueError("records: empty, a run log has one record per interval")
    log = RunLog(
        scenario=data["scenario"],
        seed=data["seed"],
        strategy=data["strategy"],
        constants=SystemConstants(**data["constants"]),
        records=interval_records(len(rows), data["scenario"]["n_clients"], len(data["final_model"] or ())),
        initial_model=None if data["initial_model"] is None else np.array(data["initial_model"], dtype=float),
        final_model=None if data["final_model"] is None else np.array(data["final_model"], dtype=float),
        final_loss=_float_or_nan(data["final_loss"]),
        final_grad_norm_sq=_float_or_nan(data["final_grad_norm_sq"]),
        constants_source=data["constants_source"],
        analysis_inputs=data["analysis_inputs"],
    )
    for t, row in enumerate(rows):
        log.records[t] = IntervalRecord(**{"model": None, **row})
    return log


def _finite_or_none(value):
    """``value`` with every non-finite float replaced by None, at any depth."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(item) for item in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: NaN and infinities are written as null, which ``json``
    would otherwise emit as the bare tokens NaN and Infinity."""
    text = json.dumps(_finite_or_none(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_csv(path: Path, header: list, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _final_clock(log: RunLog) -> float:
    return float(log.records.wall_clock[-1]) if log.intervals else 0.0


def _participation(log: RunLog) -> list | None:
    frequency = participation_frequency(log)
    return None if frequency is None else frequency.tolist()


# The record columns metrics.csv leaves out, and the one it heads by another name.
CSV_OMITS = ("aggregated", "model")
CSV_HEADINGS = {"global_grad_norm_sq": "grad_norm_sq"}


def write_metrics_csv(path: Path, log: RunLog) -> None:
    """Every record column but ``CSV_OMITS`` in dtype order, a per-client one as
    ``<name>_1`` ... ``<name>_n``: a row per interval, then a final row of
    ``t = T``, the final clock and metrics, and zero in every other column."""
    r, last = log.records, np.zeros(1, log.records.dtype).view(np.recarray)
    last.t, last.wall_clock = log.intervals, _final_clock(log)
    last.global_loss, last.global_grad_norm_sq = log.final_loss, log.final_grad_norm_sq
    header, columns = [], []  # each column as its T + 1 rows of cells
    for name in [name for name in r.dtype.names if name not in CSV_OMITS]:
        column, heading = np.concatenate([r[name], last[name]]), CSV_HEADINGS.get(name, name)
        header += [f"{heading}_{i}" for i in range(1, column.shape[1] + 1)] if column.ndim == 2 else [heading]
        columns.append(column.reshape(len(column), -1).tolist())
    _write_csv(path, header, ([cell for cells in row for cell in cells] for row in zip(*columns)))


def build_report(log: RunLog) -> dict:
    """The analysis of a run from its log, under the constants it resolved.
    Every precondition the bound finds unmet is named in
    ``precondition_warnings``: the constants' own, and an observed iteration
    count above ``H``."""
    bound = evaluate_bound(log)
    warnings = validate_constants(log.constants)
    if bound.h_used > log.constants.H:
        warnings.append(f"observed iteration count {bound.h_used} > H={log.constants.H}")
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "run": {"scenario": log.scenario["name"], "strategy": log.strategy, "seed": log.seed},
        "constants": dataclasses.asdict(log.constants),
        "constants_source": log.constants_source,
        "precondition_warnings": warnings,
        "bound": dataclasses.asdict(bound),
        "convergence": dataclasses.asdict(verify_convergence(log)),
        "participation": _participation(log),
        "final": {
            "loss": log.final_loss,
            "grad_norm_sq": log.final_grad_norm_sq,
            "wall_clock": _final_clock(log),
        },
    }


# ---------------------------------------------------------------------------
# Execution


def _cell_dir(out_dir: Path, scenario: str, strategy: str, index: int) -> Path:
    return out_dir / "runs" / f"{scenario}__{strategy}__s{index:03d}"


def _execute_group(group: tuple) -> list[tuple[dict, list | None]]:
    """Build one group's setup, then run its cells on it in order; an error
    building it fails each cell."""
    make_setup, cells, out_dir, emit = group
    try:
        setup = make_setup()
    except Exception as exc:  # noqa: BLE001 - it fails each cell of the group
        setup = exc
    return [_execute_cell(cell, setup, out_dir, emit) for cell in cells]


def _execute_cell(args: tuple, setup, out_dir: Path, emit: dict) -> tuple[dict, list | None]:
    """Run one cell on ``setup``, or fail it with the error that building the
    setup raised, and write its files. Returns the cell's summary entry and,
    for a cell that ran, its loss curve: every interval's ``global_loss``,
    then the final loss, as its ``metrics.csv`` lists them."""
    scenario, strategy, index, seed, kwargs = args
    cell_dir = _cell_dir(out_dir, scenario.name, strategy, index)
    cell = {
        "scenario": scenario.name,
        "strategy": strategy,
        "seed_index": index,
        "seed": seed,
        "status": "ok",
    }
    curve = None
    try:
        if isinstance(setup, Exception):
            raise setup
        log = STRATEGIES[strategy].run(setup, strategy, **kwargs)
        cell_dir.mkdir(parents=True, exist_ok=True)
        if emit["csv"]:
            write_metrics_csv(cell_dir / "metrics.csv", log)
        if emit["json"]:
            _write_json(cell_dir / "runlog.json", log_to_dict(log))
            _write_json(cell_dir / "report.json", build_report(log))
        cell.update(
            final_loss=log.final_loss,
            final_grad_norm_sq=log.final_grad_norm_sq,
            wall_clock=_final_clock(log),
            participation=_participation(log),
        )
        curve = log.records.global_loss.tolist() + [log.final_loss]
    except Exception as exc:  # noqa: BLE001 - a failed cell must not stop the matrix
        cell["status"] = "failed"
        cell["error"] = f"{type(exc).__name__}: {exc}"
    return cell, curve


def _summarize(cells: list[dict], out_dir: Path) -> None:
    groups: dict[tuple[str, str], list[dict]] = {}
    for cell in cells:
        groups.setdefault((cell["scenario"], cell["strategy"]), []).append(cell)
    rows = []
    for (scenario, strategy), group in sorted(groups.items()):
        ok = [c for c in group if c["status"] == "ok"]
        shares = [c["participation"] for c in ok]
        row = {
            "scenario": scenario,
            "strategy": strategy,
            "seeds": len(group),
            "failed": len(group) - len(ok),
            "mean_final_loss": float(np.mean([c["final_loss"] for c in ok])) if ok else float("nan"),
            "mean_wall_clock": float(np.mean([c["wall_clock"] for c in ok])) if ok else float("nan"),
            "mean_participation": (
                float(np.mean([np.mean(p) for p in shares])) if ok and None not in shares else float("nan")
            ),
        }
        rows.append(row)
    _write_csv(out_dir / "summary.csv", list(rows[0]), [list(row.values()) for row in rows])
    _write_json(out_dir / "summary.json", {"cells": cells, "rows": rows})


def _write_plotdata(results: list[tuple[dict, list | None]], out_dir: Path) -> None:
    """One loss-curve file per (scenario, strategy): the mean, min and max
    over the loss curves of its cells that ran, which all have ``T + 1``
    points, as a config has one ``T``."""
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[str, str], list[list]] = {}
    for cell, curve in results:
        if curve is not None:
            groups.setdefault((cell["scenario"], cell["strategy"]), []).append(curve)
    for (scenario, strategy), curves in sorted(groups.items()):
        stacked = np.array(curves)
        _write_csv(
            plot_dir / f"{scenario}__{strategy}__loss.csv",
            ["t", "mean_loss", "min_loss", "max_loss"],
            [[t, float(column.mean()), float(column.min()), float(column.max())]
             for t, column in enumerate(stacked.T)],
        )


def _make_out_dir(out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{out_dir}: cannot make the output directory: {exc.strerror or exc}") from exc


def run_experiment(config: dict, out_dir: Path, parallel: int = 1) -> int:
    """Execute every (scenario x strategy x seed) cell of a validated config.
    The cells of one (scenario entry, seed) run on one shared setup, one
    group after another, or one group per task of a ``parallel``-worker pool.

    Returns 0 when every cell succeeded, 1 when some cells failed at runtime.
    Configuration problems raise ConfigError before anything is written.
    """
    groups, emit = validate_run_config(config)
    tasks = [(*group, out_dir, emit) for group in groups]
    _make_out_dir(out_dir)
    # A forked pool starts every worker at its first task, so it gets no more
    # workers than groups, and one group runs serially.
    workers = min(parallel, len(tasks))
    if workers > 1:
        # Imported here: the pool loads multiprocessing and logging, which a
        # serial run never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = [result for group in pool.map(_execute_group, tasks) for result in group]
    else:
        results = [result for task in tasks for result in _execute_group(task)]
    results.sort(key=lambda r: (r[0]["scenario"], r[0]["strategy"], r[0]["seed_index"]))
    cells = [cell for cell, _ in results]
    _summarize(cells, out_dir)
    if emit["plotdata"]:
        _write_plotdata(results, out_dir)
    failed = [c for c in cells if c["status"] == "failed"]
    for cell in failed:
        print(
            f"cell {cell['scenario']}/{cell['strategy']}/s{cell['seed_index']} failed: {cell['error']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Latency comparison


def compare_latency(config: dict, out_dir: Path) -> int:
    """Write and print config.latency's table; any run key is a ConfigError."""
    root = _coerce({key: _TYPES[_Root][key] for key in ("latency", "out_dir")}, config, "config")
    rows = _build(latency_table, root.get("latency", {}), "config.latency")
    _make_out_dir(out_dir)
    _write_csv(
        out_dir / "latency.csv",
        ["delta", "rounds", "required_iterations", "sfl_seconds", "tsfl_seconds", "ratio"],
        [list(row.values()) for row in rows],
    )
    for row in rows:
        print(
            f"delta={row['delta']:<6g} sfl={row['sfl_seconds']:<10g} "
            f"tsfl={row['tsfl_seconds']:<10g} ratio={row['ratio']:.3f}"
        )
    return 0


# ---------------------------------------------------------------------------
# Re-analysis and presets


def reanalyze(out_dir: Path) -> int:
    """Regenerate report.json for every serialized run log under out_dir. A
    log it cannot analyse (it keeps its report), or whose report it cannot
    write, is named on stderr with the error and fails; the rest still run."""
    logs = sorted(out_dir.glob("runs/*/runlog.json"))
    if not logs:
        print(f"no run logs found under {out_dir}", file=sys.stderr)
        return 1
    status = 0
    for path in logs:
        try:
            report = build_report(log_from_dict(json.loads(path.read_text(encoding="utf-8"))))
            _write_json(path.parent / "report.json", report)
        except (OSError, ValueError, LookupError, TypeError, RecursionError) as exc:
            print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"re-analyzed {path.parent.name}")
    return status


def list_presets() -> int:
    """Print each preset's name and the first line of its factory's docstring."""
    for name in sorted(PRESETS):
        print(f"{name:<12} {inspect.getdoc(PRESETS[name]).splitlines()[0]}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _resolve_out_dir(args, config: dict) -> Path:
    out_dir = args.out or _coerce(_TYPES[_Root], config, "config").get("out_dir")
    return Path(out_dir or os.environ.get(ENV_OUT_DIR) or "tsfl-out")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tsfl",
        description="Deterministic simulator for time-driven federated aggregation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute an experiment config")
    run_parser.add_argument("--config", required=True, help="path to a JSON config")
    run_parser.add_argument("--out", help="output directory")
    run_parser.add_argument("--seed", type=int, help="override the master seed")
    run_parser.add_argument("--parallel", type=int, default=1, help="pool workers, each running one (scenario, seed) group")
    run_parser.add_argument("--strategy", help="run only this strategy")

    latency_parser = sub.add_parser("latency", help="latency comparison mode")
    latency_parser.add_argument("--config", required=True)
    latency_parser.add_argument("--out")

    report_parser = sub.add_parser("report", help="re-analyze existing run logs")
    report_parser.add_argument("--out", required=True, help="directory holding runs/")

    sub.add_parser("presets", help="list built-in scenario presets")

    args = parser.parse_args(argv)
    if args.command == "run" and args.parallel < 1:
        run_parser.error(f"argument --parallel: must be at least 1, got {args.parallel}")
    try:
        if args.command == "run":
            config = load_config(args.config)
            if args.seed is not None:
                config["master_seed"] = args.seed
            if args.strategy:
                config["strategies"] = [args.strategy]
            return run_experiment(config, _resolve_out_dir(args, config), parallel=args.parallel)
        if args.command == "latency":
            config = load_config(args.config)
            return compare_latency(config, _resolve_out_dir(args, config))
        if args.command == "report":
            return reanalyze(Path(args.out))
        if args.command == "presets":
            return list_presets()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
