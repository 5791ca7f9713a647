"""Experiment orchestration: config parsing, run matrices, metrics, reports.

A config is a single JSON document. Every (scenario x strategy x seed) cell
produces one metrics CSV, one serialized run log, and one analysis report;
a summary table across seeds is written once all cells finish. Outputs carry
no timestamps, so identical configs produce byte-identical files.

Seed scheme: each cell's rng seed is derived as the first eight bytes of
sha256("<master>|<scenario>|<strategy>|<index>"), so adding scenarios,
strategies, or seeds never perturbs existing cells.

Metrics CSV schema (version 1): t, wall_clock, global_loss, grad_norm_sq,
then tau_i, beta_i, rho_i for clients 1..N. One row per interval, evaluated
at the interval's starting model, plus a final row (t = T, tau/beta/rho zero)
carrying the final model's metrics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
import typing
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import UnionType

import numpy as np

from .analysis import evaluate_bound, verify_convergence
from .core import IntervalRecord, RunLog, SystemConstants, interval_records, validate_constants
from .scenarios import (
    PRESETS,
    FieldError,
    FixedIterations,
    GaussianFloorIterations,
    Scenario,
    TaskSpec,
    apply_client_selection,
    latency_table,
    tiered,
)
from .scheduler import STRATEGIES, participation_frequency, run_strategy

METRICS_SCHEMA_VERSION = 1
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
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
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
    strategy: _STRATEGY
    runner: dict
    seeds: int | list[int]
    master_seed: int
    estimate_probes: int
    equality_theta: bool
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
# scenario_options: every preset factory's parameters; a preset takes its own.
_SCENARIO_OPTIONS = {key: kind for make in PRESETS.values() for key, kind in _TYPES[make].items()}
# runner: every strategy's options; a strategy takes its own.
_RUNNER = {key: kind for spec in STRATEGIES.values() for key, kind in spec.options.items()}
# An inline scenario: Scenario's fields but the task, which config.task gives,
# with process specs tiled over n_clients and one data size or one per client.
_INLINE = {key: kind for key, kind in _TYPES[Scenario].items() if key != "task"}
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


def _inline_scenario(obj, task: TaskSpec) -> Scenario:
    fields = _coerce(_INLINE, obj, "config.scenario")
    _require(fields, ("n_clients", "processes"), "config.scenario")
    n_clients = fields.pop("n_clients")
    specs = [_process_from_spec(spec, f"config.scenario.processes[{k}]")
             for k, spec in enumerate(fields["processes"])]
    if not specs:
        raise ConfigError("config.scenario.processes: must be a non-empty list")
    if len(specs) > n_clients:
        raise ConfigError(f"config.scenario.processes: {len(specs)} specs for n_clients={n_clients}")
    sizes = fields.get("data_sizes", 1024)
    if isinstance(sizes, int):
        sizes = [sizes] * n_clients
    if len(sizes) != n_clients:
        raise ConfigError(f"config.scenario.data_sizes: {len(sizes)} sizes for n_clients={n_clients}")
    # Fewer specs than clients tile over contiguous equal blocks.
    processes = tiered(n_clients, specs)
    fields = {"name": "custom", **fields, "processes": processes, "data_sizes": sizes, "task": task}
    return _make(Scenario, fields, "config.scenario")


def _preset_scenario(name: str, options: dict, root: dict, task: TaskSpec) -> Scenario:
    make = PRESETS[name]
    own = {key: value for key, value in options.items() if key in _TYPES[make]}
    scenario = _make(make, own, "config.scenario_options")
    return dataclasses.replace(scenario, task=task, full_batch=root.get("full_batch", scenario.full_batch))


def build_scenarios(config: dict) -> list[Scenario]:
    root = _coerce(_TYPES[_Root], config, "config")
    task = _build(TaskSpec, root.get("task", {}), "config.task")
    options = _coerce(_SCENARIO_OPTIONS, root.get("scenario_options", {}), "config.scenario_options")
    entries = root.get("scenario", "case1")
    entries = entries if isinstance(entries, list) else [entries]
    if not entries:
        raise ConfigError("config.scenario: list must be non-empty")
    scenarios = [
        _preset_scenario(entry, options, root, task) if isinstance(entry, str) else _inline_scenario(entry, task)
        for entry in entries
    ]
    try:
        return [apply_client_selection(s, root.get("min_upload_iterations", 0)) for s in scenarios]
    except ValueError as exc:
        raise ConfigError(f"config.min_upload_iterations: {exc}") from exc


def build_constants(config: dict) -> SystemConstants:
    return _build(SystemConstants, config.get("constants", {}), "config.constants")


def _run_kwargs(config: dict, strategy: str) -> dict:
    """The keyword arguments of ``strategy``'s runner: the probe settings, of
    which the probe count is at least 0, and the ``runner`` keys it accepts,
    each of whose counts is at least 1."""
    runner = _coerce(_RUNNER, config.get("runner", {}), "config.runner")
    for key, value in runner.items():
        if isinstance(value, int) and value < 1:
            raise ConfigError(f"config.runner.{key}: must be at least 1, got {value}")
    probes = config.get("estimate_probes", 4)
    if probes < 0:
        raise ConfigError(f"config.estimate_probes: must be at least 0, got {probes}")
    return {
        "probe_count": probes,
        "equality_theta": config.get("equality_theta", False),
        **{key: value for key, value in runner.items() if key in STRATEGIES[strategy].options},
    }


def cell_seed(master_seed: int, scenario: str, strategy: str, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}|{scenario}|{strategy}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def expand_seeds(config: dict, scenario: str, strategy: str) -> list[tuple[int, int]]:
    """(index, seed) pairs for one cell column of a converted config."""
    seeds = config.get("seeds", 1)
    if isinstance(seeds, list):
        if not seeds:
            raise ConfigError("config.seeds: list must be non-empty")
        for k, seed in enumerate(seeds):
            if seed < 0:
                raise ConfigError(f"config.seeds[{k}]: must be at least 0, got {seed}")
        return list(enumerate(seeds))
    if seeds < 1:
        raise ConfigError("config.seeds: must be a positive count or a list of seeds")
    master = config.get("master_seed", 0)
    return [(i, cell_seed(master, scenario, strategy, i)) for i in range(seeds)]


def validate_run_config(config: dict) -> tuple[list[tuple], dict]:
    """Full validation pass. Returns the cells to run, each ``(scenario,
    strategy, seed index, seed, constants, runner kwargs)``, and the emit
    flags; raises before any output."""
    root = _coerce(_TYPES[_Root], config, "config")
    strategies = root.get("strategies", [root["strategy"]] if "strategy" in root else [])
    if not strategies:
        raise ConfigError("config.strategies: a non-empty list of strategy names is required")
    kwargs = {name: _run_kwargs(root, name) for name in strategies}
    emit = {**_EMIT, **_coerce(dict.fromkeys(_EMIT, bool), root.get("emit", {}), "config.emit")}
    constants = build_constants(root)
    cells = []
    for scenario in build_scenarios(root):
        for strategy in strategies:
            if kwargs[strategy].get("buffer_size", 1) > scenario.n_clients:
                raise ConfigError(f"config.runner.buffer_size: more than the {scenario.n_clients} "
                                  f"clients of scenario {scenario.name!r}")
            cells += [
                (scenario, strategy, index, seed, constants, kwargs[strategy])
                for index, seed in expand_seeds(root, scenario.name, strategy)
            ]
    return cells, emit


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
    numpy reads a None in a float column as NaN."""
    rows = data["records"]
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
        constants_source=data.get("constants_source", {}),
        analysis_inputs=data.get("analysis_inputs", {}),
    )
    for t, row in enumerate(rows):
        log.records[t] = IntervalRecord(**row)
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


def metrics_header(n_clients: int) -> list[str]:
    header = ["t", "wall_clock", "global_loss", "grad_norm_sq"]
    header += [f"tau_{i}" for i in range(1, n_clients + 1)]
    header += [f"beta_{i}" for i in range(1, n_clients + 1)]
    header += [f"rho_{i}" for i in range(1, n_clients + 1)]
    return header


def _final_clock(log: RunLog) -> float:
    return float(log.records.wall_clock[-1]) if log.intervals else 0.0


def _participation(log: RunLog) -> list | None:
    frequency = participation_frequency(log)
    return None if frequency is None else frequency.tolist()


def write_metrics_csv(path: Path, log: RunLog) -> None:
    r = log.records
    n = r.tau.shape[1]
    columns = (r.t, r.wall_clock, r.global_loss, r.global_grad_norm_sq, r.tau, r.beta, r.rho)
    rows = [
        [t, clock, loss, grad, *tau, *beta, *rho]
        for t, clock, loss, grad, tau, beta, rho in zip(*(c.tolist() for c in columns))
    ]
    final = [log.intervals, _final_clock(log), log.final_loss, log.final_grad_norm_sq]
    rows.append(final + [0] * n + [0] * n + [0.0] * n)
    _write_csv(path, metrics_header(n), rows)


def build_report(log: RunLog) -> dict:
    constants = log.constants
    inputs = log.analysis_inputs
    bound = evaluate_bound(log)
    v_hat = inputs.get("v_hat")
    epsilon_hat = inputs.get("epsilon_hat")
    if v_hat is not None and epsilon_hat is not None and epsilon_hat > 0:
        convergence_constants = dataclasses.replace(
            constants, V=max(float(v_hat), 1.0), epsilon=float(epsilon_hat)
        )
        dissimilarity_source = "probed"
    else:
        convergence_constants = constants
        dissimilarity_source = "configured"
    convergence = verify_convergence(log, convergence_constants)
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "run": {"scenario": log.scenario["name"], "strategy": log.strategy, "seed": log.seed},
        "constants": dataclasses.asdict(constants),
        "constants_source": log.constants_source,
        "precondition_warnings": validate_constants(constants),
        "dissimilarity_source": dissimilarity_source,
        "bound": bound.to_dict(),
        "convergence": convergence.to_dict(),
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


def _execute_cell(args: tuple) -> tuple[dict, list | None]:
    """Run one cell and write its files. Returns the cell's summary entry and,
    for a cell that ran, its loss curve: every interval's ``global_loss``,
    then the final loss, as its ``metrics.csv`` lists them."""
    scenario, strategy, index, seed, constants, kwargs, out_dir, emit = args
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
        log = run_strategy(scenario, strategy, constants, seed, **kwargs)
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
    over the loss curves of its cells that ran."""
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[str, str], list[list]] = {}
    for cell, curve in results:
        if curve is not None:
            groups.setdefault((cell["scenario"], cell["strategy"]), []).append(curve)
    for (scenario, strategy), curves in sorted(groups.items()):
        length = min(len(c) for c in curves)
        stacked = np.array([c[:length] for c in curves])
        _write_csv(
            plot_dir / f"{scenario}__{strategy}__loss.csv",
            ["t", "mean_loss", "min_loss", "max_loss"],
            [[t, float(stacked[:, t].mean()), float(stacked[:, t].min()), float(stacked[:, t].max())]
             for t in range(length)],
        )


def run_experiment(config: dict, out_dir: Path, parallel: int = 1) -> int:
    """Execute every (scenario x strategy x seed) cell of a validated config.

    Returns 0 when every cell succeeded, 1 when some cells failed at runtime.
    Configuration problems raise ConfigError before anything is written.
    """
    cells, emit = validate_run_config(config)
    tasks = [(*cell, out_dir, emit) for cell in cells]
    out_dir.mkdir(parents=True, exist_ok=True)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(_execute_cell, tasks))
    else:
        results = [_execute_cell(task) for task in tasks]
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
    root = _coerce(_TYPES[_Root], config, "config")
    if not {"sfl", "tsfl-dms"} <= set(root.get("strategies", [])):
        raise ConfigError(
            "config.strategies: latency comparison needs at least 'sfl' and 'tsfl-dms'"
        )
    rows = _build(latency_table, root.get("latency", {}), "config.latency")
    out_dir.mkdir(parents=True, exist_ok=True)
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
    """Regenerate report.json for every serialized run log under out_dir."""
    logs = sorted(out_dir.glob("runs/*/runlog.json"))
    if not logs:
        print(f"no run logs found under {out_dir}", file=sys.stderr)
        return 1
    for path in logs:
        log = log_from_dict(json.loads(path.read_text(encoding="utf-8")))
        _write_json(path.parent / "report.json", build_report(log))
        print(f"re-analyzed {path.parent.name}")
    return 0


def list_presets() -> int:
    descriptions = {
        "case1": "20 clients, fixed iterations: half 1, half 4 (degree 2.25)",
        "case2": "20 clients, fixed iterations 1/2/3/4 by quarters (degree 1.25)",
        "case3": "20 clients, floored-Gaussian iterations and tiered data sizes",
        "homogeneous": "identical clients, fixed iterations (degree 0)",
    }
    for name in sorted(PRESETS):
        print(f"{name:<12} {descriptions.get(name, '')}")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _resolve_out_dir(args, config: dict) -> Path:
    out_dir = args.out or _coerce(_TYPES[_Root], config, "config").get("out_dir")
    return Path(out_dir or os.environ.get(ENV_OUT_DIR, "tsfl-out"))


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
    run_parser.add_argument("--parallel", type=int, default=1, help="cells to run in parallel")
    run_parser.add_argument("--strategy", help="run only this strategy")

    latency_parser = sub.add_parser("latency", help="latency comparison mode")
    latency_parser.add_argument("--config", required=True)
    latency_parser.add_argument("--out")

    report_parser = sub.add_parser("report", help="re-analyze existing run logs")
    report_parser.add_argument("--out", required=True, help="directory holding runs/")

    sub.add_parser("presets", help="list built-in scenario presets")

    args = parser.parse_args(argv)
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
