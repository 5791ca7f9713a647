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
import inspect
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import evaluate_bound, verify_convergence
from .core import IntervalRecord, RunLog, SystemConstants, interval_records, validate_constants
from .scenarios import (
    PRESETS,
    FixedIterations,
    GaussianFloorIterations,
    GaussianFloorSize,
    LatencyModel,
    Scenario,
    TaskSpec,
    apply_client_selection,
    two_tier_speed_profile,
)
from .scheduler import STRATEGIES, participation_frequency, run_strategy

METRICS_SCHEMA_VERSION = 1
ENV_OUT_DIR = "TSFL_OUT_DIR"


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending location."""


# ---------------------------------------------------------------------------
# Config parsing


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


def _cast(kind, value, location: str):
    """``kind(value)``, or a ConfigError naming ``location`` when that fails.
    A bool must be a JSON boolean already, as ``bool("false")`` is True, and
    only a bool is one: ``int(True)`` is 1. An int must not drop a fraction,
    and a float must be finite."""
    try:
        result = kind(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if (
        result is None
        or (kind is bool) != isinstance(value, bool)
        or (kind is int and isinstance(value, float) and result != value)
        or (isinstance(result, float) and not math.isfinite(result))
    ):
        raise ConfigError(f"{location}: expected {kind.__name__}, got {value!r}")
    return result


def _known_keys(config: dict, section: str, accepted: set) -> dict:
    """``config[section]``, which must be an object whose keys are all accepted."""
    raw = config.get(section, {})
    if not isinstance(raw, dict):
        raise ConfigError(f"config.{section}: must be an object")
    unknown = set(raw) - accepted
    if unknown:
        raise ConfigError(f"config.{section}: unknown keys {sorted(unknown)}")
    return raw


def _task_spec(config: dict) -> TaskSpec:
    fixed = dict(_known_keys(config, "task", {f.name for f in dataclasses.fields(TaskSpec)}))
    if "curvature_range" in fixed:
        fixed["curvature_range"] = tuple(fixed["curvature_range"])
    try:
        return TaskSpec(**fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.task: {exc}") from exc


def _process_from_spec(spec: dict, location: str) -> object:
    if not isinstance(spec, dict):
        raise ConfigError(f"{location}: must be an object")
    kind = spec.get("kind")
    try:
        if kind == "fixed":
            return FixedIterations(_cast(int, spec["tau"], f"{location}.tau"))
        if kind == "gaussian-floor":
            return GaussianFloorIterations(
                _cast(float, spec["mean"], f"{location}.mean"),
                _cast(float, spec["std"], f"{location}.std"),
            )
    except KeyError as exc:
        raise ConfigError(f"{location}: missing key {exc.args[0]!r}") from exc
    raise ConfigError(f"{location}: unknown process kind {kind!r}")


def _inline_scenario(obj: dict, task: TaskSpec) -> Scenario:
    try:
        n_clients = _cast(int, obj["n_clients"], "config.scenario.n_clients")
        raw_processes = obj["processes"]
    except KeyError as exc:
        raise ConfigError(f"config.scenario: missing key {exc.args[0]!r}") from exc
    if not isinstance(raw_processes, list) or not raw_processes:
        raise ConfigError("config.scenario.processes: must be a non-empty list")
    specs = [
        _process_from_spec(s, f"config.scenario.processes[{k}]")
        for k, s in enumerate(raw_processes)
    ]
    # Fewer specs than clients tiles them over contiguous equal blocks.
    if len(specs) < n_clients:
        pieces = len(specs)
        specs = [specs[min(i * pieces // n_clients, pieces - 1)] for i in range(n_clients)]
    sizes = obj.get("data_sizes", 1024)
    if isinstance(sizes, list):
        sizes = [_cast(int, s, f"config.scenario.data_sizes[{k}]") for k, s in enumerate(sizes)]
    else:
        sizes = [_cast(int, sizes, "config.scenario.data_sizes")] * n_clients
    required = obj.get("required_iterations")
    if required is not None:
        required = _cast(int, required, "config.scenario.required_iterations")
    return Scenario(
        name=obj.get("name", "custom"),
        processes=specs,
        data_sizes=sizes,
        batch_size=_cast(int, obj.get("batch_size", 32), "config.scenario.batch_size"),
        task=task,
        interval_length=_cast(float, obj.get("interval_length", 1.0), "config.scenario.interval_length"),
        overhead=_cast(float, obj.get("overhead", 0.0), "config.scenario.overhead"),
        required_iterations=required,
        min_upload_iterations=_cast(
            int, obj.get("min_upload_iterations", 0), "config.scenario.min_upload_iterations"
        ),
        full_batch=_cast(bool, obj.get("full_batch", False), "config.scenario.full_batch"),
    )


# The scenario_options keys each preset accepts, its factory's named
# parameters, each with the type of its default, which a value is converted to.
_PRESET_OPTIONS = {
    name: {p.name: type(p.default) for p in inspect.signature(factory).parameters.values()
           if p.kind is not p.VAR_KEYWORD}
    for name, factory in PRESETS.items()
}


def _preset_scenario(name: str, options: dict, config: dict, task: TaskSpec) -> Scenario:
    if name not in PRESETS:
        raise ConfigError(
            f"config.scenario: unknown preset {name!r}; choose from {sorted(PRESETS)}"
        )
    kwargs = {
        key: _cast(kind, options[key], f"config.scenario_options.{key}")
        for key, kind in _PRESET_OPTIONS[name].items()
        if key in options
    }
    try:
        scenario = PRESETS[name](**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.scenario_options: {exc}") from exc
    scenario = dataclasses.replace(
        scenario,
        task=task,
        full_batch=_cast(bool, config.get("full_batch", scenario.full_batch), "config.full_batch"),
    )
    return scenario


def build_scenarios(config: dict) -> list[Scenario]:
    task = _task_spec(config)
    options = _known_keys(config, "scenario_options", set().union(*_PRESET_OPTIONS.values()))
    raw = config.get("scenario", "case1")
    entries = raw if isinstance(raw, list) else [raw]
    scenarios = []
    for entry in entries:
        if isinstance(entry, str):
            scenario = _preset_scenario(entry, options, config, task)
        elif isinstance(entry, dict):
            scenario = _inline_scenario(entry, task)
        else:
            raise ConfigError("config.scenario: entries must be preset names or objects")
        min_upload = _cast(int, config.get("min_upload_iterations", 0), "config.min_upload_iterations")
        if min_upload:
            scenario = apply_client_selection(scenario, min_upload)
        scenarios.append(scenario)
    return scenarios


def build_constants(config: dict) -> SystemConstants:
    raw = _known_keys(config, "constants", {f.name for f in dataclasses.fields(SystemConstants)})
    try:
        return SystemConstants(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config.constants: {exc}") from exc


def cell_seed(master_seed: int, scenario: str, strategy: str, index: int) -> int:
    digest = hashlib.sha256(f"{master_seed}|{scenario}|{strategy}|{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def expand_seeds(config: dict, scenario: str, strategy: str) -> list[tuple[int, int]]:
    """(index, seed) pairs for one cell column."""
    seeds = config.get("seeds", 1)
    if isinstance(seeds, list):
        if not seeds:
            raise ConfigError("config.seeds: list must be non-empty")
        return [(i, _cast(int, s, f"config.seeds[{i}]")) for i, s in enumerate(seeds)]
    if not isinstance(seeds, int) or isinstance(seeds, bool) or seeds < 1:
        raise ConfigError("config.seeds: must be a positive count or a list of seeds")
    master = _cast(int, config.get("master_seed", 0), "config.master_seed")
    return [(i, cell_seed(master, scenario, strategy, i)) for i in range(seeds)]


def validate_run_config(config: dict) -> list[str]:
    """Full validation pass; returns the strategy list. Raises before any output."""
    strategies = config.get("strategies")
    if strategies is None and "strategy" in config:
        strategies = [config["strategy"]]
    if not isinstance(strategies, list) or not strategies:
        raise ConfigError("config.strategies: a non-empty list of strategy names is required")
    for i, name in enumerate(strategies):
        if name not in STRATEGIES:
            raise ConfigError(
                f"config.strategies[{i}]: unknown strategy {name!r}; "
                f"choose from {sorted(STRATEGIES)}"
            )
        _run_kwargs(config, name)
    _emit_flags(config)
    build_scenarios(config)
    build_constants(config)
    expand_seeds(config, "dummy", strategies[0])
    return list(strategies)


# ---------------------------------------------------------------------------
# Serialization


def _constants_dict(constants: SystemConstants) -> dict:
    return dataclasses.asdict(constants)


def log_to_dict(log: RunLog) -> dict:
    # runlog.json keeps every column but the per-interval models.
    names = [name for name in log.records.dtype.names if name != "model"]
    rows = zip(*(log.records[name].tolist() for name in names))
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "scenario": log.scenario,
        "seed": log.seed,
        "strategy": log.strategy,
        "constants": _constants_dict(log.constants),
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
        "constants": _constants_dict(constants),
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


def _run_kwargs(config: dict, strategy: str) -> dict:
    runner = _known_keys(config, "runner", {k for spec in STRATEGIES.values() for k in spec.options})
    kwargs = {
        "probe_count": _cast(int, config.get("estimate_probes", 4), "config.estimate_probes"),
        "equality_theta": _cast(bool, config.get("equality_theta", False), "config.equality_theta"),
    }
    for key, kind in STRATEGIES[strategy].options.items():
        if key in runner:
            kwargs[key] = _cast(kind, runner[key], f"config.runner.{key}")
    return kwargs


_EMIT_DEFAULTS = {"csv": True, "json": True, "plotdata": False}


def _emit_flags(config: dict) -> dict:
    raw = _known_keys(config, "emit", set(_EMIT_DEFAULTS))
    return {key: _cast(bool, raw.get(key, default), f"config.emit.{key}")
            for key, default in _EMIT_DEFAULTS.items()}


def _execute_cell(args: tuple) -> dict:
    scenario, strategy, index, seed, constants, kwargs, cell_dir, emit = args
    cell = {
        "scenario": scenario.name,
        "strategy": strategy,
        "seed_index": index,
        "seed": seed,
        "status": "ok",
    }
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
    except Exception as exc:  # noqa: BLE001 - a failed cell must not stop the matrix
        cell["status"] = "failed"
        cell["error"] = f"{type(exc).__name__}: {exc}"
    return cell


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


def _write_plotdata(cells: list[dict], out_dir: Path) -> None:
    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[str, str], list[dict]] = {}
    for cell in cells:
        if cell["status"] == "ok":
            groups.setdefault((cell["scenario"], cell["strategy"]), []).append(cell)
    for (scenario, strategy), group in sorted(groups.items()):
        curves = []
        for cell in group:
            path = _cell_dir(out_dir, scenario, strategy, cell["seed_index"]) / "metrics.csv"
            if not path.exists():
                continue
            with path.open(encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                curves.append([float(r["global_loss"]) for r in reader])
        if not curves:
            continue
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
    strategies = validate_run_config(config)
    scenarios = build_scenarios(config)
    constants = build_constants(config)
    emit = _emit_flags(config)

    tasks = []
    for scenario in scenarios:
        for strategy in strategies:
            kwargs = _run_kwargs(config, strategy)
            for index, seed in expand_seeds(config, scenario.name, strategy):
                cell_dir = _cell_dir(out_dir, scenario.name, strategy, index)
                tasks.append((scenario, strategy, index, seed, constants, kwargs, cell_dir, emit))

    out_dir.mkdir(parents=True, exist_ok=True)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            cells = list(pool.map(_execute_cell, tasks))
    else:
        cells = [_execute_cell(task) for task in tasks]
    cells.sort(key=lambda c: (c["scenario"], c["strategy"], c["seed_index"]))
    _summarize(cells, out_dir)
    if emit["plotdata"]:
        _write_plotdata(cells, out_dir)
    failed = [c for c in cells if c["status"] == "failed"]
    for cell in failed:
        print(
            f"cell {cell['scenario']}/{cell['strategy']}/s{cell['seed_index']} failed: {cell['error']}",
            file=sys.stderr,
        )
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Latency comparison


def latency_table(
    deltas,
    rounds: int = 50,
    n_clients: int = 20,
    mean_tau: float = 2.5,
    interval_length: float = 1.0,
    overhead: float = 0.0,
    required_iterations: float | None = None,
) -> list[dict]:
    """Wall-clock totals of round-driven vs time-driven scheduling per
    heterogeneity degree.

    Each degree maps to a symmetric two-tier speed split around ``mean_tau``.
    The round-driven schedule requires the fast tier's per-interval count from
    every client unless overridden, so its round time is governed by the
    slowest client while the time-driven total stays fixed.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be at least 1")
    rows = []
    for delta in deltas:
        profile = two_tier_speed_profile(float(delta), n_clients=n_clients, mean_tau=mean_tau)
        model = LatencyModel(
            seconds_per_iteration=interval_length / profile,
            interval_length=interval_length,
            overhead=overhead,
        )
        required = float(profile.max()) if required_iterations is None else float(required_iterations)
        sfl_total = rounds * (required * float(model.seconds_per_iteration.max()) + overhead)
        tsfl_total = rounds * interval_length
        rows.append(
            {
                "delta": float(delta),
                "rounds": rounds,
                "required_iterations": required,
                "sfl_seconds": sfl_total,
                "tsfl_seconds": tsfl_total,
                "ratio": tsfl_total / sfl_total,
            }
        )
    return rows


def compare_latency(config: dict, out_dir: Path) -> int:
    strategies = config.get("strategies", [])
    if not {"sfl", "tsfl-dms"} <= set(strategies):
        raise ConfigError(
            "config.strategies: latency comparison needs at least 'sfl' and 'tsfl-dms'"
        )
    params = inspect.signature(latency_table).parameters
    options = _known_keys(config, "latency", set(params))
    deltas = options.get("deltas", [0.0, 1.25, 2.25])
    if not isinstance(deltas, list):
        raise ConfigError("config.latency.deltas: must be a list")
    deltas = [_cast(float, delta, f"config.latency.deltas[{k}]") for k, delta in enumerate(deltas)]
    kwargs = {
        key: _cast(int if isinstance(params[key].default, int) else float, value, f"config.latency.{key}")
        for key, value in options.items()
        if key != "deltas"
    }
    try:
        rows = latency_table(deltas, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"config.latency: {exc}") from exc
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


def _resolve_out_dir(args, config: dict | None) -> Path:
    if args.out:
        return Path(args.out)
    if config and config.get("out_dir"):
        return Path(config["out_dir"])
    return Path(os.environ.get(ENV_OUT_DIR, "tsfl-out"))


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
