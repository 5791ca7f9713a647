import concurrent.futures
import copy
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tsfl
from tsfl.analysis import verify_convergence
from tsfl.cli import (
    METRICS_SCHEMA_VERSION,
    ConfigError,
    _write_json,
    build_report,
    build_scenarios,
    cell_seed,
    compare_latency,
    latency_table,
    load_config,
    log_from_dict,
    log_to_dict,
    main,
    metrics_header,
    run_experiment,
    validate_run_config,
)
from tsfl.core import RunLog, SystemConstants, default_weight_limit, interval_records
from tsfl.scenarios import PRESETS
from tsfl import scheduler
from tsfl.scheduler import ALL_STRATEGIES


def small_config(**overrides):
    config = {
        "scenario": "case1",
        "scenario_options": {"n_clients": 4, "data_size": 64, "batch_size": 8},
        "task": {"kind": "quadratic", "dimension": 2, "noniid_spread": 0.3},
        "strategies": ["tsfl-dms", "fedavg"],
        "seeds": 3,
        "master_seed": 7,
        "constants": {"eta": 0.05, "T": 4, "H": 4},
        "estimate_probes": 2,
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_run_produces_full_matrix(tmp_path):
    config_path = write_config(tmp_path, small_config())
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    run_dirs = sorted((out / "runs").iterdir())
    assert len(run_dirs) == 6  # 2 strategies x 3 seeds
    for run_dir in run_dirs:
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "runlog.json").exists()
        assert (run_dir / "report.json").exists()
    assert (out / "summary.csv").exists()
    assert (out / "summary.json").exists()
    summary = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(summary) == 3  # header + one row per (scenario, strategy)


def test_run_twice_is_byte_identical(tmp_path):
    config_path = write_config(tmp_path, small_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b)]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


def test_parallel_run_matches_serial(tmp_path):
    config_path = write_config(tmp_path, small_config())
    out_a, out_b = tmp_path / "serial", tmp_path / "parallel"
    assert main(["run", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config_path), "--out", str(out_b), "--parallel", "3"]) == 0
    assert tree_bytes(out_a) == tree_bytes(out_b)


@pytest.mark.parametrize("seeds, pools", [([1, 2], [2]), ([1], [])])
def test_parallel_pool_has_no_more_workers_than_groups(tmp_path, monkeypatch, seeds, pools):
    # One (scenario, seed) group per listed seed. A forked pool starts every
    # worker it is given, so this one records its size and maps in-process.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    config = small_config(seeds=seeds)
    del config["master_seed"]
    assert run_experiment(config, tmp_path / "pool", parallel=8) == 0
    assert sizes == pools
    assert run_experiment(config, tmp_path / "serial") == 0
    assert tree_bytes(tmp_path / "pool") == tree_bytes(tmp_path / "serial")


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_parallel_below_one_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(write_config(tmp_path, small_config())), "--out", str(out), "--parallel", workers])
    assert exc.value.code == 2 and not out.exists()
    assert f"argument --parallel: must be at least 1, got {workers}" in capsys.readouterr().err


def test_a_setup_that_fails_fails_every_cell_of_its_group(tmp_path, monkeypatch):
    # Two scenarios, two listed seeds and two strategies: four groups of two
    # cells. Each group builds its setup once, and its error fails both cells.
    calls = []

    def boom(*args):
        calls.append(args)
        raise ValueError("boom")

    monkeypatch.setattr(scheduler, "estimate_constants", boom)
    config = small_config(scenario=["case1", "homogeneous"], seeds=[1, 2])
    del config["master_seed"]
    out = tmp_path / "out"
    assert run_experiment(config, out) == 1
    cells = json.loads((out / "summary.json").read_text(encoding="utf-8"))["cells"]
    assert len(cells) == 8 and len(calls) == 4
    assert {(cell["status"], cell["error"]) for cell in cells} == {("failed", "ValueError: boom")}
    with (out / "summary.csv").open(encoding="utf-8") as fh:
        assert [(row["seeds"], row["failed"]) for row in csv.DictReader(fh)] == [("2", "2")] * 4
    assert not (out / "runs").exists()


def test_missing_strategy_is_config_error_without_outputs(tmp_path, capsys):
    config = small_config()
    del config["strategies"]
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_unknown_strategy_is_config_error(tmp_path):
    config_path = write_config(tmp_path, small_config(strategies=["fedavg", "bogus"]))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


def test_json_syntax_error_is_line_anchored(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "scenario": "case1",\n  oops\n}', encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "broken.json:3:" in err


# Bytes that are not UTF-8, and arrays nested past the interpreter's
# recursion limit.
UNDECODABLE = [(b"\xff", "not UTF-8"), (b"[" * 100_000, "nested too deeply to decode")]


@pytest.mark.parametrize("command", ["run", "latency"])
@pytest.mark.parametrize("raw, reason", UNDECODABLE, ids=["not-utf8", "too-deep"])
def test_undecodable_config_is_config_error_without_outputs(tmp_path, capsys, command, raw, reason):
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"config error: {path}: {reason}" in capsys.readouterr().err


def test_failing_cell_does_not_stop_matrix(tmp_path):
    # A batch of a client's whole data set probes no noise, so tsfl-theorem2
    # has no noise bounds and must fail, while the fedavg cells still complete.
    config = small_config(strategies=["tsfl-theorem2", "fedavg"], seeds=2,
                          scenario_options={"n_clients": 4, "data_size": 8, "batch_size": 8})
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 1
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    by_strategy = {}
    for cell in summary["cells"]:
        by_strategy.setdefault(cell["strategy"], []).append(cell["status"])
    assert set(by_strategy["tsfl-theorem2"]) == {"failed"}
    assert set(by_strategy["fedavg"]) == {"ok"}


def test_strategy_override_flag(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=1))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out), "--strategy", "fedavg"]) == 0
    run_dirs = [p.name for p in (out / "runs").iterdir()]
    assert run_dirs == ["case1__fedavg__s000"]


def test_env_var_supplies_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("TSFL_OUT_DIR", str(tmp_path / "from-env"))
    monkeypatch.chdir(tmp_path)
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=["fedavg"]))
    assert main(["run", "--config", str(config_path)]) == 0
    assert (tmp_path / "from-env" / "summary.csv").exists()


def test_cell_seeds_are_stable_under_matrix_growth():
    seed = cell_seed(7, "case1", "fedavg", 0)
    assert cell_seed(7, "case1", "fedavg", 0) == seed
    assert cell_seed(7, "case1", "tsfl-dms", 0) != seed
    assert cell_seed(7, "case2", "fedavg", 0) != seed
    assert cell_seed(8, "case1", "fedavg", 0) != seed
    assert cell_seed(7, "case1", "fedavg", 1) != seed


def test_explicit_seed_list(tmp_path, capsys):
    config = small_config(seeds=[11, 22], strategies=["fedavg"])
    del config["master_seed"]
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    logs = sorted((out / "runs").glob("*/runlog.json"))
    seeds = [json.loads(p.read_text(encoding="utf-8"))["seed"] for p in logs]
    assert seeds == [11, 22]
    # Listed seeds read no master seed, so --seed is a config error.
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "o"), "--seed", "3"]) == 2
    assert "config.master_seed (or --seed): unread" in capsys.readouterr().err


def test_metrics_header_golden():
    assert metrics_header(3) == [
        "t", "wall_clock", "global_loss", "grad_norm_sq",
        "tau_1", "tau_2", "tau_3",
        "beta_1", "beta_2", "beta_3",
        "rho_1", "rho_2", "rho_3",
    ]


def test_metrics_csv_shape_and_final_row(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=["fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    csv_path = out / "runs" / "case1__fedavg__s000" / "metrics.csv"
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(metrics_header(4))
    assert len(lines) == 1 + 4 + 1  # header + T intervals + final row
    final = lines[-1].split(",")
    assert final[0] == "4"
    report = json.loads((out / "runs" / "case1__fedavg__s000" / "report.json").read_text())
    assert float(final[2]) == report["final"]["loss"]


def test_runlog_roundtrip_preserves_analysis(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=ALL_STRATEGIES))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    for strategy in ALL_STRATEGIES:
        cell = out / "runs" / f"case1__{strategy}__s000"
        raw = json.loads((cell / "runlog.json").read_text())
        log = log_from_dict(raw)
        assert log_to_dict(log) == raw, strategy
        assert log.records.model.shape == (4, 2) and np.isnan(log.records.model).all(), strategy
        report = build_report(log)
        on_disk = json.loads((cell / "report.json").read_text())
        assert report == on_disk, strategy


@st.composite
def record_arrays(draw):
    """A record array of T 1-6 rows, n 1-5 clients and d 1-3 dimensions:
    finite values everywhere, and NaN as well in the loss columns."""
    t, n, d = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    loss = st.floats(allow_infinity=False)
    counts = st.integers(-(2**31), 2**31)
    records = interval_records(t, n, d)
    records.t = draw(arrays(np.int64, t, elements=counts))
    records.tau = draw(arrays(np.int64, (t, n), elements=counts))
    records.beta = draw(arrays(np.int64, (t, n), elements=st.integers(0, 1)))
    records.rho = draw(arrays(float, (t, n), elements=finite))
    records.global_loss = draw(arrays(float, t, elements=loss))
    records.global_grad_norm_sq = draw(arrays(float, t, elements=loss))
    records.wall_clock = draw(arrays(float, t, elements=finite))
    records.aggregated = draw(arrays(bool, t))
    records.model = draw(arrays(float, (t, d), elements=finite))
    return records


@settings(max_examples=100, deadline=None)
@given(record_arrays())
def test_record_columns_round_trip_through_runlog_json(records):
    n, d = records.tau.shape[1], records.model.shape[1]
    log = RunLog(scenario={"n_clients": n}, seed=0, strategy="fedavg", constants=SystemConstants(),
                 records=records, initial_model=np.zeros(d), final_model=np.ones(d))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runlog.json"
        _write_json(path, log_to_dict(log))
        back = log_from_dict(json.loads(path.read_text(encoding="utf-8")))
    for name in records.dtype.names:
        if name != "model":
            assert np.array_equal(back.records[name], records[name], equal_nan=records[name].dtype.kind == "f"), name
    assert back.records.model.shape == records.model.shape and np.isnan(back.records.model).all()


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_every_json_output_is_strict_json(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=ALL_STRATEGIES))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    files = sorted(out.rglob("*.json"))
    assert len(files) == 2 * len(ALL_STRATEGIES) + 1  # runlog + report per cell, summary
    for path in files:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)
    rows = {row["strategy"]: row for row in json.loads((out / "summary.json").read_text())["rows"]}
    assert rows["fedasync"]["mean_participation"] is None
    assert rows["semiasync"]["mean_participation"] is None
    assert rows["fedavg"]["mean_participation"] > 0.0
    # tsfl report, reading the nulls back, writes the same reports.
    originals = {p: p.read_bytes() for p in out.glob("runs/*/report.json")}
    assert main(["report", "--out", str(out)]) == 0
    for p, blob in originals.items():
        assert p.read_bytes() == blob, p


def test_null_floats_read_back_as_nan(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=["fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    raw = json.loads((out / "runs" / "case1__fedavg__s000" / "runlog.json").read_text())
    raw["final_loss"] = None
    raw["final_model"][1] = None
    raw["records"][0]["global_loss"] = None
    log = log_from_dict(raw)
    assert np.isnan(log.final_loss) and np.isnan(log.final_model[1])
    assert np.isnan(log.records.global_loss[0]) and np.isfinite(log.records.global_loss[1:]).all()
    # A NaN written as null reads back as NaN, so the report is the same
    # whether it is built from the run or from its serialized log.
    _write_json(tmp_path / "runlog.json", log_to_dict(log))
    _write_json(tmp_path / "direct.json", build_report(log))
    again = log_from_dict(json.loads((tmp_path / "runlog.json").read_text()))
    _write_json(tmp_path / "reread.json", build_report(again))
    assert (tmp_path / "direct.json").read_bytes() == (tmp_path / "reread.json").read_bytes()
    report = json.loads((tmp_path / "direct.json").read_text(), parse_constant=_refuse_constant)
    assert report["final"]["loss"] is None


@pytest.mark.parametrize("strategy", ["fedasync", "semiasync"])
def test_event_runner_reports_mark_bound_and_participation_not_applicable(tmp_path, strategy):
    # The event runners aggregate outside the interval rows, which record no
    # participant: a bound over those rows would be the initial distance.
    config_path = write_config(tmp_path, small_config(seeds=1, strategies=[strategy, "fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    event = json.loads((out / "runs" / f"case1__{strategy}__s000" / "report.json").read_text())
    assert event["bound"]["applicable"] is False
    assert event["bound"]["bound_value"] is None
    assert event["bound"]["satisfied"] is False
    assert event["participation"] is None
    fedavg = json.loads((out / "runs" / "case1__fedavg__s000" / "report.json").read_text())
    assert fedavg["bound"]["applicable"] is True
    assert len(fedavg["participation"]) == 4
    with (out / "summary.csv").open(encoding="utf-8") as fh:
        rows = {row["strategy"]: row for row in csv.DictReader(fh)}
    assert rows[strategy]["mean_participation"] == "nan"
    assert float(rows["fedavg"]["mean_participation"]) > 0.0


def test_report_verb_regenerates_identical_reports(tmp_path):
    config_path = write_config(tmp_path, small_config(seeds=2, strategies=["tsfl-dms"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    originals = {p: p.read_bytes() for p in out.glob("runs/*/report.json")}
    for p in originals:
        p.unlink()
    assert main(["report", "--out", str(out)]) == 0
    for p, blob in originals.items():
        assert p.read_bytes() == blob


def test_report_verb_fails_cleanly_without_logs(tmp_path):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 1


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda raw: {**raw, "records": []}, "ValueError: records: empty"),
        (lambda raw: {"records": 3}, f"ValueError: schema_version None, expected {METRICS_SCHEMA_VERSION}"),
        (lambda raw: {"schema_version": METRICS_SCHEMA_VERSION, "records": 3}, "KeyError: 'scenario'"),
        # An older log's constants were resolved by other rules.
        (lambda raw: {**raw, "schema_version": 1}, f"ValueError: schema_version 1, expected {METRICS_SCHEMA_VERSION}"),
        # A record is a row of the record dtype: an unknown key or a missing column is named.
        (lambda raw: {**raw, "records": [{**raw["records"][0], "clock": 1.0}, *raw["records"][1:]]},
         "TypeError: IntervalRecord.__new__() got an unexpected keyword argument 'clock'"),
        (lambda raw: {**raw, "records": [{k: v for k, v in row.items() if k != "wall_clock"} for row in raw["records"]]},
         "TypeError: IntervalRecord.__new__() missing 1 required positional argument: 'wall_clock'"),
    ],
)
def test_report_verb_names_each_log_it_cannot_read(tmp_path, capsys, edit, reason):
    # The bad log keeps its report, and the other log is still re-analyzed.
    config_path = write_config(tmp_path, small_config(seeds=2, strategies=["fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    bad, good = sorted(out.glob("runs/*/runlog.json"))
    bad.write_text(json.dumps(edit(json.loads(bad.read_text()))), encoding="utf-8")
    reports = {p: p.read_bytes() for p in out.glob("runs/*/report.json")}
    (good.parent / "report.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{bad}: {reason}" in captured.err
    assert captured.out == f"re-analyzed {good.parent.name}\n"
    for p, blob in reports.items():
        assert p.read_bytes() == blob, p


def test_report_verb_names_a_log_nested_too_deeply(tmp_path, capsys):
    config_path = write_config(tmp_path, small_config(seeds=2, strategies=["fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    deep, good = sorted(out.glob("runs/*/runlog.json"))
    deep.write_bytes(b"[" * 100_000)
    report = (deep.parent / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{deep}: RecursionError: " in captured.err
    assert captured.out == f"re-analyzed {good.parent.name}\n"
    assert (deep.parent / "report.json").read_bytes() == report


def test_report_verb_names_a_report_it_cannot_write(tmp_path, capsys):
    # A failed write is named like a failed read, and the next log is still re-analyzed.
    config_path = write_config(tmp_path, small_config(seeds=2, strategies=["fedavg"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    bad, good = sorted(out.glob("runs/*/runlog.json"))
    (bad.parent / "report.json").unlink()
    (bad.parent / "report.json").mkdir()
    report = (good.parent / "report.json").read_bytes()
    (good.parent / "report.json").unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"{bad}: IsADirectoryError: " in captured.err
    assert captured.out == f"re-analyzed {good.parent.name}\n"
    assert (good.parent / "report.json").read_bytes() == report


def test_presets_verb_lists_builtins(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("case1", "case2", "case3", "homogeneous"):
        assert f"{name:<12} {PRESETS[name].__doc__.splitlines()[0]}\n" in out


def test_latency_verb_needs_no_strategies(tmp_path):
    # The comparison is analytic: it runs no strategy, so an empty config
    # writes the default sweep.
    config_path = write_config(tmp_path, {}, name="lat.json")
    assert main(["latency", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 0
    assert len((tmp_path / "o" / "latency.csv").read_text(encoding="utf-8").splitlines()) == 4


def test_latency_verb_writes_table(tmp_path, capsys):
    config = {"latency": {"deltas": [0.0, 1.25, 2.25], "rounds": 50}}
    config_path = write_config(tmp_path, config, name="lat.json")
    out = tmp_path / "lat"
    assert main(["latency", "--config", str(config_path), "--out", str(out)]) == 0
    lines = (out / "latency.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    ratios = [float(line.split(",")[-1]) for line in lines[1:]]
    assert ratios[0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "latency, message",
    [
        ({"delta": [0.0, 1.25]}, "config.latency: unknown keys ['delta']"),
        ({"rounds": "x"}, "config.latency.rounds: expected int, got 'x'"),
        ({"deltas": [9.0]}, "config.latency: delta=9 puts the slow tier at"),
        ({"deltas": [-1.0]}, "config.latency: delta=-1 must be non-negative"),
        ({"rounds": 0}, "config.latency: rounds=0 must be at least 1"),
        ({"deltas": 0.5}, "config.latency.deltas: expected list[float], got 0.5"),
        # null takes the default, so the error is the next key's.
        ({"required_iterations": None, "mean_tau": "x"}, "config.latency.mean_tau: expected float, got 'x'"),
        # A whole config: the comparison reads no run key, so each is an error.
        ({"scenario": "case3", "strategies": ["fedavg"], "constants": {"T": 5}, "seeds": [1, 1],
          "equality_theta": True, "latency": {"rounds": 5}},
         "config: unknown keys ['constants', 'equality_theta', 'scenario', 'seeds', 'strategies']"),
        ({"estimate_probes": 2, "latency": {"rounds": 5}}, "config: unknown keys ['estimate_probes']"),
        ({"emit": {"csv": True}, "latency": {}}, "config: unknown keys ['emit']"),
        ({"interval_length": 0.0}, "config.latency.interval_length: must be positive and finite, got 0.0"),
        ({"interval_length": -1.0}, "config.latency.interval_length: must be positive and finite, got -1.0"),
        ({"overhead": -1.0}, "config.latency.overhead: must be at least 0, got -1.0"),
        ({"required_iterations": 0}, "config.latency.required_iterations: must be positive, got 0.0"),
        ({"required_iterations": -2}, "config.latency.required_iterations: must be positive, got -2.0"),
        # A row times two equal tiers, so it reads no client count.
        ({"n_clients": 20}, "config.latency: unknown keys ['n_clients']"),
        # An empty sweep would write a header-only table.
        ({"deltas": []}, "config.latency.deltas: list must be non-empty"),
    ],
)
def test_latency_config_errors(tmp_path, capsys, latency, message):
    # A case holding a latency key is a whole config, any other its latency.
    config = latency if "latency" in latency else {"latency": latency}
    config_path = write_config(tmp_path, config, name="lat.json")
    out = tmp_path / "lat"
    assert main(["latency", "--config", str(config_path), "--out", str(out)]) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_latency_table_shape():
    rows = latency_table([0.0, 1.25, 2.25], rounds=10)
    sfl_times = [r["sfl_seconds"] for r in rows]
    tsfl_times = [r["tsfl_seconds"] for r in rows]
    assert sfl_times[0] < sfl_times[1] < sfl_times[2]
    assert len(set(tsfl_times)) == 1
    assert rows[0]["ratio"] == pytest.approx(1.0)


def test_inline_scenario_config(tmp_path):
    config = {
        "scenario": {
            "name": "two-speed",
            "n_clients": 4,
            "processes": [{"kind": "fixed", "tau": 1}, {"kind": "gaussian-floor", "mean": 3, "std": 0.5}],
            "data_sizes": 64,
            "batch_size": 8,
        },
        "task": {"kind": "quadratic", "dimension": 2},
        "strategies": ["tsfl-dms"],
        "seeds": 1,
        "constants": {"eta": 0.05, "T": 3, "H": 4},
    }
    config_path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    raw = json.loads((out / "runs" / "two-speed__tsfl-dms__s000" / "runlog.json").read_text())
    assert raw["scenario"]["n_clients"] == 4
    # Two process specs tile over four clients in contiguous halves.
    assert raw["scenario"]["mean_tau"] == [1.0, 1.0, 3.0, 3.0]


def test_plotdata_emission(tmp_path):
    config_path = write_config(
        tmp_path, small_config(seeds=2, strategies=["fedavg"], emit={"csv": True, "json": True, "plotdata": True})
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    plot = out / "plotdata" / "case1__fedavg__loss.csv"
    lines = plot.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,mean_loss,min_loss,max_loss"
    assert len(lines) == 1 + 4 + 1


def test_plotdata_without_csv_matches_plotdata_with_csv(tmp_path):
    trees = []
    for emit_csv in (True, False):
        config = small_config(strategies=["fedavg", "tsfl-dms"], emit={"csv": emit_csv, "plotdata": True})
        out = tmp_path / f"csv-{emit_csv}"
        assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        assert (out / "runs" / "case1__fedavg__s000" / "metrics.csv").exists() == emit_csv
        trees.append(tree_bytes(out / "plotdata"))
    assert len(trees[0]) == 2 and trees[0] == trees[1]


def test_validate_run_config_catches_bad_constants():
    with pytest.raises(ConfigError, match="constants"):
        validate_run_config(small_config(constants={"bogus": 1.0}))
    with pytest.raises(ConfigError, match="task"):
        validate_run_config(small_config(task={"kind": "quadratic", "oops": 1}))
    with pytest.raises(ConfigError, match="seeds"):
        validate_run_config(small_config(seeds=0))


INLINE = {"n_clients": 4, "processes": [{"kind": "fixed", "tau": 1}], "data_sizes": 64, "batch_size": 8}


@pytest.mark.parametrize(
    "overrides, location",
    [
        ({"runner": {"bufer_size": 2}}, "config.runner: unknown keys ['bufer_size']"),
        ({"runner": {"buffer_size": "x"}}, "config.runner.buffer_size:"),
        ({"runner": [1]}, "config.runner: must be an object"),
        ({"scenario_options": {"n_client": 4}}, "config.scenario_options: unknown keys ['n_client']"),
        ({"scenario_options": {"n_clients": "x"}}, "config.scenario_options.n_clients:"),
        ({"scenario_options": [1]}, "config.scenario_options: must be an object"),
        ({"scenario_options": {"data_size": "x"}}, "config.scenario_options.data_size:"),
        ({"estimate_probes": "x"}, "config.estimate_probes:"),
        ({"master_seed": "x"}, "config.master_seed:"),
        ({"seeds": [1, "x"]}, "config.seeds[1]:"),
        ({"min_upload_iterations": "x"}, "config.min_upload_iterations:"),
        ({"scenario": {**INLINE, "n_clients": "x"}}, "config.scenario.n_clients:"),
        ({"scenario": {**INLINE, "batch_size": "x"}}, "config.scenario.batch_size:"),
        ({"scenario": {**INLINE, "required_iterations": "x"}}, "config.scenario: unknown keys ['required_iterations']"),
        ({"scenario": {**INLINE, "data_sizes": [64, "x"]}}, "config.scenario.data_sizes[1]:"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": "x"}]}},
         "config.scenario.processes[0].tau:"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed"}]}},
         "config.scenario.processes[0]: missing key 'tau'"),
        ({"scenario": {**INLINE, "processes": []}}, "config.scenario.processes: must be a non-empty list"),
        ({"full_batch": "false"}, "config.full_batch: expected bool, got 'false'"),
        ({"scenario": {**INLINE, "full_batch": False}}, "config.scenario: unknown keys ['full_batch']"),
        ({"equality_theta": "false"}, "config: unknown keys ['equality_theta']"),
        ({"emit": {"csv": "false"}}, "config.emit.csv: expected bool, got 'false'"),
        ({"emit": {"plotdata": 1}}, "config.emit.plotdata: expected bool, got 1"),
        ({"scenario": {**INLINE, "batch_size": 31.9}}, "config.scenario.batch_size: expected int, got 31.9"),
        ({"scenario": {**INLINE, "batch_size": True}}, "config.scenario.batch_size: expected int, got True"),
        ({"scenario": {**INLINE, "interval_length": float("nan")}},
         "config.scenario.interval_length: expected float, got nan"),
        ({"scenario": {**INLINE, "overhead": float("inf")}}, "config.scenario.overhead: expected float, got inf"),
        ({"scenario": {**INLINE, "data_sizes": float("inf")}}, "config.scenario.data_sizes: expected int, got inf"),
        ({"scenario_options": {"n_clients": 4.5}}, "config.scenario_options.n_clients: expected int, got 4.5"),
        ({"estimate_probes": False}, "config.estimate_probes: expected int, got False"),
        ({"seeds": True}, "config.seeds: expected int, got True"),
        ({"strategies": [["fedavg"]]}, "config.strategies[0]: expected one of ["),
        ({"out_dir": 5}, "config.out_dir: expected str, got 5"),
        ({"runner": {"variant": 1}}, "config.runner.variant: expected one of ['footnote-mean', 'arrival-blend']"),
        ({"runner": {"local_iterations": 0}}, "config.runner.local_iterations: must be at least 1, got 0"),
        ({"runner": {"required_iterations": -1}}, "config.runner.required_iterations: must be at least 1"),
        ({"runner": {"buffer_size": 0}}, "config.runner.buffer_size: must be at least 1, got 0"),
        ({"runner": {"buffer_size": 5}}, "config.runner.buffer_size: more than the 4 clients of scenario 'case1'"),
        ({"scenario": {**INLINE, "batchsize": 8}}, "config.scenario: unknown keys ['batchsize']"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": 1, "mean": 2}]}},
         "config.scenario.processes[0]: unknown keys ['mean']"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixd", "tau": 1}]}},
         "config.scenario.processes[0].kind: expected one of ['fixed', 'gaussian-floor'], got 'fixd'"),
        ({"scenario": {**INLINE, "name": 5}}, "config.scenario.name: expected str, got 5"),
        ({"scenario": {**INLINE, "data_sizes": [64, 64, 64]}}, "config.scenario.data_sizes: 3 sizes for n_clients=4"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": 1}] * 5}},
         "config.scenario.n_clients: must be at least 5, got 4"),
        ({"scenario": "case9"}, "config.scenario: expected one of ['case1', 'case2', 'case3', 'homogeneous']"),
        ({"constant": {"T": 2}}, "config: unknown keys ['constant']"),
        ({"min_upload_iterations": -1}, "config.min_upload_iterations: must be at least 0, got -1"),
        ({"constants": {"N": 4}}, "config.constants: unknown keys ['N']"),
        ({"task": {"kind": "mlp"}}, "config.task: kind must be 'quadratic' or 'logistic', got 'mlp'"),
        ({"task": {"dimension": "0"}}, "config.task: dimension=0 must be at least 1 for a quadratic task"),
        ({"task": {"kind": "logistic", "dimension": 1}}, "config.task: dimension=1 must be at least 2"),
        ({"task": {"sample_noise": -1}}, "config.task: noniid_spread and sample_noise must be non-negative"),
        ({"task": {"curvature_range": [1.0, 0.5]}}, "config.task: curvature_range=(1.0, 0.5) must satisfy"),
        ({"task": {"curvature_range": [0.5]}}, "config.task.curvature_range: expected tuple[float, float]"),
        ({"task": {"curvature_range": [0.5, "x"]}}, "config.task.curvature_range[1]: expected float, got 'x'"),
        ({"task": {"l2_reg": 0}}, "config.task: l2_reg must be positive"),
        ({"task": {"shared_curvature": 1}}, "config.task.shared_curvature: expected bool, got 1"),
        ({"estimate_probes": -1}, "config.estimate_probes: must be at least 0, got -1"),
        ({"scenario": {**INLINE, "batch_size": 0}}, "config.scenario.batch_size: must be at least 1, got 0"),
        ({"scenario": {**INLINE, "data_sizes": 0}}, "config.scenario.data_sizes[0]: must be at least 1, got 0"),
        ({"scenario": {**INLINE, "data_sizes": [64, 64, 0, 64]}},
         "config.scenario.data_sizes[2]: must be at least 1, got 0"),
        ({"scenario": {**INLINE, "interval_length": 0}},
         "config.scenario.interval_length: must be positive and finite, got 0.0"),
        ({"scenario": {**INLINE, "overhead": -1}}, "config.scenario.overhead: must be at least 0, got -1.0"),
        ({"strategies": ["sfl"], "runner": {"required_iterations": 0}},
         "config.runner.required_iterations: must be at least 1, got 0"),
        ({"scenario": {**INLINE, "min_upload_iterations": 0}},
         "config.scenario: unknown keys ['min_upload_iterations']"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": -1}]}},
         "config.scenario.processes[0].tau: must be at least 0, got -1"),
        ({"scenario": {**INLINE, "processes": [{"kind": "gaussian-floor", "mean": 2, "std": -1}]}},
         "config.scenario.processes[0].std: must be at least 0, got -1.0"),
        ({"scenario_options": {"batch_size": 0}}, "config.scenario_options.batch_size: must be at least 1, got 0"),
        ({"scenario_options": {"data_size": 0}}, "config.scenario_options.data_size: must be at least 1, got 0"),
        ({"scenario_options": {"n_clients": 0}}, "config.scenario_options.n_clients: must be at least 2, got 0"),
        ({"scenario": "homogeneous", "scenario_options": {"tau": -1}},
         "config.scenario_options.tau: must be at least 0, got -1"),
        ({"seeds": [3, -1]}, "config.seeds[1]: must be at least 0, got -1"),
        ({"scenario": []}, "config.scenario: list must be non-empty"),
        ({"scenario": "case3", "scenario_options": {"data_size": 64, "tau": 9}},
         "config.scenario_options.data_size: no configured scenario takes it"),
        ({"strategy": "fedavg"}, "config: unknown keys ['strategy']"),
        # A key that no configured preset or strategy reads, or a master seed
        # beside listed seeds, would be dropped unread.
        ({"scenario": INLINE}, "config.scenario_options.batch_size: no configured scenario takes it"),
        ({"strategies": ["fedavg"], "runner": {"buffer_size": 3}},
         "config.runner.buffer_size: no configured strategy takes it"),
        ({"runner": {"variant": "arrival-blend"}}, "config.runner.variant: no configured strategy takes it"),
        ({"seeds": [3, 4]}, "config.master_seed (or --seed): unread, as config.seeds lists every seed"),
        ({"seeds": [3, 4, 3]}, "config.seeds[2]: repeats seed 3"),
        # Two scenarios of one name would write the same cell directories.
        ({"scenario": [INLINE, {**INLINE, "n_clients": 6}], "scenario_options": {}},
         "config.scenario[1]: repeats scenario name 'custom'"),
        ({"scenario": ["case1", "case1"]}, "config.scenario[1]: repeats scenario name 'case1'"),
        # A logistic task probes L from pairs of probe points.
        ({"task": {"kind": "logistic"}, "estimate_probes": 1},
         "config.estimate_probes: a logistic task probes L from pairs of points, so it takes 0 or at least 2, got 1"),
        # A strategy listed twice would run its cells twice, into the same directories.
        ({"strategies": ["fedavg", "fedavg"]}, "config.strategies[1]: repeats strategy 'fedavg'"),
        ({"seeds": []}, "config.seeds: list must be non-empty"),
        # A task field that the task's kind never reads would be dropped unread.
        ({"task": {"kind": "quadratic", "l2_reg": 7.0, "separation": 9.0}},
         "config.task.l2_reg: a quadratic task does not read it"),
        ({"task": {"separation": 9.0}}, "config.task.separation: a quadratic task does not read it"),
        ({"task": {"kind": "logistic", "curvature_range": [0.5, 1.0]}},
         "config.task.curvature_range: a logistic task does not read it"),
        ({"task": {"kind": "logistic", "shared_curvature": True}},
         "config.task.shared_curvature: a logistic task does not read it"),
        # Probes replace L, G and sigma_global, so a configured one would go unread.
        ({"constants": {"eta": 0.05, "T": 4, "H": 4, "L": 123.0, "G": 5.0, "sigma_global": 2.0}},
         "config.constants.L: estimate_probes=2 replaces it with a probed value, so it is read only with "
         "estimate_probes 0"),
        ({"constants": {"eta": 0.05, "T": 4, "H": 4, "G": 5.0}}, "config.constants.G: estimate_probes=2 replaces it"),
        ({"constants": {"sigma_global": 2.0}, "estimate_probes": 3},
         "config.constants.sigma_global: estimate_probes=3 replaces it"),
    ],
)
def test_unread_or_malformed_options_are_config_errors(tmp_path, capsys, overrides, location):
    config = small_config(**{"strategies": ["semiasync", "fedavg"], **overrides})
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert not out.exists()
    assert location in capsys.readouterr().err


def test_root_settings_reach_every_scenario(tmp_path):
    # full_batch and min_upload_iterations come only from the config root and
    # reach a preset and an inline scenario alike.
    inline = {**INLINE, "name": "two-tier", "processes": [{"kind": "fixed", "tau": 1}, {"kind": "fixed", "tau": 3}]}
    config = small_config(scenario=["case1", inline], strategies=["fedavg"], seeds=1,
                          full_batch=True, min_upload_iterations=2)
    assert [(s.full_batch, s.min_upload_iterations) for s in build_scenarios(config)] == [(True, 2)] * 2
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    raw = json.loads((out / "runs" / "two-tier__fedavg__s000" / "runlog.json").read_text())
    assert raw["scenario"]["full_batch"] is True and raw["scenario"]["min_upload_iterations"] == 2
    assert {tuple(record["beta"]) for record in raw["records"]} == {(0, 0, 1, 1)}


def test_options_apply_where_accepted(tmp_path):
    # tau is a homogeneous-only option and buffer_size a semiasync-only one;
    # each reaches the runs that accept it and is ignored by the rest.
    config = small_config(
        scenario=["case1", "homogeneous"],
        scenario_options={"n_clients": 4, "data_size": 64, "batch_size": 8, "tau": 2},
        strategies=["semiasync", "fedavg"],
        runner={"buffer_size": "3"},
        seeds=1,
    )
    groups, _ = validate_run_config(config)
    kwargs = {strategy: runner for _, cells in groups for _, strategy, _, _, runner in cells}
    assert kwargs["semiasync"]["buffer_size"] == 3
    assert "buffer_size" not in kwargs["fedavg"]
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    raw = json.loads((out / "runs" / "homogeneous__fedavg__s000" / "runlog.json").read_text())
    assert raw["scenario"]["mean_tau"] == [2.0] * 4


def test_missing_config_file_is_config_error_without_outputs(tmp_path, capsys):
    path, out = tmp_path / "absent.json", tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {path}: No such file or directory\n"


def test_zero_probes_keep_a_configured_L_G_and_sigma(tmp_path):
    # Positive probes make these keys a config error, which names this way out.
    constants = {"eta": 0.05, "T": 4, "H": 4, "L": 3.0, "G": 5.0, "sigma_global": 2.0}
    config = small_config(seeds=1, strategies=["fedavg"], estimate_probes=0, constants=constants)
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    runlog = json.loads((out / "runs" / "case1__fedavg__s000" / "runlog.json").read_text(encoding="utf-8"))
    c, source = runlog["constants"], runlog["constants_source"]
    assert (c["L"], c["G"], c["sigma_global"]) == (3.0, 5.0, 2.0)
    assert (source["L"], source["G"], source["sigma"]) == ("configured",) * 3


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_committed_configs_pass_their_command(tmp_path, path):
    config = load_config(path)
    if "latency" in config:
        assert compare_latency(config, tmp_path / "out") == 0
    else:
        validate_run_config(config)


def test_demo_reports_read_the_constants_their_runs_resolved(tmp_path):
    # configs/demo.json gives no theta, so each run puts it at the equality
    # point of its probed L, and the bound's preconditions hold.
    out = tmp_path / "demo"
    assert main(["run", "--config", str(CONFIGS / "demo.json"), "--out", str(out)]) == 0
    cells = sorted(out.glob("runs/*"))
    assert len(cells) == 9
    for cell in cells:
        runlog = json.loads((cell / "runlog.json").read_text(encoding="utf-8"))
        report = json.loads((cell / "report.json").read_text(encoding="utf-8"))
        c = report["constants"]
        assert report["bound"]["preconditions_met"] is True, cell.name
        assert c["theta"] == default_weight_limit(c["eta"], c["L"]), cell.name
        assert report["convergence"]["step_size_limit"] == 2 * c["epsilon"] / (c["V"] ** 2 * c["L"]), cell.name
        assert (c, report["constants_source"]) == (runlog["constants"], runlog["constants_source"]), cell.name
        assert report["constants_source"]["V"] == report["constants_source"]["epsilon"] == "probed", cell.name
        assert "dissimilarity_source" not in report and "w0" not in runlog["analysis_inputs"], cell.name
        assert dataclasses.asdict(verify_convergence(log_from_dict(runlog))) == report["convergence"], cell.name


def test_every_report_whose_preconditions_fail_names_a_reason(tmp_path):
    # case1 clients take 1 or 4 steps an interval: past H=2 under either runner.
    config = small_config(seeds=1, strategies=["fedavg", "fedasync"], constants={"eta": 0.05, "T": 4, "H": 2})
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    reports = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(out.glob("runs/*/report.json"))]
    assert len(reports) == 2
    for report in reports:
        assert not report["bound"]["preconditions_met"]
        assert report["precondition_warnings"] == ["observed iteration count 4 > H=2"], report["run"]


def test_run_keeps_an_explicit_theta_and_puts_an_omitted_one_at_the_run_equality_point(tmp_path):
    constants = {}
    for name, theta in (("omitted", {}), ("null", {"theta": None}), ("explicit", {"theta": 3.0})):
        config = small_config(seeds=1, strategies=["fedavg"], constants={"eta": 0.05, "T": 4, "H": 4, **theta})
        out = tmp_path / name
        assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
        runlog = json.loads((out / "runs" / "case1__fedavg__s000" / "runlog.json").read_text(encoding="utf-8"))
        constants[name] = runlog["constants"]
    L = constants["explicit"]["L"]
    assert L != 1.0 and constants["explicit"]["theta"] == 3.0
    assert constants["omitted"] == constants["null"] == {**constants["explicit"], "theta": default_weight_limit(0.05, L)}


@pytest.mark.parametrize("probes, source", [(0, "configured"), (2, "probed")])
def test_dissimilarity_constants_name_their_source(tmp_path, probes, source):
    config = small_config(seeds=1, strategies=["fedavg"], estimate_probes=probes,
                          constants={"eta": 0.05, "T": 4, "H": 4, "V": 2.0, "epsilon": 0.5})
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    runlog = json.loads((out / "runs" / "case1__fedavg__s000" / "runlog.json").read_text(encoding="utf-8"))
    c, inputs = runlog["constants"], runlog["analysis_inputs"]
    assert runlog["constants_source"]["V"] == runlog["constants_source"]["epsilon"] == source
    if probes:
        assert (c["V"], c["epsilon"]) == (max(inputs["v_hat"], 1.0), inputs["epsilon_hat"])
    else:
        assert (c["V"], c["epsilon"]) == (2.0, 0.5) and inputs["v_hat"] is None


def _leaves(value, path=()):
    if isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(item, (*path, key))
    else:
        yield path


def test_every_demo_leaf_mutation_is_a_config_error_or_runs(tmp_path):
    # Each leaf of configs/demo.json set to each value below either fails
    # validation naming the leaf (or its section and key) or runs every cell.
    base = load_config(CONFIGS / "demo.json")
    base["constants"]["T"] = 3
    base["seeds"] = 1
    values = ["x", True, 2.5, math.nan, math.inf, -math.inf, 0, 1, -1, [1], None]
    paths = list(_leaves(base))
    assert len(paths) == 17
    accepted = {}
    for path in paths:
        section = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path[:-1])
        leaf = f"{section}[{path[-1]}]" if isinstance(path[-1], int) else f"{section}.{path[-1]}"
        for value in values:
            config = copy.deepcopy(base)
            owner = config
            for key in path[:-1]:
                owner = owner[key]
            original, owner[path[-1]] = owner[path[-1]], value
            numeric = isinstance(original, (int, float)) and not isinstance(original, bool)
            must_fail = numeric and (
                isinstance(value, bool)
                or (isinstance(value, float) and not math.isfinite(value))
                or (isinstance(original, int) and value == 2.5)
            )
            try:
                validate_run_config(copy.deepcopy(config))
            except ConfigError as exc:
                message = str(exc)
                assert leaf in message or (section in message and str(path[-1]) in message), (leaf, value, message)
                continue
            assert not must_fail, (leaf, value)
            accepted.setdefault(json.dumps(config, sort_keys=True), config)
    # Each distinct accepted config runs once.
    for k, config in enumerate(accepted.values()):
        out = tmp_path / f"run{k}"
        assert run_experiment(config, out) == 0, config
        cells = json.loads((out / "summary.json").read_text())["cells"]
        assert {cell["status"] for cell in cells} == {"ok"}, config


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_a_run_does_not_read_the_host_thread_count(tmp_path):
    # At dimension 128, w_star's solve rounds differently on two BLAS threads
    # than on one, so a run that took the host's core count would write
    # another runlog.json on a host with two or more cores.
    config = {
        "scenario": {"name": "wide", "n_clients": 4, "processes": [{"kind": "fixed", "tau": 1}] * 4,
                     "data_sizes": [128] * 4, "batch_size": 16},
        "task": {"kind": "quadratic", "dimension": 128},
        "strategies": ["fedavg"], "seeds": [1], "constants": {"T": 2}, "estimate_probes": 0,
    }
    config_path = write_config(tmp_path, config)
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(tsfl.__file__).parents[1]), env.get("PYTHONPATH")]))
    trees = []
    for pinned in ({}, dict.fromkeys(_THREAD_VARS, "1")):
        out = tmp_path / f"out{len(trees)}"
        subprocess.run([sys.executable, "-m", "tsfl.cli", "run", "--config", str(config_path), "--out", str(out)],
                       env={**env, **pinned}, check=True, capture_output=True)
        trees.append(tree_bytes(out))
    assert trees[0] == trees[1]
