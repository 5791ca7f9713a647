import copy
import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsfl.cli import (
    ConfigError,
    _run_kwargs,
    _write_json,
    build_report,
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
from tsfl.core import RunLog, SystemConstants, interval_records
from tsfl.scheduler import ALL_STRATEGIES


def small_config(**overrides):
    config = {
        "scenario": "case1",
        "scenario_options": {"n_clients": 4, "data_size": 64, "batch_size": 8},
        "task": {"kind": "quadratic", "dimension": 2, "noniid_spread": 0.3},
        "strategies": ["tsfl-dms", "fedavg"],
        "seeds": 3,
        "master_seed": 7,
        "constants": {"eta": 0.05, "T": 4, "N": 4, "H": 4},
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


def test_failing_cell_does_not_stop_matrix(tmp_path):
    # tsfl-theorem2 without probes cannot resolve noise bounds and must fail,
    # while the fedavg cells still complete.
    config = small_config(strategies=["tsfl-theorem2", "fedavg"], estimate_probes=0, seeds=2)
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


def test_explicit_seed_list(tmp_path):
    config_path = write_config(
        tmp_path, small_config(seeds=[11, 22], strategies=["fedavg"])
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    logs = sorted((out / "runs").glob("*/runlog.json"))
    seeds = [json.loads(p.read_text(encoding="utf-8"))["seed"] for p in logs]
    assert seeds == [11, 22]


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


def test_presets_verb_lists_builtins(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("case1", "case2", "case3", "homogeneous"):
        assert name in out


def test_latency_verb_requires_both_schedulers(tmp_path):
    config_path = write_config(tmp_path, {"strategies": ["fedavg"]}, name="lat.json")
    assert main(["latency", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


def test_latency_verb_writes_table(tmp_path, capsys):
    config = {
        "strategies": ["sfl", "tsfl-dms"],
        "latency": {"deltas": [0.0, 1.25, 2.25], "rounds": 50},
    }
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
        ({"required_iterations": None, "n_clients": "x"}, "config.latency.n_clients: expected int, got 'x'"),
    ],
)
def test_latency_config_errors(tmp_path, capsys, latency, message):
    config = {"strategies": ["sfl", "tsfl-dms"], "latency": latency}
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
        "constants": {"eta": 0.05, "T": 3, "N": 4, "H": 4},
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
        ({"scenario": {**INLINE, "required_iterations": "x"}}, "config.scenario.required_iterations:"),
        ({"scenario": {**INLINE, "data_sizes": [64, "x"]}}, "config.scenario.data_sizes[1]:"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": "x"}]}},
         "config.scenario.processes[0].tau:"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed"}]}},
         "config.scenario.processes[0]: missing key 'tau'"),
        ({"scenario": {**INLINE, "processes": []}}, "config.scenario.processes: must be a non-empty list"),
        ({"full_batch": "false"}, "config.full_batch: expected bool, got 'false'"),
        ({"scenario": {**INLINE, "full_batch": "false"}}, "config.scenario.full_batch: expected bool"),
        ({"equality_theta": "false"}, "config.equality_theta: expected bool, got 'false'"),
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
         "config.scenario.processes: 5 specs for n_clients=4"),
        ({"scenario": "case9"}, "config.scenario: expected one of ['case1', 'case2', 'case3', 'homogeneous']"),
        ({"constant": {"T": 2}}, "config: unknown keys ['constant']"),
        ({"min_upload_iterations": -1}, "config.min_upload_iterations: min_iterations must be non-negative"),
        ({"constants": {"N": 3.5}}, "config.constants.N: expected int, got 3.5"),
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
        ({"scenario": {**INLINE, "required_iterations": 0}},
         "config.scenario.required_iterations: must be at least 1, got 0"),
        ({"scenario": {**INLINE, "min_upload_iterations": -1}},
         "config.scenario.min_upload_iterations: must be at least 0, got -1"),
        ({"scenario": {**INLINE, "processes": [{"kind": "fixed", "tau": -1}]}},
         "config.scenario.processes[0].tau: must be at least 0, got -1"),
        ({"scenario": {**INLINE, "processes": [{"kind": "gaussian-floor", "mean": 2, "std": -1}]}},
         "config.scenario.processes[0].std: must be at least 0, got -1.0"),
        ({"scenario_options": {"batch_size": 0}}, "config.scenario_options.batch_size: must be at least 1, got 0"),
        ({"scenario_options": {"data_size": 0}}, "config.scenario_options.data_size: must be at least 1, got 0"),
        ({"scenario_options": {"n_clients": 0}}, "config.scenario_options.n_clients: must be at least 1, got 0"),
        ({"scenario": "homogeneous", "scenario_options": {"tau": -1}},
         "config.scenario_options.tau: must be at least 0, got -1"),
        ({"seeds": [3, -1]}, "config.seeds[1]: must be at least 0, got -1"),
        ({"scenario": []}, "config.scenario: list must be non-empty"),
    ],
)
def test_unread_or_malformed_options_are_config_errors(tmp_path, capsys, overrides, location):
    config = small_config(**{"strategies": ["semiasync", "fedavg"], **overrides})
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
    assert not out.exists()
    assert location in capsys.readouterr().err


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
    assert _run_kwargs(config, "semiasync")["buffer_size"] == 3
    assert "buffer_size" not in _run_kwargs(config, "fedavg")
    out = tmp_path / "out"
    assert main(["run", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 0
    raw = json.loads((out / "runs" / "homogeneous__fedavg__s000" / "runlog.json").read_text())
    assert raw["scenario"]["mean_tau"] == [2.0] * 4


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
    values = ["x", True, 2.5, math.nan, math.inf, -math.inf, 0, -1, [1], None]
    paths = list(_leaves(base))
    assert len(paths) == 18
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
