import csv
import json
from pathlib import Path

import numpy as np
import pytest

from tsfl.cli import (
    ConfigError,
    _run_kwargs,
    _write_json,
    build_report,
    cell_seed,
    latency_table,
    load_config,
    log_from_dict,
    log_to_dict,
    main,
    metrics_header,
    validate_run_config,
)
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
        ({"seeds": True}, "config.seeds: must be a positive count or a list of seeds"),
    ],
)
def test_unread_or_malformed_options_are_config_errors(tmp_path, capsys, overrides, location):
    config = small_config(strategies=["semiasync", "fedavg"], **overrides)
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
