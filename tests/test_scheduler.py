import dataclasses
import functools
import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsfl.aggregation import (
    bound_optimal_weights,
    dms_weights,
    fedavg_weights,
    iteration_spaced_weights,
    uniform_weights,
)
from tsfl import scheduler
from tsfl.cli import log_to_dict
from tsfl.core import SystemConstants
from tsfl.scenarios import FixedIterations, GaussianFloorIterations, Scenario, TaskSpec, preset, round_seconds
from tsfl.scheduler import (
    ALL_STRATEGIES,
    INTERVAL_STRATEGIES,
    _arrivals,
    RunSetup,
    _Run,
    participation_frequency,
    run_afl,
    run_semi_async,
    run_sfl,
    run_strategy,
    run_tsfl,
)
from tsfl.training import stochastic_gradient, train_clients


def quadratic_task_spec(dimension=3, spread=0.0, noise=0.5):
    return TaskSpec(kind="quadratic", dimension=dimension, noniid_spread=spread, sample_noise=noise)


def scenario_with(processes, *, data_size=64, batch_size=8, name="custom", **kwargs):
    return Scenario(
        name=name,
        processes=processes,
        data_sizes=[data_size] * len(processes),
        batch_size=batch_size,
        task=kwargs.pop("task", quadratic_task_spec()),
        **kwargs,
    )


def trajectories_equal(log_a, log_b, atol=0.0):
    assert log_a.intervals == log_b.intervals
    models_a, models_b = log_a.records.model, log_b.records.model
    if atol == 0.0:
        assert np.array_equal(models_a, models_b)
    else:
        assert np.max(np.abs(models_a - models_b)) <= atol


def test_single_client_uniform_matches_plain_sgd():
    scenario = scenario_with([FixedIterations(1)], task=quadratic_task_spec(dimension=2))
    constants = SystemConstants(eta=0.1, L=1.0, N=1, H=1, T=12, sigma_global=1.0)
    seed = 5
    log = run_tsfl(scenario, "tsfl-uniform", constants, seed)

    # Oracle: replay the documented stream layout and run bare SGD.
    root = np.random.SeedSequence(seed)
    scenario_ss, _server, _tau, batch_parent = root.spawn(4)
    scenario_rng = np.random.default_rng(scenario_ss)
    task = scenario.materialize(scenario_rng)
    w = scenario_rng.normal(size=task.dimension)
    batch_rng = np.random.default_rng(batch_parent.spawn(1)[0])
    for record in log.records:
        g = stochastic_gradient(task, 0, w, scenario.batch_size, batch_rng).stochastic
        w = w - constants.eta * g
        assert np.array_equal(record.model, w)
    assert np.array_equal(log.final_model, w)


def test_homogeneous_tsfl_fedavg_equals_sfl():
    scenario = dataclasses.replace(
        preset("homogeneous", n_clients=6, tau=4, data_size=64),
        task=quadratic_task_spec(spread=0.4),
        batch_size=8,
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=8, sigma_global=1.0)
    log_t = run_tsfl(scenario, "fedavg", constants, seed=7)
    log_s = run_sfl(scenario, constants, seed=7, required_iterations=4)
    trajectories_equal(log_t, log_s, atol=1e-12)
    assert np.max(np.abs(log_t.final_model - log_s.final_model)) <= 1e-12


def test_semi_async_full_buffer_homogeneous_equals_sfl():
    scenario = dataclasses.replace(
        preset("homogeneous", n_clients=6, tau=4, data_size=64),
        task=quadratic_task_spec(spread=0.4),
        batch_size=8,
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=8, sigma_global=1.0)
    log_b = run_semi_async(scenario, 6, constants, seed=7, local_iterations=4)
    log_s = run_sfl(scenario, constants, seed=7, required_iterations=4)
    trajectories_equal(log_b, log_s, atol=1e-12)


def test_dms_replay_is_bit_identical():
    scenario = dataclasses.replace(preset("case1", n_clients=8, data_size=64), batch_size=8,
                                   task=quadratic_task_spec(spread=0.5))
    constants = SystemConstants(eta=0.05, L=1.0, N=8, H=4, T=10, sigma_global=1.0)
    log_a = run_tsfl(scenario, "tsfl-dms", constants, seed=42)
    log_b = run_tsfl(scenario, "tsfl-dms", constants, seed=42)
    trajectories_equal(log_a, log_b)
    assert np.array_equal(log_a.tau_matrix(), log_b.tau_matrix())
    assert np.array_equal(log_a.beta_matrix(), log_b.beta_matrix())
    assert np.array_equal(log_a.rho_matrix(), log_b.rho_matrix())


def test_different_seeds_differ():
    scenario = dataclasses.replace(preset("case1", n_clients=8, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.05, L=1.0, N=8, H=4, T=6, sigma_global=1.0)
    log_a = run_tsfl(scenario, "tsfl-dms", constants, seed=1)
    log_b = run_tsfl(scenario, "tsfl-dms", constants, seed=2)
    assert not np.array_equal(log_a.final_model, log_b.final_model)


def test_tsfl_wall_clock_is_exactly_interval_paced():
    scenario = dataclasses.replace(preset("case2", n_clients=8, data_size=64),
                                   batch_size=8, interval_length=2.5)
    constants = SystemConstants(eta=0.01, L=1.0, N=8, H=4, T=7, sigma_global=1.0)
    log = run_tsfl(scenario, "tsfl-uniform", constants, seed=0)
    assert np.array_equal(log.records.wall_clock, 2.5 * np.arange(1, 8))


def test_sfl_round_time_is_straggler_dominated():
    # case1 pacing: slow clients take a full interval per iteration.
    scenario = dataclasses.replace(preset("case1", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.01, L=1.0, N=4, H=4, T=3, sigma_global=1.0)
    log = run_sfl(scenario, constants, seed=0, required_iterations=4)
    assert log.records.wall_clock.tolist() == [4.0, 8.0, 12.0]

    homogeneous = dataclasses.replace(preset("homogeneous", n_clients=4, tau=4, data_size=64), batch_size=8)
    log_h = run_sfl(homogeneous, constants, seed=0, required_iterations=4)
    assert log_h.records.wall_clock.tolist() == [1.0, 2.0, 3.0]


def test_straggler_latency_ratio_bound():
    # Speed ratio r = 4; required iterations equal the fast tier's count.
    scenario = dataclasses.replace(preset("case1", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.01, L=1.0, N=4, H=4, T=5, sigma_global=1.0)
    sfl_total = run_sfl(scenario, constants, seed=0, required_iterations=4).records[-1].wall_clock
    tsfl_total = run_tsfl(scenario, "tsfl-uniform", constants, seed=0).records[-1].wall_clock
    assert sfl_total >= 4.0 * tsfl_total


def test_an_idle_client_fails_sfl_and_never_uploads():
    # Client 1 never iterates: no synchronous round ends, so sfl names it,
    # while the event runners never see it arrive and the time-driven
    # selection never takes its upload.
    scenario = scenario_with([FixedIterations(2), FixedIterations(0), FixedIterations(3)], min_upload_iterations=1)
    constants = SystemConstants(eta=0.02, L=1.0, N=3, H=3, T=6, sigma_global=1.0)
    with pytest.raises(ValueError, match=r"^clients \[1\] never iterate, so no synchronous round ends$"):
        run_sfl(scenario, constants, seed=0)
    for strategy in ("fedasync", "semiasync", "tsfl-dms"):
        log = run_strategy(scenario, strategy, constants, seed=0)
        assert log.records.tau.sum(axis=0)[[0, 2]].min() > 0
        assert not log.records.tau[:, 1].any() and not log.records.beta[:, 1].any()
        assert log.records.wall_clock[-1] == 6.0 and np.isfinite(log.final_loss)


def test_afl_single_client_is_damped_sequential_sgd():
    scenario = scenario_with([FixedIterations(2)], task=quadratic_task_spec(dimension=2))
    constants = SystemConstants(eta=0.1, L=1.0, N=1, H=2, T=6, gamma=0.5, sigma_global=1.0)
    log = run_afl(scenario, constants, seed=9, local_iterations=2)

    root = np.random.SeedSequence(9)
    scenario_ss, _server, _tau, batch_parent = root.spawn(4)
    scenario_rng = np.random.default_rng(scenario_ss)
    task = scenario.materialize(scenario_rng)
    w_global = scenario_rng.normal(size=task.dimension)
    batch_rng = np.random.default_rng(batch_parent.spawn(1)[0])
    basis = w_global.copy()
    for record in log.records:
        w_local = basis.copy()
        for _ in range(2):
            g = stochastic_gradient(task, 0, w_local, scenario.batch_size, batch_rng).stochastic
            w_local = w_local - constants.eta * g
        w_global = 0.5 * w_global + 0.5 * w_local
        basis = w_global.copy()
        assert np.allclose(record.model, w_global, atol=1e-15)


def test_afl_fast_client_arrives_proportionally_more_often():
    scenario = scenario_with(
        [FixedIterations(4), FixedIterations(1)], task=quadratic_task_spec()
    )
    constants = SystemConstants(eta=0.01, L=1.0, N=2, H=4, T=8, gamma=0.5, sigma_global=1.0)
    log = run_afl(scenario, constants, seed=3, local_iterations=4)
    tau = log.tau_matrix()
    # Fast client uploads 4 iterations every interval; slow one every fourth.
    assert tau[:, 0].sum() == 8 * 4
    assert tau[:, 1].sum() == 2 * 4
    assert np.all(tau[:, 0] == 4)


def test_afl_replay_determinism():
    scenario = dataclasses.replace(preset("case1", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.05, L=1.0, N=4, H=4, T=6, gamma=0.5, sigma_global=1.0)
    log_a = run_afl(scenario, constants, seed=21)
    log_b = run_afl(scenario, constants, seed=21)
    trajectories_equal(log_a, log_b)


def test_afl_variants_differ_with_multiple_clients():
    scenario = dataclasses.replace(preset("case1", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.05, L=1.0, N=4, H=4, T=6, gamma=0.5, sigma_global=1.0)
    log_mean = run_afl(scenario, constants, seed=2, variant="footnote-mean")
    log_arrival = run_afl(scenario, constants, seed=2, variant="arrival-blend")
    assert not np.array_equal(log_mean.final_model, log_arrival.final_model)


def test_runners_reject_out_of_range_options():
    # A config's runner block is checked before any run; library callers get
    # the runners' own errors.
    scenario = scenario_with([FixedIterations(2), FixedIterations(1)])
    constants = SystemConstants(eta=0.05, L=1.0, N=2, H=2, T=2, sigma_global=1.0)
    with pytest.raises(ValueError, match="unknown asynchronous variant 'x'"):
        run_afl(scenario, constants, seed=0, variant="x")
    with pytest.raises(ValueError, match="local_iterations must be >= 1"):
        run_afl(scenario, constants, seed=0, local_iterations=0)
    with pytest.raises(ValueError, match=r"buffer_size must lie in \[1, n_clients\]"):
        run_semi_async(scenario, 3, constants, seed=0)
    with pytest.raises(ValueError, match="required_iterations must be >= 1"):
        run_sfl(scenario, constants, seed=0, required_iterations=0)


def test_semi_async_unit_buffer_matches_arrival_blend_updates():
    # Tie-free horizon: cycles 1.0 and 4/3 only collide at t=4.
    scenario = scenario_with(
        [FixedIterations(4), FixedIterations(3)], task=quadratic_task_spec()
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=2, H=4, T=3, gamma=0.0, sigma_global=1.0)
    log_buffer = run_semi_async(scenario, 1, constants, seed=13, local_iterations=4)
    log_afl = run_afl(scenario, constants, seed=13, variant="arrival-blend", local_iterations=4)
    trajectories_equal(log_buffer, log_afl, atol=1e-15)


def test_client_selection_blocks_slow_tiers():
    constants = SystemConstants(eta=0.01, L=1.0, N=8, H=4, T=6, sigma_global=1.0)
    base = dataclasses.replace(preset("case2", n_clients=8, data_size=64), batch_size=8)

    limited = dataclasses.replace(base, min_upload_iterations=2)
    freq = participation_frequency(run_tsfl(limited, "fedavg", constants, seed=4))
    assert np.all(freq[:2] == 0.0)  # tau=1 tier never uploads
    assert np.all(freq[2:] == 1.0)

    strict = dataclasses.replace(base, min_upload_iterations=4)
    freq4 = participation_frequency(run_tsfl(strict, "fedavg", constants, seed=4))
    assert np.all(freq4[:6] == 0.0)
    assert np.all(freq4[6:] == 1.0)


def test_all_clients_excluded_carries_model_forward():
    constants = SystemConstants(eta=0.05, L=1.0, N=4, H=4, T=5, sigma_global=1.0)
    scenario = dataclasses.replace(
        preset("case1", n_clients=4, data_size=64), batch_size=8, min_upload_iterations=9
    )
    for strategy in ("fedavg", "tsfl-dms"):
        log = run_tsfl(scenario, strategy, constants, seed=6)
        assert not log.records.aggregated.any()
        assert np.all(log.records.model == log.initial_model)
        assert np.array_equal(log.final_model, log.initial_model)


def test_homogeneous_dms_never_filters():
    scenario = dataclasses.replace(
        preset("homogeneous", n_clients=6, tau=3, data_size=64), batch_size=8
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=3, T=10, sigma_global=1.0)
    freq = participation_frequency(run_tsfl(scenario, "tsfl-dms", constants, seed=8))
    assert np.all(freq == 1.0)


def test_case3_participation_matches_monte_carlo_expectation(case3_dms_log):
    freq = participation_frequency(case3_dms_log)

    # Independent oracle: Monte-Carlo over the iteration process alone,
    # replaying the threshold/filter-probability formulas.
    rng = np.random.default_rng(999)
    tiers = [(2.0, 0.4), (3.0, 0.6), (4.0, 0.8), (5.0, 1.0)]
    means = np.repeat([m for m, _ in tiers], 5)
    stds = np.repeat([s for _, s in tiers], 5)
    trials = 40_000
    draws = np.maximum(0, np.floor(rng.normal(means, stds, size=(trials, 20)))).astype(int)
    k = draws.mean(axis=1, keepdims=True)
    h = draws.max(axis=1, keepdims=True)
    p = np.where(draws < k, (k - draws) / np.maximum(h, 1), 0.0)
    expected = 1.0 - p.mean(axis=0)
    assert np.max(np.abs(freq - expected)) < 0.02


def test_theorem2_strategy_runs_with_probed_noise():
    scenario = dataclasses.replace(preset("case2", n_clients=4, data_size=64), batch_size=8,
                                   task=quadratic_task_spec(spread=0.3))
    constants = SystemConstants(eta=0.02, L=1.0, N=4, H=4, T=5, sigma_global=1.0)
    log = run_tsfl(scenario, "tsfl-theorem2", constants, seed=3, probe_count=4)
    assert log.records.rho.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-9)
    assert np.all(log.records.rho >= 0.0)


def test_without_probes_a_sampling_client_has_the_noise_bound_sigma_global():
    # A client samples when the run takes mini-batches smaller than its data;
    # theorem2 runs on those bounds, and names the clients that have none.
    scenario = dataclasses.replace(preset("case2", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.02, L=1.0, N=4, H=4, T=3, sigma_global=0.5)
    log = run_tsfl(scenario, "tsfl-theorem2", constants, seed=3, probe_count=0)
    assert log.analysis_inputs["sigma_i"] == [0.5] * 4
    assert log.constants.sigma_global == 0.5 and log.constants_source["sigma"] == "configured"
    assert log.records.aggregated.any()
    full = dataclasses.replace(scenario, full_batch=True)
    assert run_tsfl(full, "fedavg", constants, seed=3).analysis_inputs["sigma_i"] == [0.0] * 4
    whole = dataclasses.replace(scenario, data_sizes=[64, 8, 64, 5])
    assert run_tsfl(whole, "fedavg", constants, seed=3).analysis_inputs["sigma_i"] == [0.5, 0.0, 0.5, 0.0]
    with pytest.raises(ValueError, match=r"^per-client noise bounds must be positive; clients \[1, 3\] have none$"):
        run_tsfl(whole, "tsfl-theorem2", constants, seed=3, probe_count=0)


def test_run_strategy_dispatch():
    scenario = dataclasses.replace(preset("homogeneous", n_clients=4, tau=2, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.02, L=1.0, N=4, H=2, T=3, sigma_global=1.0)
    for strategy in ALL_STRATEGIES:
        log = run_strategy(scenario, strategy, constants, seed=1, probe_count=2)
        assert log.intervals == 3
        assert log.strategy == strategy
    with pytest.raises(ValueError):
        run_strategy(scenario, "nope", constants, seed=1)


def test_fedprox_pulls_models_toward_interval_start():
    scenario = dataclasses.replace(
        preset("homogeneous", n_clients=4, tau=4, data_size=64),
        batch_size=8,
        task=quadratic_task_spec(spread=2.0),
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=4, H=4, T=4, mu=10.0, sigma_global=1.0)
    log_avg = run_tsfl(scenario, "fedavg", constants, seed=2)
    log_prox = run_tsfl(scenario, "fedprox", constants, seed=2)
    start = log_avg.initial_model
    # The heavily weighted proximal term keeps the first aggregate closer to the start.
    drift_avg = np.linalg.norm(log_avg.records[0].model - start)
    drift_prox = np.linalg.norm(log_prox.records[0].model - start)
    assert drift_prox < drift_avg


DIVERGING = dict(eta=1e200, L=1.0, T=3, H=4, sigma_global=1.0)


@pytest.mark.parametrize("strategy", ["fedavg", "tsfl-dms", "sfl", "fedasync"])
def test_diverging_run_names_the_interval_and_the_clients(strategy):
    # One step at eta=1e200 stays finite; the second overflows. Clients 0 and
    # 2 take four steps in interval 0 (under fedasync they upload two steps
    # at t=0.5, client 3 not before t=2); sfl, where every client must
    # iterate, has all four take two.
    scenario = scenario_with([FixedIterations(k) for k in (4, int(strategy == "sfl"), 4, 1)])
    kwargs = {"sfl": {"required_iterations": 2}, "fedasync": {"local_iterations": 2}}.get(strategy, {})
    clients = "0, 1, 2, 3" if strategy == "sfl" else "0, 2"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=rf"^interval 0: local models of clients \[{clients}\] are not finite"):
            run_strategy(scenario, strategy, SystemConstants(**DIVERGING), seed=0, **kwargs)


def test_diverging_run_names_the_clients_of_every_batch_width():
    # Clients 0 and 5 hold fewer samples than a batch: three widths train apart.
    scenario = Scenario(name="mixed", processes=[FixedIterations(4)] * 6,
                        data_sizes=[10, 50, 20, 64, 33, 8], batch_size=16,
                        task=TaskSpec(kind="logistic", dimension=3))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^interval 0: local models of clients \[0, 1, 2, 3, 4, 5\] are not finite$"):
            run_strategy(scenario, "fedavg", SystemConstants(**DIVERGING), seed=0)


def test_diverging_run_fails_its_cell(tmp_path):
    import json

    from tsfl.cli import main

    config = {
        "scenario": {"name": "diverge", "n_clients": 4, "data_sizes": 64, "batch_size": 8,
                     "processes": [{"kind": "fixed", "tau": k} for k in (4, 0, 4, 1)]},
        "task": {"kind": "quadratic", "dimension": 3},
        "strategies": ["fedavg"],
        "seeds": 1,
        "constants": DIVERGING,
        "estimate_probes": 0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    [cell] = json.loads((out / "summary.json").read_text(encoding="utf-8"))["cells"]
    assert cell["status"] == "failed"
    assert cell["error"] == "ValueError: interval 0: local models of clients [0, 2] are not finite"


def _one_interval_weights(strategy, run, tau, eligible, t):
    """Interval t's (rho, beta) from the one-interval engines, weighed in
    interval order as a per-interval runner would."""
    setup = run.setup
    c, mask, n = setup.constants, eligible[t], tau.shape[1]
    if strategy == "tsfl-dms":
        # Drawn every interval, with nobody eligible too.
        one = dms_weights(tau[t], c, run.server_rng, eligible=mask)
        return one.rho, one.participation
    rho = np.zeros(n)
    if not mask.any():
        return rho, mask
    if strategy in ("fedavg", "fedprox"):
        sizes = setup.sizes.astype(float)
        rho[mask] = fedavg_weights(sizes[mask]).rho
    elif strategy == "tsfl-uniform":
        rho = uniform_weights(mask).rho
    elif strategy == "tsfl-corollary1":
        rho = iteration_spaced_weights(tau[t], mask, c).rho
    else:
        r0 = float(np.sum((setup.w0 - setup.task.w_star) ** 2))
        rho = bound_optimal_weights(tau[: t + 1], c, setup.sigma_i, setup.task.gamma_noniid,
                                    beta_history=eligible[: t + 1], r0=r0).rho
    return rho, mask


def _choice_batches(run, steps):
    """Each client's next ``steps[i]`` mini-batches from its own stream, one
    ``rng.choice`` call per step, reduced by ``task.reduce_batches`` as the
    trainer takes them: the ``stream`` and ``first`` arguments of
    ``train_clients``, none for a full-batch scenario."""
    setup = run.setup
    if setup.scenario.full_batch:
        return {}
    batches = [setup.task.reduce_batches(i, np.array([rng.choice(m, size=b, replace=False)
                                                      for _ in range(k)]).reshape(k, b))
               for i, (rng, m, b, k) in enumerate(zip(run.batch_rngs, setup.sizes, setup.batch, steps))]
    return {"stream": np.concatenate(batches), "first": np.cumsum([0] + list(steps))[:-1]}


def _reference_loop(run, tau, weights, proximal=False):
    """Train interval by interval with train_clients and aggregate each
    interval's one-interval weights; returns the models after each interval."""
    setup = run.setup
    c, n = setup.constants, tau.shape[1]
    w, models = setup.w0.copy(), []
    for t in range(len(tau)):
        local = train_clients(setup.task, np.arange(n), w, tau[t], c.eta,
                              **_choice_batches(run, tau[t]),
                              prox_center=w if proximal else None, mu=c.mu if proximal else 0.0)
        if weights[t].any():
            w = weights[t] @ local
        models.append(w)
    return np.array(models)


@pytest.mark.parametrize("full_batch", [False, True])
@pytest.mark.parametrize("strategy", INTERVAL_STRATEGIES)
def test_planned_run_equals_a_per_interval_loop(strategy, full_batch):
    scenario = dataclasses.replace(
        preset("case3", n_clients=10, batch_size=8), min_upload_iterations=3, full_batch=full_batch,
        task=quadratic_task_spec(dimension=5, spread=0.5),
    )
    constants = SystemConstants(eta=0.02, L=1.0, N=10, H=8, T=8, sigma_global=1.0, mu=0.5)
    log = run_tsfl(scenario, strategy, constants, seed=5, probe_count=3)

    run = _Run(RunSetup(scenario, constants, 5, 3, False))
    # The counts drawn interval by interval, all clients in each.
    tau = np.array([[process.draw(rng) for process, rng in zip(scenario.processes, run.tau_rngs)]
                    for _ in range(constants.T)])
    eligible = tau >= scenario.min_upload_iterations
    assert eligible.any() and not eligible.all()
    rho, beta = zip(*(_one_interval_weights(strategy, run, tau, eligible, t)
                      for t in range(constants.T)))
    rho, beta = np.array(rho), np.array(beta)
    models = _reference_loop(run, tau, rho, proximal=strategy == "fedprox")

    assert np.array_equal(log.records.tau, tau)
    assert np.array_equal(log.records.rho, rho) and np.array_equal(log.records.beta, beta)
    assert np.array_equal(log.records.model, models)
    assert np.array_equal(log.final_model, models[-1])


def test_sfl_equals_a_round_loop():
    scenario = dataclasses.replace(preset("case1", n_clients=6, data_size=40), batch_size=8,
                                   task=quadratic_task_spec(dimension=5, spread=0.5))
    constants = SystemConstants(eta=0.02, L=1.0, N=6, H=4, T=5, sigma_global=1.0)
    log = run_sfl(scenario, constants, seed=3, required_iterations=3)

    run = _Run(RunSetup(scenario, constants, 3, 0, False))
    setup = run.setup
    weights = fedavg_weights(setup.sizes)
    w, clock, seconds = setup.w0.copy(), 0.0, round_seconds(scenario.seconds_per_iteration, 3, scenario.overhead)
    for record in log.records:
        w = weights.rho @ train_clients(setup.task, np.arange(6), w, np.full(6, 3), constants.eta,
                                        **_choice_batches(run, np.full(6, 3)))
        clock += seconds
        assert np.array_equal(record.model, w)
        assert record.wall_clock == clock
        assert np.array_equal(record.rho, weights.rho)


def test_theorem2_names_the_clients_without_sampling_noise():
    # Clients 0 and 5 hold no more samples than a batch, so their probe
    # gradients carry no sampling noise and the Theorem 2 solve is undefined.
    scenario = Scenario(
        name="mixed", processes=[FixedIterations(k) for k in (2, 3, 4, 2, 3, 4)],
        data_sizes=[10, 50, 20, 64, 33, 8], batch_size=16,
        task=quadratic_task_spec(dimension=4, spread=0.5),
    )
    constants = SystemConstants(eta=0.02, L=1.0, N=6, H=6, T=10, sigma_global=1.0)
    log = run_tsfl(scenario, "tsfl-corollary1", constants, seed=0, probe_count=4)
    sigma = np.array(log.analysis_inputs["sigma_i"])
    assert sigma[[0, 5]].tolist() == [0.0, 0.0] and np.all(sigma[1:5] > 0.0)
    with pytest.raises(ValueError, match=r"noise bounds must be positive; clients \[0, 5\] have none"):
        run_tsfl(scenario, "tsfl-theorem2", constants, seed=0, probe_count=4)


@pytest.mark.parametrize("interval_length", [1.0, 0.7])
@pytest.mark.parametrize("name", ["case1", "case2", "case3"])
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_event_runs_plan_exactly_the_steps_they_train(monkeypatch, strategy, name, interval_length):
    # Every strategy: the run trains every step it planned, and no other.
    setups = []

    class Recorded(_Run):
        def __init__(self, *args):
            super().__init__(*args)
            setups.append(self)

    monkeypatch.setattr(scheduler, "_Run", Recorded)
    scenario = dataclasses.replace(preset(name, n_clients=8, batch_size=8), interval_length=interval_length,
                                   task=quadratic_task_spec(dimension=3, spread=0.5))
    constants = SystemConstants(eta=0.02, L=1.0, N=8, H=4, T=12, sigma_global=1.0)
    log = run_strategy(scenario, strategy, constants, seed=4, probe_count=3)
    [setup] = setups
    assert np.array_equal(setup.used, setup.planned)
    assert np.array_equal(setup.planned, log.records.tau.sum(axis=0))
    if strategy in ("fedasync", "semiasync"):
        k = scenario.default_required_iterations()
        _, clients = _arrivals(k * scenario.seconds_per_iteration,
                               constants.T * interval_length)
        planned = k * np.bincount(clients, minlength=8)
        assert np.array_equal(planned, setup.planned)
        assert planned.min() > 0


def _heap_arrivals(cycles, boundaries):
    """Reference schedule: the heap loop the event runners once ran. Up to
    each boundary it pops every client at the earliest pending timestamp, in
    client order, and reschedules each at its next multiple of its cycle."""
    heap = [(float(cycle), i) for i, cycle in enumerate(cycles)]
    heapq.heapify(heap)
    counts = np.zeros(len(cycles), dtype=int)
    groups = []
    for boundary in boundaries:
        while heap and heap[0][0] <= boundary:
            time, clients = heap[0][0], []
            while heap and heap[0][0] == time:
                clients.append(heapq.heappop(heap)[1])
            groups.append((time, clients))
            for i in clients:
                counts[i] += 1
                heapq.heappush(heap, (float((counts[i] + 1) * cycles[i]), i))
    return groups


@settings(max_examples=300, deadline=None)
@given(
    means=st.lists(st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]), st.floats(0.5, 6.0)),
                   min_size=1, max_size=8),
    k=st.integers(1, 5),
    interval=st.one_of(st.sampled_from([1.0, 0.7, 0.1, 1 / 3]), st.floats(0.01, 10.0)),
    T=st.integers(1, 40),
)
def test_arrivals_match_the_heap_loop(means, k, interval, T):
    cycles = k * (interval / np.array(means))
    boundaries = np.arange(1, T + 1) * interval
    times, clients = _arrivals(cycles, boundaries[-1])
    groups = _heap_arrivals(cycles, boundaries)
    assert np.array_equal(times, [time for time, ids in groups for _ in ids])
    assert np.array_equal(clients, [i for _, ids in groups for i in ids])
    starts = np.flatnonzero(np.diff(times, prepend=-np.inf))
    assert [ids.tolist() for ids in np.split(clients, starts[1:]) if ids.size] == [ids for _, ids in groups]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_constants_n_must_be_the_client_count(strategy):
    # A run takes N from its scenario: given N=4 on three clients, it runs as
    # given N=3, bit for bit.
    scenario = scenario_with([FixedIterations(1), FixedIterations(2), FixedIterations(3)])
    logs = [run_strategy(scenario, strategy, SystemConstants(eta=0.02, L=1.0, N=n, H=3, T=3, sigma_global=1.0),
                         seed=0, probe_count=2) for n in (4, 3)]
    assert logs[0].constants == logs[1].constants and logs[0].constants.N == 3
    assert logs[0].records.tobytes() == logs[1].records.tobytes()
    assert logs[0].final_model.tobytes() == logs[1].final_model.tobytes()


def test_library_run_keeps_an_omitted_theta_unless_asked_to_move_it():
    # Without equality_theta an omitted theta stays at the equality point of
    # the configured L, as the tsfl-theorem2 benchmark reference was recorded;
    # with it, theta follows the run's probed L. V and epsilon are probed.
    scenario = scenario_with([FixedIterations(1), FixedIterations(3)] * 2,
                             task=TaskSpec(kind="logistic", dimension=3, noniid_spread=0.5))
    constants = SystemConstants(eta=0.1, L=1.0, H=3, T=3)
    kept = run_tsfl(scenario, "fedavg", constants, seed=1, probe_count=2)
    moved = run_tsfl(scenario, "fedavg", constants, seed=1, probe_count=2, equality_theta=True)
    assert kept.constants.L != 1.0 and kept.constants.theta == constants.theta
    assert moved.constants == dataclasses.replace(kept.constants, theta=None)
    assert moved.constants.theta != constants.theta
    assert moved.records.tobytes() == kept.records.tobytes()  # fedavg reads no theta
    inputs = kept.analysis_inputs
    assert (kept.constants.V, kept.constants.epsilon) == (max(inputs["v_hat"], 1.0), inputs["epsilon_hat"])
    assert kept.constants_source == {"L": "probed", "G": "probed", "sigma": "probed", "V": "probed", "epsilon": "probed"}
    unprobed = run_tsfl(scenario, "fedavg", constants, seed=1)
    assert unprobed.constants == dataclasses.replace(constants, N=4)
    assert set(unprobed.constants_source.values()) == {"configured"}


def test_negative_probe_count_raises():
    scenario = scenario_with([FixedIterations(2)] * 3)
    constants = SystemConstants(eta=0.02, L=1.0, N=3, H=2, T=2, sigma_global=1.0)
    with pytest.raises(ValueError, match=r"^probe_count must be non-negative, got -1$"):
        RunSetup(scenario, constants, 0, -1, False)


@pytest.mark.parametrize("full_batch", [False, True])
def test_training_past_the_planned_steps_raises(full_batch):
    scenario = dataclasses.replace(scenario_with([FixedIterations(2)] * 3), full_batch=full_batch)
    constants = SystemConstants(eta=0.02, L=1.0, N=3, H=2, T=2, sigma_global=1.0)
    run = _Run(RunSetup(scenario, constants, 0, 0, False))
    w0 = run.setup.w0
    run.plan_batches([2, 1, 0])
    run.train([0, 1, 2], w0, [1, 1, 0], 0)
    run.train([0], w0, [1], 1)
    with pytest.raises(RuntimeError, match=r"^interval 1: clients \[1, 2\] ask for more local steps than were planned"):
        run.train([0, 1, 2], w0, [0, 1, 1], 1)


class _ChoiceRun(_Run):
    """A run that plans nothing and trains each row alone, step by step, on
    one ``rng.choice`` mini-batch per step from the client's own stream: the
    oracle of the planned streams and their gathered stacks."""

    def plan_batches(self, steps):
        pass

    def train(self, clients, starts, steps, interval, prox_center=None):
        setup = self.setup
        c, task = setup.constants, setup.task
        models = np.array(np.broadcast_to(starts, (len(clients), task.dimension)))
        for w, i, k in zip(models, clients, steps):
            for _ in range(k):
                if setup.scenario.full_batch:
                    g = task.local_grad(i, w)
                else:
                    batch = self.batch_rngs[i].choice(setup.sizes[i], size=setup.batch[i], replace=False)
                    g = task.sample_grad(i, w, batch)
                if prox_center is not None:
                    g = g + c.mu * (w - prox_center)
                w -= c.eta * g
        return models


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("strategy, full_batch", [
    pytest.param(s, full, id=f"{s}-full-batch" if full else s)
    for s in ALL_STRATEGIES if s != "tsfl-theorem2" for full in (False, True)
])
def test_planned_streams_train_as_per_step_choice(monkeypatch, strategy, full_batch, kind):
    # Clients 0 and 5 hold fewer samples than a batch: a logistic run keeps
    # three streams, of widths 10, 16 and 8. Client 4 takes no step in some
    # intervals, and client 5 none at all outside sfl (where every client
    # must iterate), so its offset is the end of its stream. fedasync and
    # semiasync train groups of arrivals. A full-batch run trains on its one
    # stream entry, which holds no steps.
    idle = FixedIterations(int(strategy == "sfl"))
    scenario = Scenario(
        name="mixed",
        processes=[FixedIterations(3), GaussianFloorIterations(2.0, 1.5), FixedIterations(1),
                   FixedIterations(4), GaussianFloorIterations(1.0, 1.0), idle],
        data_sizes=[10, 50, 20, 64, 33, 8], batch_size=16,
        task=TaskSpec(kind=kind, dimension=3, noniid_spread=0.5), full_batch=full_batch,
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=6, gamma=0.5, sigma_global=1.0, mu=0.3)
    log = run_strategy(scenario, strategy, constants, seed=3)
    monkeypatch.setattr(scheduler, "_Run", _ChoiceRun)
    oracle = run_strategy(scenario, strategy, constants, seed=3)
    assert log.records.tau.any() and (strategy == "sfl" or (log.records.tau == 0).any())
    assert np.array_equal(log.records.model, oracle.records.model)
    assert np.array_equal(log.final_model, oracle.final_model)


def _small_clients_setup(kind, full_batch=False):
    scenario = Scenario(name="mixed", processes=[FixedIterations(2)] * 6,
                        data_sizes=[10, 50, 20, 64, 33, 8], batch_size=16,
                        task=TaskSpec(kind=kind, dimension=3), full_batch=full_batch)
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=2, sigma_global=1.0)
    return RunSetup(scenario, constants, 0, 0, False)


@pytest.mark.parametrize("kind, widths, shapes, offsets, dtype", [
    ("logistic", [10, 16, 16, 16, 16, 8], {10: (3, 10), 16: (7, 16), 8: (0, 8)}, [0, 0, 2, 2, 6, 0], np.int16),
    ("quadratic", [3] * 6, {3: (10, 3)}, [0, 3, 5, 5, 9, 10], np.float64),
], ids=["logistic", "quadratic"])
def test_planned_streams_hold_one_width_each(kind, widths, shapes, offsets, dtype):
    run = _Run(_small_clients_setup(kind))
    run.plan_batches([3, 2, 0, 4, 1, 0])
    assert run.width.tolist() == widths
    assert {w: s.shape for w, s in run.streams.items()} == shapes
    assert run.offset.tolist() == offsets
    # Logistic steps are indices: int16 in every stream, the one that holds
    # the idle client 2 too.
    assert all(s.dtype == dtype for s in run.streams.values())
    full = _Run(_small_clients_setup(kind, full_batch=True))
    full.plan_batches([3, 2, 0, 4, 1, 0])
    assert full.streams == {} and not full.width.any() and not full.offset.any()


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_planning_a_window_reduces_each_clients_draw_once(kind):
    run = _Run(_small_clients_setup(kind))
    task, calls = run.setup.task, []
    reduce_batches = task.reduce_batches

    def spy(client, indices):
        calls.append((client, indices.shape))
        return reduce_batches(client, indices)

    task.reduce_batches = spy
    for steps in ([3, 2, 0, 4, 1, 0], [1, 0, 5, 2, 2, 3]):
        calls.clear()
        run.plan_batches(steps)
        assert calls == list(enumerate(zip(steps, [10, 16, 16, 16, 16, 8])))


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("sizes", [[48] * 6, [48, 30, 48, 17, 30, 64]], ids=["equal", "unequal"])
@pytest.mark.parametrize("strategy", ["fedavg", "fedasync"])
def test_logged_loss_and_gradient_are_those_of_the_model_entering_each_interval(kind, sizes, strategy):
    scenario = Scenario(name="custom", processes=[GaussianFloorIterations(3.0, 1.0)] * 6,
                        data_sizes=sizes, batch_size=8,
                        task=TaskSpec(kind=kind, dimension=3, noniid_spread=0.5))
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=6, sigma_global=1.0)
    log = run_strategy(scenario, strategy, constants, seed=4, probe_count=2)
    task = RunSetup(scenario, constants, 4, 2, False).task
    records = log.records
    assert records.aggregated.any()
    entering = np.vstack([log.initial_model[None], records.model[:-1]])
    logged = zip(records.global_loss.tolist() + [log.final_loss],
                 records.global_grad_norm_sq.tolist() + [log.final_grad_norm_sq])
    for w, (loss, norm_sq) in zip(list(entering) + [log.final_model], logged):
        grad = task.global_grad(w)
        assert loss == task.global_loss(w) and norm_sq == grad @ grad


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("sizes", [[24] * 4, [24, 17, 40, 17]], ids=["equal", "padded"])
def test_a_run_logs_each_model_through_the_tasks_own_loss_and_gradient(monkeypatch, kind, sizes):
    # Every task kind logs the T models entering the intervals and the final
    # one by its own global_loss and global_grad, one call each per model.
    scenario = Scenario(name="custom", processes=[FixedIterations(2), GaussianFloorIterations(2.0, 1.0)] * 2,
                        data_sizes=sizes, batch_size=8, task=TaskSpec(kind=kind, dimension=3, noniid_spread=0.5))
    constants = SystemConstants(eta=0.05, L=1.0, N=4, H=4, T=5, sigma_global=1.0)
    setup = RunSetup(scenario, constants, 3, 2, False)
    task, calls = setup.task, {}
    for name in ("global_loss", "global_grad"):
        def counted(w, method=getattr(task, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return method(w)
        monkeypatch.setattr(task, name, counted)
    for strategy in ALL_STRATEGIES:
        calls.clear()
        scheduler.STRATEGIES[strategy].run(setup, strategy)
        assert calls == {"global_loss": constants.T + 1, "global_grad": constants.T + 1}, strategy


def _assert_same_run(shared, fresh):
    if isinstance(fresh, Exception):
        assert type(shared) is type(fresh) and str(shared) == str(fresh)
        return
    for name in fresh.records.dtype.names:
        assert np.array_equal(shared.records[name], fresh.records[name]), name
    assert np.array_equal(shared.final_model, fresh.final_model)
    assert (shared.final_loss, shared.final_grad_norm_sq) == (fresh.final_loss, fresh.final_grad_norm_sq)
    assert shared.constants == fresh.constants and shared.constants_source == fresh.constants_source
    assert shared.analysis_inputs == fresh.analysis_inputs


def _outcome(run, *args, **kwargs):
    try:
        return run(*args, **kwargs)
    except ValueError as exc:
        return exc


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("full_batch", [False, True])
@pytest.mark.parametrize("sizes", [[48] * 6, [10, 50, 20, 64, 33, 8]], ids=["equal", "small-clients"])
def test_runs_on_one_shared_setup_equal_runs_on_their_own(kind, full_batch, sizes):
    # Every strategy, in either order and then once more, on one setup: each
    # run draws its own streams and leaves the setup as it found it. Clients 0 and 5 of the
    # small-client scenario hold no more samples than a batch, so
    # tsfl-theorem2 fails there, on the shared setup as on its own.
    scenario = Scenario(
        name="mixed", processes=[FixedIterations(3), GaussianFloorIterations(2.0, 1.5), FixedIterations(1),
                                 FixedIterations(4), GaussianFloorIterations(1.0, 1.0), FixedIterations(2)],
        data_sizes=sizes, batch_size=16, full_batch=full_batch,
        task=TaskSpec(kind=kind, dimension=3, noniid_spread=0.5),
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=6, gamma=0.5, sigma_global=1.0, mu=0.3)
    fresh = {s: _outcome(run_strategy, scenario, s, constants, seed=9, probe_count=2) for s in ALL_STRATEGIES}
    assert isinstance(fresh["tsfl-theorem2"], Exception) == (sizes[0] < 16)
    for order in (ALL_STRATEGIES, ALL_STRATEGIES[::-1]):
        setup = RunSetup(scenario, constants, 9, 2, False)
        shared = {s: _outcome(scheduler.STRATEGIES[s].run, setup, s) for s in order}
        # A log owns its dicts and lists: changing one changes no other.
        first = shared[order[0]]
        first.analysis_inputs["sigma_i"][0] = first.analysis_inputs["v_hat"] = -1.0
        first.constants_source["L"] = "changed"
        for s in order[1:]:
            _assert_same_run(shared[s], fresh[s])
        # A second pass on the same setup: no run drew on another's streams.
        for s in order:
            _assert_same_run(_outcome(scheduler.STRATEGIES[s].run, setup, s), fresh[s])


@functools.cache
def _mixed_setups(kind, dimension):
    """One shared setup per strategy of a mixed scenario: client 5 holds fewer
    samples than a batch, clients 1 and 4 draw Gaussian counts, some of them
    zero. tsfl-theorem2 needs sampling noise on every client, so its
    scenario's clients all hold more samples than a batch."""
    processes = [FixedIterations(3), GaussianFloorIterations(2.0, 1.5), FixedIterations(1),
                 FixedIterations(4), GaussianFloorIterations(1.0, 1.0), FixedIterations(2)]
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=24, gamma=0.5, sigma_global=1.0, mu=0.3)
    setups = {}
    for sizes in ([10, 50, 20, 64, 33, 8], [48, 50, 20, 64, 33, 17]):
        scenario = Scenario(name="mixed", processes=processes, data_sizes=sizes, batch_size=16,
                            task=TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.5))
        setups[sizes[0]] = RunSetup(scenario, constants, 5, 2, False)
    return {s: setups[48 if s == "tsfl-theorem2" else 10] for s in ALL_STRATEGIES}


def _windowed_runs(kind, dimension):
    """Every strategy's log as its ``runlog.json`` text and its models."""
    out = {}
    for strategy, setup in _mixed_setups(kind, dimension).items():
        log = scheduler.STRATEGIES[strategy].run(setup, strategy)
        out[strategy] = json.dumps(log_to_dict(log), sort_keys=True), log.records.model
    return out


_default_window_runs = functools.cache(_windowed_runs)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 64), st.sampled_from([("quadratic", 1), ("quadratic", 3), ("logistic", 3)]))
def test_every_planning_window_gives_the_same_runs(window, task):
    # Each window continues every client's batch stream where the last one
    # left it, so no window size changes a bit of any run.
    want = _default_window_runs(*task)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "_WINDOW", window)
        got = _windowed_runs(*task)
    for strategy in ALL_STRATEGIES:
        assert got[strategy][0] == want[strategy][0], strategy
        assert np.array_equal(got[strategy][1], want[strategy][1]), strategy


@pytest.mark.parametrize("strategy", ["tsfl-dms", "fedasync"])
def test_a_window_plans_at_most_its_bound_unless_one_interval_asks_more(monkeypatch, strategy):
    windows = []
    plan_batches = _Run.plan_batches

    def spy(self, steps):
        windows.append(np.array(steps))
        plan_batches(self, steps)

    monkeypatch.setattr(_Run, "plan_batches", spy)
    monkeypatch.setattr(scheduler, "_WINDOW", 16)
    scenario = scenario_with([GaussianFloorIterations(8.0, 6.0), FixedIterations(3), GaussianFloorIterations(2.0, 2.0)],
                             data_size=40, batch_size=4)
    constants = SystemConstants(eta=0.01, L=1.0, N=3, H=4, T=600, sigma_global=1.0)
    tau = run_strategy(scenario, strategy, constants, seed=2).records.tau
    assert len(windows) > 1
    assert np.array_equal(np.sum(windows, axis=0), tau.sum(axis=0))
    # Window j covers intervals t to t + k: the longest run of intervals
    # from t whose steps it holds, so one more interval would pass the bound.
    t = 0
    for planned in windows:
        k = np.flatnonzero((np.cumsum(tau[t:], axis=0) == planned).all(axis=1))[-1] + 1
        assert planned.max() <= 16 or k == 1
        assert t + k == len(tau) or (planned + tau[t + k]).max() > 16
        t += k
    assert t == len(tau)
