import dataclasses
import heapq

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
from tsfl.core import SystemConstants
from tsfl.scenarios import FixedIterations, Scenario, TaskSpec, preset
from tsfl.scheduler import (
    ALL_STRATEGIES,
    INTERVAL_STRATEGIES,
    _arrivals,
    _RunSetup,
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
    task, profiles = scenario.materialize(scenario_rng)
    w = scenario_rng.normal(size=task.dimension)
    batch_rng = np.random.default_rng(batch_parent.spawn(1)[0])
    for record in log.records:
        g = stochastic_gradient(task, 0, w, profiles[0].batch_size, batch_rng).stochastic
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


def test_afl_single_client_is_damped_sequential_sgd():
    scenario = scenario_with([FixedIterations(2)], task=quadratic_task_spec(dimension=2))
    constants = SystemConstants(eta=0.1, L=1.0, N=1, H=2, T=6, gamma=0.5, sigma_global=1.0)
    log = run_afl(scenario, constants, seed=9, local_iterations=2)

    root = np.random.SeedSequence(9)
    scenario_ss, _server, _tau, batch_parent = root.spawn(4)
    scenario_rng = np.random.default_rng(scenario_ss)
    task, profiles = scenario.materialize(scenario_rng)
    w_global = scenario_rng.normal(size=task.dimension)
    batch_rng = np.random.default_rng(batch_parent.spawn(1)[0])
    basis = w_global.copy()
    for record in log.records:
        w_local = basis.copy()
        for _ in range(2):
            g = stochastic_gradient(task, 0, w_local, profiles[0].batch_size, batch_rng).stochastic
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


def test_theorem2_strategy_requires_noise_estimates():
    scenario = dataclasses.replace(preset("case2", n_clients=4, data_size=64), batch_size=8)
    constants = SystemConstants(eta=0.02, L=1.0, N=4, H=4, T=3, sigma_global=1.0)
    with pytest.raises(ValueError, match="noise"):
        run_tsfl(scenario, "tsfl-theorem2", constants, seed=3, probe_count=0)


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


DIVERGING = dict(eta=1e200, L=1.0, T=3, N=4, H=4, sigma_global=1.0)


@pytest.mark.parametrize("strategy", ["fedavg", "tsfl-dms", "sfl", "fedasync"])
def test_diverging_run_names_the_interval_and_the_clients(strategy):
    # One step at eta=1e200 stays finite; the second overflows. Clients 0 and
    # 2 take four steps in interval 0 (under fedasync they upload two steps
    # at t=0.5, client 3 not before t=2); sfl has all four take two.
    scenario = scenario_with([FixedIterations(k) for k in (4, 0, 4, 1)], required_iterations=2)
    clients = "0, 1, 2, 3" if strategy == "sfl" else "0, 2"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=rf"^interval 0: local models of clients \[{clients}\] are not finite"):
            run_strategy(scenario, strategy, SystemConstants(**DIVERGING), seed=0)


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


def _one_interval_weights(strategy, setup, tau, eligible, t):
    """Interval t's (rho, beta) from the one-interval engines, weighed in
    interval order as a per-interval runner would."""
    c, mask, n = setup.constants, eligible[t], tau.shape[1]
    if strategy == "tsfl-dms":
        # Drawn every interval, with nobody eligible too.
        one = dms_weights(tau[t], c, setup.server_rng, eligible=mask)
        return one.rho, one.participation
    rho = np.zeros(n)
    if not mask.any():
        return rho, mask
    if strategy in ("fedavg", "fedprox"):
        sizes = np.array([p.data_size for p in setup.profiles], dtype=float)
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


def _choice_batches(setup, steps):
    """Each client's next ``steps[i]`` mini-batches from its own stream, one
    ``rng.choice`` call per step, reduced by ``task.reduce_batches`` as the
    trainer takes them; None for a full-batch scenario."""
    if setup.scenario.full_batch:
        return None
    return [setup.task.reduce_batches(i, np.array([rng.choice(p.data_size, size=p.batch_size, replace=False)
                                                   for _ in range(k)]).reshape(k, p.batch_size))
            for i, (rng, p, k) in enumerate(zip(setup.batch_rngs, setup.profiles, steps))]


def _reference_loop(setup, tau, weights, proximal=False):
    """Train interval by interval with train_clients and aggregate each
    interval's one-interval weights; returns the models after each interval."""
    c, n = setup.constants, tau.shape[1]
    w, models = setup.w0.copy(), []
    for t in range(len(tau)):
        local = train_clients(setup.task, np.arange(n), w, tau[t], c.eta,
                              batches=_choice_batches(setup, tau[t]),
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

    setup = _RunSetup(scenario, constants, 5, 3, False)
    # The counts drawn interval by interval, all clients in each.
    tau = np.array([[p.compute_process.draw(rng) for p, rng in zip(setup.profiles, setup.tau_rngs)]
                    for _ in range(constants.T)])
    eligible = tau >= scenario.min_upload_iterations
    assert eligible.any() and not eligible.all()
    rho, beta = zip(*(_one_interval_weights(strategy, setup, tau, eligible, t)
                      for t in range(constants.T)))
    rho, beta = np.array(rho), np.array(beta)
    models = _reference_loop(setup, tau, rho, proximal=strategy == "fedprox")

    assert np.array_equal(log.records.tau, tau)
    assert np.array_equal(log.records.rho, rho) and np.array_equal(log.records.beta, beta)
    assert np.array_equal(log.records.model, models)
    assert np.array_equal(log.final_model, models[-1])


def test_sfl_equals_a_round_loop():
    scenario = dataclasses.replace(preset("case1", n_clients=6, data_size=40), batch_size=8,
                                   task=quadratic_task_spec(dimension=5, spread=0.5))
    constants = SystemConstants(eta=0.02, L=1.0, N=6, H=4, T=5, sigma_global=1.0)
    log = run_sfl(scenario, constants, seed=3, required_iterations=3)

    setup = _RunSetup(scenario, constants, 3, 0, False)
    weights = fedavg_weights([p.data_size for p in setup.profiles])
    w, clock, round_seconds = setup.w0.copy(), 0.0, setup.latency.sync_round_seconds(3)
    for record in log.records:
        w = weights.rho @ train_clients(setup.task, np.arange(6), w, np.full(6, 3), constants.eta,
                                        batches=_choice_batches(setup, np.full(6, 3)))
        clock += round_seconds
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
@pytest.mark.parametrize("strategy", ["fedasync", "semiasync"])
def test_event_runs_plan_exactly_the_steps_they_train(strategy, name, interval_length):
    scenario = dataclasses.replace(preset(name, n_clients=8, batch_size=8), interval_length=interval_length,
                                   task=quadratic_task_spec(dimension=3, spread=0.5))
    constants = SystemConstants(eta=0.02, L=1.0, N=8, H=4, T=12, sigma_global=1.0)
    log = run_strategy(scenario, strategy, constants, seed=4)
    k = scenario.default_required_iterations()
    _, clients = _arrivals(k * scenario.latency_model().seconds_per_iteration,
                           constants.T * interval_length)
    planned = k * np.bincount(clients, minlength=8)
    assert np.array_equal(planned, log.records.tau.sum(axis=0))
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


def test_negative_probe_count_raises():
    scenario = scenario_with([FixedIterations(2)] * 3)
    constants = SystemConstants(eta=0.02, L=1.0, N=3, H=2, T=2, sigma_global=1.0)
    with pytest.raises(ValueError, match=r"^probe_count must be non-negative, got -1$"):
        _RunSetup(scenario, constants, 0, -1, False)


@pytest.mark.parametrize("full_batch", [False, True])
def test_training_past_the_planned_steps_raises(full_batch):
    scenario = dataclasses.replace(scenario_with([FixedIterations(2)] * 3), full_batch=full_batch)
    constants = SystemConstants(eta=0.02, L=1.0, N=3, H=2, T=2, sigma_global=1.0)
    setup = _RunSetup(scenario, constants, 0, 0, False)
    setup.plan_batches([2, 1, 0])
    setup.train([0, 1, 2], setup.w0, [1, 1, 0], 0)
    setup.train([0], setup.w0, [1], 1)
    with pytest.raises(RuntimeError, match=r"^interval 1: clients \[1, 2\] ask for more local steps than were planned"):
        setup.train([0, 1, 2], setup.w0, [0, 1, 1], 1)
