"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 is known-red and intentionally left failing: the closed-form
optimal-weight fixed point is not a stationary point of the loss bound it is
derived from (its published derivation drops the sign of two derivative
terms), so the finite-difference stationarity check cannot pass. The check is
implemented faithfully rather than weakened; see the test body for details.
"""

import dataclasses
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from tsfl.aggregation import (
    bound_coefficients,
    bound_optimal_weights,
    dms_threshold,
    dms_weights,
    fedavg_weights,
    filtering_probability,
    iteration_spaced_weights,
    sample_participation,
    spacing_slope,
    uniform_weights,
)
from tsfl.analysis import convergence_rhs, evaluate_bound, heterogeneity_degree, verify_convergence
from tsfl.cli import latency_table, main
from tsfl.core import SystemConstants
from tsfl.scenarios import TaskSpec, preset
from tsfl.scheduler import (
    participation_frequency,
    run_semi_async,
    run_sfl,
    run_strategy,
    run_tsfl,
)
from tsfl.training import LogisticTask, QuadraticTask


def announce(number: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} - {detail} ({elapsed:.2f}s)")


# -------------------------------------------------------------------------


def test_criterion_01_weight_solver_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 21))
        tau = rng.integers(0, 8, size=n)
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        constants = SystemConstants(
            eta=float(rng.uniform(0.003, 0.05)), L=1.0, G=1.0,
            sigma_global=float(rng.uniform(0.5, 2.0)), H=8, N=n, theta=50.0,
        )
        assignment = iteration_spaced_weights(tau, mask, constants)

        # Oracle: dense solve of {pairwise spacing + unit sum} over participants.
        idx = np.nonzero(mask)[0]
        m = idx.size
        k = spacing_slope(constants)
        a = np.zeros((m, m))
        b = np.zeros(m)
        a[0, :] = 1.0
        b[0] = 1.0
        for row in range(1, m):
            a[row, 0] = 1.0
            a[row, row] = -1.0
            b[row] = k * (tau[idx[0]] - tau[idx[row]])
        oracle = np.zeros(n)
        oracle[idx] = np.linalg.solve(a, b)
        worst = max(worst, float(np.max(np.abs(assignment.rho_unclamped - oracle))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    announce(1, ok, f"max |closed form - linear solve| = {worst:.2e} over 100 instances", elapsed)
    assert ok


def test_criterion_02_simplex_invariants_across_methods():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0

    def verify(rho, beta):
        nonlocal checked
        assert np.all(rho >= 0.0)
        if np.any(np.asarray(beta) == 1):
            assert abs(rho.sum() - 1.0) <= 1e-9
        assert np.all(rho[np.asarray(beta) == 0] == 0.0)
        checked += 1

    for _ in range(2500):
        n = int(rng.integers(2, 13))
        tau = rng.integers(0, 6, size=n)
        mask = rng.random(n) < 0.75
        if not mask.any():
            mask[0] = True
        c = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=6, N=n, theta=40.0)
        verify(iteration_spaced_weights(tau, mask, c).rho, mask.astype(int))
    for _ in range(2500):
        n = int(rng.integers(2, 13))
        tau = rng.integers(0, 6, size=n)
        c = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=6, N=n)
        assignment = dms_weights(tau, c, rng)
        verify(assignment.rho, assignment.participation)
    for _ in range(2000):
        n = int(rng.integers(2, 13))
        sizes = rng.integers(32, 2048, size=n)
        mask = rng.random(n) < 0.8
        if not mask.any():
            mask[0] = True
        rho = np.zeros(n)
        rho[mask] = fedavg_weights(sizes[mask]).rho
        verify(rho, mask.astype(int))
    for _ in range(2000):
        n = int(rng.integers(2, 13))
        mask = rng.random(n) < 0.6
        if not mask.any():
            mask[0] = True
        verify(uniform_weights(mask).rho, mask.astype(int))
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        rows = int(rng.integers(1, 4))
        tau = rng.integers(1, 6, size=(rows, n)).astype(float)
        beta = (rng.random((rows, n)) < 0.8).astype(int)
        if not beta[-1].any():
            beta[-1, 0] = 1
        # theta sampled inside the weight-limit regime the solver presumes.
        theta = None if rng.random() < 0.5 else 99.0 * float(rng.uniform(1.0, 1.3))
        c = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=6, N=n, theta=theta)
        assignment = bound_optimal_weights(
            tau, c, rng.uniform(0.3, 2.0, size=n), rng.uniform(0.0, 2.0, size=n),
            beta_history=beta, r0=float(rng.uniform(0.0, 2.0)),
        )
        verify(assignment.rho, beta[-1])
    elapsed = time.perf_counter() - start
    ok = checked == 10_000 and elapsed < 10.0
    announce(2, ok, f"{checked} weight computations satisfied the simplex invariants", elapsed)
    assert ok


def test_criterion_03_filtering_statistics():
    start = time.perf_counter()
    k_t = dms_threshold([1, 1, 4, 4])
    p = filtering_probability(1, k_t, 4)
    assert p == 0.375
    beta = sample_participation(np.full(100_000, p), np.random.default_rng(0))
    rate = 1.0 - float(beta.mean())
    elapsed = time.perf_counter() - start
    ok = 0.370 <= rate <= 0.380 and elapsed < 1.0
    announce(3, ok, f"empirical filter rate {rate:.4f} for probability 0.375", elapsed)
    assert ok


def test_criterion_04_bound_optimal_stationarity():
    # Faithful check of the optimality claim behind the fixed-point weights:
    # at the returned solution, every feasible-direction finite-difference
    # derivative of the loss bound should vanish and the bound value should
    # beat random simplex points. The closed form's derivation flips the sign
    # of its gradient-drift and distribution terms, so its "optimum" actually
    # tilts the wrong way (the bound prefers down-weighting busy clients) and
    # this criterion fails. Kept red on purpose; do not loosen.
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    stationary_ok = 0
    minimal_ok = 0
    worst_derivative = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        tau = rng.integers(1, 7, size=(1, n)).astype(float)
        sigma = rng.uniform(0.5, 1.5, size=n)
        gamma = rng.uniform(0.0, 1.0, size=n)
        r0 = float(rng.uniform(0.5, 2.0))
        c = SystemConstants(
            eta=float(rng.uniform(0.003, 0.1)), L=1.0, G=1.0,
            sigma_global=1.0, H=int(tau.max()), N=n,
        )
        coefs = bound_coefficients(c)
        s1 = tau.sum(axis=0)
        s3 = (tau**2).sum(axis=0)

        def bound_value(rho):
            x = coefs.c * float(rho @ s3)
            y = c.eta**2 * c.N * float((sigma**2 * rho**2) @ s1)
            z = coefs.a * float((gamma * rho) @ s1)
            w = 1.0 + coefs.b * float(rho @ s1)
            return (r0 + x + y + z) / w

        rho = bound_optimal_weights(tau, c, sigma, gamma, r0=r0).rho
        step = 1e-6
        max_derivative = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                direction = np.zeros(n)
                direction[i], direction[j] = 1.0, -1.0
                direction /= np.sqrt(2.0)
                derivative = (
                    bound_value(rho + step * direction) - bound_value(rho - step * direction)
                ) / (2.0 * step)
                max_derivative = max(max_derivative, abs(derivative))
        worst_derivative = max(worst_derivative, max_derivative)
        if max_derivative < 1e-5:
            stationary_ok += 1
        here = bound_value(rho)
        if all(here <= bound_value(rng.dirichlet(np.ones(n))) for _ in range(1000)):
            minimal_ok += 1
    elapsed = time.perf_counter() - start
    ok = stationary_ok == 20 and minimal_ok == 20 and elapsed < 30.0
    announce(
        4,
        ok,
        f"stationary on {stationary_ok}/20 instances "
        f"(worst finite-difference derivative {worst_derivative:.2e}, tolerance 1e-5), "
        f"minimal vs 1000 random points on {minimal_ok}/20",
        elapsed,
    )
    assert ok, (
        "the fixed-point weights are not stationary points of the loss bound; "
        "this is a defect of the closed form itself, recorded as an expected failure"
    )


def test_criterion_05_loss_bound_validity():
    start = time.perf_counter()
    task_spec = TaskSpec(kind="quadratic", dimension=3, noniid_spread=0.0, sample_noise=0.5)
    scenario = dataclasses.replace(
        preset("case1", n_clients=10, data_size=32, batch_size=32),
        task=task_spec,
        full_batch=True,
    )
    constants = SystemConstants(eta=0.1, L=1.0, T=20, N=10, H=4, sigma_global=1.0)
    satisfied = 0
    excluded = 0
    for seed in range(100):
        log = run_tsfl(scenario, "tsfl-uniform", constants, seed=seed,
                       probe_count=3, equality_theta=True)
        report = evaluate_bound(log)
        if not (report.preconditions_met and report.applicable):
            excluded += 1
            continue
        satisfied += int(report.satisfied)
    elapsed = time.perf_counter() - start
    ok = satisfied >= 95 and elapsed < 60.0
    announce(5, ok, f"bound satisfied in {satisfied}/100 runs, {excluded} excluded", elapsed)
    assert ok


def test_criterion_06_convergence_bound_validity_and_scaling():
    start = time.perf_counter()
    task_spec = TaskSpec(
        kind="quadratic", dimension=3, noniid_spread=0.0, sample_noise=0.5, shared_curvature=True
    )
    scenario = dataclasses.replace(
        preset("case1", n_clients=10, data_size=32, batch_size=32),
        task=task_spec,
        full_batch=True,
    )
    constants = SystemConstants(eta=0.1, L=1.0, T=20, N=10, H=4, sigma_global=1.0)
    satisfied = 0
    for seed in range(100):
        log = run_tsfl(scenario, "tsfl-uniform", constants, seed=seed, probe_count=3)
        measured = dataclasses.replace(
            log.constants,
            V=max(float(log.analysis_inputs["v_hat"]), 1.0),
            epsilon=float(log.analysis_inputs["epsilon_hat"]),
        )
        assert measured.eta < measured.step_size_limit
        report = verify_convergence(log, measured)
        satisfied += int(report.applicable and report.satisfied)
    quarter_exact = convergence_rhs(constants, 400, 1.7) == convergence_rhs(constants, 100, 1.7) / 4.0
    elapsed = time.perf_counter() - start
    ok = satisfied == 100 and quarter_exact and elapsed < 60.0
    announce(
        6, ok,
        f"ceiling satisfied in {satisfied}/100 runs; rhs(T=400) == rhs(T=100)/4 exactly: {quarter_exact}",
        elapsed,
    )
    assert ok


def test_criterion_07_latency_reproduction():
    start = time.perf_counter()
    case1_row = latency_table([2.25], rounds=50, required_iterations=4)[0]
    sweep = latency_table([0.0, 1.25, 2.25], rounds=50)
    sfl_times = [row["sfl_seconds"] for row in sweep]
    tsfl_times = [row["tsfl_seconds"] for row in sweep]
    strictly_increasing = sfl_times[0] < sfl_times[1] < sfl_times[2]
    constant = len(set(tsfl_times)) == 1
    elapsed = time.perf_counter() - start
    ok = case1_row["ratio"] <= 0.5 and strictly_increasing and constant and elapsed < 10.0
    announce(
        7, ok,
        f"case1 ratio {case1_row['ratio']:.3f} <= 0.5; "
        f"round-driven times {[round(t, 1) for t in sfl_times]} strictly increasing; "
        f"time-driven constant {tsfl_times[0]:.0f}s",
        elapsed,
    )
    assert ok


def test_criterion_08_learning_performance_direction():
    start = time.perf_counter()
    task_spec = TaskSpec(
        kind="logistic", dimension=3, noniid_spread=0.5, separation=1.5, sample_noise=1.0
    )
    scenario = dataclasses.replace(
        preset("case1", n_clients=20, data_size=256, batch_size=32), task=task_spec
    )
    constants = SystemConstants(eta=0.1, L=1.0, T=40, N=20, H=4, sigma_global=1.0, gamma=0.5)
    means = {}
    for strategy in ("tsfl-dms", "fedavg", "fedasync"):
        finals = [
            run_strategy(scenario, strategy, constants, seed=seed, probe_count=4).final_loss
            for seed in range(10)
        ]
        means[strategy] = float(np.mean(finals))
    elapsed = time.perf_counter() - start
    ok = (
        means["tsfl-dms"] <= means["fedavg"]
        and means["tsfl-dms"] <= means["fedasync"]
        and elapsed < 300.0
    )
    announce(
        8, ok,
        "mean final loss over 10 seeds: dms={tsfl-dms:.4f} <= fedavg={fedavg:.4f}, "
        "fedasync={fedasync:.4f}".format(**means),
        elapsed,
    )
    assert ok


def test_criterion_09_reduction_identities():
    start = time.perf_counter()
    scenario = dataclasses.replace(
        preset("homogeneous", n_clients=6, tau=4, data_size=64),
        task=TaskSpec(kind="quadratic", dimension=3, noniid_spread=0.4, sample_noise=0.5),
        batch_size=8,
    )
    constants = SystemConstants(eta=0.05, L=1.0, N=6, H=4, T=8, sigma_global=1.0)
    log_sync = run_sfl(scenario, constants, seed=7, required_iterations=4)
    log_interval = run_tsfl(scenario, "fedavg", constants, seed=7)
    log_buffered = run_semi_async(scenario, 6, constants, seed=7, local_iterations=4)
    gap_interval = max(
        float(np.max(np.abs(a.model - b.model)))
        for a, b in zip(log_interval.records, log_sync.records)
    )
    gap_buffered = max(
        float(np.max(np.abs(a.model - b.model)))
        for a, b in zip(log_buffered.records, log_sync.records)
    )
    elapsed = time.perf_counter() - start
    ok = gap_interval <= 1e-12 and gap_buffered <= 1e-12 and elapsed < 10.0
    announce(
        9, ok,
        f"interval-vs-round gap {gap_interval:.1e}, buffered-vs-round gap {gap_buffered:.1e}",
        elapsed,
    )
    assert ok


def test_criterion_10_heterogeneity_degree_constants():
    start = time.perf_counter()
    delta1 = heterogeneity_degree(preset("case1").mean_tau)
    delta2 = heterogeneity_degree(preset("case2").mean_tau)
    elapsed = time.perf_counter() - start
    ok = delta1 == 2.25 and delta2 == 1.25 and elapsed < 1.0
    announce(10, ok, f"case1 delta = {delta1}, case2 delta = {delta2}", elapsed)
    assert ok


def test_criterion_11_participation_frequency_ordering(case3_dms_log):
    start = time.perf_counter()
    freq = participation_frequency(case3_dms_log)
    tiers = [freq[i * 5:(i + 1) * 5].mean() for i in range(4)]
    elapsed = time.perf_counter() - start
    ok = case3_dms_log.intervals == 10_000 and all(
        a <= b for a, b in zip(tiers, tiers[1:])
    ) and elapsed < 60.0
    announce(
        11, ok,
        "tier-mean participation " + ", ".join(f"{t:.3f}" for t in tiers)
        + " non-decreasing over a 10000-interval run (simulated in a shared fixture)",
        elapsed,
    )
    assert ok


def test_criterion_12_byte_identical_outputs(tmp_path):
    start = time.perf_counter()
    config = {
        "scenario": "case1",
        "scenario_options": {"n_clients": 4, "data_size": 64, "batch_size": 8},
        "task": {"kind": "quadratic", "dimension": 2, "noniid_spread": 0.3},
        "strategies": ["tsfl-dms", "fedavg"],
        "seeds": 2,
        "master_seed": 99,
        "constants": {"eta": 0.05, "T": 4, "H": 4},
        "estimate_probes": 2,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        outputs.append(
            {
                str(p.relative_to(out)): p.read_bytes()
                for p in sorted(out.rglob("*"))
                if p.is_file()
            }
        )
    elapsed = time.perf_counter() - start
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0 and elapsed < 10.0
    announce(12, ok, f"{len(outputs[0])} output files byte-identical across reruns", elapsed)
    assert ok


def test_criterion_13_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1313)
    worst = 0.0
    for kind in ("quadratic", "logistic"):
        if kind == "quadratic":
            task = QuadraticTask.generate(TaskSpec(dimension=3, noniid_spread=0.7, sample_noise=0.5), [8, 8, 8], rng)
        else:
            task = LogisticTask.generate(
                TaskSpec(kind="logistic", dimension=3, noniid_spread=0.5, sample_noise=1.0), [8, 8, 8], rng
            )
        for _ in range(100):
            w = rng.normal(size=task.dimension)
            client = int(rng.integers(task.n_clients))
            grad = task.local_grad(client, w)
            fd = np.zeros_like(w)
            for kdim in range(w.size):
                step = np.zeros_like(w)
                step[kdim] = 1e-5
                fd[kdim] = (
                    task.local_loss(client, w + step) - task.local_loss(client, w - step)
                ) / 2e-5
            relative = float(np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-6))
            worst = max(worst, relative)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    announce(13, ok, f"worst relative gradient error {worst:.2e} over 200 probes", elapsed)
    assert ok
