import dataclasses

import numpy as np
import pytest

from tsfl.analysis import (
    convergence_rhs,
    estimate_dissimilarity,
    evaluate_bound,
    heterogeneity_degree,
    verify_convergence,
)
from tsfl.core import RunLog, SystemConstants, interval_records
from tsfl.scenarios import TaskSpec
from tsfl.training import QuadraticTask

from task_blocks import padded


def make_log(constants, tau, beta, rho, *, w0, w_star, final_grad_norm_sq,
             sigma_i=None, gamma=None, losses=None, grads=None, f_star=0.0):
    n = constants.N
    log = RunLog(
        scenario={"name": "synthetic"},
        seed=0,
        strategy="tsfl-uniform",
        constants=constants,
        records=interval_records(len(tau), n, np.size(w0)),
        initial_model=np.asarray(w0, dtype=float),
        final_model=np.asarray(w0, dtype=float),
        final_loss=0.0,
        final_grad_norm_sq=final_grad_norm_sq,
        analysis_inputs={
            "sigma_i": list(sigma_i if sigma_i is not None else np.zeros(n)),
            "gamma_noniid": list(gamma if gamma is not None else np.zeros(n)),
            "w_star": list(np.asarray(w_star, dtype=float)),
            "f_star": f_star,
        },
    )
    records = log.records
    records.t = np.arange(len(tau))
    records.tau = np.reshape(tau, (-1, n))
    records.beta = np.reshape(beta, (-1, n))
    records.rho = np.reshape(rho, (-1, n))
    records.global_loss = losses if losses else 1.0
    records.global_grad_norm_sq = grads if grads else 1.0
    records.wall_clock = np.arange(1.0, len(tau) + 1)
    records.aggregated = True
    log.validate()
    return log


# --- loss bound ---------------------------------------------------------------


def test_bound_with_zero_intervals_is_initial_distance():
    c = SystemConstants(eta=0.1, L=1.0, N=1, H=1, T=1)
    log = make_log(c, [], [], [], w0=[2.0, 0.0], w_star=[0.0, 0.0], final_grad_norm_sq=0.0)
    report = evaluate_bound(log)
    assert (report.x, report.y, report.z) == (0.0, 0.0, 0.0)
    assert report.w == 1.0
    assert report.bound_value == pytest.approx(4.0)


def test_bound_needs_recorded_participation_once_the_model_moved():
    # Rows that record no participant, while the model moved, leave the
    # aggregations out of the sums, as in the event runners.
    c = SystemConstants(eta=0.1, L=1.0, N=2, H=1, T=2)
    log = make_log(c, [[1, 1]] * 2, [[0, 0]] * 2, [[0.0, 0.0]] * 2,
                   w0=[1.0], w_star=[0.0], final_grad_norm_sq=0.0)
    report = evaluate_bound(log)
    assert (report.applicable, report.bound_value, report.satisfied) == (False, None, False)
    log.records.aggregated = False  # the model never moved: the bound is the initial distance
    report = evaluate_bound(log)
    assert report.applicable
    assert report.bound_value == pytest.approx(1.0)


def test_bound_single_client_hand_computed():
    # eta=0.1, L=1, G=1, sigma=1, Gamma=1, H=1, theta at the equality point:
    # X=0 (no drift with H=1), Y=0.01, Z=0.01, W=1.
    c = SystemConstants(eta=0.1, L=1.0, G=1.0, sigma_global=1.0, H=1, N=1, T=1)
    log = make_log(
        c,
        tau=[[1]], beta=[[1]], rho=[[1.0]],
        w0=[1.0], w_star=[0.0],
        final_grad_norm_sq=0.04,
        sigma_i=[1.0], gamma=[1.0],
    )
    report = evaluate_bound(log)
    assert report.x == 0.0
    assert report.y == pytest.approx(0.01)
    assert report.z == pytest.approx(0.01)
    assert report.w == 1.0
    assert report.bound_value == pytest.approx(1.02)
    assert report.measured == pytest.approx(0.04)
    assert report.satisfied and report.applicable and report.preconditions_met


def test_bound_matches_double_loop_oracle_on_case1_shape():
    rng = np.random.default_rng(17)
    n, horizon = 20, 12
    c = SystemConstants(eta=0.02, L=1.3, G=1.7, sigma_global=1.0, H=4, N=n, T=horizon, theta=45.0)
    tau = [rng.integers(0, 5, size=n).tolist() for _ in range(horizon)]
    rho_rows, beta_rows = [], []
    for t in range(horizon):
        raw = rng.random(n)
        rho_rows.append((raw / raw.sum()).tolist())
        beta_rows.append([1] * n)
    sigma = rng.uniform(0.2, 1.5, size=n)
    gamma = rng.uniform(0.0, 2.0, size=n)
    w0 = rng.normal(size=3)
    w_star = rng.normal(size=3)
    log = make_log(
        c, tau, beta_rows, rho_rows, w0=w0, w_star=w_star,
        final_grad_norm_sq=0.5, sigma_i=sigma, gamma=gamma,
    )
    report = evaluate_bound(log)

    # Independent oracle: explicit double loops over clients and intervals.
    eta, smooth, theta = c.eta, c.L, c.theta
    a = eta * (2 * smooth * (eta * smooth * (1 + theta) - 1) + eta)
    b = 2 * eta * smooth * (1 - eta * smooth * (1 + theta))
    drift = eta**3 * smooth * (c.H - 1) * c.G**2
    x = y = z = s = 0.0
    for i in range(n):
        for t in range(horizon):
            x += drift * rho_rows[t][i] * tau[t][i] ** 2
            y += eta**2 * n * sigma[i] ** 2 * rho_rows[t][i] ** 2 * tau[t][i]
            z += a * rho_rows[t][i] * tau[t][i] * gamma[i]
            s += rho_rows[t][i] * tau[t][i]
    w = 1 + b * s
    r0 = float(np.sum((w0 - w_star) ** 2))
    assert report.x == pytest.approx(x, abs=1e-12)
    assert report.y == pytest.approx(y, abs=1e-12)
    assert report.z == pytest.approx(z, abs=1e-12)
    assert report.w == pytest.approx(w, abs=1e-12)
    assert report.bound_value == pytest.approx((r0 + x + y + z) / w, abs=1e-12)


def test_bound_inapplicable_when_denominator_nonpositive():
    # theta=1 with tiny eta makes b large and positive... b > 0 keeps w >= 1,
    # so instead push b negative hard: large eta*L*(1+theta) and many
    # weighted iterations drive w below zero.
    c = SystemConstants(eta=0.4, L=1.0, G=1.0, sigma_global=1.0, H=4, N=2, T=3, theta=9.0)
    tau = [[4, 4]] * 3
    beta = [[1, 1]] * 3
    rho = [[0.5, 0.5]] * 3
    log = make_log(c, tau, beta, rho, w0=[1.0], w_star=[0.0], final_grad_norm_sq=0.1)
    report = evaluate_bound(log)
    assert report.w <= 0.0
    assert not report.applicable
    assert report.bound_value is None


def test_bound_precondition_flags():
    c = SystemConstants(eta=0.1, L=1.0, theta=1.0, H=2, N=1, T=1)  # weight limit violated
    log = make_log(c, [[1]], [[1]], [[1.0]], w0=[1.0], w_star=[0.0], final_grad_norm_sq=0.0)
    report = evaluate_bound(log)
    assert not report.preconditions_met
    # Observed tau above the configured cap raises h_used and clears the flag.
    c2 = SystemConstants(eta=0.1, L=1.0, H=2, N=1, T=1)
    log2 = make_log(c2, [[5]], [[1]], [[1.0]], w0=[1.0], w_star=[0.0], final_grad_norm_sq=0.0)
    report2 = evaluate_bound(log2)
    assert report2.h_used == 5
    assert not report2.preconditions_met


# --- heterogeneity degree -------------------------------------------------------


def test_heterogeneity_case_values():
    case1 = [1.0] * 10 + [4.0] * 10
    case2 = [1.0] * 5 + [2.0] * 5 + [3.0] * 5 + [4.0] * 5
    assert heterogeneity_degree(case1) == pytest.approx(2.25)
    assert heterogeneity_degree(case2) == pytest.approx(1.25)
    assert heterogeneity_degree([3, 3, 3]) == 0.0


def test_heterogeneity_translation_and_scaling():
    rng = np.random.default_rng(4)
    tau = rng.uniform(1, 5, size=12)
    base = heterogeneity_degree(tau)
    assert heterogeneity_degree(tau + 7.0) == pytest.approx(base)
    assert heterogeneity_degree(3.0 * tau) == pytest.approx(9.0 * base)


# --- dissimilarity ---------------------------------------------------------------


def _quadratic(centers, curvature=1.0):
    return QuadraticTask(
        [np.array([[curvature]]) for _ in centers],
        [np.array([c]) for c in centers],
        *padded([np.zeros((2, 1)) for _ in centers]),
    )


def test_dissimilarity_single_client_is_unbiased():
    task = _quadratic([0.0])
    v_hat, eps_hat = estimate_dissimilarity(task, [np.array([2.0]), np.array([-1.0])])
    assert v_hat == pytest.approx(1.0)
    assert eps_hat == pytest.approx(1.0)


def test_dissimilarity_identical_clients():
    task = _quadratic([0.5, 0.5])
    v_hat, eps_hat = estimate_dissimilarity(task, [np.array([2.0])])
    assert v_hat == pytest.approx(1.0)
    assert eps_hat == pytest.approx(1.0)


def test_dissimilarity_two_offset_quadratics():
    task = _quadratic([-1.0, 1.0])
    v_hat, eps_hat = estimate_dissimilarity(task, [np.array([2.0])])
    assert v_hat**2 == pytest.approx(1.25)  # mean(9,1)/4
    assert eps_hat == pytest.approx(1.0)


def test_dissimilarity_skips_zero_gradient_probes():
    task = _quadratic([-1.0, 1.0])
    with pytest.raises(ValueError):
        estimate_dissimilarity(task, [np.array([0.0])])  # global optimum: grad 0
    v_hat, _ = estimate_dissimilarity(task, [np.array([0.0]), np.array([2.0])])
    assert v_hat**2 == pytest.approx(1.25)


def _dissimilarity_loop(task, probe_points):
    """``estimate_dissimilarity`` with one ``local_grad`` call per client."""
    v_sq_max, eps_min = None, None
    for w in probe_points:
        global_grad = task.global_grad(w)
        denom = float(np.dot(global_grad, global_grad))
        if denom <= 1e-24:
            continue
        local_grads = [task.local_grad(i, w) for i in range(task.n_clients)]
        v_sq = float(np.mean([np.dot(g, g) for g in local_grads])) / denom
        eps = float(np.dot(global_grad, np.mean(local_grads, axis=0))) / denom
        v_sq_max = v_sq if v_sq_max is None else max(v_sq_max, v_sq)
        eps_min = eps if eps_min is None else min(eps_min, eps)
    return float(np.sqrt(v_sq_max)), float(eps_min)


@pytest.mark.parametrize("kind, dimension", [("quadratic", 1), ("quadratic", 4), ("logistic", 3)])
def test_dissimilarity_equals_the_per_client_loop(kind, dimension):
    sizes = [10, 50, 20, 64, 33, 8, 50, 64, 12, 40, 64]
    noise = 1.0 if kind == "logistic" else 0.5
    rng = np.random.default_rng(12)
    task = TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.8, sample_noise=noise).build(sizes, rng)
    probes = list(rng.normal(size=(6, task.dimension)))
    assert estimate_dissimilarity(task, probes) == _dissimilarity_loop(task, probes)


# --- convergence diagnostic -------------------------------------------------------


def test_convergence_at_optimum_is_tightly_satisfied():
    c = SystemConstants(eta=0.1, L=1.0, epsilon=1.0, V=1.0, N=1, T=1, H=1)
    log = make_log(
        c, [[1]], [[1]], [[1.0]], w0=[0.0], w_star=[0.0],
        final_grad_norm_sq=0.0, grads=[0.0], losses=[0.0], f_star=0.0,
    )
    report = verify_convergence(log)
    assert report.mean_cum_grad == 0.0
    assert report.bound == 0.0
    assert report.satisfied


def test_convergence_rhs_frozen_value():
    # Single-client run shape: eta=0.1, L=V=epsilon=1, loss gap 1, T=10.
    c = SystemConstants(eta=0.1, L=1.0, epsilon=1.0, V=1.0, N=1, H=1, T=10)
    assert convergence_rhs(c, 10, 1.0) == pytest.approx(1.0526315789473684)


def test_convergence_lhs_below_rhs_on_plain_descent():
    c = SystemConstants(eta=0.1, L=1.0, epsilon=1.0, V=1.0, N=1, H=1, T=10)
    w = np.sqrt(2.0)
    grads, losses = [], []
    for _ in range(10):
        grads.append(w**2)
        losses.append(0.5 * w**2)
        w *= 1.0 - c.eta
    log = make_log(
        c, [[1]] * 10, [[1]] * 10, [[1.0]] * 10, w0=[np.sqrt(2.0)], w_star=[0.0],
        final_grad_norm_sq=w**2, grads=grads, losses=losses, f_star=0.0,
    )
    report = verify_convergence(log)
    assert report.bound == pytest.approx(1.0526315789473684)
    assert report.mean_cum_grad == pytest.approx(0.9246561530625588)
    assert report.satisfied


def test_convergence_rhs_scales_inversely_with_horizon():
    c = SystemConstants(eta=0.05, L=1.0, epsilon=1.0, V=1.0)
    assert convergence_rhs(c, 400, 3.0) == pytest.approx(convergence_rhs(c, 100, 3.0) / 4.0)
    assert convergence_rhs(c, 200, 3.0) == pytest.approx(convergence_rhs(c, 100, 3.0) / 2.0)


def test_convergence_rhs_linear_in_loss_gap():
    c = SystemConstants(eta=0.05, L=1.0, epsilon=1.0, V=1.0)
    assert convergence_rhs(c, 50, 2.0) == pytest.approx(2.0 * convergence_rhs(c, 50, 1.0))


def test_convergence_inapplicable_above_step_limit():
    c = SystemConstants(eta=2.5, L=1.0, epsilon=1.0, V=1.0, N=1, H=1, T=1)
    log = make_log(
        c, [[1]], [[1]], [[1.0]], w0=[1.0], w_star=[0.0],
        final_grad_norm_sq=1.0, grads=[1.0], losses=[0.5], f_star=0.0,
    )
    report = verify_convergence(log)
    assert not report.applicable
    assert report.bound is None
