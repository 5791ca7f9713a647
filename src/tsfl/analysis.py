"""Numeric embodiment of the theory: loss-bound evaluation and convergence checks.

Reports are computed post hoc from run logs and never steer a simulation, so
the engine and the diagnostics stay independently testable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import RunLog, SystemConstants, row_dot
from .aggregation import bound_coefficients


@dataclass
class BoundReport:
    """Evaluation of the loss upper bound against the measured final gradient.

    ``x`` is the gradient-drift term, ``y`` the mini-batch term, ``z`` the
    data-distribution term and ``w`` the denominator. ``applicable`` is False,
    and no bound value is reported, when the denominator is non-positive or
    when the log records no participation (see
    ``RunLog.participation_recorded``), so the sums miss the aggregations.
    ``preconditions_met`` tracks the weight-limit regime and the
    iteration-cap consistency of the run.
    """

    x: float
    y: float
    z: float
    w: float
    r0: float
    bound_value: float | None
    measured: float
    satisfied: bool
    preconditions_met: bool
    applicable: bool
    h_used: int

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ConvergenceReport:
    """Mean cumulative squared gradient against its theoretical ceiling."""

    mean_cum_grad: float
    bound: float | None
    satisfied: bool
    applicable: bool
    step_size_limit: float

    def to_dict(self) -> dict:
        return asdict(self)


def convergence_rhs(constants: SystemConstants, intervals: int, loss_gap: float) -> float:
    """Right-hand side of the convergence diagnostic.

    Equals 2*(F0 - F*) / (T * eta * (2*epsilon - eta*L*V^2)). Scales exactly
    as 1/T and linearly in the initial loss gap.
    """
    margin = 2.0 * constants.epsilon - constants.eta * constants.L * constants.V**2
    return 2.0 * loss_gap / (intervals * constants.eta * margin)


def verify_convergence(log: RunLog, constants: SystemConstants | None = None) -> ConvergenceReport:
    """Check the mean cumulative squared gradient against its ceiling.

    The initial loss is the log's first ``global_loss`` and the optimal loss
    its analysis input ``f_star``; ``constants`` defaults to the log's. The
    report is marked inapplicable when the learning rate violates
    eta < 2*epsilon/(V^2*L), where the ceiling's denominator changes sign.
    """
    c = constants if constants is not None else log.constants
    f0 = float(log.records[0].global_loss)
    f_star = float(log.analysis_inputs["f_star"])
    lhs = float(log.grad_norms().mean())
    applicable = c.eta < c.step_size_limit
    rhs = convergence_rhs(c, log.intervals, f0 - f_star) if applicable else None
    return ConvergenceReport(
        mean_cum_grad=lhs,
        bound=rhs,
        satisfied=applicable and lhs <= rhs,
        applicable=applicable,
        step_size_limit=c.step_size_limit,
    )


def evaluate_bound(log: RunLog) -> BoundReport:
    """Evaluate the loss upper bound over a run log.

    The four sums run over every interval and client of the log. Everything
    is read from the log: its constants, its initial model, and its analysis
    inputs ``sigma_i``, ``gamma_noniid`` and ``w_star``. The iteration cap
    entering the drift coefficient is raised to the largest observed count if
    the configured one is smaller; that situation also clears
    ``preconditions_met``.
    """
    c = log.constants
    inputs = log.analysis_inputs
    sigma = np.asarray(inputs["sigma_i"], dtype=float)
    gamma = np.asarray(inputs["gamma_noniid"], dtype=float)
    start = np.asarray(log.initial_model, dtype=float)
    optimum = np.asarray(inputs["w_star"], dtype=float)

    rho = log.rho_matrix()
    tau = log.tau_matrix().astype(float)
    observed_h = int(tau.max()) if tau.size else 0
    h_used = max(c.H, observed_h)
    coefs = bound_coefficients(c, h=h_used)

    sum_rho_tau = float((rho * tau).sum())
    x = coefs.c * float((rho * tau**2).sum())
    y = c.eta**2 * c.N * float((sigma**2 * (rho**2 * tau).sum(axis=0)).sum())
    z = coefs.a * float((gamma * (rho * tau).sum(axis=0)).sum())
    w = 1.0 + coefs.b * sum_rho_tau
    r0 = float(np.sum((start - optimum) ** 2))

    preconditions_met = c.weight_limit_ok and observed_h <= c.H
    measured = float(log.final_grad_norm_sq) / c.L**2
    applicable = w > 0.0 and log.participation_recorded
    bound_value = (r0 + x + y + z) / w if applicable else None
    return BoundReport(
        x=x, y=y, z=z, w=w, r0=r0,
        bound_value=bound_value,
        measured=measured,
        satisfied=applicable and measured <= bound_value,
        preconditions_met=preconditions_met,
        applicable=applicable,
        h_used=h_used,
    )


def heterogeneity_degree(tau_mean) -> float:
    """Population variance of per-client mean iteration counts."""
    tau = np.asarray(tau_mean, dtype=float)
    if tau.size == 0:
        raise ValueError("need at least one client")
    return float(np.var(tau))


def estimate_dissimilarity(task, probe_points) -> tuple[float, float]:
    """Estimate the dissimilarity bound and alignment constant from probes.

    At each probe with a non-negligible global gradient, the dissimilarity
    ratio is the client-mean squared local-gradient norm over the squared
    global norm, and the alignment ratio is the inner product of the global
    gradient with the client-mean local gradient over the squared global
    norm. Returns (max dissimilarity root, min alignment). Raises when every
    probe has a near-zero global gradient.
    """
    v_sq_max = None
    eps_min = None
    everyone = np.arange(task.n_clients)
    for w in probe_points:
        w = np.asarray(w, dtype=float)
        global_grad = task.global_grad(w)
        denom = float(np.dot(global_grad, global_grad))
        if denom <= 1e-24:
            continue
        # One stacked call; its rows equal the one-client local_grad bit for bit.
        local_grads = task.local_grads(everyone, np.tile(w, (task.n_clients, 1)))
        mean_sq = float(np.mean(row_dot(local_grads, local_grads)))
        mean_grad = local_grads.mean(axis=0)
        v_sq = mean_sq / denom
        eps = float(np.dot(global_grad, mean_grad)) / denom
        v_sq_max = v_sq if v_sq_max is None else max(v_sq_max, v_sq)
        eps_min = eps if eps_min is None else min(eps_min, eps)
    if v_sq_max is None:
        raise ValueError("every probe point had a near-zero global gradient")
    return float(np.sqrt(v_sq_max)), float(eps_min)
