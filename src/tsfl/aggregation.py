"""Global-model update rules and aggregation-weight engines.

Alongside the standard baselines (data-size weighting, depreciated
asynchronous blending) this module implements the interval weight engines:

* ``iteration_spaced_weights`` - the closed form for equal noise levels,
  where weight differences are proportional to iteration-count differences
  (strategy name ``tsfl-corollary1``).
* ``bound_optimal_weights`` - the damped fixed point of the self-consistent
  optimal-weight system derived from the loss bound, with an optional
  participation mask (strategy names ``tsfl-theorem2`` and the masked form
  used inside DMS analysis).
* ``dms_weights`` - discriminative model selection: threshold the iteration
  counts at the interval mean, filter laggards with probability proportional
  to their shortfall, then space the survivors' weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WEIGHT_SUM_TOL, SystemConstants, ensure_finite


class FixedPointError(RuntimeError):
    """Raised when the weight fixed point fails to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class BoundCoefficients:
    """Scalar coefficients of the loss bound and its weight optimality system.

    ``a`` multiplies the data-distribution term, ``b`` the denominator sum,
    ``c`` the gradient-drift term. ``d``, ``e`` and ``f_coef`` are the
    history-dependent aggregates of the optimality system; they are filled in
    by the fixed-point solver at convergence and default to zero otherwise.
    """

    a: float
    b: float
    c: float
    d: float = 0.0
    e: float = 0.0
    f_coef: float = 0.0


def bound_coefficients(constants: SystemConstants, h: int | None = None) -> BoundCoefficients:
    eta, smooth = constants.eta, constants.L
    h_eff = constants.H if h is None else h
    product = eta * smooth * (1.0 + constants.theta)
    a = eta * (2.0 * smooth * (product - 1.0) + eta)
    b = 2.0 * eta * smooth * (1.0 - product)
    c = eta**3 * smooth * (h_eff - 1.0) * constants.G**2
    return BoundCoefficients(a=a, b=b, c=c)


@dataclass
class WeightAssignment:
    """Per-client aggregation weights plus how they were produced.

    ``rho_unclamped`` preserves the raw closed-form values before any
    negativity clamping, so the spacing law stays checkable. ``clamped`` is
    set when clamping changed the result.
    """

    rho: np.ndarray
    method: str
    clamped: bool = False
    rho_unclamped: np.ndarray | None = None
    coefficients: BoundCoefficients | None = None
    participation: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho_unclamped is None:
            self.rho_unclamped = self.rho.copy()

    @property
    def any_participant(self) -> bool:
        return bool(np.any(self.rho > 0.0))

    def check(self) -> None:
        if np.any(self.rho < 0.0):
            raise ValueError("weights must be non-negative")
        if self.any_participant and abs(self.rho.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {self.rho.sum()!r}")


def project_to_simplex(values: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    v = np.asarray(values, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    rho_idx = np.nonzero(u + (1.0 - cumulative) / np.arange(1, v.size + 1) > 0)[0][-1]
    shift = (1.0 - cumulative[rho_idx]) / (rho_idx + 1.0)
    return np.maximum(v + shift, 0.0)


def clamp_negative_weights(rho: np.ndarray, participating: np.ndarray) -> tuple[np.ndarray, bool]:
    """Zero out negative weights and proportionally renormalize the rest."""
    rho = rho.copy()
    if not np.any(rho < 0.0):
        return rho, False
    rho[rho < 0.0] = 0.0
    total = rho.sum()
    if total <= 0.0:
        # All-participants-negative cannot occur with a unit sum, but guard
        # against degenerate masks by falling back to uniform.
        active = participating.astype(bool)
        rho[active] = 1.0 / active.sum()
        return rho, True
    return rho / total, True


def fedavg_weights(data_sizes) -> WeightAssignment:
    """Weights proportional to client data sizes."""
    sizes = np.asarray(data_sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("no clients to weight")
    if np.any(sizes <= 0):
        raise ValueError("data sizes must be positive")
    return WeightAssignment(rho=sizes / sizes.sum(), method="fedavg")


def uniform_weights(participating) -> WeightAssignment:
    """Uniform weights over the participating clients."""
    mask = np.asarray(participating, dtype=bool)
    if not mask.any():
        raise ValueError("no participating clients")
    rho = np.zeros(mask.size)
    rho[mask] = 1.0 / mask.sum()
    return WeightAssignment(rho=rho, method="uniform")


def aggregate(models, weights: WeightAssignment) -> np.ndarray:
    """Convex combination of client models under a weight assignment."""
    weights.check()
    if not weights.any_participant:
        raise ValueError("aggregate called with no participating clients")
    stacked = np.asarray(models, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] != weights.rho.size:
        raise ValueError("need one model per weight, all with equal dimension")
    return ensure_finite(weights.rho @ stacked, "aggregate")


def fedasync_update(prev_global: np.ndarray, local_models, gamma: float) -> np.ndarray:
    """Depreciated blend of the previous global model with the local mean.

    gamma=1 keeps the previous global model; gamma=0 returns the plain mean
    of the supplied local models.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    stacked = np.asarray(local_models, dtype=float)
    if stacked.ndim != 2 or stacked.shape[0] == 0:
        raise ValueError("need at least one local model")
    blended = gamma * np.asarray(prev_global, dtype=float) + (1.0 - gamma) * stacked.mean(axis=0)
    return ensure_finite(blended, "fedasync_update")


def spacing_slope(constants: SystemConstants, h: int | None = None) -> float:
    """Slope k of the weight-spacing law: rho_i - rho_j = k (tau_i - tau_j)."""
    if constants.sigma_global <= 0.0:
        raise ValueError("weight spacing undefined at sigma=0")
    h_eff = constants.H if h is None else h
    return (
        constants.eta
        * constants.L
        * (h_eff - 1.0)
        * constants.G**2
        / (2.0 * constants.N * constants.sigma_global**2)
    )


def iteration_spaced_weights(
    tau,
    participating,
    constants: SystemConstants,
    h: int | None = None,
) -> WeightAssignment:
    """Closed-form weights for equal per-client noise: linear in iteration count.

    Participants receive 1/M plus the spacing slope times their deviation from
    the participant-mean iteration count; everyone else receives zero. If the
    spread pushes a weight negative it is clamped to zero and the remainder is
    proportionally renormalized, with ``clamped`` flagged.
    """
    tau = np.asarray(tau, dtype=float)
    mask = np.asarray(participating, dtype=bool)
    if tau.shape != mask.shape:
        raise ValueError("tau and participation mask must align")
    m = int(mask.sum())
    if m == 0:
        raise ValueError("at least one client must participate")
    k = spacing_slope(constants, h=h)
    rho = np.zeros(tau.size)
    tau_mean = tau[mask].mean()
    rho[mask] = 1.0 / m + k * (tau[mask] - tau_mean)
    raw = rho.copy()
    rho, clamped = clamp_negative_weights(rho, mask)
    return WeightAssignment(rho=rho, method="corollary1", clamped=clamped, rho_unclamped=raw)


def dms_threshold(tau) -> float:
    """Iteration threshold: the mean iteration count over all clients."""
    tau = np.asarray(tau, dtype=float)
    if tau.size == 0:
        raise ValueError("need at least one client")
    return float(tau.mean())


def filtering_probability(tau_i: float, k_t: float, h: int) -> float:
    """Probability that a below-threshold client is dropped this interval.

    Clients at or above the threshold are never filtered. The result lies in
    [0, 1] whenever ``h`` is at least the largest iteration count.
    """
    return float(filtering_probabilities([tau_i], k_t, h)[0])


def filtering_probabilities(tau, k_t: float, h: int) -> np.ndarray:
    """``filtering_probability`` for every entry of ``tau``."""
    if h < 1:
        raise ValueError("h must be >= 1")
    tau = np.asarray(tau, dtype=float)
    return np.where(tau >= k_t, 0.0, (k_t - tau) / h)


def sample_participation(probabilities, rng) -> np.ndarray:
    """Independent Bernoulli participation flags: beta_i = 0 with probability p_i."""
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("filter probabilities must lie in [0, 1]")
    draws = rng.random(p.size)
    return (draws >= p).astype(int)


def dms_weights(
    tau,
    constants: SystemConstants,
    rng,
    eligible=None,
) -> WeightAssignment:
    """Discriminative model selection for one interval.

    Updates the iteration cap to the interval maximum, thresholds at the mean
    iteration count, filters laggards by their shortfall probability, then
    assigns iteration-spaced weights to the survivors. ``eligible`` marks
    clients whose upload reached the server at all (client-selection systems);
    ineligible clients are excluded before any statistic is computed and the
    Bernoulli draw still consumes one uniform per client so replay stays
    aligned. Returns an all-zero assignment when every client is filtered.
    """
    tau = np.asarray(tau, dtype=float)
    mask = np.ones(tau.size, dtype=bool) if eligible is None else np.asarray(eligible, dtype=bool)
    p = np.zeros(tau.size)
    h_t = int(tau[mask].max()) if mask.any() else 0
    if h_t >= 1:
        p[mask] = filtering_probabilities(tau[mask], dms_threshold(tau[mask]), h_t)
    beta = mask & (sample_participation(p, rng) == 1)
    if not beta.any():
        zeros = np.zeros(tau.size, dtype=int)
        return WeightAssignment(rho=np.zeros(tau.size), method="dms", participation=zeros)
    spaced = iteration_spaced_weights(tau, beta, constants, h=max(h_t, 1))
    return WeightAssignment(
        rho=spaced.rho,
        method="dms",
        clamped=spaced.clamped,
        rho_unclamped=spaced.rho_unclamped,
        participation=beta.astype(int),
    )


def bound_optimal_weights(
    tau_history,
    constants: SystemConstants,
    sigma_i,
    gamma_noniid,
    beta_history=None,
    r0: float = 0.0,
    shared_noise_sums: bool = False,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> WeightAssignment:
    """Damped fixed point of the self-consistent optimal-weight system.

    ``tau_history`` holds one row per interval up to and including the current
    one; the last row supplies the current iteration counts while the history
    sums run over all rows with the candidate weights applied throughout.
    ``beta_history`` (same shape) masks filtered contributions; its last row
    restricts the solve to participating clients, who alone receive weight.

    As printed, the constant aggregate of the system carries the *client's
    own* noise level and optimum distance outside the history sums; set
    ``shared_noise_sums=True`` for the client-independent reading that sums
    each client's own noise inside. ``r0`` is the squared distance from the
    initial to the optimal model entering that aggregate.

    Each damped step is projected onto the simplex of participating clients.
    Raises ``FixedPointError`` (carrying the last residual) if the iteration
    fails to reach ``tol`` within ``max_iter`` steps; within the weight-limit
    regime (eta*L*(1+theta) >= 1, the setting the system presumes) the
    iteration converges, while far outside it the raw update can grow large
    enough to cycle under the projection.
    """
    tau_hist = np.atleast_2d(np.asarray(tau_history, dtype=float))
    n = tau_hist.shape[1]
    if beta_history is None:
        beta_hist = np.ones_like(tau_hist)
    else:
        beta_hist = np.atleast_2d(np.asarray(beta_history, dtype=float))
        if beta_hist.shape != tau_hist.shape:
            raise ValueError("beta_history must match tau_history's shape")
    sigma = np.asarray(sigma_i, dtype=float)
    gamma = np.asarray(gamma_noniid, dtype=float)
    if sigma.shape != (n,) or gamma.shape != (n,):
        raise ValueError("sigma_i and gamma_noniid must have one entry per client")
    if np.any(sigma <= 0.0):
        raise ValueError("per-client noise bounds must be positive")

    mask = beta_hist[-1].astype(bool)
    if not mask.any():
        return WeightAssignment(rho=np.zeros(n), method="theorem2")
    if mask.sum() == 1:
        rho = np.zeros(n)
        rho[mask] = 1.0
        return WeightAssignment(rho=rho, method="theorem2")

    coefs = bound_coefficients(constants)
    masked_tau = tau_hist * beta_hist
    s1 = masked_tau.sum(axis=0)            # per-client sum of participating tau
    s3 = (masked_tau * tau_hist).sum(axis=0)  # per-client sum of participating tau^2
    tau_now = tau_hist[-1] * mask
    denom_scale = 2.0 * constants.eta**2 * constants.N * sigma**2

    def d_vector(rho: np.ndarray, sum_rho_tau: float) -> np.ndarray:
        """Per-client constant aggregate of the optimality system."""
        return (
            r0
            + constants.eta**2 * constants.N * sigma**2 * float((rho**2) @ s1)
            + coefs.a * gamma * sum_rho_tau
            + coefs.c * float(rho @ s3)
        )

    def step(rho: np.ndarray) -> np.ndarray:
        sum_rho_tau = float(rho @ s1)
        w_denom = 1.0 + coefs.b * sum_rho_tau
        if shared_noise_sums:
            noise_part = constants.eta**2 * constants.N * float((sigma**2 * rho**2) @ s1)
            noniid_part = coefs.a * float((gamma * rho) @ s1)
            d_const = r0 + noise_part + noniid_part + coefs.c * float(rho @ s3)
            d_vec = np.full(n, d_const)
        else:
            d_vec = d_vector(rho, sum_rho_tau)
        return (coefs.b * d_vec + (coefs.a * gamma + coefs.c * tau_now) * w_denom) / (
            w_denom * denom_scale
        )

    rho = np.zeros(n)
    rho[mask] = 1.0 / mask.sum()
    residual = float("inf")
    for _ in range(max_iter):
        proposal = (1.0 - damping) * rho + damping * step(rho)
        projected = np.zeros(n)
        projected[mask] = project_to_simplex(proposal[mask])
        residual = float(np.max(np.abs(projected - rho)))
        rho = projected
        if residual < tol:
            break
    else:
        raise FixedPointError(
            f"weight fixed point did not converge (residual {residual:g})", residual
        )

    # Record the converged aggregates of the optimality system for inspection:
    # d is the mean constant aggregate over clients, e its masked analog, and
    # f_coef the converged denominator factor.
    sum_rho_tau = float(rho @ s1)
    d_values = d_vector(rho, sum_rho_tau)
    converged = BoundCoefficients(
        a=coefs.a,
        b=coefs.b,
        c=coefs.c,
        d=float(d_values.mean()),
        e=float(d_values[mask].mean()),
        f_coef=1.0 + coefs.b * sum_rho_tau,
    )
    return WeightAssignment(rho=rho, method="theorem2", coefficients=converged)
