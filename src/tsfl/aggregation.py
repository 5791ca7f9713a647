"""Global-model update rules and aggregation-weight engines.

Every synchronous weight engine is a row-wise plan over ``(T, n)`` stacks of
iteration counts and masks, which weighs a whole run before it is trained
(the weights never read the model); its one-interval function is the
one-row case, bit for bit.

* ``proportional_weight_plan``: weights proportional to data sizes
  (``fedavg_weights``; strategies ``fedavg``, ``fedprox``, ``sfl``) or to
  ones (``uniform_weights``; ``tsfl-uniform``) over the masked clients.
* ``spaced_weight_plan`` / ``iteration_spaced_weights``: the closed form for
  equal noise levels, weight differences proportional to iteration-count
  differences (``tsfl-corollary1``).
* ``bound_optimal_weight_plan`` / ``bound_optimal_weights``: the damped fixed
  point of the optimal-weight system of the loss bound (``tsfl-theorem2``).
* ``dms_weight_plan`` / ``dms_weights``: discriminative model selection;
  threshold the counts at the interval mean, filter laggards with probability
  proportional to their shortfall, space the survivors' weights
  (``tsfl-dms``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import WEIGHT_SUM_TOL, SystemConstants, ensure_finite, row_dot


class FixedPointError(RuntimeError):
    """Raised when the weight fixed point fails to converge; carries the largest
    last residual and the intervals whose solve did not converge."""

    def __init__(self, message: str, residual: float, intervals=()):
        super().__init__(message)
        self.residual = residual
        self.intervals = list(intervals)


@dataclass(frozen=True)
class BoundCoefficients:
    """Scalar coefficients of the loss bound and its weight optimality system.

    ``a`` multiplies the data-distribution term, ``b`` the denominator sum,
    ``c`` the gradient-drift term.
    """

    a: float
    b: float
    c: float


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
    mask = np.ones((1, v.size), dtype=bool)
    projected = _project_rows(v[None], mask, mask)[0]
    if np.isnan(projected).any():
        raise ValueError("values are not finite or too large to project onto the simplex")
    return projected


def _project_rows(values: np.ndarray, mask: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Row-wise ``project_to_simplex`` over each row's masked entries; the
    others are zero. Every row needs at least one masked entry; ``valid`` is
    True on each row's first ``mask.sum()`` positions, where its masked
    entries lie once sorted to the front.

    Unmasked entries sort last and are replaced by zeros before any
    arithmetic, so they never enter a sum as infinities. A row with no
    position passing the test (a NaN, or values beyond about 2**53, where
    ``u + (1 - u)`` rounds to 0) comes back as NaN.
    """
    n = values.shape[1]
    u = np.where(valid, -np.sort(np.where(mask, -values, np.inf), axis=1), 0.0)
    cumulative = np.cumsum(u, axis=1)
    hit = valid & (u + (1.0 - cumulative) / np.arange(1, n + 1) > 0)
    last = n - 1 - np.argmax(hit[:, ::-1], axis=1)
    shift = (1.0 - cumulative[np.arange(len(u)), last]) / (last + 1.0)
    shift[~hit.any(axis=1)] = np.nan
    return np.where(mask, np.maximum(values + shift[:, None], 0.0), 0.0)


def proportional_weight_plan(values, mask) -> np.ndarray:
    """Weights proportional to ``values`` over each row's masked clients.

    ``values`` and ``mask`` broadcast to ``(..., n)``; a row with no masked
    client, or only zero values, is all zeros. A 1-D input is the one-row
    case. Data sizes and counts are whole numbers, so every row sum is exact.
    """
    masked = np.where(mask, values, 0.0)
    total = masked.sum(axis=-1, keepdims=True)
    return masked / np.where(total > 0.0, total, 1.0)


def fedavg_weights(data_sizes) -> WeightAssignment:
    """Weights proportional to client data sizes."""
    sizes = np.asarray(data_sizes, dtype=float)
    if sizes.size == 0:
        raise ValueError("no clients to weight")
    if np.any(sizes <= 0):
        raise ValueError("data sizes must be positive")
    return WeightAssignment(rho=proportional_weight_plan(sizes, True), method="fedavg")


def uniform_weights(participating) -> WeightAssignment:
    """Uniform weights over the participating clients."""
    mask = np.asarray(participating, dtype=bool)
    if not mask.any():
        raise ValueError("no participating clients")
    return WeightAssignment(rho=proportional_weight_plan(1.0, mask), method="uniform")


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


def spacing_slope(constants: SystemConstants, h=None):
    """Slope k of the weight-spacing law: rho_i - rho_j = k (tau_i - tau_j).
    ``h`` is one iteration cap, or an array of them giving one slope each."""
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


def spaced_weight_plan(tau, mask, constants: SystemConstants, h=None):
    """``iteration_spaced_weights`` for every row of a ``(T, n)`` stack at once.

    Returns ``(rho, rho_unclamped)``; a row was clamped where its
    ``rho_unclamped`` has a negative entry. ``h`` is one iteration cap, or one
    per row. Rows without a participant are zeros, and the slope is only
    checked when some row has one. Iteration counts are whole numbers, so the
    masked means are exact. A 1-D input is the one-row case.
    """
    tau = np.ascontiguousarray(tau, dtype=float)
    mask = np.ascontiguousarray(mask, dtype=bool)
    if not mask.any():
        return np.zeros(tau.shape), np.zeros(tau.shape)
    k = np.expand_dims(spacing_slope(constants, h=h), -1)
    m = np.maximum(mask.sum(axis=-1, keepdims=True), 1)
    mean = np.where(mask, tau, 0.0).sum(axis=-1, keepdims=True) / m
    raw = np.where(mask, 1.0 / m + k * (tau - mean), 0.0)
    # Clamp negative weights to zero and renormalize what is left; a row sums
    # to one, so a clamped row keeps a positive total.
    negative = raw < 0.0
    kept = np.where(negative, 0.0, raw)
    clamped = negative.any(axis=-1, keepdims=True)
    return kept / np.where(clamped, kept.sum(axis=-1, keepdims=True), 1.0), raw


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
    proportionally renormalized, with ``clamped`` flagged. The one-row case
    of ``spaced_weight_plan``.
    """
    tau = np.asarray(tau, dtype=float)
    mask = np.asarray(participating, dtype=bool)
    if tau.shape != mask.shape:
        raise ValueError("tau and participation mask must align")
    if not mask.any():
        raise ValueError("at least one client must participate")
    rho, raw = spaced_weight_plan(tau, mask, constants, h=h)
    return WeightAssignment(rho=rho, method="corollary1", clamped=bool((raw < 0.0).any()),
                            rho_unclamped=raw)


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


def filtering_probabilities(tau, k_t, h) -> np.ndarray:
    """``filtering_probability`` for every entry of ``tau``; ``k_t`` and ``h``
    may be arrays that broadcast against it."""
    if np.any(np.asarray(h) < 1):
        raise ValueError("h must be >= 1")
    tau = np.asarray(tau, dtype=float)
    return np.where(tau >= k_t, 0.0, (k_t - tau) / h)


def sample_participation(probabilities, rng) -> np.ndarray:
    """Independent Bernoulli participation flags: beta_i = 0 with probability p_i.
    A ``(T, n)`` stack draws its uniforms row after row, as T calls would."""
    p = np.asarray(probabilities, dtype=float)
    if np.any((p < 0.0) | (p > 1.0)):
        raise ValueError("filter probabilities must lie in [0, 1]")
    draws = rng.random(p.shape)
    return (draws >= p).astype(int)


def dms_weight_plan(tau, eligible, constants: SystemConstants, rng):
    """``dms_weights`` for every row of a ``(T, n)`` stack at once.

    Returns ``(rho, beta, rho_unclamped)``. The filter draw takes one uniform
    per client and row, rows in order, so ``rng`` ends where T successive
    ``dms_weights`` calls leave it, each row weighed as its call would weigh
    it. A 1-D input is the one-row case.
    """
    tau = np.ascontiguousarray(tau, dtype=float)
    mask = np.ascontiguousarray(eligible, dtype=bool)
    # Iteration counts are non-negative, so zeros stand in for the excluded.
    counts = np.where(mask, tau, 0.0)
    # A row whose cap is 0 (all eligible counts zero, or nobody eligible)
    # filters nobody; a cap of 1 gives it the same zero probabilities.
    h = np.maximum(counts.max(axis=-1, keepdims=True), 1.0)
    k_t = counts.sum(axis=-1, keepdims=True) / np.maximum(mask.sum(axis=-1, keepdims=True), 1)
    p = np.where(mask, filtering_probabilities(tau, k_t, h), 0.0)
    beta = mask & (sample_participation(p, rng) == 1)
    rho, raw = spaced_weight_plan(tau, beta, constants, h=h[..., 0])
    return rho, beta.astype(int), raw


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
    The one-row case of ``dms_weight_plan``.
    """
    tau = np.asarray(tau, dtype=float)
    mask = np.ones(tau.shape, dtype=bool) if eligible is None else eligible
    rho, beta, raw = dms_weight_plan(tau, mask, constants, rng)
    return WeightAssignment(rho=rho, method="dms", clamped=bool((raw < 0.0).any()),
                            rho_unclamped=raw, participation=beta)


class _BoundSystem:
    """The optimality system of the loss bound on a stack of rows.

    Row t holds interval t's running sums of participating ``tau`` and
    ``tau**2`` (``s1``, ``s3``), its participation mask, and the part of the
    update that no iterate changes (``drift``). All arithmetic is row-wise
    and its order is fixed, so a row's iterates are the same bits whichever
    rows are stacked with it.
    """

    def __init__(self, tau, beta, constants: SystemConstants, sigma_i, gamma_noniid,
                 r0: float, shared_noise_sums: bool):
        tau = np.atleast_2d(np.asarray(tau, dtype=float))
        beta = np.atleast_2d(np.asarray(beta, dtype=float))
        if beta.shape != tau.shape:
            raise ValueError("beta_history must match tau_history's shape")
        n = tau.shape[1]
        self.sigma = np.asarray(sigma_i, dtype=float)
        self.gamma = np.asarray(gamma_noniid, dtype=float)
        if self.sigma.shape != (n,) or self.gamma.shape != (n,):
            raise ValueError("sigma_i and gamma_noniid must have one entry per client")
        if np.any(self.sigma <= 0.0):
            clients = np.flatnonzero(self.sigma <= 0.0).tolist()
            raise ValueError(f"per-client noise bounds must be positive; clients {clients} have none")
        masked = tau * beta
        self.s1 = np.cumsum(masked, axis=0)          # participating tau, summed so far
        self.s3 = np.cumsum(masked * tau, axis=0)    # participating tau^2, summed so far
        self.mask = beta.astype(bool)
        self.coefs = coefs = bound_coefficients(constants)
        self.r0 = r0
        self.shared_noise_sums = shared_noise_sums
        self.eta2_n = constants.eta**2 * constants.N
        self.noise = self.eta2_n * self.sigma**2
        self.a_gamma = coefs.a * self.gamma
        self.drift = self.a_gamma + coefs.c * (tau * self.mask)
        self.denom_scale = 2.0 * self.noise

    def step(self, rho, s1, s3, drift) -> np.ndarray:
        coefs = self.coefs
        sum_rho_tau = row_dot(rho, s1)[:, None]
        w_denom = 1.0 + coefs.b * sum_rho_tau
        # d_vec: the constant aggregate of the optimality system, per row
        # (per client too, unless the noise sums are shared).
        if self.shared_noise_sums:
            noise_part = self.eta2_n * row_dot(self.sigma**2 * rho**2, s1)
            noniid_part = coefs.a * row_dot(self.gamma * rho, s1)
            d_vec = (self.r0 + noise_part + noniid_part + coefs.c * row_dot(rho, s3))[:, None]
        else:
            d_vec = (
                self.r0
                + self.noise * row_dot(rho**2, s1)[:, None]
                + self.a_gamma * sum_rho_tau
                + coefs.c * row_dot(rho, s3)[:, None]
            )
        return (coefs.b * d_vec + drift * w_denom) / (w_denom * self.denom_scale)

    def solve(self, rows, damping: float, tol: float, max_iter: int) -> np.ndarray:
        """Damped fixed point of every row in ``rows``, in lock-step; a row
        stops after the first step whose own residual is below ``tol``."""
        mask = self.mask[rows]
        count = mask.sum(axis=1)
        rho = np.where(mask, 1.0 / np.maximum(count, 1)[:, None], 0.0)
        # Rows with fewer than two participants are solved by the start point.
        live = np.flatnonzero(count >= 2)
        r, m = rho[live], mask[live]
        valid = np.arange(m.shape[1]) < count[live][:, None]
        s1, s3, drift = (a[rows][live] for a in (self.s1, self.s3, self.drift))
        residual = np.full(live.size, np.inf)
        for _ in range(max_iter):
            if not live.size:
                break
            proposal = (1.0 - damping) * r + damping * self.step(r, s1, s3, drift)
            projected = _project_rows(proposal, m, valid)
            residual = np.max(np.abs(projected - r), axis=1)
            lost = np.isnan(residual)
            if lost.any():
                # Weights that outgrew the projection diverge; no later step converges.
                live, residual = live[lost], np.full(lost.sum(), np.inf)
                break
            r = projected
            done = residual < tol
            if done.any():
                rho[live[done]] = r[done]
                keep = ~done
                live, r, m, valid, s1, s3, drift, residual = (
                    a[keep] for a in (live, r, m, valid, s1, s3, drift, residual)
                )
        if live.size:
            intervals = np.asarray(rows)[live].tolist()
            raise FixedPointError(
                f"weight fixed point did not converge for interval(s) {intervals}"
                f" (residual {residual.max():g})",
                float(residual.max()),
                intervals,
            )
        return rho


def bound_optimal_weight_plan(
    tau,
    beta,
    constants: SystemConstants,
    sigma_i,
    gamma_noniid,
    r0: float = 0.0,
    shared_noise_sums: bool = False,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 10_000,
) -> np.ndarray:
    """``bound_optimal_weights`` for every interval of a run at once.

    Row t of the ``(T, n)`` result is the weight vector for the history
    ``tau[:t+1]``, ``beta[:t+1]``, bit for bit: the history sums are running
    sums, and all T fixed points iterate as one row stack.
    ``FixedPointError`` names every interval that did not converge.
    """
    system = _BoundSystem(tau, beta, constants, sigma_i, gamma_noniid, r0, shared_noise_sums)
    return system.solve(np.arange(len(system.mask)), damping, tol, max_iter)


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
    Raises ``FixedPointError`` (carrying the last residual and naming the
    interval, the history's last row) if the iteration fails to reach ``tol``
    within ``max_iter`` steps; within the weight-limit regime
    (eta*L*(1+theta) >= 1, the setting the system presumes) the iteration
    converges, while far outside it the raw update can grow large enough to
    cycle under the projection. This is the one-row case of
    ``bound_optimal_weight_plan``.
    """
    tau_hist = np.atleast_2d(np.asarray(tau_history, dtype=float))
    beta_hist = np.ones_like(tau_hist) if beta_history is None else beta_history
    system = _BoundSystem(tau_hist, beta_hist, constants, sigma_i, gamma_noniid, r0,
                          shared_noise_sums)
    rho = system.solve([len(tau_hist) - 1], damping, tol, max_iter)
    return WeightAssignment(rho=rho[0], method="theorem2")
