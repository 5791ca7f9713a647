"""Local SGD on synthetic tasks with analytically known optima.

Two task families are provided. Quadratic tasks are the verification
workhorse: local optima, the global optimum, smoothness, and the non-IID
distances are all exact. Logistic tasks produce the accuracy-style separation
between aggregation strategies; their optima are obtained by long full-batch
descent and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ClientProfile, ensure_finite


@dataclass
class GradientSample:
    """A stochastic gradient together with its full-batch counterpart."""

    stochastic: np.ndarray
    full_batch: np.ndarray
    batch_indices: np.ndarray


def _random_spd(dimension: int, eig_range: tuple[float, float], rng) -> np.ndarray:
    """Random symmetric positive-definite matrix with eigenvalues in eig_range."""
    lo, hi = eig_range
    eigs = rng.uniform(lo, hi, size=dimension)
    if dimension == 1:
        return np.array([[eigs[0]]])
    q, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
    return (q * eigs) @ q.T


class QuadraticTask:
    """Per-client quadratics ``F_i(w) = mean_s 0.5 (w - c_i - z_s)' A_i (w - c_i - z_s)``.

    The full-batch gradient is ``A_i (w - m_i)`` with ``m_i = c_i + mean_s z_s``
    the local optimum; generated offsets are centered, so ``m_i`` is ``c_i``
    up to rounding. Mini-batch gradients carry the batch-mean offset, which
    gives a controllable noise level with an exact expectation identity.

    Curvatures are stacked as ``(n, d, d)`` and centers as ``(n, d)``. Losses,
    gradients and optima are evaluated in closed form from per-client terms
    computed once; they hold for any offsets, centered or not.
    """

    kind = "quadratic"

    def __init__(self, curvatures, centers, offsets):
        self.curvatures = np.asarray(curvatures, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        self.offsets = [np.asarray(z, dtype=float) for z in offsets]
        if not (len(self.curvatures) == len(self.centers) == len(self.offsets)):
            raise ValueError("per-client pieces must have equal length")
        eigs = np.linalg.eigvalsh(self.curvatures)
        if np.any(eigs <= 0):
            raise ValueError("curvature matrices must be positive definite")
        self.smoothness = float(eigs.max())
        # With m_i = c_i + mean_s z_s, F_i(w) = 0.5 (w - m_i)' A_i (w - m_i)
        # + kappa_i, kappa_i being the loss spread of the offsets about their
        # mean. Both terms are non-negative, so no digits cancel.
        means = np.array([z.mean(axis=0) for z in self.offsets])
        self._minima = self.centers + means
        self._kappa = np.array([
            0.5 * np.einsum("sd,de,se->", z - m, a, z - m) / z.shape[0]
            for z, m, a in zip(self.offsets, means, self.curvatures)
        ])

    @classmethod
    def generate(
        cls,
        n_clients: int,
        dimension: int,
        data_sizes,
        rng,
        noniid_spread: float = 0.0,
        sample_noise: float = 0.5,
        curvature_range: tuple[float, float] = (0.5, 1.0),
        shared_curvature: bool = False,
    ) -> "QuadraticTask":
        data_sizes = np.asarray(data_sizes, dtype=int)
        if len(data_sizes) != n_clients:
            raise ValueError("one data size per client required")
        shared = _random_spd(dimension, curvature_range, rng)
        curvatures, centers, offsets = [], [], []
        for i in range(n_clients):
            curvatures.append(shared.copy() if shared_curvature else _random_spd(dimension, curvature_range, rng))
            if noniid_spread > 0.0:
                direction = rng.normal(size=dimension)
                direction /= np.linalg.norm(direction)
                centers.append(noniid_spread * direction)
            else:
                centers.append(np.zeros(dimension))
            z = sample_noise * rng.normal(size=(data_sizes[i], dimension))
            z -= z.mean(axis=0)  # centered so the full batch is exact
            offsets.append(z)
        return cls(curvatures, centers, offsets)

    @property
    def n_clients(self) -> int:
        return len(self.centers)

    @property
    def dimension(self) -> int:
        return self.centers[0].shape[0]

    def data_size(self, client: int) -> int:
        return self.offsets[client].shape[0]

    @cached_property
    def w_star(self) -> np.ndarray:
        total = sum(self.curvatures)
        rhs = sum(a @ m for a, m in zip(self.curvatures, self._minima))
        return np.linalg.solve(total, rhs)

    def local_optimum(self, client: int) -> np.ndarray:
        return self._minima[client].copy()

    @cached_property
    def gamma_noniid(self) -> np.ndarray:
        return np.array(
            [float(np.sum((self.w_star - m) ** 2)) for m in self._minima]
        )

    @cached_property
    def f_star(self) -> float:
        return self.global_loss(self.w_star)

    def local_loss(self, client: int, w: np.ndarray) -> float:
        e = w - self._minima[client]
        return float(0.5 * e @ self.curvatures[client] @ e + self._kappa[client])

    def local_grad(self, client: int, w: np.ndarray) -> np.ndarray:
        return self.curvatures[client] @ (w - self._minima[client])

    def sample_grad(self, client: int, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        mean_offset = self.offsets[client][indices].mean(axis=0)
        return self.curvatures[client] @ (w - self.centers[client] - mean_offset)

    def global_loss(self, w: np.ndarray) -> float:
        e = w - self._minima
        quad = np.einsum("nd,nde,ne->", e, self.curvatures, e)
        return float((0.5 * quad + self._kappa.sum()) / self.n_clients)

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        # A stacked matmul, not an einsum: each client's product then equals
        # local_grad's bit for bit, and so does their mean.
        return (self.curvatures @ (w - self._minima)[:, :, None])[:, :, 0].mean(axis=0)


class LogisticTask:
    """Binary L2-regularized logistic regression on client-specific clusters.

    Client data are two Gaussian clusters at ``+/- separation * b`` shifted by
    a per-client offset whose magnitude controls the non-IID degree. The model
    carries an intercept, so the parameter dimension is feature_dim + 1.

    The data live in one zero-padded design block ``(n, m_max, d)`` and one
    label block ``(n, m_max)``; ``features``, ``labels`` and ``_design`` are
    per-client views into them. Padding rows carry label 0, so they add
    exactly zero to a gradient. The optima are found by one stacked
    fixed-step descent: a single row for w*, one row per client for the
    local optima.
    """

    kind = "logistic"

    def __init__(self, features, labels, l2_reg: float = 0.05):
        self.l2_reg = float(l2_reg)
        if l2_reg <= 0:
            raise ValueError("l2_reg must be positive so optima are unique")
        sizes = [len(y) for y in labels]
        feature_dim = np.shape(features[0])[1]
        self._dim = feature_dim + 1
        self._x = np.zeros((len(sizes), max(sizes), self._dim))
        self._y = np.zeros((len(sizes), max(sizes)))
        for i, (x, y) in enumerate(zip(features, labels)):
            self._x[i, : sizes[i], :feature_dim] = x
            self._x[i, : sizes[i], feature_dim] = 1.0
            self._y[i, : sizes[i]] = y
        self._sizes = np.array(sizes, dtype=float)
        self._design = [self._x[i, :m] for i, m in enumerate(sizes)]
        self.features = [x[:, :feature_dim] for x in self._design]
        self.labels = [self._y[i, :m] for i, m in enumerate(sizes)]

    @classmethod
    def generate(
        cls,
        n_clients: int,
        dimension: int,
        data_sizes,
        rng,
        noniid_spread: float = 0.0,
        separation: float = 1.5,
        sample_noise: float = 1.0,
        l2_reg: float = 0.05,
    ) -> "LogisticTask":
        # ``dimension`` is the model dimension; feature space is one less.
        feature_dim = dimension - 1
        if feature_dim < 1:
            raise ValueError("logistic tasks need model dimension >= 2")
        data_sizes = np.asarray(data_sizes, dtype=int)
        base = rng.normal(size=feature_dim)
        base /= np.linalg.norm(base)
        features, labels = [], []
        for i in range(n_clients):
            n = int(data_sizes[i])
            y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            shift = np.zeros(feature_dim)
            if noniid_spread > 0.0:
                shift = rng.normal(size=feature_dim)
                shift *= noniid_spread / np.linalg.norm(shift)
            x = y[:, None] * separation * base + shift + sample_noise * rng.normal(size=(n, feature_dim))
            features.append(x)
            labels.append(y)
        return cls(features, labels, l2_reg=l2_reg)

    @property
    def n_clients(self) -> int:
        return len(self.labels)

    @property
    def dimension(self) -> int:
        return self._dim

    def data_size(self, client: int) -> int:
        return self.labels[client].shape[0]

    def _margins(self, client: int, w: np.ndarray, indices=None) -> tuple[np.ndarray, np.ndarray]:
        x = self._design[client]
        y = self.labels[client]
        if indices is not None:
            x = x[indices]
            y = y[indices]
        return y, y * (x @ w)

    def local_loss(self, client: int, w: np.ndarray) -> float:
        _, m = self._margins(client, w)
        return float(np.mean(np.logaddexp(0.0, -m)) + 0.5 * self.l2_reg * np.dot(w, w))

    def _grad_on(self, client: int, w: np.ndarray, indices=None) -> np.ndarray:
        x = self._design[client]
        y = self.labels[client]
        if indices is not None:
            x = x[indices]
            y = y[indices]
        m = y * (x @ w)
        coef = -y / (1.0 + np.exp(m))
        return x.T @ coef / x.shape[0] + self.l2_reg * w

    def local_grad(self, client: int, w: np.ndarray) -> np.ndarray:
        return self._grad_on(client, w)

    def sample_grad(self, client: int, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self._grad_on(client, w, indices)

    def global_loss(self, w: np.ndarray) -> float:
        return float(np.mean([self.local_loss(i, w) for i in range(self.n_clients)]))

    @cached_property
    def _scratch(self) -> np.ndarray:
        # One (n, m_max) buffer reused by every _full_grads call. Fresh
        # temporaries of that size cost more than the arithmetic: the
        # allocator hands them back to the system and faults them in again.
        return np.empty_like(self._y)

    def _full_grads(self, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client i's data.

        The operations are ``_grad_on``'s, batched over the padded blocks, so
        with equal data sizes each row equals ``local_grad`` bit for bit.
        """
        t = self._scratch
        np.matmul(self._x, w[:, :, None], out=t[:, :, None])
        t *= self._y  # the margins y * (x @ w)
        np.exp(t, out=t)
        t += 1.0
        np.divide(self._y, t, out=t)
        np.negative(t, out=t)  # coef = -y / (1 + exp(m))
        g = (self._x.transpose(0, 2, 1) @ t[:, :, None])[:, :, 0]
        return g / self._sizes[:, None] + self.l2_reg * w

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self._full_grads(np.broadcast_to(w, (self.n_clients, self.dimension))).mean(axis=0)

    def _descend(self, grad_fn, names, tol: float = 1e-12, max_iter: int = 200_000) -> np.ndarray:
        """Full-batch descent from the origin on a stack of points, one per
        name. Each row stops after the first step whose own gradient has
        ``|g|^2 < tol^2``; a row that never gets there raises."""
        step = 1.0 / self.smoothness  # at most 1/L: smoothness is an upper bound
        w = np.zeros((len(names), self.dimension))
        active = np.ones(len(names), dtype=bool)
        for _ in range(max_iter):
            g = grad_fn(w)
            w = np.where(active[:, None], w - step * g, w)
            active &= np.einsum("kd,kd->k", g, g) >= tol**2
            if not active.any():
                return w
        late = ", ".join(name for name, running in zip(names, active) if running)
        raise ValueError(
            f"logistic optimum descent did not converge in {max_iter} steps for {late}"
            f" (l2_reg={self.l2_reg} may be too small)"
        )

    @cached_property
    def _design_norm(self) -> float:
        return max(
            float(np.linalg.eigvalsh(x.T @ x / x.shape[0]).max()) for x in self._design
        )

    @cached_property
    def smoothness(self) -> float:
        # Exact upper bound: sigmoid curvature is at most 1/4.
        return 0.25 * self._design_norm + self.l2_reg

    @cached_property
    def w_star(self) -> np.ndarray:
        return self._descend(lambda w: self.global_grad(w[0])[None], ["w*"])[0]

    @cached_property
    def _local_optima(self) -> np.ndarray:
        return self._descend(self._full_grads, [f"client {i}" for i in range(self.n_clients)])

    def local_optimum(self, client: int) -> np.ndarray:
        return self._local_optima[client].copy()

    @cached_property
    def gamma_noniid(self) -> np.ndarray:
        star = self.w_star
        return np.array(
            [float(np.sum((star - self.local_optimum(i)) ** 2)) for i in range(self.n_clients)]
        )

    @cached_property
    def f_star(self) -> float:
        return self.global_loss(self.w_star)


def _draw_batch(task, client: int, batch_size: int, rng) -> np.ndarray:
    """Indices of one mini-batch, drawn uniformly without replacement."""
    n = task.data_size(client)
    if batch_size > n:
        raise ValueError("batch_size exceeds the client's data size")
    return rng.choice(n, size=batch_size, replace=False)


def stochastic_gradient(task, client: int, w: np.ndarray, batch_size: int, rng) -> GradientSample:
    """Draw one mini-batch gradient along with the full-batch gradient.

    The batch is sampled uniformly without replacement. Raises on a dimension
    mismatch between the model and the task.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (task.dimension,):
        raise ValueError(
            f"model dimension {w.shape} does not match task dimension ({task.dimension},)"
        )
    indices = _draw_batch(task, client, batch_size, rng)
    return GradientSample(
        stochastic=task.sample_grad(client, w, indices),
        full_batch=task.local_grad(client, w),
        batch_indices=indices,
    )


def local_train(
    task,
    client: int,
    w_start: np.ndarray,
    tau: int,
    eta: float,
    rng=None,
    batch_size: int | None = None,
    prox_center: np.ndarray | None = None,
    mu: float = 0.0,
) -> np.ndarray:
    """Run exactly ``tau`` SGD steps from ``w_start`` and return the result.

    ``batch_size=None`` uses full-batch gradients. A non-zero ``mu`` with a
    ``prox_center`` adds the proximal pull mu*(w - center) to every step.
    tau=0 returns the start point unchanged.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    w = ensure_finite(w_start, "local_train start").copy()
    if w.shape != (task.dimension,):
        raise ValueError("model dimension does not match the task")
    use_prox = mu > 0.0 and prox_center is not None
    for _ in range(tau):
        if batch_size is None:
            g = task.local_grad(client, w)
        else:
            g = task.sample_grad(client, w, _draw_batch(task, client, batch_size, rng))
        if use_prox:
            g = g + mu * (w - prox_center)
        w -= eta * g
    return ensure_finite(w, "local_train result")


@dataclass
class EstimatedConstants:
    """Empirical stand-ins for the analysis constants, with exact parts where available."""

    L_hat: float
    G_hat: float
    sigma_hat: np.ndarray
    source: dict


def estimate_constants(task, clients: list[ClientProfile], probe_count: int, rng) -> EstimatedConstants:
    """Probe the task to estimate the smoothness, gradient, and noise bounds.

    The gradient bound is the largest stochastic-gradient norm seen across
    probe points; the per-client noise bound is the largest observed deviation
    from the full-batch gradient. Smoothness is exact for quadratic tasks and
    probed otherwise.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    d = task.dimension
    probes = [rng.normal(size=d) for _ in range(probe_count)]
    g_max = 0.0
    sigma_hat = np.zeros(task.n_clients)
    for w in probes:
        for i in range(task.n_clients):
            sample = stochastic_gradient(task, i, w, clients[i].batch_size, rng)
            g_max = max(g_max, float(np.linalg.norm(sample.stochastic)))
            deviation = float(np.linalg.norm(sample.stochastic - sample.full_batch))
            sigma_hat[i] = max(sigma_hat[i], deviation)
    source = {"G": "probed", "sigma": "probed"}

    if task.kind == "quadratic":
        l_hat = task.smoothness
        source["L"] = "exact"
    else:
        l_hat = 0.0
        for w, v in zip(probes, probes[1:] + probes[:1]):
            gap = float(np.linalg.norm(w - v))
            if gap < 1e-12:
                continue
            for i in range(task.n_clients):
                ratio = float(np.linalg.norm(task.local_grad(i, w) - task.local_grad(i, v))) / gap
                l_hat = max(l_hat, ratio)
        source["L"] = "probed"
    return EstimatedConstants(L_hat=float(l_hat), G_hat=float(g_max), sigma_hat=sigma_hat, source=source)
