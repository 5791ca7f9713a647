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

from .core import ClientProfile


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

    Curvatures are stacked as ``(n, d, d)`` and centers as ``(n, d)``. The
    offsets live in one zero-padded block ``(n, m_max, d)``; ``offsets`` holds
    per-client views into it. ``offsets`` is given either as a list of
    per-client ``(m_i, d)`` arrays, copied into a new block, or, with
    ``sizes``, as the block itself, kept without a copy. Losses, gradients and
    optima are evaluated in closed form from per-client terms computed once;
    they hold for any offsets, centered or not.
    """

    kind = "quadratic"

    def __init__(self, curvatures, centers, offsets, sizes=None):
        self.curvatures = np.asarray(curvatures, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        if sizes is None:
            sizes = [len(z) for z in offsets]
            block = np.zeros((len(sizes), max(sizes), self.centers.shape[1]))
            for i, z in enumerate(offsets):
                block[i, : sizes[i]] = z
        else:
            block = offsets
        self._offsets = block
        self.offsets = [block[i, :m] for i, m in enumerate(sizes)]
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
        curvatures, centers = [], []
        # Drawn in place: a copy of the offsets would double the task's peak memory.
        offsets = np.zeros((n_clients, data_sizes.max(), dimension))
        for i in range(n_clients):
            curvatures.append(shared.copy() if shared_curvature else _random_spd(dimension, curvature_range, rng))
            if noniid_spread > 0.0:
                direction = rng.normal(size=dimension)
                direction /= np.linalg.norm(direction)
                centers.append(noniid_spread * direction)
            else:
                centers.append(np.zeros(dimension))
            z = offsets[i, : data_sizes[i]]
            np.multiply(sample_noise, rng.normal(size=z.shape), out=z)
            z -= z.mean(axis=0)  # centered so the full batch is exact
        return cls(curvatures, centers, offsets, sizes=data_sizes)

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

    # The stacked gradients are matmuls, not einsums: each row then equals the
    # one-client product bit for bit.

    def local_grads(self, clients, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client ``clients[i]``."""
        return (self.curvatures[clients] @ (w - self._minima[clients])[:, :, None])[:, :, 0]

    def sample_grads(self, clients, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on the offsets ``indices[i]`` of client ``clients[i]``."""
        mean_offset = self._offsets[np.asarray(clients)[:, None], indices].mean(axis=1)
        return (self.curvatures[clients] @ (w - self.centers[clients] - mean_offset)[:, :, None])[:, :, 0]

    def local_grad(self, client: int, w: np.ndarray) -> np.ndarray:
        return self.local_grads([client], w[None])[0]

    def sample_grad(self, client: int, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.sample_grads([client], w[None], np.asarray(indices)[None])[0]

    def global_loss(self, w: np.ndarray) -> float:
        e = w - self._minima
        quad = np.einsum("nd,nde,ne->", e, self.curvatures, e)
        return float((0.5 * quad + self._kappa.sum()) / self.n_clients)

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self.local_grads(slice(None), w).mean(axis=0)


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
        self._sizes = np.array(sizes)
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

    def local_loss(self, client: int, w: np.ndarray) -> float:
        y = self.labels[client]
        m = y * (self._design[client] @ w)
        return float(np.mean(np.logaddexp(0.0, -m)) + 0.5 * self.l2_reg * np.dot(w, w))

    def _grads(self, x, y, w: np.ndarray, size, margins=None) -> np.ndarray:
        """Gradients at a stack of points, row i on design ``x[i]`` and labels
        ``y[i]``, averaged over ``size`` rows. Rows with label 0 add exactly
        zero. ``margins`` is an optional ``(k, m)`` buffer for the margins.

        Stacked matmuls, not einsums: with equal row counts each row equals
        the one-client product bit for bit.
        """
        t = np.matmul(x, w[:, :, None], out=None if margins is None else margins[:, :, None])[:, :, 0]
        t *= y  # the margins y * (x @ w)
        np.exp(t, out=t)
        t += 1.0
        np.divide(y, t, out=t)
        np.negative(t, out=t)  # coef = -y / (1 + exp(m))
        g = (x.transpose(0, 2, 1) @ t[:, :, None])[:, :, 0]
        return g / size + self.l2_reg * w

    def _size_groups(self, clients):
        """``(rows, picked, m)`` for each data size ``m`` among ``clients``:
        the positions ``rows`` in ``clients`` of the clients ``picked`` that
        hold ``m`` samples. A group reads exactly its own samples, so it sums
        as each client alone would; a sum over zero padding could round
        differently, and padding rows would add log 2 to a loss."""
        clients = np.asarray(clients)
        counts = self._sizes[clients]
        for m in set(counts.tolist()):  # np.unique costs 1.6 MiB of RSS on first use
            rows = np.flatnonzero(counts == m)
            yield rows, clients[rows], m

    def local_grads(self, clients, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client ``clients[i]``,
        one stacked call per data size."""
        out = np.empty_like(w)
        for rows, picked, m in self._size_groups(clients):
            out[rows] = self._grads(self._x[picked, :m], self._y[picked, :m], w[rows], m)
        return out

    def sample_grads(self, clients, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on the samples ``indices[i]`` of client ``clients[i]``."""
        rows = np.asarray(clients)[:, None]
        return self._grads(self._x[rows, indices], self._y[rows, indices], w, indices.shape[1])

    def local_grad(self, client: int, w: np.ndarray) -> np.ndarray:
        return self.local_grads([client], w[None])[0]

    def sample_grad(self, client: int, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.sample_grads([client], w[None], np.asarray(indices)[None])[0]

    def global_loss(self, w: np.ndarray) -> float:
        """Mean of the clients' ``local_loss``, one stacked call per data size."""
        losses = np.empty(self.n_clients)
        for rows, picked, m in self._size_groups(np.arange(self.n_clients)):
            margins = self._y[picked, :m] * (self._x[picked, :m] @ w)
            losses[rows] = np.mean(np.logaddexp(0.0, -margins), axis=1)
        return float(np.mean(losses + 0.5 * self.l2_reg * np.dot(w, w)))

    @cached_property
    def _scratch(self) -> np.ndarray:
        # One (n, m_max) buffer reused by every _full_grads call. Fresh
        # temporaries of that size cost more than the arithmetic: the
        # allocator hands them back to the system and faults them in again.
        return np.empty_like(self._y)

    def _full_grads(self, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client i's data,
        over the whole padded block; with equal data sizes each row equals
        ``local_grad`` bit for bit."""
        return self._grads(self._x, self._y, w, self._sizes[:, None], margins=self._scratch)

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


def train_clients(
    task,
    clients,
    starts,
    tau,
    eta: float,
    rngs=None,
    batch_sizes=None,
    prox_center: np.ndarray | None = None,
    mu: float = 0.0,
    context: str = "local_train",
) -> np.ndarray:
    """Lock-step local SGD on a stack of models; returns the ``(k, d)`` results.

    Row i starts at ``starts[i]`` (or at ``starts`` itself, one ``(d,)`` start
    shared by every row) and takes exactly ``tau[i]`` SGD steps on client
    ``clients[i]``; each step's gradients for all running rows come from one
    stacked task call. ``batch_sizes=None`` uses full-batch gradients;
    otherwise row i draws each mini-batch of ``batch_sizes[i]`` samples from
    ``rngs[i]`` through ``_draw_batch``, step by step, as a lone client would.
    A non-zero ``mu`` with a ``prox_center`` (one center for every row) adds
    the proximal pull mu*(w - center) to every step. Rows with tau=0 return
    their start. Raises ``ValueError`` naming ``context`` and the clients
    whose results are not finite.
    """
    clients = np.asarray(clients, dtype=int)
    tau = np.asarray(tau, dtype=int)
    if tau.min(initial=0) < 0:
        raise ValueError("tau must be non-negative")
    k = clients.size
    sizes = np.zeros(k, dtype=int) if batch_sizes is None else np.asarray(batch_sizes, dtype=int)
    # Rows sorted by batch size, then by step count, longest first: the rows
    # still running at any step are a prefix of their batch-size block, so
    # each block steps as one view of w.
    order = np.lexsort((-tau, sizes))
    starts = np.asarray(starts, dtype=float)
    w = starts[order] if starts.ndim == 2 else np.repeat(starts[None], k, axis=0)
    if w.shape != (k, task.dimension):
        raise ValueError("model dimension does not match the task")
    ids = clients[order]
    steps, sizes, rows = tau[order].tolist(), sizes[order].tolist(), order.tolist()
    cuts = [0] + [r for r in range(1, k) if sizes[r] != sizes[r - 1]] + [k]
    blocks = [[lo, hi] for lo, hi in zip(cuts, cuts[1:])]
    use_prox = mu > 0.0 and prox_center is not None
    for step in range(max(steps, default=0)):
        for block in blocks:
            lo, end = block
            while end > lo and steps[end - 1] <= step:
                end -= 1
            block[1] = end
            if end == lo:
                continue
            running = w[lo:end]
            if batch_sizes is None:
                g = task.local_grads(ids[lo:end], running)
            else:
                batches = [_draw_batch(task, int(ids[r]), sizes[r], rngs[rows[r]]) for r in range(lo, end)]
                g = task.sample_grads(ids[lo:end], running, np.array(batches))
            if use_prox:
                g = g + mu * (running - prox_center)
            running -= eta * g
    if not np.isfinite(w).all():
        diverged = sorted(ids[~np.isfinite(w).all(axis=1)].tolist())
        raise ValueError(f"{context}: local models of clients {diverged} are not finite")
    out = np.empty_like(w)
    out[order] = w
    return out


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
    tau=0 returns the start point unchanged. The one-row case of
    ``train_clients``.
    """
    return train_clients(
        task, [client], np.asarray(w_start, dtype=float)[None], [tau], eta,
        rngs=[rng], batch_sizes=None if batch_size is None else [batch_size],
        prox_center=prox_center, mu=mu,
    )[0]


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
    from the full-batch gradient. A client whose batch is its whole data set
    has no sampling noise: its bound is exactly 0, though its batches are
    still drawn, so every client sees the same probe stream. Smoothness is
    exact for quadratic tasks and probed otherwise.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    d = task.dimension
    probes = [rng.normal(size=d) for _ in range(probe_count)]
    g_max = 0.0
    sigma_hat = np.zeros(task.n_clients)
    sampled = [clients[i].batch_size < task.data_size(i) for i in range(task.n_clients)]
    for w in probes:
        for i in range(task.n_clients):
            sample = stochastic_gradient(task, i, w, clients[i].batch_size, rng)
            g_max = max(g_max, float(np.linalg.norm(sample.stochastic)))
            if sampled[i]:
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
