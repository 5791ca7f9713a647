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

from .core import ClientProfile, row_dot


@dataclass
class GradientSample:
    """A stochastic gradient together with its full-batch counterpart."""

    stochastic: np.ndarray
    full_batch: np.ndarray
    batch_indices: np.ndarray


def _spd(eigs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Symmetric positive-definite matrices ``(k, d, d)``: matrix j has the
    eigenvalues ``eigs[j]`` and the eigenvectors of the QR of ``bases[j]``,
    which one stacked ``qr`` yields bit for bit as it would alone. At d = 1
    the matrix is its eigenvalue, and ``bases`` is not read."""
    if eigs.shape[1] == 1:
        return eigs[:, :, None].copy()
    q, _ = np.linalg.qr(bases)
    return (q * eigs[:, None, :]) @ q.mT


def _size_groups(sizes: np.ndarray, clients):
    """``(rows, picked, m)`` for each data size ``m`` among ``clients``: the
    positions ``rows`` in ``clients`` of the clients ``picked`` that hold
    ``m`` samples. A group reads exactly its own samples, so it sums as each
    client alone would; a sum over zero padding could round differently, and
    padding rows would add log 2 to a loss."""
    clients = np.asarray(clients)
    counts = sizes[clients]
    for m in set(counts.tolist()):  # np.unique costs 1.6 MiB of RSS on first use
        rows = np.flatnonzero(counts == m)
        yield rows, clients[rows], m


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of ``x``, bit for bit."""
    return np.sqrt(row_dot(x, x))


# Planned mini-batches are reduced this many batches at a time, which bounds
# the (batches, b, d) gather of a long run's stream.
_REDUCE_BATCHES = 1024


class _Task:
    """The members both task families share. A task holds its clients' data
    sizes in ``_sizes`` and their local optima in ``_optima``; its one-client
    gradients are the one-row cases of its stacked ``local_grads`` and
    ``sample_grads``."""

    @property
    def n_clients(self) -> int:
        return len(self._sizes)

    def data_size(self, client: int) -> int:
        return int(self._sizes[client])

    def local_optimum(self, client: int) -> np.ndarray:
        return self._optima[client].copy()

    def local_grad(self, client: int, w: np.ndarray) -> np.ndarray:
        return self.local_grads([client], w[None])[0]

    def sample_grad(self, client: int, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        return self.sample_grads([client], w[None], np.asarray(indices)[None])[0]

    @cached_property
    def gamma_noniid(self) -> np.ndarray:
        star = self.w_star
        return np.array(
            [float(np.sum((star - self.local_optimum(i)) ** 2)) for i in range(self.n_clients)]
        )

    @cached_property
    def f_star(self) -> float:
        return self.global_loss(self.w_star)


class QuadraticTask(_Task):
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
        self._sizes = np.asarray(sizes)
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
        means = np.empty_like(self.centers)
        for rows, _, m in _size_groups(self._sizes, np.arange(len(self.offsets))):
            # A run of consecutive clients is read through a view: a gathered
            # copy of their offsets would raise the task's peak memory.
            lo, hi = rows[0], rows[-1] + 1
            means[rows] = (block[lo:hi, :m] if hi - lo == len(rows) else block[rows, :m]).mean(axis=1)
        self._optima = self.centers + means
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
        # Drawn in the order of one draw per matrix, eigenvalues then basis,
        # the shared matrix first (drawn, and discarded, when every client
        # has its own); the matrices are built from the draws afterwards.
        eigs = np.empty((n_clients + 1, dimension))
        bases = np.empty((n_clients + 1, dimension, dimension))

        def draw_spd(k: int) -> None:
            eigs[k] = rng.uniform(*curvature_range, size=dimension)
            if dimension > 1:
                bases[k] = rng.normal(size=(dimension, dimension))

        draw_spd(0)
        directions = np.zeros((n_clients, dimension))
        # Drawn in place: a copy of the offsets would double the task's peak memory.
        offsets = np.zeros((n_clients, data_sizes.max(), dimension))
        for i in range(n_clients):
            if not shared_curvature:
                draw_spd(i + 1)
            if noniid_spread > 0.0:
                directions[i] = rng.normal(size=dimension)
            z = offsets[i, : data_sizes[i]]
            np.multiply(sample_noise, rng.normal(size=z.shape), out=z)
            z -= z.mean(axis=0)  # centered so the full batch is exact
        if shared_curvature:
            curvatures = np.repeat(_spd(eigs[:1], bases[:1]), n_clients, axis=0)
        else:
            curvatures = _spd(eigs[1:], bases[1:])
        if noniid_spread > 0.0:
            directions /= _row_norms(directions)[:, None]
        return cls(curvatures, noniid_spread * directions, offsets, sizes=data_sizes)

    @property
    def dimension(self) -> int:
        return self.centers[0].shape[0]

    @cached_property
    def w_star(self) -> np.ndarray:
        total = sum(self.curvatures)
        rhs = sum(a @ m for a, m in zip(self.curvatures, self._optima))
        return np.linalg.solve(total, rhs)

    def local_loss(self, client: int, w: np.ndarray) -> float:
        e = w - self._optima[client]
        return float(0.5 * e @ self.curvatures[client] @ e + self._kappa[client])

    # The stacked gradients are matmuls, not einsums: each row then equals the
    # one-client product bit for bit.

    def local_grads(self, clients, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client ``clients[i]``."""
        return (self.curvatures[clients] @ (w - self._optima[clients])[:, :, None])[:, :, 0]

    def sample_grads(self, clients, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on the offsets ``indices[i]`` of client ``clients[i]``."""
        return self.reduced_grads(clients, w, self._offsets[np.asarray(clients)[:, None], indices].mean(axis=1))

    def reduce_batches(self, client: int, indices: np.ndarray) -> np.ndarray:
        """Client ``client``'s planned mini-batches ``(k, b)`` as ``reduced_grads``
        steps on them: their ``(k, d)`` batch-mean offsets, the means
        ``sample_grads`` takes, bit for bit."""
        # A gather through strided indices can round differently at d = 1.
        indices = np.ascontiguousarray(indices)
        z = self._offsets[client]
        out = np.empty((len(indices), self.dimension))
        for lo in range(0, len(indices), _REDUCE_BATCHES):
            out[lo : lo + _REDUCE_BATCHES] = z[indices[lo : lo + _REDUCE_BATCHES]].mean(axis=1)
        return out

    def reduced_grads(self, clients, w: np.ndarray, mean_offsets: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on a batch of client ``clients[i]`` whose
        mean offset is ``mean_offsets[i]`` (see ``reduce_batches``)."""
        return (self.curvatures[clients] @ (w - self.centers[clients] - mean_offsets)[:, :, None])[:, :, 0]

    def global_loss(self, w: np.ndarray) -> float:
        e = w - self._optima
        quad = np.einsum("nd,nde,ne->", e, self.curvatures, e)
        return float((0.5 * quad + self._kappa.sum()) / self.n_clients)

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self.local_grads(slice(None), w).mean(axis=0)


class LogisticTask(_Task):
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
    def dimension(self) -> int:
        return self._dim

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

    def local_grads(self, clients, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client ``clients[i]``,
        one stacked call per data size."""
        out = np.empty_like(w)
        for rows, picked, m in _size_groups(self._sizes, clients):
            out[rows] = self._grads(self._x[picked, :m], self._y[picked, :m], w[rows], m)
        return out

    def sample_grads(self, clients, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on the samples ``indices[i]`` of client ``clients[i]``."""
        rows = np.asarray(clients)[:, None]
        return self._grads(self._x[rows, indices], self._y[rows, indices], w, indices.shape[1])

    def reduce_batches(self, client: int, indices: np.ndarray) -> np.ndarray:
        """Planned mini-batches as ``reduced_grads`` steps on them: the indices."""
        return indices

    reduced_grads = sample_grads

    def global_loss(self, w: np.ndarray) -> float:
        """Mean of the clients' ``local_loss``, one stacked call per data size."""
        losses = np.empty(self.n_clients)
        for rows, picked, m in _size_groups(self._sizes, np.arange(self.n_clients)):
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
    def smoothness(self) -> float:
        # Exact upper bound: sigmoid curvature is at most 1/4.
        design_norm = max(
            float(np.linalg.eigvalsh(x.T @ x / x.shape[0]).max()) for x in self._design
        )
        return 0.25 * design_norm + self.l2_reg

    @cached_property
    def w_star(self) -> np.ndarray:
        return self._descend(lambda w: self.global_grad(w[0])[None], ["w*"])[0]

    @cached_property
    def _optima(self) -> np.ndarray:
        return self._descend(self._full_grads, [f"client {i}" for i in range(self.n_clients)])


def _replay(rng, n: int, b: int, count: int) -> np.ndarray:
    """``count`` successive ``rng.choice(n, size=b, replace=False)`` calls."""
    return np.array([rng.choice(n, size=b, replace=False) for _ in range(count)]).reshape(count, b)


def _next_uint32s(bitgen, state: dict, count: int) -> np.ndarray:
    """The next ``count`` values of a PCG64's 32-bit stream, as ``next_uint32``
    returns them: a buffered half first, then the low and high halves of each
    64-bit output. ``state`` is the generator's current state; the generator
    is left with the buffer those calls would leave."""
    buffered = min(state["has_uint32"], count)
    raw = np.asarray(bitgen.random_raw((count - buffered + 1) // 2), dtype="<u8").view("<u4")
    if raw.size:
        after = bitgen.state
        after["has_uint32"] = (count - buffered) % 2
        after["uinteger"] = int(raw[-1])
    else:  # only the buffered half was taken
        after = {**state, "has_uint32": state["has_uint32"] - buffered}
    bitgen.state = after
    drawn = raw[: count - buffered]
    return np.concatenate(([state["uinteger"]], drawn)).astype(np.uint32) if buffered else drawn


def _lemire(u: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray | bool]:
    """Lemire's bounded integers on ``[0, bound)`` from the uint32 draws ``u``,
    as uint64, and where numpy would have rejected a draw and drawn again."""
    m = u.astype(np.uint64)
    m *= np.uint64(bound)
    threshold = (2**32 - bound) % bound
    rejected = m.astype(np.uint32) < threshold if threshold else False
    m >>= np.uint64(32)
    return m, rejected


def _choice_rows(stream: np.ndarray, n: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.choice(n, size=b, replace=False)`` on every column of the
    uint32 draws ``stream`` ``(draws, batches)`` at once: Floyd's sampling,
    then a Fisher-Yates shuffle, each draw a Lemire bounded integer. Returns
    the ``(batches, b)`` indices and which batches hit a Lemire rejection,
    whose indices (and every later batch of the same stream) are not valid.
    """
    # The narrowest indices that hold n - 1: a run holds its batches.
    dtype = next(t for t in (np.int16, np.int32, np.int64) if n - 1 <= np.iinfo(t).max)
    batches = stream.shape[1]
    # Built position by position: row p holds position p of every batch.
    idx = np.empty((b, batches), dtype=dtype)
    rejected = np.zeros(batches, dtype=bool)
    draws = iter(stream)
    # Floyd: position p takes a draw on [0, j], or j itself when that value
    # is already taken; a draw on [0, 0] consumes nothing.
    for p, j in enumerate(range(n - b, n)):
        val = np.zeros(batches, dtype=dtype)
        if j > 0:
            drawn, hit = _lemire(next(draws), j + 1)
            val = drawn.astype(dtype)
            rejected |= hit
        taken = (idx[:p] == val).any(axis=0)
        np.copyto(val, j, where=taken)
        idx[p] = val
    # The shuffle swaps position i with position j of each batch, addressed
    # in the flat block as j * batches + column.
    flat = idx.reshape(-1)
    cols = np.arange(batches, dtype=np.uint64)
    for i in range(b - 1, 0, -1):
        j, hit = _lemire(next(draws), i + 1)
        rejected |= hit
        j *= np.uint64(batches)
        j += cols
        swap = flat[j]
        flat[j] = idx[i]
        idx[i] = swap
    return idx.T, rejected


def _draw_stack(rngs, n: int, b: int, counts) -> list[np.ndarray]:
    """``draw_batches`` for clients of one ``(n, b)``, sampled as one stack,
    up to each client's first batch with a Lemire rejection: a client that
    has one gets only the batches before it, and its generator is left where
    they leave it."""
    # Floyd draws on [0, j] for j = n-b .. n-1, none for j = 0; the shuffle
    # draws on [0, i] for i = b-1 .. 1.
    draws = b - (n == b > 0) + max(b - 1, 0)
    ends = np.cumsum(counts).tolist()
    stream = np.empty((draws, ends[-1]), dtype=np.uint32)
    saved = [rng.bit_generator.state for rng in rngs]
    for rng, state, c, lo, hi in zip(rngs, saved, counts, [0] + ends, ends):
        if draws:
            stream[:, lo:hi] = _next_uint32s(rng.bit_generator, state, c * draws).reshape(-1, draws).T
    idx, rejected = _choice_rows(stream, n, b)
    del stream
    out = []
    for rng, state, lo, hi in zip(rngs, saved, [0] + ends, ends):
        hits = np.flatnonzero(rejected[lo:hi])
        if hits.size:
            rng.bit_generator.state = state
            _next_uint32s(rng.bit_generator, state, int(hits[0]) * draws)
            hi = lo + int(hits[0])
        out.append(idx[lo:hi])
    return out


# The most batches sampled as one stack, unless one client draws more: this
# bounds the uint32 draws held at once (about 2b per batch) on long runs.
_STACK_BATCHES = 1 << 14


def draw_batches(rngs, n, b, counts) -> list[np.ndarray]:
    """Whole mini-batch streams: entry i is the ``(counts[i], b[i])`` array of
    ``counts[i]`` successive ``rngs[i].choice(n[i], size=b[i], replace=False)``
    calls, bit for bit, and each rng is left in the state those calls leave.

    ``n``, ``b`` and ``counts`` hold one value per rng, or one for all. The
    indices come in the narrowest of int16, int32 and int64 that holds
    ``n - 1`` (``choice`` returns int64), except for replayed clients. The
    streams of clients with equal ``(n, b)`` are sampled as one stack, one
    numpy operation per draw over every batch, from one ``random_raw`` call
    per rng. A batch whose draws hit a Lemire rejection is drawn by
    ``choice`` itself, and the stack resumes after it. A client is replayed
    with ``choice`` throughout where the stack cannot follow numpy: numpy's
    tail-shuffle branch (``n > 10000`` and ``b > n // 50``), a range past 32
    bits, or a bit generator other than PCG64. Raises if a client that draws
    at least one batch has ``b > n``, or if two clients share a bit
    generator: their draws would interleave.
    """
    k = len(rngs)
    if len({id(rng.bit_generator) for rng in rngs}) < k:
        raise ValueError("each client needs its own generator")
    n, b, counts = (np.broadcast_to(np.asarray(v, dtype=np.int64), (k,)).tolist() for v in (n, b, counts))
    if min(counts, default=0) < 0:
        raise ValueError("counts must be non-negative")
    if any(size > m and c > 0 for m, size, c in zip(n, b, counts)):
        raise ValueError("batch_size exceeds the client's data size")
    out: list = [None] * k
    stacks: dict[tuple[int, int], list[list[int]]] = {}
    for i, rng in enumerate(rngs):
        if counts[i] == 0:
            out[i] = np.empty((0, b[i]), dtype=np.int64)
        elif (type(rng.bit_generator) is not np.random.PCG64 or n[i] >= 2**32
                or (n[i] > 10000 and b[i] > n[i] // 50)):
            out[i] = _replay(rng, n[i], b[i], counts[i])
        else:
            group = stacks.setdefault((n[i], b[i]), [[]])
            if group[-1] and sum(counts[j] for j in group[-1]) + counts[i] > _STACK_BATCHES:
                group.append([])
            group[-1].append(i)
    for (m, size), group in stacks.items():
        for members in group:
            drawn = _draw_stack([rngs[i] for i in members], m, size, [counts[i] for i in members])
            for i, batches in zip(members, drawn):
                pieces, left = [batches], counts[i] - len(batches)
                while left:  # the stack stopped at a rejected batch: choice draws it
                    pieces.append(_replay(rngs[i], m, size, 1))
                    left -= 1
                    if left:
                        [stacked] = _draw_stack([rngs[i]], m, size, [left])
                        pieces.append(stacked)
                        left -= len(stacked)
                out[i] = np.concatenate(pieces, dtype=batches.dtype) if len(pieces) > 1 else batches
    return out


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
    n = task.data_size(client)
    if batch_size > n:
        raise ValueError("batch_size exceeds the client's data size")
    indices = rng.choice(n, size=batch_size, replace=False)
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
    batches=None,
    prox_center: np.ndarray | None = None,
    mu: float = 0.0,
    context: str = "local_train",
) -> np.ndarray:
    """Lock-step local SGD on a stack of models; returns the ``(k, d)`` results.

    Row i starts at ``starts[i]`` (or at ``starts`` itself, one ``(d,)`` start
    shared by every row) and takes exactly ``tau[i]`` SGD steps on client
    ``clients[i]``; each step's gradients for all running rows come from one
    stacked task call. ``batches=None`` uses full-batch gradients; otherwise
    ``batches[i]`` holds row i's ``tau[i]`` mini-batches as
    ``task.reduce_batches`` returns them, and step s takes
    ``task.reduced_grads`` on ``batches[i][s]``. A non-zero ``mu`` with a
    ``prox_center`` (one center for every row) adds the proximal pull
    mu*(w - center) to every step. Rows with tau=0 return their start.
    Raises ``ValueError`` naming ``context`` and the clients whose results
    are not finite.
    """
    clients = np.asarray(clients, dtype=int)
    tau = np.asarray(tau, dtype=int)
    if tau.min(initial=0) < 0:
        raise ValueError("tau must be non-negative")
    k = clients.size
    if batches is None:
        widths = np.zeros(k, dtype=int)
    elif [len(b) for b in batches] != tau.tolist():
        raise ValueError("batches[i] must hold tau[i] mini-batches")
    else:
        widths = np.array([np.shape(b)[1] for b in batches], dtype=int)
    # Rows sorted by batch width, then by step count, longest first: the rows
    # still running at any step are a prefix of their width block, so each
    # block steps as one view of w.
    order = np.lexsort((-tau, widths))
    starts = np.asarray(starts, dtype=float)
    w = starts[order] if starts.ndim == 2 else np.repeat(starts[None], k, axis=0)
    if w.shape != (k, task.dimension):
        raise ValueError("model dimension does not match the task")
    ids = clients[order]
    steps, widths, rows = tau[order].tolist(), widths[order].tolist(), order.tolist()
    cuts = [0] + [r for r in range(1, k) if widths[r] != widths[r - 1]] + [k]
    # Each block's mini-batches as one (steps, rows, width) stack: step s of
    # the running prefix is one slice.
    blocks = []
    for lo, hi in zip(cuts, cuts[1:]):
        stack = None
        if batches is not None:
            # Indices or mean offsets: the type of the batches that are stepped on.
            taken = [batches[rows[r]] for r in range(lo, hi) if steps[r]]
            stack = np.zeros((steps[lo], hi - lo, widths[lo]), dtype=np.result_type(*taken) if taken else None)
            for r in range(lo, lo + len(taken)):
                stack[: steps[r], r - lo] = batches[rows[r]]
        blocks.append([lo, hi, stack])
    use_prox = mu > 0.0 and prox_center is not None
    for step in range(max(steps, default=0)):
        for block in blocks:
            lo, end, stack = block
            while end > lo and steps[end - 1] <= step:
                end -= 1
            block[1] = end
            if end == lo:
                continue
            running = w[lo:end]
            if stack is None:
                g = task.local_grads(ids[lo:end], running)
            else:
                g = task.reduced_grads(ids[lo:end], running, stack[step, : end - lo])
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

    ``batch_size=None`` uses full-batch gradients; otherwise the ``tau``
    mini-batches are drawn from ``rng`` up front by ``draw_batches`` and
    reduced by ``task.reduce_batches``. A non-zero ``mu`` with a
    ``prox_center`` adds the proximal pull mu*(w - center) to every step.
    tau=0 returns the start point unchanged. The one-row case of
    ``train_clients``.
    """
    batches = None
    if batch_size is not None:
        [drawn] = draw_batches([rng], task.data_size(client), batch_size, [tau])
        batches = [task.reduce_batches(client, drawn)]
    return train_clients(
        task, [client], np.asarray(w_start, dtype=float)[None], [tau], eta,
        batches=batches, prox_center=prox_center, mu=mu,
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
    exact for quadratic tasks and probed otherwise, from the full-batch
    gradients at consecutive probe points.

    The values, and the state ``rng`` is left in, are those of one
    ``stochastic_gradient`` call per probe point and client, in that order:
    the probe points are drawn first, then every batch in that order, and
    then each probe point takes one ``local_grads`` call and one
    ``sample_grads`` call per batch size.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    n, d = task.n_clients, task.dimension
    sizes = [task.data_size(i) for i in range(n)]
    batch = np.array([profile.batch_size for profile in clients[:n]])
    if np.any(batch > sizes):
        raise ValueError("batch_size exceeds the client's data size")
    probes = [rng.normal(size=d) for _ in range(probe_count)]
    drawn = [[rng.choice(m, size=b, replace=False) for m, b in zip(sizes, batch.tolist())]
             for _ in probes]
    everyone = np.arange(n)
    groups = [np.flatnonzero(batch == b) for b in set(batch.tolist())]
    full = np.empty((probe_count, n, d))
    stochastic = np.empty((probe_count, n, d))
    for p, w in enumerate(probes):
        stacked = np.tile(w, (n, 1))
        full[p] = task.local_grads(everyone, stacked)
        for rows in groups:
            indices = np.array([drawn[p][i] for i in rows.tolist()])
            stochastic[p, rows] = task.sample_grads(rows, stacked[rows], indices)
    # fmax, like the running max(...) of the probe loop, passes over NaNs.
    g_max = np.fmax.reduce(_row_norms(stochastic.reshape(-1, d)), initial=0.0)
    deviation = _row_norms((stochastic - full).reshape(-1, d)).reshape(probe_count, n)
    sampled = batch < sizes
    sigma_hat = np.where(sampled, np.fmax.reduce(deviation, axis=0, initial=0.0), 0.0)
    source = {"G": "probed", "sigma": "probed"}

    if task.kind == "quadratic":
        l_hat = task.smoothness
        source["L"] = "exact"
    else:
        l_hat = 0.0
        for p in range(probe_count):
            q = (p + 1) % probe_count
            gap = float(np.linalg.norm(probes[p] - probes[q]))
            if gap >= 1e-12:
                l_hat = np.fmax.reduce(_row_norms(full[p] - full[q]) / gap, initial=l_hat)
        source["L"] = "probed"
    return EstimatedConstants(L_hat=float(l_hat), G_hat=float(g_max), sigma_hat=sigma_hat, source=source)
