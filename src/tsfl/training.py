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

from .core import row_dot


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
    padding rows would add log 2 to a loss. ``picked`` is a slice when the
    group is a run of consecutive clients, so a padded block indexed by it
    is a view: a gathered copy raises the task's peak memory and can cost
    more than the arithmetic on it."""
    clients = np.asarray(clients)
    counts = sizes[clients]
    for m in set(counts.tolist()):  # np.unique costs 1.6 MiB of RSS on first use
        rows = np.flatnonzero(counts == m)
        picked = clients[rows]
        if (np.diff(picked) == 1).all():
            picked = slice(int(picked[0]), int(picked[-1]) + 1)
        yield rows, picked, m


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of every row of ``x``, bit for bit."""
    return np.sqrt(row_dot(x, x))


def _each_client(ok: np.ndarray, problem: str) -> None:
    """Raise ``ValueError`` naming the first client whose entry of ``ok`` is
    False."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"client {bad[0]}: {problem}")


class _Task:
    """The members both task families share. A task keeps its data, without a
    copy, in one zero-padded block ``(n, m_max, d)`` whose row i starts with
    client i's ``sizes[i]`` samples; it holds the sizes ``_sizes``, their
    groups ``_groups`` (see ``_size_groups``) and its local optima
    ``_optima``. Its one-client gradients are the one-row cases of its
    stacked ``local_grads`` and ``sample_grads``."""

    def __init__(self, block: np.ndarray, sizes):
        block, sizes = np.asarray(block, dtype=float), np.asarray(sizes)
        if block.ndim != 3 or sizes.shape != block.shape[:1] or not np.issubdtype(sizes.dtype, np.integer):
            raise ValueError(f"sizes must be one integer count per block row; got {sizes.shape} {sizes.dtype} sizes"
                             f" for a block of shape {block.shape}")
        for i, m in enumerate(sizes.tolist()):
            if not 0 < m <= block.shape[1]:
                raise ValueError(f"client {i} has {m} samples; a client of this block holds 1 to {block.shape[1]}")
        self._block, self._sizes = block, sizes
        self.dimension = block.shape[2]
        self._groups = list(_size_groups(sizes, np.arange(len(sizes))))

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

    def global_loss_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """What a run logs at one model: ``(global_loss(w), global_grad(w))``."""
        return self.global_loss(w), self.global_grad(w)


class QuadraticTask(_Task):
    """Per-client quadratics ``F_i(w) = mean_s 0.5 (w - c_i - z_s)' A_i (w - c_i - z_s)``.

    The full-batch gradient is ``A_i (w - m_i)`` with ``m_i = c_i + mean_s z_s``
    the local optimum; generated offsets are centered, so ``m_i`` is ``c_i``
    up to rounding. Mini-batch gradients carry the batch-mean offset, which
    gives a controllable noise level with an exact expectation identity.

    Curvatures are stacked as ``(n, d, d)`` and centers as ``(n, d)``; the
    offsets are the task's padded block ``(n, m_max, d)`` with their data
    sizes (see ``_Task``), and ``offsets`` holds per-client views into it.
    Losses, gradients and optima are evaluated in closed form from
    per-client terms computed once; they hold for any offsets, centered or
    not.
    """

    kind = "quadratic"

    def __init__(self, curvatures, centers, offsets: np.ndarray, sizes):
        super().__init__(offsets, sizes)
        curvatures = self.curvatures = np.asarray(curvatures, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        self.offsets = [self._block[i, :m] for i, m in enumerate(self._sizes.tolist())]
        if not len(curvatures) == len(self.centers) == self.n_clients:
            raise ValueError("per-client pieces must have equal length")
        _each_client(np.isfinite(curvatures).all(axis=(1, 2)), "curvature is not finite")
        # eigvalsh reads one triangle only: an asymmetric matrix would pass
        # as the symmetric one of its lower triangle.
        scale = np.abs(curvatures).max(axis=(1, 2), keepdims=True)
        symmetric = np.abs(curvatures - curvatures.mT) <= 1e-12 * scale
        _each_client(symmetric.all(axis=(1, 2)), "curvature is not symmetric")
        eigs = np.linalg.eigvalsh(curvatures)
        _each_client((eigs > 0).all(axis=1), "curvature is not positive definite")
        _each_client(np.isfinite(self.centers).all(axis=1), "center is not finite")
        self.smoothness = float(eigs.max())
        # With m_i = c_i + mean_s z_s, F_i(w) = 0.5 (w - m_i)' A_i (w - m_i)
        # + kappa_i, kappa_i being the loss spread of the offsets about their
        # mean. Both terms are non-negative, so no digits cancel. Offsets that
        # are not finite, or overflow, give a kappa that is not.
        means = np.empty_like(self.centers)
        with np.errstate(invalid="ignore", over="ignore"):
            for rows, picked, m in self._groups:
                means[rows] = self._block[picked, :m].mean(axis=1)
            self._kappa = np.array([
                0.5 * np.einsum("sd,de,se->", z - m, a, z - m) / z.shape[0]
                for z, m, a in zip(self.offsets, means, curvatures)
            ])
        _each_client(np.isfinite(self._kappa), "offsets are not finite")
        self._optima = self.centers + means

    @classmethod
    def generate(cls, spec, data_sizes, rng) -> "QuadraticTask":
        """The task of the recipe ``spec`` (a ``TaskSpec``), one client per
        entry of ``data_sizes``, drawn from ``rng``."""
        data_sizes = np.asarray(data_sizes, dtype=int)
        n_clients, dimension = len(data_sizes), spec.dimension
        # Drawn in the order of one draw per matrix, eigenvalues then basis,
        # the shared matrix first (drawn, and discarded, when every client
        # has its own); the matrices are built from the draws afterwards.
        eigs = np.empty((n_clients + 1, dimension))
        bases = np.empty((n_clients + 1, dimension, dimension))

        def draw_spd(k: int) -> None:
            eigs[k] = rng.uniform(*spec.curvature_range, size=dimension)
            if dimension > 1:
                bases[k] = rng.normal(size=(dimension, dimension))

        draw_spd(0)
        directions = np.zeros((n_clients, dimension))
        # Drawn in place: a copy of the offsets would double the task's peak memory.
        offsets = np.zeros((n_clients, data_sizes.max(), dimension))
        for i in range(n_clients):
            if not spec.shared_curvature:
                draw_spd(i + 1)
            if spec.noniid_spread > 0.0:
                directions[i] = rng.normal(size=dimension)
            z = offsets[i, : data_sizes[i]]
            np.multiply(spec.sample_noise, rng.normal(size=z.shape), out=z)
            z -= z.mean(axis=0)  # centered so the full batch is exact
        if spec.shared_curvature:
            curvatures = np.repeat(_spd(eigs[:1], bases[:1]), n_clients, axis=0)
        else:
            curvatures = _spd(eigs[1:], bases[1:])
        if spec.noniid_spread > 0.0:
            directions /= _row_norms(directions)[:, None]
        return cls(curvatures, spec.noniid_spread * directions, offsets, data_sizes)

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
        return self.reduced_grads(clients, w, self._block[np.asarray(clients)[:, None], indices].mean(axis=1))

    def reduce_batches(self, client: int, indices: np.ndarray) -> np.ndarray:
        """Client ``client``'s planned mini-batches ``(k, b)`` as ``reduced_grads``
        steps on them: their ``(k, d)`` batch-mean offsets, the means
        ``sample_grads`` takes, bit for bit."""
        z = self._block[client]
        if not len(indices):
            return np.empty((0, self.dimension))
        if self.dimension == 1:
            # At d = 1 the mean runs over a contiguous axis and sums pairwise;
            # a gather through strided indices would round differently.
            return z[np.ascontiguousarray(indices)].mean(axis=1)
        # mean(axis=1) adds a batch's positions in order, so a running sum of one
        # (k, d) gather per position gives its bits, and holds no (b, k, d) one.
        columns = np.ascontiguousarray(indices.T)
        out = z.take(columns[0], axis=0)
        for column in columns[1:]:
            out += z.take(column, axis=0)
        out /= len(columns)
        return out

    def reduced_grads(self, clients, w: np.ndarray, mean_offsets: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on a batch of client ``clients[i]`` whose
        mean offset is ``mean_offsets[i]`` (see ``reduce_batches``). ``take``
        gathers the rows' terms faster than an index does."""
        e = w - self.centers.take(clients, axis=0)
        e -= mean_offsets
        return (self.curvatures.take(clients, axis=0) @ e[:, :, None])[:, :, 0]

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

    The data are the task's padded block ``(n, m_max, d)`` of signed design
    rows ``s = y x`` (see ``_Task``). Labels are +/-1 and a sign flip is
    exact, so the margin ``y (x @ w)`` is ``s @ w`` and the gradient
    ``x' (-y / (1 + e^m))`` is ``s' (-1 / (1 + e^m))``, bit for bit; a
    sample's label is the sign of its intercept entry, the last. Padding rows
    must be zero, so they add exactly zero to a gradient. The optima are
    found by one stacked fixed-step descent: a single row for w*, one row per
    client for the local optima.
    """

    kind = "logistic"

    def __init__(self, signed: np.ndarray, sizes, l2_reg: float):
        super().__init__(signed, sizes)
        self.l2_reg = float(l2_reg)
        if l2_reg <= 0:
            raise ValueError("l2_reg must be positive so optima are unique")
        for i, m in enumerate(self._sizes.tolist()):
            labels = self._block[i, :m, -1]
            bad = labels[np.abs(labels) != 1.0]
            if bad.size:
                raise ValueError(f"labels must be +1 or -1; client {i} has {bad[0]}")
            if self._block[i, m:].any():
                raise ValueError(f"client {i} has non-zero padding rows past its {m} samples")

    @classmethod
    def generate(cls, spec, data_sizes, rng) -> "LogisticTask":
        """The task of the recipe ``spec`` (a ``TaskSpec``), one client per
        entry of ``data_sizes``, drawn from ``rng``. ``spec.dimension`` is the
        model dimension; feature space is one less."""
        data_sizes = np.asarray(data_sizes, dtype=int)
        feature_dim = spec.dimension - 1
        base = rng.normal(size=feature_dim)
        base /= np.linalg.norm(base)
        # Drawn in place: per-client copies would double the task's peak memory.
        signed = np.zeros((len(data_sizes), data_sizes.max(), spec.dimension))
        for i, n in enumerate(data_sizes.tolist()):
            y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            shift = np.zeros(feature_dim)
            if spec.noniid_spread > 0.0:
                shift = rng.normal(size=feature_dim)
                shift *= spec.noniid_spread / np.linalg.norm(shift)
            s = signed[i, :n]
            x = s[:, :feature_dim]
            np.multiply(y[:, None] * spec.separation, base, out=x)
            x += shift
            x += spec.sample_noise * rng.normal(size=(n, feature_dim))
            s[:, feature_dim] = 1.0
            s *= y[:, None]
        return cls(signed, data_sizes, spec.l2_reg)

    def local_loss(self, client: int, w: np.ndarray) -> float:
        m = self._block[client, : self._sizes[client]] @ w
        return float(np.mean(np.logaddexp(0.0, -m)) + 0.5 * self.l2_reg * np.dot(w, w))

    def _grads(self, s, w: np.ndarray, size) -> np.ndarray:
        """Gradients at a stack of points, row i on the signed rows ``s[i]``,
        averaged over ``size`` rows.

        Stacked matmuls, not einsums: with equal row counts each row equals
        the one-client product bit for bit.
        """
        t = (s @ w[:, :, None])[:, :, 0]
        np.exp(t, out=t)
        t += 1.0
        np.divide(-1.0, t, out=t)  # coef = -1 / (1 + exp(m))
        g = (s.mT @ t[:, :, None])[:, :, 0]
        return g / size + self.l2_reg * w

    def local_grads(self, clients, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client ``clients[i]``,
        one stacked call per data size."""
        out = np.empty_like(w)
        for rows, picked, m in _size_groups(self._sizes, clients):
            out[rows] = self._grads(self._block[picked, :m], w[rows], m)
        return out

    def sample_grads(self, clients, w: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Mini-batch gradients, row i on the samples ``indices[i]`` of client ``clients[i]``."""
        return self._grads(self._block[np.asarray(clients)[:, None], indices], w, indices.shape[1])

    def reduce_batches(self, client: int, indices: np.ndarray) -> np.ndarray:
        """Planned mini-batches as ``reduced_grads`` steps on them: the indices."""
        return indices

    reduced_grads = sample_grads

    def global_loss(self, w: np.ndarray) -> float:
        """Mean of the clients' ``local_loss``, one stacked call per data size."""
        losses = np.empty(self.n_clients)
        for rows, picked, m in self._groups:
            # One temporary per group, the negated margins, taken in place.
            z = self._block[picked, :m] @ w
            np.negative(z, out=z)
            losses[rows] = np.mean(np.logaddexp(0.0, z, out=z), axis=1)
        return float(np.mean(losses + 0.5 * self.l2_reg * np.dot(w, w)))

    def _full_grads(self, w: np.ndarray) -> np.ndarray:
        """Full-batch gradients at a stack of points, row i on client i's data,
        over the whole padded block; with equal data sizes each row equals
        ``local_grad`` bit for bit. A single ``(1, d)`` point serves every row."""
        return self._grads(self._block, w, self._sizes[:, None])

    def global_grad(self, w: np.ndarray) -> np.ndarray:
        return self._full_grads(w[None]).mean(axis=0)

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
        # Exact upper bound: sigmoid curvature is at most 1/4. Signed rows
        # have the design's gram matrix, (y x)'(y x) = x'x, and one stacked
        # product per size group equals each client's own bit for bit.
        design_norm = 0.0
        for _, picked, m in self._groups:
            s = self._block[picked, :m]
            design_norm = max(design_norm, float(np.linalg.eigvalsh(s.mT @ s / m).max()))
        return 0.25 * design_norm + self.l2_reg

    @cached_property
    def w_star(self) -> np.ndarray:
        return self._descend(lambda w: self.global_grad(w[0])[None], ["w*"])[0]

    @cached_property
    def _optima(self) -> np.ndarray:
        return self._descend(self._full_grads, [f"client {i}" for i in range(self.n_clients)])


def _index_type(n: int) -> type:
    """The narrowest of int16, int32 and int64 that holds ``n - 1``: a run holds its batches."""
    return next(t for t in (np.int16, np.int32, np.int64) if n - 1 <= np.iinfo(t).max)


def _replay(rng, n: int, b: int, count: int) -> np.ndarray:
    """``count`` successive ``rng.choice(n, size=b, replace=False)`` calls."""
    return np.array([rng.choice(n, size=b, replace=False) for _ in range(count)],
                    dtype=_index_type(n)).reshape(count, b)


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
    dtype = _index_type(n)
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


def draw_batches(rngs, n, b, counts) -> list[np.ndarray]:
    """Whole mini-batch streams: entry i is the ``(counts[i], b[i])`` array of
    ``counts[i]`` successive ``rngs[i].choice(n[i], size=b[i], replace=False)``
    calls, bit for bit, and each rng is left in the state those calls leave.

    ``n``, ``b`` and ``counts`` hold one value per rng, or one for all. The
    indices come in the narrowest of int16, int32 and int64 that holds
    ``n - 1`` (``choice`` returns int64). The streams of clients with equal
    ``(n, b)`` are sampled as one stack, one numpy operation per draw over
    every batch, from one ``random_raw`` call per rng. A batch whose draws
    hit a Lemire rejection is drawn by ``choice`` itself, and the stack
    resumes after it. A client is replayed with ``choice`` throughout where
    the stack cannot follow numpy: numpy's tail-shuffle branch
    (``n > 10000`` and ``b > n // 50``), a range past 32 bits, or a bit
    generator other than PCG64. Raises if a client that draws at least one
    batch has ``b > n``, or if two clients share a bit generator: their draws
    would interleave. A stack holds about 2b uint32 draws per batch, so
    memory follows the counts asked for.
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
    stacks: dict[tuple[int, int], list[int]] = {}
    for i, rng in enumerate(rngs):
        if (type(rng.bit_generator) is not np.random.PCG64 or n[i] >= 2**32
                or (n[i] > 10000 and b[i] > n[i] // 50)):
            out[i] = _replay(rng, n[i], b[i], counts[i])
        else:
            stacks.setdefault((n[i], b[i]), []).append(i)
    for (m, size), members in stacks.items():
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
            out[i] = np.concatenate(pieces) if len(pieces) > 1 else batches
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
    stream: np.ndarray | None = None,
    first=None,
    prox_center: np.ndarray | None = None,
    mu: float = 0.0,
) -> np.ndarray:
    """Lock-step local SGD on a stack of models; returns the ``(k, d)`` results.

    Row i starts at ``starts[i]`` (or at ``starts`` itself, one ``(d,)`` start
    shared by every row) and takes exactly ``tau[i]`` SGD steps on client
    ``clients[i]``; each step's gradients for all running rows come from one
    stacked task call. ``stream=None`` uses full-batch gradients; otherwise
    ``stream`` holds planned steps as ``task.reduce_batches`` returns them, one
    per row of one width, and row i's step s takes ``task.reduced_grads`` on
    ``stream[first[i] + s]``. A non-zero ``mu`` with a ``prox_center`` (one
    center for every row) adds the proximal pull mu*(w - center) to every
    step. Rows with tau=0 return their start and read no step. Rows come
    back as computed: a diverged row is not finite, and the caller checks.
    """
    clients = np.asarray(clients, dtype=int)
    tau = np.asarray(tau, dtype=int)
    k = clients.size
    # Rows sorted by step count, longest first: the rows still running at
    # any step are a prefix, which steps as one view of w.
    order = np.argsort(-tau, kind="stable")
    tau = tau.take(order)
    steps = tau.tolist()
    if k and steps[-1] < 0:
        raise ValueError("tau must be non-negative")
    starts = np.asarray(starts, dtype=float)
    w = starts.take(order, axis=0) if starts.ndim == 2 else np.repeat(starts[None], k, axis=0)
    if w.shape != (k, task.dimension):
        raise ValueError("model dimension does not match the task")
    ids = clients.take(order)
    end = steps.index(0) if 0 in steps else k  # rows with steps to take
    stack = None
    if stream is not None and end:
        # The running rows' steps as one (steps, rows, width) stack, gathered
        # at once. A row past its last step reads rows it never steps on,
        # clipped to the stream, so a row that ends the stream stays inside.
        lo = np.asarray(first, dtype=int).take(order[:end])
        if lo.min() < 0 or (lo + tau[:end]).max() > len(stream):
            raise ValueError("rows take steps past the ends of the stream")
        stack = stream.take(lo + np.arange(steps[0])[:, None], axis=0, mode="clip")
    use_prox = mu > 0.0 and prox_center is not None
    for step in range(steps[0] if end else 0):
        while steps[end - 1] <= step:
            end -= 1
        rows = w[:end]
        if stack is None:
            g = task.local_grads(ids[:end], rows)
        else:
            g = task.reduced_grads(ids[:end], rows, stack[step, :end])
        if use_prox:
            g = g + mu * (rows - prox_center)
        g *= eta
        rows -= g
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
    ``train_clients``, on a one-client stream; raises ``ValueError`` when the
    result is not finite.
    """
    stream = None
    if batch_size is not None:
        [drawn] = draw_batches([rng], task.data_size(client), batch_size, [tau])
        stream = task.reduce_batches(client, drawn)
    [w] = train_clients(
        task, [client], np.asarray(w_start, dtype=float)[None], [tau], eta,
        stream=stream, first=[0], prox_center=prox_center, mu=mu,
    )
    if not np.isfinite(w).all():
        raise ValueError(f"local_train: local models of clients [{client}] are not finite")
    return w


@dataclass
class EstimatedConstants:
    """Empirical stand-ins for the analysis constants, with exact parts where available."""

    L_hat: float
    G_hat: float
    sigma_hat: np.ndarray
    source: dict


def estimate_constants(task, batch_sizes, probe_count: int, rng) -> EstimatedConstants:
    """Probe the task to estimate the smoothness, gradient, and noise bounds;
    client i draws mini-batches of ``batch_sizes[i]`` samples.

    The gradient bound is the largest stochastic-gradient norm seen across
    probe points; the per-client noise bound is the largest observed deviation
    from the full-batch gradient. A client whose batch is its whole data set
    has no sampling noise: its bound is exactly 0, though its batches are
    still drawn, so every client sees the same probe stream. Smoothness is
    exact for quadratic tasks and probed otherwise, from the full-batch
    gradients at consecutive probe points, so it needs at least two.

    The values, and the state ``rng`` is left in, are those of one
    ``stochastic_gradient`` call per probe point and client, in that order:
    the probe points are drawn first, then every batch in that order, and
    then each probe point takes one ``local_grads`` call and one
    ``sample_grads`` call per batch size.
    """
    if probe_count < 1:
        raise ValueError("probe_count must be >= 1")
    if probe_count < 2 and task.kind != "quadratic":
        raise ValueError(f"probe_count must be >= 2 for a {task.kind} task: L is probed from pairs of points")
    n, d = task.n_clients, task.dimension
    sizes = [task.data_size(i) for i in range(n)]
    batch = np.asarray(batch_sizes, dtype=int)
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
