import dataclasses

import numpy as np
import pytest

from tsfl.scenarios import TaskSpec, preset
from tsfl.training import (
    LogisticTask,
    QuadraticTask,
    draw_batches,
    estimate_constants,
    local_train,
    stochastic_gradient,
    train_clients,
)

from task_blocks import padded


def central_difference(loss_fn, w, h=1e-5):
    """Independent gradient oracle: central finite differences, coordinate-wise."""
    grad = np.zeros_like(w)
    for k in range(w.size):
        step = np.zeros_like(w)
        step[k] = h
        grad[k] = (loss_fn(w + step) - loss_fn(w - step)) / (2 * h)
    return grad


def small_quadratic(rng, n_clients=2, dimension=2, data_size=8, spread=0.0, noise=0.5):
    return QuadraticTask.generate(
        TaskSpec(dimension=dimension, noniid_spread=spread, sample_noise=noise), [data_size] * n_clients, rng
    )


def small_logistic(rng, n_clients=2, dimension=2, data_size=4, spread=0.0):
    return LogisticTask.generate(
        TaskSpec(kind="logistic", dimension=dimension, noniid_spread=spread, sample_noise=1.0),
        [data_size] * n_clients, rng,
    )


def test_full_batch_gradient_vanishes_at_local_optimum():
    task = small_quadratic(np.random.default_rng(0))
    sample = stochastic_gradient(task, 0, task.local_optimum(0), 4, np.random.default_rng(1))
    assert np.allclose(sample.full_batch, 0.0, atol=1e-12)


def test_one_dimensional_quadratic_gradient_value():
    task = QuadraticTask([np.array([[2.0]])], [np.array([0.0])], *padded([np.zeros((4, 1))]))
    sample = stochastic_gradient(task, 0, np.array([3.0]), 2, np.random.default_rng(0))
    assert sample.full_batch[0] == pytest.approx(6.0)


def test_logistic_gradient_matches_finite_differences_on_tiny_dataset():
    task = small_logistic(np.random.default_rng(3), n_clients=1, data_size=4)
    w = np.array([0.3, -0.2])
    grad = task.local_grad(0, w)
    oracle = central_difference(lambda v: task.local_loss(0, v), w)
    assert np.linalg.norm(grad - oracle) / np.linalg.norm(oracle) < 1e-6


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_gradients_match_finite_differences_at_random_probes(kind):
    rng = np.random.default_rng(11)
    if kind == "quadratic":
        task = small_quadratic(rng, n_clients=3, dimension=3, spread=0.7)
    else:
        task = small_logistic(rng, n_clients=3, dimension=3, spread=0.5)
    for _ in range(100):
        w = rng.normal(size=task.dimension)
        client = int(rng.integers(task.n_clients))
        grad = task.local_grad(client, w)
        oracle = central_difference(lambda v: task.local_loss(client, v), w)
        assert np.linalg.norm(grad - oracle) <= 1e-5 * max(np.linalg.norm(oracle), 1.0)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_batch_average_equals_full_batch_over_disjoint_batches(kind):
    rng = np.random.default_rng(5)
    if kind == "quadratic":
        task = small_quadratic(rng, data_size=12, noise=1.0)
    else:
        task = small_logistic(rng, data_size=12)
    w = rng.normal(size=task.dimension)
    batch = 4
    for client in range(task.n_clients):
        n = task.data_size(client)
        pieces = [task.sample_grad(client, w, np.arange(s, s + batch)) for s in range(0, n, batch)]
        assert np.allclose(np.mean(pieces, axis=0), task.local_grad(client, w), atol=1e-10)


def test_stochastic_expectation_contract_by_enumeration():
    # Mean over every (n choose k) batch equals the full-batch gradient.
    from itertools import combinations

    task = small_quadratic(np.random.default_rng(9), n_clients=1, data_size=6, noise=1.0)
    w = np.array([0.7, -1.2])
    grads = [
        task.sample_grad(0, w, np.array(idx)) for idx in combinations(range(6), 2)
    ]
    assert np.allclose(np.mean(grads, axis=0), task.local_grad(0, w), atol=1e-12)


def _per_sample_loss(task, client, w):
    """The definition: the mean over samples of 0.5 (w - c - z)' A (w - c - z)."""
    a = task.curvatures[client]
    diffs = w - task.centers[client] - task.offsets[client]
    return float(np.mean([0.5 * v @ a @ v for v in diffs]))


def _per_sample_grad(task, client, w):
    a = task.curvatures[client]
    return np.mean([a @ v for v in w - task.centers[client] - task.offsets[client]], axis=0)


QUADRATIC_CASES = [f"{name}-d{d}" for name in ("case1", "case2", "case3") for d in (1, 2, 8)] + [
    "shared-curvature",
    "uncentered",
]


def _quadratic_task(case):
    rng = np.random.default_rng(17)
    if case == "shared-curvature":
        return QuadraticTask.generate(TaskSpec(dimension=3, noniid_spread=1.0, shared_curvature=True), [10, 20, 30, 40], rng)
    if case == "uncentered":
        # A small spread about a large offset mean: at a client's minimum the
        # loss is tiny next to the offsets' own quadratic terms.
        return QuadraticTask(
            [np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2)],
            [np.array([0.5, -1.0]), np.array([2.0, 0.0])],
            *padded([3.0 + 1e-3 * rng.normal(size=(7, 2)), rng.normal(loc=-1.0, size=(12, 2))]),
        )
    name, d = case.split("-d")
    sizes = {} if name == "case3" else {"data_size": 96}  # case3 draws tiered sizes
    scenario = dataclasses.replace(preset(name, n_clients=6, **sizes),
                                   task=TaskSpec(kind="quadratic", dimension=int(d), noniid_spread=0.6))
    return scenario.materialize(rng)


@pytest.mark.parametrize("case", QUADRATIC_CASES)
def test_quadratic_closed_form_matches_per_sample_definition(case):
    task = _quadratic_task(case)
    rng = np.random.default_rng(3)
    n = task.n_clients
    client_minimum = task.centers[0] + task.offsets[0].mean(axis=0)
    points = [rng.normal(size=task.dimension) for _ in range(3)] + [client_minimum, task.w_star]
    for w in points:
        losses = [_per_sample_loss(task, i, w) for i in range(n)]
        for i in range(n):
            assert task.local_loss(i, w) == pytest.approx(losses[i], rel=1e-12, abs=0.0)
        assert task.global_loss(w) == pytest.approx(np.mean(losses), rel=1e-12, abs=0.0)
        # The per-client loop global_grad replaced, bit for bit.
        loop = np.mean([task.local_grad(i, w) for i in range(n)], axis=0)
        assert np.array_equal(task.global_grad(w), loop)
        # The full-batch gradient is the per-sample mean, relative to the
        # client gradients' scale (their mean cancels at w*).
        per_sample = np.mean([_per_sample_grad(task, i, w) for i in range(n)], axis=0)
        scale = np.mean([np.linalg.norm(task.local_grad(i, w)) for i in range(n)])
        assert np.linalg.norm(task.global_grad(w) - per_sample) <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_local_train_minibatch_matches_stochastic_gradient_loop(kind):
    rng = np.random.default_rng(8)
    if kind == "quadratic":
        task = small_quadratic(rng, n_clients=2, dimension=3, data_size=16, spread=0.5, noise=1.0)
    else:
        task = small_logistic(rng, n_clients=2, dimension=3, data_size=16, spread=0.5)
    w0 = rng.normal(size=task.dimension)
    center = rng.normal(size=task.dimension)
    trained, looped = np.random.default_rng(5), np.random.default_rng(5)
    out = local_train(task, 1, w0, 7, eta=0.05, rng=trained, batch_size=4, prox_center=center, mu=0.3)
    w = w0.copy()
    for _ in range(7):
        g = stochastic_gradient(task, 1, w, 4, looped).stochastic
        g = g + 0.3 * (w - center)
        w -= 0.05 * g
    assert np.array_equal(out, w)
    # Both streams consumed the same draws.
    assert trained.bit_generator.state == looped.bit_generator.state


def test_local_train_oversized_batch_raises_only_when_a_step_runs():
    task = small_quadratic(np.random.default_rng(0), data_size=8)
    w = np.array([1.0, -2.0])
    with pytest.raises(ValueError, match="batch_size"):
        local_train(task, 0, w, 1, eta=0.1, rng=np.random.default_rng(0), batch_size=9)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    out = local_train(task, 0, w, 0, eta=0.1, rng=rng, batch_size=9)
    assert np.array_equal(out, w)
    assert rng.bit_generator.state == state


def test_local_train_zero_iterations_is_identity():
    task = small_quadratic(np.random.default_rng(0))
    w = np.array([1.0, -2.0])
    out = local_train(task, 0, w, 0, eta=0.1)
    assert np.array_equal(out, w)
    assert out is not w


def test_local_train_single_full_batch_step_value():
    task = QuadraticTask([np.array([[1.0]])], [np.array([0.0])], *padded([np.zeros((4, 1))]))
    out = local_train(task, 0, np.array([1.0]), 1, eta=0.1)
    assert out[0] == pytest.approx(0.9)


def test_local_train_matches_unrolled_scalar_oracle():
    rng = np.random.default_rng(21)
    task = small_quadratic(rng, n_clients=1, dimension=2, spread=0.5)
    w0 = rng.normal(size=2)
    out = local_train(task, 0, w0, 5, eta=0.07)
    # Independent oracle: unroll the recurrence with plain Python floats.
    a = task.curvatures[0]
    c = task.centers[0]
    w = [float(w0[0]), float(w0[1])]
    for _ in range(5):
        g0 = a[0][0] * (w[0] - c[0]) + a[0][1] * (w[1] - c[1])
        g1 = a[1][0] * (w[0] - c[0]) + a[1][1] * (w[1] - c[1])
        w = [w[0] - 0.07 * g0, w[1] - 0.07 * g1]
    assert abs(out[0] - w[0]) < 1e-12 and abs(out[1] - w[1]) < 1e-12


def test_local_train_proximal_term_pulls_toward_center():
    task = small_quadratic(np.random.default_rng(0), n_clients=1, spread=2.0)
    w0 = np.zeros(2)
    free = local_train(task, 0, w0, 20, eta=0.1)
    proxed = local_train(task, 0, w0, 20, eta=0.1, prox_center=w0, mu=5.0)
    assert np.linalg.norm(proxed - w0) < np.linalg.norm(free - w0)


def test_local_train_converges_to_center_with_full_batch():
    rng = np.random.default_rng(2)
    task = small_quadratic(rng, n_clients=1, dimension=3, spread=1.0)
    eigs = np.linalg.eigvalsh(task.curvatures[0])
    eta = 0.5 / eigs.max()
    # Enough iterations for the slowest mode to contract below 1e-8.
    need = int(np.ceil(np.log(1e-9) / np.log(1.0 - eta * eigs.min())))
    w = local_train(task, 0, np.ones(3) * 3.0, need, eta=eta)
    assert np.linalg.norm(w - task.local_optimum(0)) < 1e-8


def test_stochastic_gradient_deterministic_given_rng_state():
    task = small_quadratic(np.random.default_rng(0), noise=1.0)
    a = stochastic_gradient(task, 0, np.ones(2), 4, np.random.default_rng(33))
    b = stochastic_gradient(task, 0, np.ones(2), 4, np.random.default_rng(33))
    assert np.array_equal(a.stochastic, b.stochastic)
    assert np.array_equal(a.batch_indices, b.batch_indices)


def test_stochastic_gradient_rejects_dimension_mismatch():
    task = small_quadratic(np.random.default_rng(0))
    with pytest.raises(ValueError):
        stochastic_gradient(task, 0, np.ones(5), 4, np.random.default_rng(0))


def test_quadratic_global_optimum_closed_form():
    rng = np.random.default_rng(7)
    task = small_quadratic(rng, n_clients=3, dimension=2, spread=1.5)
    assert np.allclose(task.global_grad(task.w_star), 0.0, atol=1e-12)


def test_quadratic_uncentered_offsets_set_gradient_and_optima():
    # Offsets with a mean far from zero: each client's loss is minimized at
    # c_i + mean_s z_s, not at c_i, and every full-batch quantity follows it.
    rng = np.random.default_rng(4)
    task = QuadraticTask(
        [np.array([[2.0, 0.3], [0.3, 1.0]]), 0.7 * np.eye(2)],
        [np.array([0.5, -1.0]), np.array([2.0, 0.0])],
        *padded([rng.normal(loc=1.5, size=(7, 2)), rng.normal(loc=-1.0, size=(12, 2))]),
    )
    for client in range(task.n_clients):
        for w in rng.normal(size=(5, 2)):
            oracle = central_difference(lambda v: task.local_loss(client, v), w)
            assert np.allclose(task.local_grad(client, w), oracle, rtol=1e-8, atol=1e-8)
        optimum = task.local_optimum(client)
        assert np.linalg.norm(optimum - task.centers[client]) > 0.5
        floor = task.local_loss(client, optimum)
        for step in rng.normal(scale=1e-3, size=(20, 2)):
            assert task.local_loss(client, optimum + step) > floor
    assert np.allclose(task.global_grad(task.w_star), 0.0, atol=1e-12)
    distances = [np.sum((task.w_star - task.local_optimum(i)) ** 2) for i in range(task.n_clients)]
    assert task.gamma_noniid == pytest.approx(distances, rel=1e-12)


def _batches(task):
    return [min(4, task.data_size(i)) for i in range(task.n_clients)]


def test_estimate_constants_identity_curvature_gives_exact_smoothness():
    task = QuadraticTask([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)], *padded([np.zeros((4, 2))] * 2))
    est = estimate_constants(task, _batches(task), 3, np.random.default_rng(0))
    assert est.L_hat == 1.0
    assert est.source["L"] == "exact"


def test_estimate_constants_symmetric_centers():
    task = QuadraticTask([np.array([[1.0]])] * 2, [np.array([-1.0]), np.array([1.0])],
                         *padded([np.zeros((4, 1))] * 2))
    estimate_constants(task, _batches(task), 3, np.random.default_rng(0))
    assert task.w_star == pytest.approx(0.0)
    assert task.gamma_noniid == pytest.approx([1.0, 1.0])


def test_logistic_optimum_distance_matches_long_descent_oracle():
    task = small_logistic(np.random.default_rng(13), n_clients=2, data_size=8, spread=0.8)

    def descend(grad_fn):
        # Independent oracle: conservative fixed step, run to tiny gradient.
        w = np.zeros(task.dimension)
        for _ in range(1_000_000):
            g = grad_fn(w)
            if np.dot(g, g) < 1e-26:
                break
            w = w - 0.05 * g
        return w

    star = descend(task.global_grad)
    gammas = [
        float(np.sum((star - descend(lambda v, i=i: task.local_grad(i, v))) ** 2))
        for i in range(2)
    ]
    assert np.allclose(task.gamma_noniid, gammas, atol=1e-4)


def test_sigma_estimate_is_zero_without_sample_noise():
    task = small_quadratic(np.random.default_rng(0), noise=0.0)
    est = estimate_constants(task, _batches(task), 2, np.random.default_rng(4))
    assert np.all(est.sigma_hat == 0.0)
    assert est.G_hat > 0.0


def test_sigma_estimate_is_exactly_zero_for_full_batch_probes():
    # Clients 0 and 5 hold no more samples than a batch: their probe batch is
    # their whole data set, whose gradient equals the full one up to rounding.
    sizes = [10, 50, 20, 64, 33, 8]
    task = QuadraticTask.generate(TaskSpec(dimension=4, noniid_spread=0.5), sizes, np.random.default_rng(1))
    batch = [min(16, m) for m in sizes]
    rng = np.random.default_rng(4)
    est = estimate_constants(task, batch, 4, rng)
    assert est.sigma_hat[[0, 5]].tolist() == [0.0, 0.0]
    assert np.all(est.sigma_hat[1:5] > 0.0)
    # Their batches are still drawn, so the stream ends where four probes of
    # six batch draws each leave it.
    replay = np.random.default_rng(4)
    for _ in range(4):
        replay.normal(size=task.dimension)
    for _ in range(4):
        for m, b in zip(sizes, batch):
            replay.choice(m, size=b, replace=False)
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("layout", ["equal", "unequal", "single"])
def test_logistic_global_loss_is_the_mean_local_loss_bit_for_bit(layout):
    sizes = {"equal": [40] * 5, "unequal": [16, 40, 24, 64, 33, 16, 7], "single": [30]}[layout]
    rng = np.random.default_rng(23)
    task = LogisticTask.generate(TaskSpec(kind="logistic", dimension=4, noniid_spread=0.8, sample_noise=1.0), sizes, rng)
    for w in rng.normal(scale=2.0, size=(20, task.dimension)):
        loop = float(np.mean([task.local_loss(i, w) for i in range(task.n_clients)]))
        assert task.global_loss(w) == loop


def _descent_oracle(task, grad_fn):
    """The per-point definition of a logistic optimum: fixed-step full-batch
    descent from the origin, stopping after the first step with |g| < 1e-12."""
    step = 1.0 / task.smoothness
    w = np.zeros(task.dimension)
    for _ in range(200_000):
        g = grad_fn(w)
        w = w - step * g
        if np.dot(g, g) < 1e-12**2:
            return w
    raise AssertionError("oracle descent did not converge")


LOGISTIC_LAYOUTS = {"equal": [40] * 5, "unequal": [16, 40, 24, 64, 33], "single": [30]}


@pytest.mark.parametrize("layout", LOGISTIC_LAYOUTS)
def test_logistic_stacked_descent_matches_per_client_definition(layout):
    sizes = LOGISTIC_LAYOUTS[layout]
    task = LogisticTask.generate(TaskSpec(kind="logistic", dimension=3, noniid_spread=0.8, sample_noise=1.0),
                                 sizes, np.random.default_rng(19))
    n = task.n_clients

    def agree(got, want, scale):
        # Equal sizes need no padding: the stacked arithmetic is the
        # per-client arithmetic. Padded clients may differ in the last digits.
        if layout == "unequal":
            assert np.linalg.norm(got - want) <= 1e-13 * scale
        else:
            assert np.array_equal(got, want)

    def mean_grad(w):
        return np.mean([task.local_grad(i, w) for i in range(n)], axis=0)

    star = _descent_oracle(task, mean_grad)
    optima = [_descent_oracle(task, lambda w, i=i: task.local_grad(i, w)) for i in range(n)]
    for w in list(np.random.default_rng(2).normal(size=(4, task.dimension))) + [star]:
        scale = np.mean([np.linalg.norm(task.local_grad(i, w)) for i in range(n)])
        agree(task.global_grad(w), mean_grad(w), scale)
    agree(task.w_star, star, np.linalg.norm(star))
    for i in range(n):
        agree(task.local_optimum(i), optima[i], np.linalg.norm(optima[i]))
    gammas = np.array([float(np.sum((star - o) ** 2)) for o in optima])
    agree(task.gamma_noniid, gammas, np.linalg.norm(gammas))
    if layout == "single":
        assert task.gamma_noniid[0] == 0.0
    # local_optimum hands out copies of the cached optima.
    task.local_optimum(0)[:] = 7.0
    agree(task.local_optimum(0), optima[0], np.linalg.norm(optima[0]))


def test_logistic_data_are_views_into_padded_blocks():
    # The task holds its data in one signed block: no per-client copies, and
    # zero padding rows.
    sizes = [5, 9, 7]
    task = LogisticTask.generate(TaskSpec(kind="logistic", dimension=3, noniid_spread=0.5, sample_noise=1.0),
                                 sizes, np.random.default_rng(6))
    task.w_star, task.local_optimum(0)  # the cached members are built
    blocks = [v for v in vars(task).values() if isinstance(v, np.ndarray) and v.ndim == 3]
    assert len(blocks) == 1 and blocks[0] is task._block and task._block.shape == (3, 9, 3)
    for i, m in enumerate(sizes):
        assert task.data_size(i) == m and np.all(task._block[i, m:] == 0.0)
        # The intercept entry of a signed row is its label.
        assert np.all(np.abs(task._block[i, :m, 2]) == 1.0)
    # The block a task is given is kept without a copy.
    assert LogisticTask(task._block, sizes, 0.05)._block is task._block


@pytest.mark.parametrize("bad", [0.0, 2.0, -0.5, np.nan])
def test_logistic_rejects_labels_other_than_plus_or_minus_one(bad):
    # A signed row's last entry, y * 1, is its label.
    rows = [np.zeros((3, 3)), np.ones((2, 3))]
    rows[0][:, -1], rows[1][:, -1] = [1.0, -1.0, 1.0], [-1.0, bad]
    with pytest.raises(ValueError, match=r"labels must be \+1 or -1; client 1 has"):
        LogisticTask(*padded(rows), 0.05)


def test_logistic_rejects_non_zero_padding_rows():
    signed, sizes = padded([np.ones((3, 2)), np.ones((2, 2))])
    signed[1, 2, 0] = 0.5
    with pytest.raises(ValueError, match=r"^client 1 has non-zero padding rows past its 2 samples$"):
        LogisticTask(signed, sizes, 0.05)


def _bad_quadratic(piece, value):
    """Two clients with identity curvatures, zero centers and four zero
    offsets each, but client 1's ``piece`` replaced by ``value``."""
    pieces = {"curvature": np.repeat(np.eye(2)[None], 2, axis=0), "center": np.zeros((2, 2)),
              "offsets": np.zeros((2, 4, 2))}
    pieces[piece][1] = value
    return QuadraticTask(pieces["curvature"], pieces["center"], pieces["offsets"], [4, 4])


@pytest.mark.parametrize(("piece", "value", "problem"), [
    ("curvature", [[1.0, np.nan], [np.nan, 1.0]], "curvature is not finite"),
    ("curvature", [[np.inf, 0.0], [0.0, 1.0]], "curvature is not finite"),
    # eigvalsh reads one triangle: this passed as the identity, while the
    # loss read the whole matrix and fell below its own minimum.
    ("curvature", [[1.0, 5.0], [0.0, 1.0]], "curvature is not symmetric"),
    ("curvature", [[1.0, 1e-9], [0.0, 1.0]], "curvature is not symmetric"),
    ("curvature", [[1.0, 0.0], [0.0, 0.0]], "curvature is not positive definite"),
    ("curvature", [[1.0, 2.0], [2.0, 1.0]], "curvature is not positive definite"),
    ("center", [0.0, np.nan], "center is not finite"),
    ("center", [-np.inf, 0.0], "center is not finite"),
    ("offsets", [[np.nan, 0.0]] * 4, "offsets are not finite"),
    ("offsets", [[0.0, np.inf]] + [[0.0, 0.0]] * 3, "offsets are not finite"),
    ("offsets", [[1e200, 0.0], [-1e200, 0.0]] * 2, "offsets are not finite"),  # kappa overflows
])
def test_quadratic_task_rejects_pieces_it_cannot_evaluate(piece, value, problem):
    with pytest.raises(ValueError, match=rf"^client 1: {problem}$"):
        _bad_quadratic(piece, value)


def test_generated_curvatures_are_symmetric_to_rounding():
    # (q * eigs) @ q.mT is symmetric only to rounding, so the check allows it.
    task = QuadraticTask.generate(TaskSpec(dimension=128), [2] * 3, np.random.default_rng(2))
    assert not np.array_equal(task.curvatures, task.curvatures.mT)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize(("sizes", "message"), [
    ([5, 9], r"^client 1 has 9 samples; a client of this block holds 1 to 7$"),
    ([5, 0], r"^client 1 has 0 samples; a client of this block holds 1 to 7$"),
    ([-1, 5], r"^client 0 has -1 samples; a client of this block holds 1 to 7$"),
    ([5], r"^sizes must be one integer count per block row; got \(1,\) int64 sizes for a block of shape \(2, 7, 2\)"),
    ([5, 7, 7], r"^sizes must be one integer count per block row; got \(3,\) int64"),
    ([5.0, 7.0], r"^sizes must be one integer count per block row; got \(2,\) float64"),
    ([[5, 7]], r"^sizes must be one integer count per block row; got \(1, 2\) int64"),
])
def test_task_rejects_sizes_that_do_not_fit_its_block(kind, sizes, message):
    # Each client holds between one sample and the block's m_max rows; a
    # size past the block read padding, and a size of 0 gave a NaN loss.
    block = np.ones((2, 7, 2))
    with pytest.raises(ValueError, match=message):
        if kind == "quadratic":
            QuadraticTask(np.repeat(np.eye(2)[None], 2, axis=0), np.zeros((2, 2)), block, sizes)
        else:
            LogisticTask(block, sizes, 0.05)


def _labelled_task(sizes, dimension=3, seed=29):
    """A logistic task built from explicit data, with the padded feature and
    label blocks ``(x, y)`` the oracle reads: ``x`` carries the intercept
    column, and padding rows are zero with label 0."""
    rng = np.random.default_rng(seed)
    features = [rng.normal(scale=2.0, size=(m, dimension - 1)) for m in sizes]
    labels = [rng.choice([-1.0, 1.0], size=m) for m in sizes]
    x, _ = padded([np.column_stack([f, np.ones(len(f))]) for f in features])
    y = padded([label[:, None] for label in labels])[0][:, :, 0]
    return LogisticTask(x * y[..., None], sizes, 0.05), x, y


def _labelled_grads(x, y, w, size, l2_reg):
    """The labelled gradient arithmetic: margins ``y (x @ w)``, coefficients
    ``-y / (1 + exp(m))``; rows with label 0 add exactly zero."""
    t = np.matmul(x, w[:, :, None])[:, :, 0]
    t *= y
    np.exp(t, out=t)
    t += 1.0
    np.divide(y, t, out=t)
    np.negative(t, out=t)
    g = (x.transpose(0, 2, 1) @ t[:, :, None])[:, :, 0]
    return g / size + l2_reg * w


def _labelled_loss(x, y, w, l2_reg):
    return float(np.mean(np.logaddexp(0.0, -(y * (x @ w)))) + 0.5 * l2_reg * np.dot(w, w))


# Unequal sizes repeat, and some equal-size clients are not neighbours.
SIGNED_LAYOUTS = {"equal": [40] * 5, "unequal": [16, 40, 24, 40, 33, 16, 7], "single": [30]}


@pytest.mark.parametrize("layout", SIGNED_LAYOUTS)
def test_signed_rows_compute_the_labelled_arithmetic_bit_for_bit(layout):
    sizes = SIGNED_LAYOUTS[layout]
    task, x, y = _labelled_task(sizes)
    n, d, l2 = task.n_clients, task.dimension, task.l2_reg
    m = np.array(sizes)
    assert np.array_equal(task._block, y[:, :, None] * x)
    design_norm = max(float(np.linalg.eigvalsh(x[i, :k].T @ x[i, :k] / k).max()) for i, k in enumerate(sizes))
    assert task.smoothness == 0.25 * design_norm + l2
    rng = np.random.default_rng(5)
    for scale in (0.1, 1.0, 5.0):
        w = rng.normal(scale=scale, size=(n, d))
        assert np.array_equal(task._full_grads(w), _labelled_grads(x, y, w, m[:, None], l2))
        clients = rng.permutation(n)
        want = np.vstack([_labelled_grads(x[[c], : m[c]], y[[c], : m[c]], w[[k]], m[c], l2)
                          for k, c in enumerate(clients)])
        assert np.array_equal(task.local_grads(clients, w), want)
        b = min(sizes)
        idx = np.array([rng.choice(m[c], size=b, replace=False) for c in clients])
        rows = clients[:, None]
        want = _labelled_grads(x[rows, idx], y[rows, idx], w, b, l2)
        assert np.array_equal(task.sample_grads(clients, w, idx), want)
        losses = [_labelled_loss(x[i, : m[i]], y[i, : m[i]], w[0], l2) for i in range(n)]
        assert [task.local_loss(i, w[0]) for i in range(n)] == losses
        assert task.global_loss(w[0]) == float(np.mean(losses))


def _short_descents(monkeypatch, max_iter=3):
    descend = LogisticTask._descend
    monkeypatch.setattr(
        LogisticTask, "_descend", lambda self, grad_fn, names: descend(self, grad_fn, names, max_iter=max_iter)
    )


def test_logistic_descent_out_of_steps_raises_naming_the_point(monkeypatch):
    _short_descents(monkeypatch)
    task = small_logistic(np.random.default_rng(13), n_clients=3, data_size=8, spread=0.8)
    with pytest.raises(ValueError, match=r"did not converge in 3 steps for w\*"):
        task.w_star
    with pytest.raises(ValueError, match="did not converge in 3 steps for client 0, client 1, client 2"):
        task.local_optimum(1)


def test_logistic_descent_out_of_steps_fails_the_cell(monkeypatch, tmp_path):
    import json

    from tsfl.cli import main

    _short_descents(monkeypatch)
    config = {
        "scenario": "case1",
        "scenario_options": {"n_clients": 4, "data_size": 16, "batch_size": 4},
        "task": {"kind": "logistic", "dimension": 3, "noniid_spread": 0.5},
        "strategies": ["tsfl-dms"],
        "seeds": 1,
        "constants": {"eta": 0.05, "T": 2, "H": 4},
        "estimate_probes": 2,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    [cell] = json.loads((out / "summary.json").read_text(encoding="utf-8"))["cells"]
    assert cell["status"] == "failed"
    assert cell["error"].startswith("ValueError: logistic optimum descent did not converge")


def test_quadratic_offsets_are_views_into_one_padded_block():
    sizes = [5, 9, 7]
    task = QuadraticTask.generate(TaskSpec(dimension=2, noniid_spread=0.5), sizes, np.random.default_rng(6))
    assert task._block.shape == (3, 9, 2)
    for i, m in enumerate(sizes):
        assert task.data_size(i) == m and task.offsets[i].shape == (m, 2)
        assert np.shares_memory(task.offsets[i], task._block)
        assert np.all(task._block[i, m:] == 0.0)
    # The block a task is given is kept without a copy.
    assert QuadraticTask(task.curvatures, task.centers, task._block, sizes)._block is task._block


# Client layouts for the lock-step trainer: case3 draws unequal data sizes;
# "mixed" has data sizes below the batch size, so batch sizes differ too.
TRAINER_LAYOUTS = {
    "case3": None,
    "mixed": [10, 50, 20, 64, 33, 8],
}


def _trainer_task(kind, layout):
    rng = np.random.default_rng(23)
    dimension = 3
    if TRAINER_LAYOUTS[layout] is None:
        scenario = dataclasses.replace(preset("case3", n_clients=6, batch_size=16),
                                       task=TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.6))
        task = scenario.materialize(rng)
        return task, [min(scenario.batch_size, task.data_size(i)) for i in range(task.n_clients)]
    sizes = TRAINER_LAYOUTS[layout]
    noise = 1.0 if kind == "logistic" else 0.5
    task = TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.6, sample_noise=noise).build(sizes, rng)
    return task, [min(16, m) for m in sizes]


def _choice_batches(task, rngs, clients, batch_sizes, tau):
    """Row i's ``tau[i]`` mini-batches of client ``clients[i]`` from ``rngs[i]``,
    one ``rng.choice`` call per step, reduced by ``task.reduce_batches`` as the
    trainer takes them."""
    return [task.reduce_batches(i, np.array([rng.choice(task.data_size(i), size=b, replace=False)
                                             for _ in range(k)]).reshape(k, b))
            for rng, i, b, k in zip(rngs, clients, batch_sizes, tau)]


def _train_by_width(task, clients, starts, tau, eta, batches, **kwargs):
    """``train_clients`` on row i's planned steps ``batches[i]``, as a run
    trains them: one stream per width, one call per stream; full batch when
    ``batches`` is None."""
    if batches is None:
        return train_clients(task, clients, starts, tau, eta, **kwargs)
    clients, starts, tau = np.asarray(clients), np.asarray(starts, dtype=float), np.asarray(tau)
    widths = np.array([np.shape(b)[1] for b in batches])
    out = np.empty((len(clients), task.dimension))
    for width in set(widths.tolist()):
        rows = np.flatnonzero(widths == width)
        # A row without steps reduces an empty float array: its type is not read.
        stream = np.concatenate([batches[r] for r in rows if len(batches[r])] or [np.empty((0, width))])
        first = np.cumsum([0] + [len(batches[r]) for r in rows])[:-1]
        out[rows] = train_clients(task, clients[rows], starts[rows] if starts.ndim == 2 else starts,
                                  tau[rows], eta, stream=stream, first=first, **kwargs)
    return out


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("layout", sorted(TRAINER_LAYOUTS))
@pytest.mark.parametrize("batching", ["full", "mini"])
@pytest.mark.parametrize("proximal", [False, True])
def test_lock_step_trainer_matches_per_client_local_train(kind, layout, batching, proximal):
    task, batch_sizes = _trainer_task(kind, layout)
    n = task.n_clients
    rng = np.random.default_rng(5)
    center = rng.normal(size=task.dimension)
    prox = {"prox_center": center, "mu": 0.3} if proximal else {}
    full = batching == "full"
    for tau in ([3, 0, 5, 1, 0, 2], [0] * n, [4] * n, [0, 0, 0, 0, 0, 7]):
        starts = rng.normal(size=(n, task.dimension))
        stacked_rngs = [np.random.default_rng(100 + i) for i in range(n)]
        looped_rngs = [np.random.default_rng(100 + i) for i in range(n)]
        batches = None if full else _choice_batches(task, stacked_rngs, range(n), batch_sizes, tau)
        stacked = _train_by_width(task, np.arange(n), starts, tau, 0.05, batches, **prox)
        looped = np.array([
            local_train(task, i, starts[i], tau[i], 0.05, rng=looped_rngs[i],
                        batch_size=None if full else batch_sizes[i], **prox)
            for i in range(n)
        ])
        assert np.array_equal(stacked, looped), tau
        for a, b in zip(stacked_rngs, looped_rngs):
            assert a.bit_generator.state == b.bit_generator.state
        # Rows with no steps come back as their start.
        still = np.asarray(tau) == 0
        assert np.array_equal(stacked[still], starts[still])


def test_lock_step_trainer_rows_in_any_order_and_shared_start():
    task, batch_sizes = _trainer_task("logistic", "mixed")
    clients = np.array([4, 0, 5, 2])
    tau = [2, 3, 0, 3]
    start = np.random.default_rng(1).normal(size=task.dimension)
    batches = _choice_batches(task, [np.random.default_rng(i) for i in clients], clients,
                              [batch_sizes[i] for i in clients], tau)
    out = _train_by_width(task, clients, start, tau, 0.1, batches)
    for row, (client, steps) in enumerate(zip(clients, tau)):
        alone = local_train(task, client, start, steps, 0.1, rng=np.random.default_rng(client),
                            batch_size=batch_sizes[client])
        assert np.array_equal(out[row], alone)


def test_lock_step_trainer_names_the_clients_that_diverge():
    # The trainer returns its rows as computed, diverged ones included, and
    # its caller names them; local_train names its one client.
    task = small_quadratic(np.random.default_rng(0), n_clients=4, spread=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        out = train_clients(task, np.arange(4), np.ones(2), [5, 0, 5, 1], 1e200)
        assert np.isfinite(out).all(axis=1).tolist() == [False, True, False, True]
        with pytest.raises(ValueError, match=r"^local_train: local models of clients \[2\] are not finite$"):
            local_train(task, 2, np.ones(2), 5, 1e200)


def test_lock_step_trainer_rejects_negative_steps_and_wrong_dimension():
    task = small_quadratic(np.random.default_rng(0), n_clients=2)
    with pytest.raises(ValueError, match="non-negative"):
        train_clients(task, [0, 1], np.zeros(2), [1, -1], 0.1)
    with pytest.raises(ValueError, match="dimension"):
        train_clients(task, [0, 1], np.zeros((2, 3)), [1, 1], 0.1)
    with pytest.raises(ValueError, match="rows take steps past the ends of the stream"):
        train_clients(task, [0, 1], np.zeros(2), [2, 1], 0.1, stream=np.zeros((2, 2)), first=[0, 2])


# --- stacked set-up paths against the per-client loops they replace ---------


def _random_spd(dimension, eig_range, rng):
    """One random SPD matrix with eigenvalues in ``eig_range``, drawn and built alone."""
    eigs = rng.uniform(*eig_range, size=dimension)
    if dimension == 1:
        return np.array([[eigs[0]]])
    q, _ = np.linalg.qr(rng.normal(size=(dimension, dimension)))
    return (q * eigs) @ q.T


def _generate_loop(n, d, sizes, rng, spread, noise, curvature_range, shared):
    """``QuadraticTask.generate`` one client at a time, one matrix per QR."""
    shared_matrix = _random_spd(d, curvature_range, rng)
    curvatures, centers = [], []
    offsets = np.zeros((n, max(sizes), d))
    for i in range(n):
        curvatures.append(shared_matrix.copy() if shared else _random_spd(d, curvature_range, rng))
        center = np.zeros(d)
        if spread > 0.0:
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            center = spread * direction
        centers.append(center)
        z = offsets[i, : sizes[i]]
        np.multiply(noise, rng.normal(size=z.shape), out=z)
        z -= z.mean(axis=0)
    return np.array(curvatures), np.array(centers), offsets


@pytest.mark.parametrize("dimension", [1, 2, 5, 8])
@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("spread", [0.0, 0.7])
def test_generate_equals_a_per_matrix_loop(dimension, shared, spread):
    sizes = [10, 50, 20, 64, 33, 8, 50]
    spec = TaskSpec(dimension=dimension, noniid_spread=spread, curvature_range=(0.3, 2.0), shared_curvature=shared)
    task = QuadraticTask.generate(spec, sizes, rng := np.random.default_rng(3))
    curvatures, centers, offsets = _generate_loop(len(sizes), dimension, sizes, looped := np.random.default_rng(3),
                                                  spread, 0.5, (0.3, 2.0), shared)
    assert rng.bit_generator.state == looped.bit_generator.state
    assert np.array_equal(task.curvatures, curvatures)
    assert np.array_equal(task.centers, centers)
    assert np.array_equal(task._block, offsets)
    # The per-size-group means equal each client's own.
    minima = [c + z[:m].mean(axis=0) for c, z, m in zip(centers, offsets, sizes)]
    assert np.array_equal([task.local_optimum(i) for i in range(len(sizes))], minima)


def _logistic_lists(spec, sizes, rng):
    """The signed block of ``LogisticTask.generate`` built as it once was:
    per-client feature and label lists first, then copied into a block."""
    feature_dim = spec.dimension - 1
    base = rng.normal(size=feature_dim)
    base /= np.linalg.norm(base)
    features, labels = [], []
    for n in sizes:
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        shift = np.zeros(feature_dim)
        if spec.noniid_spread > 0.0:
            shift = rng.normal(size=feature_dim)
            shift *= spec.noniid_spread / np.linalg.norm(shift)
        noise = spec.sample_noise * rng.normal(size=(n, feature_dim))
        features.append(y[:, None] * spec.separation * base + shift + noise)
        labels.append(y)
    signed = np.zeros((len(sizes), max(sizes), spec.dimension))
    for i, (x, y) in enumerate(zip(features, labels)):
        s = signed[i, : sizes[i]]
        s[:, :feature_dim] = x
        s[:, feature_dim] = 1.0
        s *= y[:, None]
    return signed


@pytest.mark.parametrize("dimension", [2, 3, 40])
@pytest.mark.parametrize("spread", [0.0, 0.5])
@pytest.mark.parametrize("sizes", [[24] * 4, [10, 50, 20, 64, 33, 8, 50], [17]])
def test_logistic_generate_writes_the_list_path_block_in_place(dimension, spread, sizes):
    spec = TaskSpec(kind="logistic", dimension=dimension, noniid_spread=spread, sample_noise=0.7)
    task = LogisticTask.generate(spec, sizes, rng := np.random.default_rng(3))
    signed = _logistic_lists(spec, sizes, looped := np.random.default_rng(3))
    assert rng.bit_generator.state == looped.bit_generator.state
    assert np.array_equal(task._block, signed)
    assert task._sizes.tolist() == sizes and task.dimension == dimension


def _reduction_task(kind, dimension, sizes):
    noise = 1.0 if kind == "logistic" else 0.5
    spec = TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.4, sample_noise=noise)
    return spec.build(sizes, np.random.default_rng(8))


@pytest.mark.parametrize("kind, dimension",
                         [("quadratic", 1), ("quadratic", 2), ("quadratic", 3), ("quadratic", 8), ("logistic", 3)])
def test_reduced_batches_step_as_per_step_sample_grads(kind, dimension):
    # Batches of 8 samples and more: at d = 1 the mean of a batch sums
    # pairwise, at d > 1 position by position.
    sizes = [40, 3000, 17, 64, 300, 1000]
    task = _reduction_task(kind, dimension, sizes)
    # draw_batches returns transposed (F-ordered) views; 2500 batches span
    # several reduction chunks.
    rngs = [np.random.default_rng(i) for i in range(len(sizes))]
    streams = draw_batches(rngs, sizes, [16, 7, 17, 32, 64, 200], [30, 2500, 5, 40, 30, 12])
    w = np.random.default_rng(9).normal(size=(len(sizes), task.dimension))
    for i, stream in enumerate(streams):
        for layout in (stream, np.ascontiguousarray(stream), np.asfortranarray(stream)):
            reduced = task.reduce_batches(i, layout)
            assert len(reduced) == len(stream)
            for s in range(len(stream)):
                got = task.reduced_grads([i], w[i][None], reduced[s : s + 1])[0]
                assert np.array_equal(got, task.sample_grad(i, w[i], stream[s])), (i, s)
    # A stacked step equals each row's own.
    rows = task.reduced_grads([0, 0], w[:2], task.reduce_batches(0, streams[0][:2]))
    assert np.array_equal(rows, [task.sample_grad(0, w[k], streams[0][k]) for k in range(2)])


def _probe_loop(task, batch, probe_count, rng):
    """``estimate_constants`` as one ``stochastic_gradient`` call per probe
    point and client, and one ``local_grad`` pair per client and probe gap."""
    probes = [rng.normal(size=task.dimension) for _ in range(probe_count)]
    g_max, sigma = 0.0, np.zeros(task.n_clients)
    for w in probes:
        for i, b in enumerate(batch):
            sample = stochastic_gradient(task, i, w, b, rng)
            g_max = max(g_max, float(np.linalg.norm(sample.stochastic)))
            if b < task.data_size(i):
                sigma[i] = max(sigma[i], float(np.linalg.norm(sample.stochastic - sample.full_batch)))
    l_hat = task.smoothness if task.kind == "quadratic" else 0.0
    if task.kind == "logistic":
        for w, v in zip(probes, probes[1:] + probes[:1]):
            gap = float(np.linalg.norm(w - v))
            if gap < 1e-12:
                continue
            for i in range(task.n_clients):
                ratio = float(np.linalg.norm(task.local_grad(i, w) - task.local_grad(i, v))) / gap
                l_hat = max(l_hat, ratio)
    return l_hat, g_max, sigma


@pytest.mark.parametrize("kind, dimension", [("quadratic", 1), ("quadratic", 4), ("logistic", 3)])
@pytest.mark.parametrize("probe_count", [1, 2, 5])
def test_estimate_constants_equals_the_stochastic_gradient_loop(kind, dimension, probe_count):
    # Unequal data sizes, mixed batch sizes, and three clients (0, 5, 7)
    # whose batch is their whole data set.
    sizes = [10, 50, 20, 64, 33, 8, 50, 64]
    batch = [16, 8, 16, 32, 8, 16, 4, 64]
    noise = 1.0 if kind == "logistic" else 0.5
    task = TaskSpec(kind=kind, dimension=dimension, noniid_spread=0.5, sample_noise=noise).build(
        sizes, np.random.default_rng(2))
    batch = [min(b, m) for m, b in zip(sizes, batch)]
    if kind == "logistic" and probe_count == 1:
        # One probe point leaves no pair of points to probe L from.
        with pytest.raises(ValueError, match=r"^probe_count must be >= 2 for a logistic task: L is probed from pairs"):
            estimate_constants(task, batch, probe_count, np.random.default_rng(6))
        return
    est = estimate_constants(task, batch, probe_count, rng := np.random.default_rng(6))
    l_hat, g_max, sigma = _probe_loop(task, batch, probe_count, looped := np.random.default_rng(6))
    assert rng.bit_generator.state == looped.bit_generator.state
    assert (est.L_hat, est.G_hat) == (l_hat, g_max)
    assert np.array_equal(est.sigma_hat, sigma)
    assert est.sigma_hat[[0, 5, 7]].tolist() == [0.0, 0.0, 0.0]
