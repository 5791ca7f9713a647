import numpy as np
import pytest

from tsfl.core import ClientProfile
from tsfl.scenarios import preset
from tsfl.training import (
    LogisticTask,
    QuadraticTask,
    estimate_constants,
    local_train,
    stochastic_gradient,
    train_clients,
)


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
        n_clients, dimension, [data_size] * n_clients, rng,
        noniid_spread=spread, sample_noise=noise,
    )


def small_logistic(rng, n_clients=2, dimension=2, data_size=4, spread=0.0):
    return LogisticTask.generate(
        n_clients, dimension, [data_size] * n_clients, rng, noniid_spread=spread
    )


def test_full_batch_gradient_vanishes_at_local_optimum():
    task = small_quadratic(np.random.default_rng(0))
    sample = stochastic_gradient(task, 0, task.local_optimum(0), 4, np.random.default_rng(1))
    assert np.allclose(sample.full_batch, 0.0, atol=1e-12)


def test_one_dimensional_quadratic_gradient_value():
    task = QuadraticTask(
        curvatures=[np.array([[2.0]])],
        centers=[np.array([0.0])],
        offsets=[np.zeros((4, 1))],
    )
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
        return QuadraticTask.generate(4, 3, [10, 20, 30, 40], rng, noniid_spread=1.0, shared_curvature=True)
    if case == "uncentered":
        # A small spread about a large offset mean: at a client's minimum the
        # loss is tiny next to the offsets' own quadratic terms.
        return QuadraticTask(
            curvatures=[np.array([[2.0, 0.3], [0.3, 1.0]]), np.eye(2)],
            centers=[np.array([0.5, -1.0]), np.array([2.0, 0.0])],
            offsets=[3.0 + 1e-3 * rng.normal(size=(7, 2)), rng.normal(loc=-1.0, size=(12, 2))],
        )
    name, d = case.split("-d")
    sizes = {} if name == "case3" else {"data_size": 96}  # case3 draws tiered sizes
    scenario = preset(name, n_clients=6, kind="quadratic", dimension=int(d), noniid_spread=0.6, **sizes)
    return scenario.materialize(rng)[0]


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
    task = QuadraticTask(
        curvatures=[np.array([[1.0]])],
        centers=[np.array([0.0])],
        offsets=[np.zeros((4, 1))],
    )
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
        curvatures=[np.array([[2.0, 0.3], [0.3, 1.0]]), 0.7 * np.eye(2)],
        centers=[np.array([0.5, -1.0]), np.array([2.0, 0.0])],
        offsets=[rng.normal(loc=1.5, size=(7, 2)), rng.normal(loc=-1.0, size=(12, 2))],
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


def _profiles(task):
    return [
        ClientProfile(id=i + 1, data_size=task.data_size(i), batch_size=min(4, task.data_size(i)))
        for i in range(task.n_clients)
    ]


def test_estimate_constants_identity_curvature_gives_exact_smoothness():
    task = QuadraticTask(
        curvatures=[np.eye(2), np.eye(2)],
        centers=[np.zeros(2), np.zeros(2)],
        offsets=[np.zeros((4, 2)), np.zeros((4, 2))],
    )
    est = estimate_constants(task, _profiles(task), 3, np.random.default_rng(0))
    assert est.L_hat == 1.0
    assert est.source["L"] == "exact"


def test_estimate_constants_symmetric_centers():
    task = QuadraticTask(
        curvatures=[np.array([[1.0]]), np.array([[1.0]])],
        centers=[np.array([-1.0]), np.array([1.0])],
        offsets=[np.zeros((4, 1)), np.zeros((4, 1))],
    )
    estimate_constants(task, _profiles(task), 3, np.random.default_rng(0))
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
    est = estimate_constants(task, _profiles(task), 2, np.random.default_rng(4))
    assert np.all(est.sigma_hat == 0.0)
    assert est.G_hat > 0.0


def test_sigma_estimate_is_exactly_zero_for_full_batch_probes():
    # Clients 0 and 5 hold no more samples than a batch: their probe batch is
    # their whole data set, whose gradient equals the full one up to rounding.
    sizes = [10, 50, 20, 64, 33, 8]
    task = QuadraticTask.generate(6, 4, sizes, np.random.default_rng(1), noniid_spread=0.5)
    profiles = [ClientProfile(id=i + 1, data_size=m, batch_size=min(16, m)) for i, m in enumerate(sizes)]
    rng = np.random.default_rng(4)
    est = estimate_constants(task, profiles, 4, rng)
    assert est.sigma_hat[[0, 5]].tolist() == [0.0, 0.0]
    assert np.all(est.sigma_hat[1:5] > 0.0)
    # Their batches are still drawn, so the stream ends where four probes of
    # six batch draws each leave it.
    replay = np.random.default_rng(4)
    for _ in range(4):
        replay.normal(size=task.dimension)
    for _ in range(4):
        for p in profiles:
            replay.choice(p.data_size, size=p.batch_size, replace=False)
    assert rng.bit_generator.state == replay.bit_generator.state


@pytest.mark.parametrize("layout", ["equal", "unequal", "single"])
def test_logistic_global_loss_is_the_mean_local_loss_bit_for_bit(layout):
    sizes = {"equal": [40] * 5, "unequal": [16, 40, 24, 64, 33, 16, 7], "single": [30]}[layout]
    rng = np.random.default_rng(23)
    task = LogisticTask.generate(len(sizes), 4, sizes, rng, noniid_spread=0.8)
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
    task = LogisticTask.generate(len(sizes), 3, sizes, np.random.default_rng(19), noniid_spread=0.8)
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
    sizes = [5, 9, 7]
    task = LogisticTask.generate(3, 3, sizes, np.random.default_rng(6), noniid_spread=0.5)
    assert task._x.shape == (3, 9, 3) and task._y.shape == (3, 9)
    for i, m in enumerate(sizes):
        assert task.data_size(i) == m and task.features[i].shape == (m, 2)
        assert np.shares_memory(task.features[i], task._x)
        assert np.shares_memory(task._design[i], task._x)
        assert np.shares_memory(task.labels[i], task._y)
        assert np.all(task._y[i, m:] == 0.0) and np.all(task._x[i, m:] == 0.0)


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
        "constants": {"eta": 0.05, "T": 2, "N": 4, "H": 4},
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
    task = QuadraticTask.generate(3, 2, sizes, np.random.default_rng(6), noniid_spread=0.5)
    assert task._offsets.shape == (3, 9, 2)
    for i, m in enumerate(sizes):
        assert task.data_size(i) == m and task.offsets[i].shape == (m, 2)
        assert np.shares_memory(task.offsets[i], task._offsets)
        assert np.all(task._offsets[i, m:] == 0.0)
    # Offsets given as a list are copied into a block of the same layout.
    copied = QuadraticTask(task.curvatures, task.centers, [z.copy() for z in task.offsets])
    assert np.array_equal(copied._offsets, task._offsets)


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
        scenario = preset("case3", n_clients=6, batch_size=16, kind=kind, dimension=dimension,
                          noniid_spread=0.6)
        task, profiles = scenario.materialize(rng)
        return task, [p.batch_size for p in profiles]
    sizes = TRAINER_LAYOUTS[layout]
    cls = QuadraticTask if kind == "quadratic" else LogisticTask
    task = cls.generate(len(sizes), dimension, sizes, rng, noniid_spread=0.6)
    return task, [min(16, m) for m in sizes]


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
        stacked = train_clients(
            task, np.arange(n), starts, tau, 0.05, rngs=stacked_rngs,
            batch_sizes=None if full else batch_sizes, **prox,
        )
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
    out = train_clients(task, clients, start, tau, 0.1,
                        rngs=[np.random.default_rng(i) for i in clients],
                        batch_sizes=[batch_sizes[i] for i in clients])
    for row, (client, steps) in enumerate(zip(clients, tau)):
        alone = local_train(task, client, start, steps, 0.1, rng=np.random.default_rng(client),
                            batch_size=batch_sizes[client])
        assert np.array_equal(out[row], alone)


def test_lock_step_trainer_names_the_clients_that_diverge():
    task = small_quadratic(np.random.default_rng(0), n_clients=4, spread=1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"^interval 7: local models of clients \[0, 2\] are not finite"):
            train_clients(task, np.arange(4), np.ones(2), [5, 0, 5, 1], 1e200, context="interval 7")


def test_lock_step_trainer_rejects_negative_steps_and_wrong_dimension():
    task = small_quadratic(np.random.default_rng(0), n_clients=2)
    with pytest.raises(ValueError, match="non-negative"):
        train_clients(task, [0, 1], np.zeros(2), [1, -1], 0.1)
    with pytest.raises(ValueError, match="dimension"):
        train_clients(task, [0, 1], np.zeros((2, 3)), [1, 1], 0.1)
