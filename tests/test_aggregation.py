from fractions import Fraction

import numpy as np
import pytest

from tsfl.aggregation import (
    FixedPointError,
    bound_coefficients,
    bound_optimal_weights,
    dms_threshold,
    dms_weights,
    fedasync_update,
    fedavg_weights,
    filtering_probabilities,
    filtering_probability,
    iteration_spaced_weights,
    project_to_simplex,
    sample_participation,
    spacing_slope,
    uniform_weights,
)
from tsfl.core import SystemConstants


def spaced_weights_linear_system_oracle(tau, mask, k):
    """Dense solve of {pairwise spacing + unit sum} over the participants."""
    idx = np.nonzero(mask)[0]
    m = idx.size
    a = np.zeros((m, m))
    b = np.zeros(m)
    a[0, :] = 1.0
    b[0] = 1.0
    for row in range(1, m):
        a[row, 0] = 1.0
        a[row, row] = -1.0
        b[row] = k * (tau[idx[0]] - tau[idx[row]])
    solution = np.linalg.solve(a, b)
    rho = np.zeros(len(tau))
    rho[idx] = solution
    return rho


# --- data-size weights ------------------------------------------------------


def test_fedavg_equal_sizes():
    assert fedavg_weights([1024, 1024]).rho.tolist() == [0.5, 0.5]


def test_fedavg_exact_ratio():
    assert fedavg_weights([512, 1536]).rho.tolist() == [0.25, 0.75]


def test_fedavg_matches_exact_rational_oracle():
    rng = np.random.default_rng(14)
    # Five-tier size pattern, four clients per tier.
    sizes = []
    for mean, std in [(512, 100), (768, 150), (1024, 200), (1280, 250), (1536, 300)]:
        sizes += [max(32, int(np.floor(rng.normal(mean, std)))) for _ in range(4)]
    rho = fedavg_weights(sizes).rho
    total = sum(sizes)
    oracle = [Fraction(s, total) for s in sizes]
    for got, want in zip(rho, oracle):
        assert got == pytest.approx(float(want), abs=1e-15)


def test_fedavg_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        fedavg_weights([])
    with pytest.raises(ValueError):
        fedavg_weights([12, 0])


# --- asynchronous blend -----------------------------------------------------


def test_fedasync_gamma_one_keeps_previous():
    prev = np.array([1.0, 2.0])
    out = fedasync_update(prev, [np.array([9.0, 9.0])], gamma=1.0)
    assert np.array_equal(out, prev)


def test_fedasync_halfway_blend_example():
    out = fedasync_update(np.array([0.0]), [np.array([2.0])], gamma=0.5)
    assert out.tolist() == [1.0]


def test_fedasync_matches_direct_formula():
    rng = np.random.default_rng(8)
    prev = rng.normal(size=4)
    locals_ = rng.normal(size=(4, 4))
    out = fedasync_update(prev, locals_, gamma=0.3)
    oracle = 0.3 * prev + 0.7 * locals_.mean(axis=0)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_fedasync_rejects_empty_locals():
    with pytest.raises(ValueError):
        fedasync_update(np.zeros(2), [], gamma=0.5)


# --- iteration-spaced weights -----------------------------------------------


def _constants(**kw):
    base = dict(eta=0.003, L=1.0, G=1.0, sigma_global=0.5, H=4, N=2, theta=333.0)
    base.update(kw)
    return SystemConstants(**base)


def test_spaced_weights_equal_tau_is_uniform():
    c = _constants(N=4)
    wa = iteration_spaced_weights([3, 3, 3, 3], [1, 1, 1, 1], c)
    assert np.allclose(wa.rho, 0.25, atol=1e-15)


def test_spaced_weights_worked_example():
    c = _constants()
    wa = iteration_spaced_weights([1, 4], [1, 1], c)
    assert spacing_slope(c) == pytest.approx(0.009)
    assert wa.rho == pytest.approx([0.4865, 0.5135], abs=1e-12)
    assert not (wa.rho_unclamped < 0).any()


def test_spaced_weights_match_linear_system_oracle():
    rng = np.random.default_rng(44)
    for _ in range(100):
        n = int(rng.integers(2, 21))
        tau = rng.integers(0, 8, size=n)
        mask = rng.random(n) < 0.7
        if not mask.any():
            mask[int(rng.integers(n))] = True
        c = SystemConstants(
            eta=float(rng.uniform(0.003, 0.05)),
            L=1.0,
            G=1.0,
            sigma_global=float(rng.uniform(0.5, 2.0)),
            H=8,
            N=n,
            theta=50.0,
        )
        wa = iteration_spaced_weights(tau, mask, c)
        oracle = spaced_weights_linear_system_oracle(tau, mask, spacing_slope(c))
        assert np.max(np.abs(wa.rho_unclamped - oracle)) < 1e-10


def test_spaced_weights_spacing_law_and_monotonicity():
    rng = np.random.default_rng(7)
    c = SystemConstants(eta=0.01, L=1.0, G=2.0, sigma_global=1.0, H=8, N=12, theta=99.0)
    k = spacing_slope(c)
    for _ in range(50):
        tau = rng.integers(0, 9, size=12)
        mask = rng.random(12) < 0.8
        if not mask.any():
            mask[0] = True
        wa = iteration_spaced_weights(tau, mask, c)
        idx = np.nonzero(mask)[0]
        for i in idx:
            for j in idx:
                gap = wa.rho_unclamped[i] - wa.rho_unclamped[j] - k * (tau[i] - tau[j])
                assert abs(gap) < 1e-12
        # After clamping, ordering by tau is preserved among participants.
        order = np.argsort(tau[idx])
        assert np.all(np.diff(wa.rho[idx][order]) >= -1e-15)


def test_spaced_weights_clamp_negative_and_renormalize():
    # Large slope forces the slow client's weight negative.
    c = SystemConstants(eta=0.05, L=1.0, G=4.0, sigma_global=0.5, H=9, N=3, theta=20.0)
    wa = iteration_spaced_weights([0, 4, 8], [1, 1, 1], c)
    assert (wa.rho_unclamped < 0).any()
    assert np.min(wa.rho_unclamped) < 0.0
    assert np.all(wa.rho >= 0.0)
    assert wa.rho.sum() == pytest.approx(1.0, abs=1e-12)
    positive = wa.rho_unclamped > 0
    ratio = wa.rho[positive] / wa.rho_unclamped[positive]
    assert np.allclose(ratio, ratio[0])  # proportional renormalization


def test_spaced_weights_errors():
    with pytest.raises(ValueError):
        iteration_spaced_weights([1, 2], [0, 0], _constants())
    with pytest.raises(ValueError):
        iteration_spaced_weights([1, 2], [1, 1], _constants(sigma_global=0.0))


def test_uniform_weights_over_mask():
    wa = uniform_weights([0, 1, 1, 0])
    assert wa.rho.tolist() == [0.0, 0.5, 0.5, 0.0]


# --- threshold, filtering, participation --------------------------------------


def test_threshold_examples():
    assert dms_threshold([1, 1, 4, 4]) == 2.5
    assert dms_threshold([3, 3, 3]) == 3.0
    assert dms_threshold([0, 0, 0, 8]) == 2.0


def test_filtering_probability_examples():
    assert filtering_probability(2.5, 2.5, 4) == 0.0
    assert filtering_probability(1, 2.5, 4) == pytest.approx(0.375)
    assert filtering_probability(4, 2.5, 4) == 0.0


def test_filtering_probabilities_match_plain_loop():
    tau = [0, 1, 2, 2.5, 3, 4]
    expected = [0.0 if t >= 2.5 else (2.5 - t) / 4 for t in tau]
    assert filtering_probabilities(tau, 2.5, 4).tolist() == expected
    with pytest.raises(ValueError):
        filtering_probabilities(tau, 2.5, 0)


def test_filtering_probability_monotone_in_tau():
    values = [filtering_probability(t, 3.0, 6) for t in range(7)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 for v in values)


def test_sample_participation_degenerate_probabilities():
    rng = np.random.default_rng(0)
    assert sample_participation([0.0, 0.0], rng).tolist() == [1, 1]
    assert sample_participation([1.0, 1.0], rng).tolist() == [0, 0]
    with pytest.raises(ValueError):
        sample_participation([1.5], rng)


def test_sample_participation_frequency_small():
    rng = np.random.default_rng(123)
    draws = np.array([sample_participation([0.375], rng)[0] for _ in range(20_000)])
    filtered = 1.0 - draws.mean()
    assert abs(filtered - 0.375) < 0.01


# --- discriminative model selection -----------------------------------------


def test_dms_homogeneous_has_no_filtering():
    c = _constants(N=4)
    wa = dms_weights([3, 3, 3, 3], c, np.random.default_rng(0))
    assert wa.participation.tolist() == [1, 1, 1, 1]
    assert np.allclose(wa.rho, 0.25)


def test_dms_composition_under_forced_filtering():
    # seed 2: first two uniforms fall below 0.375, so both slow clients drop.
    c = _constants(N=4)
    wa = dms_weights([1, 1, 4, 4], c, np.random.default_rng(2))
    assert wa.participation.tolist() == [0, 0, 1, 1]
    assert wa.rho == pytest.approx([0.0, 0.0, 0.5, 0.5])


def test_dms_reduces_to_spaced_weights_when_none_filtered():
    # seed 0: uniforms clear the filter probabilities [0.375, 0.125, 0, 0].
    c = _constants(N=4, H=4)
    tau = [1, 2, 3, 4]
    wa = dms_weights(tau, c, np.random.default_rng(0))
    assert wa.participation.tolist() == [1, 1, 1, 1]
    direct = iteration_spaced_weights(tau, [1, 1, 1, 1], c, h=4)
    assert np.allclose(wa.rho, direct.rho, atol=1e-15)


def test_dms_updates_iteration_cap_to_interval_max():
    # tau max 8 > configured H=4; the spacing slope must use h=8.
    c = _constants(N=3, H=4)
    tau = np.array([2, 5, 8])
    wa = dms_weights(tau, c, np.random.default_rng(1))
    k8 = spacing_slope(c, h=8)
    active = np.nonzero(wa.participation)[0]
    for i in active:
        for j in active:
            gap = wa.rho_unclamped[i] - wa.rho_unclamped[j] - k8 * (tau[i] - tau[j])
            assert abs(gap) < 1e-12


def test_dms_zero_iterations_everywhere_is_uniform():
    c = _constants(N=3)
    wa = dms_weights([0, 0, 0], c, np.random.default_rng(5))
    assert wa.participation.tolist() == [1, 1, 1]
    assert np.allclose(wa.rho, 1.0 / 3.0)


def test_dms_respects_eligibility_mask():
    c = _constants(N=4)
    wa = dms_weights([1, 2, 3, 4], c, np.random.default_rng(0), eligible=[False, False, True, True])
    assert wa.participation[:2].tolist() == [0, 0]
    assert wa.rho[:2].tolist() == [0.0, 0.0]
    assert wa.rho.sum() == pytest.approx(1.0)


def test_dms_no_eligible_clients_returns_empty_assignment():
    c = _constants(N=2)
    rng = np.random.default_rng(0)
    wa = dms_weights([1, 2], c, rng, eligible=[False, False])
    assert not (wa.rho > 0).any()
    assert wa.participation.tolist() == [0, 0]
    # The filter draw still takes one uniform per client.
    replay = np.random.default_rng(0)
    replay.random(2)
    assert rng.random() == replay.random()


# --- simplex projection -------------------------------------------------------


def test_project_to_simplex_properties():
    rng = np.random.default_rng(31)
    for _ in range(200):
        v = rng.normal(scale=3.0, size=int(rng.integers(1, 12)))
        p = project_to_simplex(v)
        assert np.all(p >= 0.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # Projection of a simplex point is itself.
        q = rng.dirichlet(np.ones(v.size))
        assert np.allclose(project_to_simplex(q), q, atol=1e-12)


def test_project_to_simplex_rejects_values_it_cannot_resolve():
    for v in ([1e17, 0.0], [np.nan, 1.0]):
        with np.errstate(all="raise"), pytest.raises(ValueError, match="simplex"):
            project_to_simplex(np.array(v))


def test_project_to_simplex_matches_bisection_oracle():
    def oracle(v):
        # Independent oracle: bisection on the shift s with sum(max(v-s,0))=1.
        lo, hi = v.min() - 1.0, v.max()
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.maximum(v - mid, 0.0).sum() > 1.0:
                lo = mid
            else:
                hi = mid
        return np.maximum(v - 0.5 * (lo + hi), 0.0)

    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.normal(scale=2.0, size=6)
        assert np.allclose(project_to_simplex(v), oracle(v), atol=1e-9)


# --- bound-optimal fixed point ------------------------------------------------


def _fp_constants(**kw):
    base = dict(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=4, N=4)
    base.update(kw)
    return SystemConstants(**base)


def test_fixed_point_symmetric_inputs_return_uniform():
    c = _fp_constants()
    wa = bound_optimal_weights(np.full((3, 4), 2.0), c, np.ones(4), np.zeros(4))
    assert np.allclose(wa.rho, 0.25, atol=1e-12)


def test_fixed_point_monotone_in_tau_for_equal_noise():
    c = _fp_constants()
    wa = bound_optimal_weights(np.array([[1, 2, 3, 4]]), c, np.ones(4), np.zeros(4), r0=1.0)
    assert np.all(np.diff(wa.rho) > 0.0)


def test_fixed_point_degenerate_reduction_at_default_theta():
    # Default theta makes the denominator coefficient vanish; the solve then
    # equals the simplex projection of the directly evaluated closed form.
    c = _fp_constants()
    assert bound_coefficients(c).b == 0.0
    tau = np.array([[1.0, 2.0, 3.0, 4.0]])
    sigma = np.array([0.5, 1.0, 1.5, 2.0])
    gamma = np.array([0.0, 0.4, 0.0, 1.2])
    wa = bound_optimal_weights(tau, c, sigma, gamma, r0=2.0)
    coefs = bound_coefficients(c)
    direct = (coefs.a * gamma + coefs.c * tau[0]) / (2 * c.eta**2 * c.N * sigma**2)
    assert np.allclose(wa.rho, project_to_simplex(direct), atol=1e-12)


def test_fixed_point_full_mask_matches_unmasked():
    c = _fp_constants(theta=60.0)
    tau = np.array([[2, 1, 4, 3], [1, 2, 3, 4]], dtype=float)
    plain = bound_optimal_weights(tau, c, np.ones(4), np.zeros(4), r0=1.0)
    masked = bound_optimal_weights(
        tau, c, np.ones(4), np.zeros(4), beta_history=np.ones_like(tau), r0=1.0
    )
    assert np.allclose(plain.rho, masked.rho, atol=1e-15)


def test_fixed_point_single_participant_gets_everything():
    c = _fp_constants()
    beta = np.array([[0, 0, 1, 0]])
    wa = bound_optimal_weights(np.array([[1, 2, 3, 4]]), c, np.ones(4), np.zeros(4), beta_history=beta)
    assert wa.rho.tolist() == [0.0, 0.0, 1.0, 0.0]


def test_fixed_point_masked_clients_get_zero_weight():
    c = _fp_constants(theta=60.0)
    tau = np.array([[1, 2, 3, 4]], dtype=float)
    beta = np.array([[1, 0, 1, 1]])
    wa = bound_optimal_weights(tau, c, np.ones(4), np.zeros(4), beta_history=beta, r0=1.0)
    assert wa.rho[1] == 0.0
    assert wa.rho.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(wa.rho[[0, 2, 3]]) > 0.0)


def test_fixed_point_nonconvergence_carries_residual():
    c = _fp_constants(theta=60.0)
    with pytest.raises(FixedPointError) as excinfo:
        bound_optimal_weights(
            np.array([[1, 2, 3, 4]], dtype=float), c, np.ones(4), np.zeros(4),
            r0=1.0, max_iter=1, tol=1e-30,
        )
    assert excinfo.value.residual > 0.0


def test_fixed_point_rejects_nonpositive_noise():
    c = _fp_constants()
    with pytest.raises(ValueError):
        bound_optimal_weights(np.array([[1, 2, 3, 4]]), c, np.zeros(4), np.zeros(4))


def test_bound_coefficients_sign_structure():
    # b <= 0 whenever the weight-limit product is at least one; c >= 0 always.
    for theta in [1.0, 9.0, 99.0]:
        c = SystemConstants(eta=0.1, L=1.0, theta=theta, H=4)
        coefs = bound_coefficients(c)
        if c.weight_limit_ok:
            assert coefs.b <= 0.0
        assert coefs.c >= 0.0
    assert bound_coefficients(SystemConstants(eta=0.1, L=1.0, H=1)).c == 0.0
