"""Every whole-run weight plan against its one-interval engine, row by row."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsfl.aggregation import (
    FixedPointError,
    bound_optimal_weight_plan,
    bound_optimal_weights,
    dms_weight_plan,
    dms_weights,
    iteration_spaced_weights,
    spaced_weight_plan,
    spacing_slope,
)
from tsfl.core import SystemConstants


@st.composite
def plan_inputs(draw):
    n = draw(st.integers(1, 8))
    t = draw(st.integers(1, 6))
    tau = draw(arrays(np.int64, (t, n), elements=st.integers(0, 6))).astype(float)
    beta = draw(arrays(np.int64, (t, n), elements=st.integers(0, 1)))
    # Make all-zero and single-participant rows common.
    empty = draw(st.integers(-1, t - 1))
    if empty >= 0:
        beta[empty] = 0
    single, who = draw(st.integers(-1, t - 1)), draw(st.integers(0, n - 1))
    if single >= 0:
        beta[single] = 0
        beta[single, who] = 1
    # theta inside the weight-limit regime the solver presumes.
    theta = draw(st.sampled_from([None, 99.0, 120.0]))
    constants = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=6, N=n, theta=theta)
    # Magnitudes from 1e-6 up, or exact zeros: products of subnormal inputs
    # would underflow, which np.errstate(all="raise") turns into errors.
    magnitude = st.one_of(st.just(0.0), st.floats(1e-6, 2.0))
    sigma = draw(arrays(float, n, elements=st.floats(0.3, 2.0)))
    gamma = draw(arrays(float, n, elements=magnitude))
    r0 = draw(magnitude)
    return tau, beta, constants, sigma, gamma, r0


@settings(max_examples=150, deadline=None)
@given(plan_inputs())
def test_plan_rows_equal_one_interval_solves_bit_for_bit(inputs):
    tau, beta, constants, sigma, gamma, r0 = inputs
    with np.errstate(all="raise"):
        plan = bound_optimal_weight_plan(tau, beta, constants, sigma, gamma, r0=r0)
        assert plan.shape == tau.shape
        for t in range(len(tau)):
            one = bound_optimal_weights(tau[: t + 1], constants, sigma, gamma,
                                        beta_history=beta[: t + 1], r0=r0)
            assert np.array_equal(plan[t], one.rho), t
    assert np.all(plan[beta == 0] == 0.0)
    rows = beta.any(axis=1)
    assert np.all(np.abs(plan[rows].sum(axis=1) - 1.0) < 1e-12)
    assert np.all(plan[~rows] == 0.0)


def test_plan_names_every_interval_that_does_not_converge():
    c = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=4, N=4, theta=60.0)
    tau = np.array([[1, 2, 3, 4], [2, 2, 2, 2], [4, 1, 1, 1], [3, 3, 1, 2]], dtype=float)
    beta = np.array([[1, 1, 1, 1], [0, 0, 1, 0], [1, 1, 0, 1], [0, 0, 0, 0]])
    with pytest.raises(FixedPointError, match=r"interval\(s\) \[0, 2\]") as excinfo:
        bound_optimal_weight_plan(tau, beta, c, np.ones(4), np.zeros(4), r0=1.0,
                                  max_iter=1, tol=1e-30)
    # Row 1 has one participant and row 3 none: both are solved outright.
    assert excinfo.value.intervals == [0, 2]
    assert excinfo.value.residual > 0.0
    with pytest.raises(FixedPointError, match=r"interval\(s\) \[2\]") as excinfo:
        bound_optimal_weights(tau[:3], c, np.ones(4), np.zeros(4), beta_history=beta[:3],
                              r0=1.0, max_iter=1, tol=1e-30)
    assert excinfo.value.intervals == [2]


def test_plan_fails_at_once_where_the_weights_diverge():
    # A noise bound of rounding size (a client whose batch is its whole data
    # set) scales the update past what the simplex projection can resolve.
    c = SystemConstants(eta=0.01, L=1.0, G=1.0, sigma_global=1.0, H=4, N=4, theta=60.0)
    tau = np.array([[1, 2, 3, 4], [2, 2, 2, 2], [4, 1, 1, 1]], dtype=float)
    beta = np.array([[1, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]])
    sigma = np.array([1.0, 1e-16, 1.0, 1.0])
    with np.errstate(all="raise"), pytest.raises(FixedPointError, match=r"interval\(s\) \[0, 2\]") as excinfo:
        bound_optimal_weight_plan(tau, beta, c, sigma, np.zeros(4), r0=1.0, max_iter=50)
    assert excinfo.value.intervals == [0, 2]


# (eta, G, sigma_global): the last two make the spacing slope steep enough to
# push slow clients' weights negative, so rows get clamped.
SLOPES = [(0.003, 1.0, 1.0), (0.05, 4.0, 0.5), (0.05, 6.0, 0.2)]


@st.composite
def masked_counts(draw):
    """Iteration counts (zeros allowed) and a mask with empty and
    single-client rows common; N=1 included."""
    n = draw(st.integers(1, 9))
    t = draw(st.integers(1, 6))
    tau = draw(arrays(np.int64, (t, n), elements=st.integers(0, 9))).astype(float)
    mask = draw(arrays(bool, (t, n)))
    empty = draw(st.integers(-1, t - 1))
    if empty >= 0:
        mask[empty] = False
    single, who = draw(st.integers(-1, t - 1)), draw(st.integers(0, n - 1))
    if single >= 0:
        mask[single] = False
        mask[single, who] = True
    eta, g, sigma = draw(st.sampled_from(SLOPES))
    constants = SystemConstants(eta=eta, L=1.0, G=g, sigma_global=sigma, H=9, N=n, theta=99.0)
    return tau, mask, constants


def _spaced_oracle(tau, mask, k):
    """Corollary 1 written out for one row: 1/M plus k times the deviation
    from the participants' mean count; negative weights are zeroed and the
    rest renormalized."""
    raw = np.zeros(tau.size)
    raw[mask] = 1.0 / mask.sum() + k * (tau[mask] - tau[mask].mean())
    rho = raw.copy()
    if (rho < 0.0).any():
        rho[rho < 0.0] = 0.0
        rho = rho / rho.sum()
    return rho, raw


def _dms_oracle(tau, eligible, constants, rng):
    """DMS written out for one row: cap and threshold from the eligible
    counts, one uniform per client, then spaced weights for the survivors."""
    p = np.zeros(tau.size)
    cap = int(tau[eligible].max()) if eligible.any() else 0
    if cap >= 1:
        k_t = tau[eligible].mean()
        p[eligible] = np.where(tau[eligible] >= k_t, 0.0, (k_t - tau[eligible]) / cap)
    beta = eligible & (rng.random(tau.size) >= p)
    if not beta.any():
        return np.zeros(tau.size), np.zeros(tau.size), beta
    return (*_spaced_oracle(tau, beta, spacing_slope(constants, h=max(cap, 1))), beta)


def _assert_row_equals(rho, raw, assignment, oracle):
    assert np.array_equal(rho, assignment.rho) and np.array_equal(rho, oracle[0])
    assert np.array_equal(raw, assignment.rho_unclamped) and np.array_equal(raw, oracle[1])
    assert bool((raw < 0.0).any()) == (assignment.rho_unclamped < 0).any()


CLAMPING = (np.array([[0.0, 4.0, 8.0], [3.0, 3.0, 0.0]]), np.array([[True, True, True], [True, False, True]]),
            SystemConstants(eta=0.05, L=1.0, G=4.0, sigma_global=0.5, H=9, N=3, theta=20.0))


@settings(max_examples=150, deadline=None)
@given(masked_counts(), st.one_of(st.none(), st.integers(1, 12), st.lists(st.integers(1, 12), min_size=6, max_size=6)))
@example(CLAMPING, None)
def test_spaced_plan_rows_equal_one_interval_weights_bit_for_bit(inputs, h):
    tau, mask, constants = inputs
    caps = np.array(h[: len(tau)]) if isinstance(h, list) else h
    with np.errstate(all="raise"):
        rho, raw = spaced_weight_plan(tau, mask, constants, h=caps)
        assert rho.shape == raw.shape == tau.shape
        for t in range(len(tau)):
            if not mask[t].any():
                assert np.all(rho[t] == 0.0) and np.all(raw[t] == 0.0)
                continue
            h_t = int(caps[t]) if isinstance(h, list) else h
            _assert_row_equals(rho[t], raw[t], iteration_spaced_weights(tau[t], mask[t], constants, h=h_t),
                               _spaced_oracle(tau[t], mask[t], spacing_slope(constants, h=h_t)))
    assert np.all(rho >= 0.0) and np.all(rho[~mask] == 0.0)
    rows = mask.any(axis=1)
    assert np.all(np.abs(rho[rows].sum(axis=1) - 1.0) < 1e-12)


def test_spaced_plan_clamps_and_skips_the_slope_without_participants():
    tau, mask, constants = CLAMPING
    rho, raw = spaced_weight_plan(tau, mask, constants)
    assert (raw[0] < 0.0).any() and np.all(rho[0] >= 0.0)
    # Nobody participates anywhere: no slope is needed, so sigma=0 is no error.
    zero_noise = SystemConstants(eta=0.05, L=1.0, sigma_global=0.0, N=3, theta=20.0)
    rho, raw = spaced_weight_plan(tau, np.zeros_like(mask), zero_noise)
    assert not rho.any() and not raw.any()
    with pytest.raises(ValueError, match="sigma=0"):
        spaced_weight_plan(tau, mask, zero_noise)


@settings(max_examples=150, deadline=None)
@given(masked_counts(), st.integers(0, 2**32 - 1))
@example(CLAMPING, 2)
def test_dms_plan_equals_successive_one_interval_calls(inputs, seed):
    tau, eligible, constants = inputs
    plan_rng, call_rng, oracle_rng = (np.random.default_rng(seed) for _ in range(3))
    with np.errstate(all="raise"):
        rho, beta, raw = dms_weight_plan(tau, eligible, constants, plan_rng)
        for t in range(len(tau)):
            one = dms_weights(tau[t], constants, call_rng, eligible=eligible[t])
            oracle = _dms_oracle(tau[t], eligible[t], constants, oracle_rng)
            _assert_row_equals(rho[t], raw[t], one, oracle)
            assert np.array_equal(beta[t], one.participation) and np.array_equal(beta[t], oracle[2])
    assert plan_rng.bit_generator.state == call_rng.bit_generator.state == oracle_rng.bit_generator.state
    assert np.all(beta[~eligible] == 0) and np.all(rho[beta == 0] == 0.0)
