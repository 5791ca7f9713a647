"""The whole-run Theorem 2 solve against one solve per interval."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tsfl.aggregation import FixedPointError, bound_optimal_weight_plan, bound_optimal_weights
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
    return tau, beta, constants, sigma, gamma, r0, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(plan_inputs())
def test_plan_rows_equal_one_interval_solves_bit_for_bit(inputs):
    tau, beta, constants, sigma, gamma, r0, shared = inputs
    with np.errstate(all="raise"):
        plan = bound_optimal_weight_plan(tau, beta, constants, sigma, gamma, r0=r0,
                                         shared_noise_sums=shared)
        assert plan.shape == tau.shape
        for t in range(len(tau)):
            one = bound_optimal_weights(tau[: t + 1], constants, sigma, gamma,
                                        beta_history=beta[: t + 1], r0=r0,
                                        shared_noise_sums=shared)
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
