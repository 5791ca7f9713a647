import numpy as np
import pytest

from tsfl.analysis import heterogeneity_degree
from tsfl.scenarios import (
    FixedIterations,
    GaussianFloorIterations,
    LatencyModel,
    preset,
    two_tier_speed_profile,
)


def test_preset_heterogeneity_degrees():
    assert heterogeneity_degree(preset("case1").mean_tau) == pytest.approx(2.25)
    assert heterogeneity_degree(preset("case2").mean_tau) == pytest.approx(1.25)
    assert heterogeneity_degree(preset("homogeneous").mean_tau) == 0.0


def test_unknown_preset_raises():
    with pytest.raises(KeyError):
        preset("case9")


def test_fixed_process_never_consumes_randomness():
    process = FixedIterations(3)
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state["state"]["state"]
    assert process.draw(rng) == 3
    assert rng.bit_generator.state["state"]["state"] == state_before


def test_gaussian_floor_draws_are_nonnegative_integers():
    process = GaussianFloorIterations(0.5, 2.0)  # frequently negative before clipping
    rng = np.random.default_rng(1)
    draws = [process.draw(rng) for _ in range(2000)]
    assert all(isinstance(d, int) and d >= 0 for d in draws)
    assert min(draws) == 0  # the clip actually engages


def test_case3_materialization_draws_sizes_above_batch():
    scenario = preset("case3")
    task = scenario.materialize(np.random.default_rng(3))
    assert task.n_clients == 20
    for i in range(task.n_clients):
        assert task.data_size(i) >= scenario.batch_size


def test_latency_model_round_time():
    model = LatencyModel(seconds_per_iteration=[1.0, 0.25], overhead=0.5)
    assert model.sync_round_seconds(4) == pytest.approx(4.5)
    for spi, overhead in [([0.0], 0.0), ([np.nan], 0.0), ([1.0], np.nan), ([1.0], np.inf)]:
        with pytest.raises(ValueError):
            LatencyModel(seconds_per_iteration=spi, overhead=overhead)


def test_scenario_latency_model_paces_mean_tau_per_interval():
    scenario = preset("case1")
    model = scenario.latency_model()
    assert np.allclose(model.seconds_per_iteration[:10], 1.0)
    assert np.allclose(model.seconds_per_iteration[10:], 0.25)


def test_two_tier_speed_profile_hits_requested_variance():
    for delta in (0.0, 1.25, 2.25):
        profile = two_tier_speed_profile(delta)
        assert heterogeneity_degree(profile) == pytest.approx(delta)
        assert profile.mean() == pytest.approx(2.5)
    assert np.allclose(two_tier_speed_profile(2.25), [1.0] * 10 + [4.0] * 10)
    with pytest.raises(ValueError):
        two_tier_speed_profile(7.0)


def test_default_required_iterations_is_fast_tier():
    assert preset("case1").default_required_iterations() == 4
    assert preset("case3").default_required_iterations() == 5
