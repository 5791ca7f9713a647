import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsfl.analysis import heterogeneity_degree
from tsfl.core import SystemConstants
from tsfl.scenarios import (
    PRESETS,
    TASK_READS,
    FieldError,
    FixedIterations,
    GaussianFloorIterations,
    GaussianFloorSize,
    Scenario,
    TaskSpec,
    latency_table,
    preset,
    round_seconds,
    tiered,
)


def test_preset_heterogeneity_degrees():
    assert heterogeneity_degree(preset("case1").mean_tau) == pytest.approx(2.25)
    assert heterogeneity_degree(preset("case2").mean_tau) == pytest.approx(1.25)
    assert heterogeneity_degree(preset("homogeneous").mean_tau) == 0.0


@given(st.integers(1, 12), st.integers(-2, 40))
def test_tiered_gives_each_tier_a_contiguous_block(k, n):
    tiers = list(range(k))
    if n < k:
        with pytest.raises(FieldError, match=rf"^n_clients: must be at least {k}, got {n}$"):
            tiered(n, tiers)
        return
    assigned = tiered(n, tiers)
    sizes = [assigned.count(tier) for tier in tiers]
    # Every tier present, in order, in one block; block sizes differ by at most one.
    assert assigned == [tier for tier, size in zip(tiers, sizes) for _ in range(size)]
    assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


# Each preset's least client count: case3 has five data size tiers.
LEAST_CLIENTS = {"case1": 2, "case2": 4, "case3": 5, "homogeneous": 1}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_each_preset_needs_a_client_per_tier(name):
    least = LEAST_CLIENTS[name]
    scenario = preset(name, n_clients=least)
    # At its least count, every client of a preset is a tier of its own.
    assert max(len(set(scenario.processes)), len(set(scenario.data_sizes))) == least
    with pytest.raises(FieldError, match=rf"^n_clients: must be at least {least}, got {least - 1}$"):
        preset(name, n_clients=least - 1)


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


def _setting(make, name, **given):
    return lambda x: make(**given, **{name: x})


# (value type, field) -> the value made with that field set to x.
_FLOAT_FIELDS = {
    **{("SystemConstants", name): _setting(SystemConstants, name)
       for name in ("eta", "L", "G", "sigma_global", "theta", "epsilon", "V", "gamma", "mu")},
    **{("TaskSpec", name): _setting(TaskSpec, name)
       for name in ("noniid_spread", "sample_noise", "separation", "l2_reg")},
    ("TaskSpec", "curvature_range[0]"): lambda x: TaskSpec(curvature_range=(x, 1.0)),
    ("TaskSpec", "curvature_range[1]"): lambda x: TaskSpec(curvature_range=(0.5, x)),
    ("GaussianFloorIterations", "mean"): _setting(GaussianFloorIterations, "mean", std=1.0),
    ("GaussianFloorIterations", "std"): _setting(GaussianFloorIterations, "std", mean=3.0),
    ("GaussianFloorSize", "mean_value"): _setting(GaussianFloorSize, "mean_value", std=1.0),
    ("GaussianFloorSize", "std"): _setting(GaussianFloorSize, "std", mean_value=64.0),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", _FLOAT_FIELDS, ids="-".join)
def test_value_types_reject_non_finite_numbers(field, value):
    # A NaN used to pass every range check, and an infinite eta or L built
    # constants whose weight limit is meaningless.
    name = field[1].split("[")[0]
    with pytest.raises(ValueError, match=rf"^{name}\b"):
        _FLOAT_FIELDS[field](value)


def test_case3_materialization_draws_sizes_above_batch():
    scenario = preset("case3")
    task = scenario.materialize(np.random.default_rng(3))
    assert task.n_clients == 20
    for i in range(task.n_clients):
        assert task.data_size(i) >= scenario.batch_size


def test_round_seconds_waits_for_the_slowest_client():
    assert round_seconds(np.array([1.0, 0.25]), 4, 0.5) == pytest.approx(4.5)
    for overhead in (np.nan, np.inf):
        with pytest.raises(FieldError, match=r"^overhead: "):
            dataclasses.replace(preset("case1"), overhead=overhead)
        with pytest.raises(FieldError, match=r"^overhead: "):
            latency_table(overhead=overhead)
    for interval_length in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(FieldError, match=r"^interval_length: "):
            latency_table(interval_length=interval_length)


def test_scenario_paces_mean_tau_per_interval():
    spi = preset("case1").seconds_per_iteration
    assert np.allclose(spi[:10], 1.0)
    assert np.allclose(spi[10:], 0.25)
    # A client whose mean count is not positive never iterates; no division
    # by zero warns.
    processes = [FixedIterations(0), GaussianFloorIterations(-1.0, 0.5), FixedIterations(2)]
    idle = Scenario(name="idle", processes=processes, data_sizes=[8] * 3, interval_length=0.5)
    assert idle.seconds_per_iteration.tolist() == [np.inf, np.inf, 0.25]


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("count", [3, 5])
def test_data_sizes_give_one_size_per_client(kind, count):
    with pytest.raises(FieldError, match=rf"^data_sizes: {count} sizes for n_clients=4$"):
        Scenario(name="x", processes=[FixedIterations(1)] * 4, data_sizes=[16] * count, task=TaskSpec(kind=kind))


# Every recipe field but kind, and a changed value for each.
RECIPE_CHANGES = {
    "dimension": 4,
    "noniid_spread": 0.7,
    "sample_noise": 0.9,
    "curvature_range": (0.5, 2.0),
    "shared_curvature": True,
    "separation": 3.0,
    "l2_reg": 0.5,
}


def _built(spec):
    """The arrays and numbers a task is built with, from a fixed draw."""
    task = spec.build([5, 9, 7], np.random.default_rng(11))
    return {key: value for key, value in vars(task).items() if isinstance(value, (np.ndarray, float))}


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
@pytest.mark.parametrize("name", RECIPE_CHANGES)
def test_every_recipe_field_reaches_the_task(kind, name):
    base = TaskSpec(kind=kind, dimension=3, noniid_spread=0.5)
    before, after = _built(base), _built(dataclasses.replace(base, **{name: RECIPE_CHANGES[name]}))
    same = before.keys() == after.keys() and all(np.array_equal(before[k], after[k]) for k in before)
    # A field the kind reads, as TASK_READS lists (a config may set only
    # those), changes the task; one it does not read changes no bit of it.
    assert same == (name not in TASK_READS[kind])


@pytest.mark.parametrize("mean_tau", [2.5, 3.0])
def test_latency_rows_time_two_equal_tiers_of_variance_delta(mean_tau):
    deltas = [0.0, 0.5, 1.25, 2.25, 4.0]
    for delta, row in zip(deltas, latency_table(deltas, rounds=10, mean_tau=mean_tau)):
        # The fast tier sets the required count and the slow tier the round
        # time: rounds * fast / slow seconds at interval length 1, no overhead.
        fast = row["required_iterations"]
        slow = row["rounds"] * fast / row["sfl_seconds"]
        assert heterogeneity_degree([slow, fast]) == pytest.approx(delta)
        assert np.mean([slow, fast]) == pytest.approx(mean_tau)
    [case1] = latency_table([2.25])
    assert (case1["required_iterations"], case1["ratio"]) == (4.0, 0.25)
    with pytest.raises(ValueError, match=r"^delta=7 puts the slow tier at mean_tau - sqrt\(delta\) = -0.145751"):
        latency_table([7.0])


def test_default_required_iterations_is_fast_tier():
    assert preset("case1").default_required_iterations() == 4
    assert preset("case3").default_required_iterations() == 5
