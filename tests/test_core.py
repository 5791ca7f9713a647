import re

import numpy as np
import pytest

from tsfl.core import (
    ClientProfile,
    IntervalRecord,
    RunLog,
    SystemConstants,
    ensure_finite,
    interval_records,
    validate_constants,
)


def test_validate_constants_boundary_equality_is_clean():
    c = SystemConstants(eta=0.5, L=1.0, theta=1.0, epsilon=1.0, V=1.0)
    assert validate_constants(c) == []  # 0.5*1*2 = 1 exactly; 0.5 < 2


def test_validate_constants_flags_weight_limit():
    c = SystemConstants(eta=0.1, L=1.0, theta=1.0)
    warnings = validate_constants(c)
    assert len(warnings) == 1
    assert "eta*L*(1+theta)=0.2 < 1" in warnings[0]


def test_validate_constants_flags_step_size():
    c = SystemConstants(eta=3.0, L=1.0, epsilon=1.0, V=1.0)
    warnings = validate_constants(c)
    assert any("2*epsilon/(V^2*L)=2" in w for w in warnings)


def test_theta_defaults_to_equality_point():
    c = SystemConstants(eta=0.1, L=2.0)
    assert c.theta == pytest.approx(1.0 / 0.2 - 1.0)
    assert c.eta * c.L * (1 + c.theta) == pytest.approx(1.0)
    assert c.weight_limit_ok


def test_theta_default_floors_at_one():
    c = SystemConstants(eta=1.0, L=1.0)
    assert c.theta == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": 0.0},
        {"L": -1.0},
        {"G": -0.1},
        {"H": 0},
        {"N": 0},
        {"T": 0},
        {"gamma": 1.5},
        {"theta": 0.5},
        {"V": 0.5},
        {"mu": -1.0},
    ],
)
def test_constants_reject_bad_values(kwargs):
    with pytest.raises(ValueError):
        SystemConstants(**kwargs)


def test_client_profile_invariants():
    ClientProfile(id=1, data_size=64, batch_size=32)
    with pytest.raises(ValueError):
        ClientProfile(id=0, data_size=64, batch_size=32)
    with pytest.raises(ValueError):
        ClientProfile(id=1, data_size=16, batch_size=32)
    with pytest.raises(ValueError):
        ClientProfile(id=1, data_size=16, batch_size=8, gamma_noniid=-1.0)


def test_ensure_finite_rejects_nan_and_inf():
    assert ensure_finite([1.0, 2.0], "ok").tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        ensure_finite([1.0, np.nan], "bad")
    with pytest.raises(ValueError):
        ensure_finite([np.inf], "bad")


def _record(**overrides):
    base = dict(
        t=0,
        tau=[1, 2],
        beta=[1, 1],
        rho=[0.5, 0.5],
        global_loss=1.0,
        global_grad_norm_sq=0.5,
        wall_clock=1.0,
    )
    base.update(overrides)
    return IntervalRecord(**base)


def _log(*rows):
    """A two-client log with one row per dict of ``_record`` overrides; row
    ``k`` defaults to t=k, wall_clock=k+1."""
    records = interval_records(len(rows), 2, 1)
    for t, overrides in enumerate(rows):
        records[t] = _record(**{"t": t, "wall_clock": t + 1.0, **overrides})
    return RunLog(scenario={"name": "x"}, seed=0, strategy="fedavg",
                  constants=SystemConstants(), records=records)


def test_interval_record_accepts_valid_row():
    log = _log({})
    log.validate()
    assert log.records.rho[0].sum() == 1.0


def test_interval_record_allows_empty_aggregation():
    log = _log({"beta": [0, 0], "rho": [0.0, 0.0], "aggregated": False})
    log.validate()
    assert not log.records.aggregated[0]


def _assert_rejected_at_interval_1(bad, message):
    log = _log({}, bad, bad)
    with pytest.raises(ValueError, match=re.escape(f"interval 1: {message}")):
        log.validate()


def test_interval_record_rejects_negative_iterations():
    _assert_rejected_at_interval_1({"tau": [-1, 2]}, "iteration counts must be non-negative")


def test_interval_record_rejects_weight_on_nonparticipant():
    _assert_rejected_at_interval_1(
        {"beta": [1, 0], "rho": [0.5, 0.5]}, "non-participating clients must have zero weight"
    )


def test_interval_record_rejects_bad_sum():
    _assert_rejected_at_interval_1({"rho": [0.5, 0.4]}, "weights sum to 0.9, expected 1 +/- 1e-09")


def test_interval_record_rejects_negative_weight():
    _assert_rejected_at_interval_1({"rho": [1.5, -0.5]}, "aggregation weights must be non-negative")
    _assert_rejected_at_interval_1({"rho": [np.nan, 1.0]}, "aggregation weights must be non-negative")


def test_runlog_requires_strictly_increasing_records():
    log = _log({}, {"wall_clock": 1.0})
    with pytest.raises(ValueError, match="interval 1: records must be strictly increasing"):
        log.validate()
    log = _log({}, {}, {"t": 1})
    with pytest.raises(ValueError, match="interval 2: records must be strictly increasing"):
        log.validate()
    log = _log({}, {"wall_clock": np.nan})
    with pytest.raises(ValueError, match="interval 1: records must be strictly increasing"):
        log.validate()
    _log({}, {}).validate()
