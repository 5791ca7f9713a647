import dataclasses

import pytest

from tsfl.core import SystemConstants
from tsfl.scenarios import TaskSpec, preset
from tsfl.scheduler import run_tsfl


@pytest.fixture(scope="session")
def case3_dms_log():
    """One long dynamic-tier run with discriminative selection, shared by the
    participation-statistics tests (one to two seconds of the tier-1 run)."""
    constants = SystemConstants(eta=0.02, L=1.0, T=10_000, N=20, H=8, sigma_global=1.0)
    scenario = dataclasses.replace(
        preset("case3"),
        task=TaskSpec(kind="quadratic", dimension=2, noniid_spread=0.0, sample_noise=0.3),
        full_batch=True,
    )
    return run_tsfl(scenario, "tsfl-dms", constants, seed=11)
