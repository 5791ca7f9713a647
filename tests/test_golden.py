"""Golden outputs of every strategy on a small case3 scenario.

Each cell's final loss, final model and rho/beta matrices are pinned to the
values in ``golden_strategies.json``, so a refactor of the dispatch or of the
weight engines cannot move a result unnoticed. ``min_upload_iterations=2``
exercises eligibility masks, zero-iteration clients and the DMS draw with
ineligible clients. Regenerate the file (only for an intended change of
results) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tsfl.core import SystemConstants
from tsfl.scenarios import TaskSpec, preset
from tsfl.scheduler import ALL_STRATEGIES, run_strategy

GOLDEN_PATH = Path(__file__).with_name("golden_strategies.json")
# Admits drift in the last digits from reordered float arithmetic (another
# BLAS, another CPU); a modelling change moves results far more.
RTOL = 1e-12
TASKS = ("quadratic", "logistic")


def golden_run(kind: str, strategy: str):
    scenario = dataclasses.replace(
        preset("case3", n_clients=8, batch_size=8),
        task=TaskSpec(kind=kind, dimension=3, noniid_spread=0.4),
        min_upload_iterations=2,
    )
    constants = SystemConstants(eta=0.05, T=12, H=8, N=8)
    return run_strategy(scenario, strategy, constants, seed=5, probe_count=2)


def cell_values(log) -> dict:
    return {
        "final_loss": float(log.final_loss),
        "final_model": log.final_model.tolist(),
        "rho": log.rho_matrix().tolist(),
        "beta": log.beta_matrix().tolist(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind", TASKS)
@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_strategy_outputs_match_golden(golden, kind, strategy):
    got = cell_values(golden_run(kind, strategy))
    want = golden[f"{kind}/{strategy}"]
    np.testing.assert_allclose(got["final_loss"], want["final_loss"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got["final_model"], want["final_model"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got["rho"], want["rho"], rtol=RTOL, atol=0)
    assert got["beta"] == want["beta"]


if __name__ == "__main__":
    cells = [f'"{kind}/{s}": {json.dumps(cell_values(golden_run(kind, s)))}'
             for kind in TASKS for s in ALL_STRATEGIES]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(cells) + "\n}\n", encoding="utf-8")
