"""Deterministic simulator for time-driven synchronous federated aggregation
over heterogeneous clients, with optimal-weight engines, discriminative model
selection, baseline strategies, and loss-bound diagnostics.
"""

import os
import sys

# BLAS and OpenMP read their thread counts once, when numpy loads, and a
# product or solve split over more threads can round differently, so the
# host's core count would be a hidden input of a run. Pin one thread unless
# the caller set a count, or loaded numpy first and so keeps its own.
if "numpy" not in sys.modules:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .core import (
    IntervalRecord,
    RunLog,
    SystemConstants,
    validate_constants,
)
from .training import (
    EstimatedConstants,
    GradientSample,
    LogisticTask,
    QuadraticTask,
    draw_batches,
    estimate_constants,
    local_train,
    stochastic_gradient,
    train_clients,
)
from .aggregation import (
    BoundCoefficients,
    FixedPointError,
    WeightAssignment,
    bound_coefficients,
    bound_optimal_weight_plan,
    bound_optimal_weights,
    dms_threshold,
    dms_weight_plan,
    dms_weights,
    fedasync_update,
    fedavg_weights,
    filtering_probability,
    iteration_spaced_weights,
    project_to_simplex,
    proportional_weight_plan,
    sample_participation,
    spaced_weight_plan,
    spacing_slope,
    uniform_weights,
)
from .analysis import (
    BoundReport,
    ConvergenceReport,
    estimate_dissimilarity,
    evaluate_bound,
    heterogeneity_degree,
    verify_convergence,
)
from .scenarios import (
    FixedIterations,
    GaussianFloorIterations,
    Scenario,
    TaskSpec,
    preset,
)
from .scheduler import (
    ALL_STRATEGIES,
    INTERVAL_STRATEGIES,
    participation_frequency,
    run_afl,
    run_semi_async,
    run_sfl,
    run_strategy,
    run_tsfl,
)

__version__ = "0.1.0"
