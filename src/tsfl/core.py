"""Shared domain types: analysis constants and run logs.

Constants are a plain value type. A run log holds one preallocated record
array that the runners fill in place, one row per interval, and that
``RunLog.validate`` checks once the run is over.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# Tolerance for the "aggregation weights sum to one" invariant.
WEIGHT_SUM_TOL = 1e-9


def ensure_finite(values: np.ndarray, context: str) -> np.ndarray:
    """Return ``values`` as a float array, raising if any entry is NaN/Inf."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{context}: parameter vector contains non-finite entries")
    return arr


def row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x[r] @ y[r]`` for every row r, as a stacked matmul: each row equals
    the 1-D product (``np.dot``, and the square of ``np.linalg.norm`` when
    ``y`` is ``x``) bit for bit."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def default_weight_limit(eta: float, smoothness: float) -> float:
    """Weight-limit parameter making eta*L*(1+theta) == 1, floored at 1."""
    return max(1.0, 1.0 / (eta * smoothness) - 1.0)


@dataclass(frozen=True)
class SystemConstants:
    """Global constants used by the weight engines and the diagnostics.

    ``eta``, ``L``, ``G``, ``sigma_global`` are the learning rate, smoothness
    bound, gradient-norm bound, and common mini-batch noise bound. ``theta``
    caps the aggregation weights at theta/N; when omitted it defaults to the
    equality point of the weight-limit precondition, eta*L*(1+theta) = 1, at
    this ``L``; a runner's ``equality_theta`` (which ``tsfl run`` passes when
    the config gives no theta) puts it there at the run's own L.
    ``H`` is the largest per-interval iteration count, ``N`` the client count
    (a run takes it from its scenario), ``T`` the number of communication
    intervals. ``epsilon`` and ``V`` bound
    gradient alignment and dissimilarity across clients (probes replace them,
    and L, G and sigma_global, in a run), ``gamma`` is the
    depreciation factor of the asynchronous baseline, and ``mu`` the proximal
    coefficient of the FedProx baseline.
    """

    eta: float = 0.003
    L: float = 1.0
    G: float = 1.0
    sigma_global: float = 1.0
    theta: float | None = None
    H: int = 4
    N: int = 20
    T: int = 50
    epsilon: float = 1.0
    V: float = 1.0
    gamma: float = 0.5
    mu: float = 0.01

    def __post_init__(self) -> None:
        # Each check is written so that a NaN fails it.
        floats = ["eta", "L", "G", "sigma_global", "epsilon", "V", "gamma", "mu"]
        if self.theta is not None:
            floats.append("theta")
        for name in floats:
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (self.eta > 0 and self.L > 0):
            raise ValueError("eta and L must be positive")
        if not (self.G >= 0 and self.sigma_global >= 0):
            raise ValueError("G and sigma_global must be non-negative")
        if not (self.H >= 1 and self.N >= 1 and self.T >= 1):
            raise ValueError("H, N, T must be positive integers")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.V >= 1:
            raise ValueError("V must be >= 1")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if not self.mu >= 0:
            raise ValueError("mu must be non-negative")
        if self.theta is None:
            object.__setattr__(self, "theta", default_weight_limit(self.eta, self.L))
        elif not self.theta >= 1:
            raise ValueError("theta must be >= 1")

    @property
    def weight_limit_ok(self) -> bool:
        """True when eta*L*(1+theta) >= 1 holds.

        Allows a relative rounding slack so the equality-point default for
        theta is not rejected when the product lands one ulp below 1.
        """
        return self.eta * self.L * (1.0 + self.theta) >= 1.0 - 1e-12

    @property
    def step_size_limit(self) -> float:
        """Largest learning rate admitted by the convergence diagnostic."""
        return 2.0 * self.epsilon / (self.V**2 * self.L)


def validate_constants(constants: SystemConstants) -> list[str]:
    """Check the analytical preconditions, returning one warning per violation.

    Violations do not stop a run; they mark the analysis reports produced
    from it as outside the regime the bounds assume.
    """
    warnings = []
    product = constants.eta * constants.L * (1.0 + constants.theta)
    if not constants.weight_limit_ok:
        warnings.append(f"eta*L*(1+theta)={product:g} < 1")
    limit = constants.step_size_limit
    if constants.eta >= limit:
        warnings.append(f"eta={constants.eta:g} >= 2*epsilon/(V^2*L)={limit:g}")
    return warnings


def interval_records(intervals: int, n_clients: int, dimension: int) -> np.recarray:
    """Zeroed record array of ``intervals`` rows, one per interval: its dtype
    is the one list of a run's columns, and ``IntervalRecord`` is a row of it.

    ``global_loss`` and ``global_grad_norm_sq`` are evaluated on the global
    model at the start of the interval; ``tau``, ``beta``, ``rho`` describe
    the aggregation that closes it, and ``model`` is the global model after
    it (NaN when not kept). ``aggregated`` is False when the model was carried
    over unchanged.
    """
    dtype = np.dtype(
        [
            ("t", int),
            ("tau", int, (n_clients,)),
            ("beta", int, (n_clients,)),
            ("rho", float, (n_clients,)),
            ("global_loss", float),
            ("global_grad_norm_sq", float),
            ("wall_clock", float),
            ("aggregated", bool),
            ("model", float, (dimension,)),
        ],
        align=True,
    )
    return np.zeros(intervals, dtype=dtype).view(np.recarray)


# One row of ``RunLog.records``, in column order: ``log.records[t] =
# IntervalRecord(...)`` writes interval ``t``.
IntervalRecord = namedtuple("IntervalRecord", interval_records(0, 0, 0).dtype.names)


@dataclass
class RunLog:
    """Complete trace of one run: the unit of every analysis and test.

    ``records`` holds one ``IntervalRecord`` row per interval (see
    ``interval_records``); ``records.tau`` and the other columns are
    ``(T, n)``, ``(T,)`` or ``(T, d)`` arrays. ``constants_source`` records,
    per analysis constant, whether the value was configured explicitly,
    derived exactly from the task, or estimated from probes.
    ``analysis_inputs`` carries the other quantities the report generator
    needs (per-client noise and optimum distance, the optimal model and loss,
    the raw dissimilarity estimates) so logs can be re-analyzed without
    rebuilding the task; the initial model is ``initial_model``.
    """

    scenario: dict
    seed: int
    strategy: str
    constants: SystemConstants
    records: np.recarray
    initial_model: np.ndarray | None = None
    final_model: np.ndarray | None = None
    final_loss: float = float("nan")
    final_grad_norm_sq: float = float("nan")
    constants_source: dict = field(default_factory=dict)
    analysis_inputs: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Raise ``ValueError("interval <k>: ...")`` for the first row ``k``
        that breaks a row invariant or the strict increase of ``t`` and
        ``wall_clock``."""
        r = self.records
        sums = r.rho.sum(axis=1)
        # Each check is written so that a NaN fails it.
        checks = [
            ((r.tau < 0).any(axis=1), "iteration counts must be non-negative"),
            (~(r.rho >= 0.0).all(axis=1), "aggregation weights must be non-negative"),
            (((r.beta == 0) & (r.rho != 0.0)).any(axis=1),
             "non-participating clients must have zero weight"),
            ((r.beta == 1).any(axis=1) & ~(np.abs(sums - 1.0) <= WEIGHT_SUM_TOL),
             f"weights sum to {{!r}}, expected 1 +/- {WEIGHT_SUM_TOL}"),
            (~(np.diff(r.t, prepend=-1) > 0) | ~(np.diff(r.wall_clock, prepend=-np.inf) > 0),
             "records must be strictly increasing in t and wall_clock"),
        ]
        bad = np.array([mask for mask, _ in checks])
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=0))[0])
            message = checks[int(np.argmax(bad[:, row]))][1].format(float(sums[row]))
            raise ValueError(f"interval {row}: {message}")

    @property
    def intervals(self) -> int:
        return len(self.records)

    @property
    def participation_recorded(self) -> bool:
        """False when the model moved although no row records a participant,
        as in the event runners, which aggregate outside the interval rows:
        then ``beta`` and ``rho`` say nothing about who contributed."""
        return bool(self.records.beta.any() or not self.records.aggregated.any())

    # perfbench's workloads and the tests call these; src/ reads the columns.
    def tau_matrix(self) -> np.ndarray:
        return self.records.tau

    def beta_matrix(self) -> np.ndarray:
        return self.records.beta

    def rho_matrix(self) -> np.ndarray:
        return self.records.rho

    def grad_norms(self) -> np.ndarray:
        return self.records.global_grad_norm_sq

    def losses(self) -> np.ndarray:
        return self.records.global_loss
