"""Scenario presets: client populations, compute-power processes, client pace.

The built-in presets mirror three heterogeneity patterns: a two-tier static
split (case1), a four-tier static split (case2), and a dynamic population
whose per-interval iteration counts are floored Gaussian draws with tiered
means and whose data sizes are drawn once per run from tiered distributions
(case3). ``homogeneous`` gives every client the same fixed count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .training import LogisticTask, QuadraticTask


class FieldError(ValueError):
    """A field outside its range. The message starts with the field's name,
    so a config error can name the leaf, as in ``config.scenario.batch_size``."""


def _at_least(name: str, value, least) -> None:
    if not value >= least:
        raise FieldError(f"{name}: must be at least {least}, got {value!r}")


def _finite(name: str, value) -> None:
    if not np.isfinite(value):
        raise FieldError(f"{name}: must be finite, got {value!r}")


@dataclass(frozen=True)
class FixedIterations:
    """Constant per-interval iteration count; never consumes randomness."""

    tau: int

    def __post_init__(self) -> None:
        _at_least("tau", self.tau, 0)

    def draw(self, rng, size: int | None = None):
        """One count, or ``size`` of them as an int array."""
        return self.tau if size is None else np.full(size, self.tau)

    @property
    def mean(self) -> float:
        return float(self.tau)


@dataclass(frozen=True)
class GaussianFloorIterations:
    """Per-interval count floor(N(mean, std)), clipped at zero."""

    mean: float
    std: float

    def __post_init__(self) -> None:
        _finite("mean", self.mean)
        _finite("std", self.std)
        _at_least("std", self.std, 0)

    def draw(self, rng, size: int | None = None):
        """One count, or ``size`` of them as an int array: the same values, and
        the same rng state, as ``size`` successive single draws."""
        if size is None:
            return max(0, int(np.floor(rng.normal(self.mean, self.std))))
        return np.maximum(np.floor(rng.normal(self.mean, self.std, size=size)), 0).astype(int)


@dataclass(frozen=True)
class GaussianFloorSize:
    """Data size floor(N(mean, std)), clipped below at a configured minimum."""

    mean_value: float
    std: float

    def __post_init__(self) -> None:
        _finite("mean_value", self.mean_value)
        _finite("std", self.std)
        _at_least("std", self.std, 0)

    def draw(self, rng, minimum: int) -> int:
        return max(minimum, int(np.floor(rng.normal(self.mean_value, self.std))))


def round_seconds(seconds_per_iteration, required, overhead: float) -> float:
    """A synchronous round's wall clock time: ``required`` iterations at the slowest pace, plus ``overhead``."""
    return float(required * np.max(seconds_per_iteration) + overhead)


def _check_timing(interval_length: float, overhead: float) -> None:
    if not 0 < interval_length < np.inf:
        raise FieldError(f"interval_length: must be positive and finite, got {interval_length!r}")
    _at_least("overhead", overhead, 0)
    _finite("overhead", overhead)


_KINDS = {cls.kind: cls for cls in (QuadraticTask, LogisticTask)}
# The TaskSpec fields each kind's ``generate`` reads, ``kind`` aside.
TASK_READS = {
    "quadratic": ("dimension", "noniid_spread", "sample_noise", "curvature_range", "shared_curvature"),
    "logistic": ("dimension", "noniid_spread", "sample_noise", "separation", "l2_reg"),
}


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic-task recipe, the only one: ``build`` and each task's
    ``generate`` read every value from it. Materialized per run seed."""

    kind: str = "quadratic"
    dimension: int = 4
    noniid_spread: float = 0.0
    sample_noise: float = 0.5
    curvature_range: tuple[float, float] = (0.5, 1.0)
    shared_curvature: bool = False
    separation: float = 1.5
    l2_reg: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be 'quadratic' or 'logistic', got {self.kind!r}")
        least = 2 if self.kind == "logistic" else 1
        if self.dimension < least:
            raise ValueError(f"dimension={self.dimension} must be at least {least} for a {self.kind} task")
        for name in ("noniid_spread", "sample_noise", "separation", "l2_reg"):
            _finite(name, getattr(self, name))
        if not (self.noniid_spread >= 0 and self.sample_noise >= 0):
            raise ValueError("noniid_spread and sample_noise must be non-negative")
        lo, hi = self.curvature_range
        if not 0 < lo <= hi < np.inf:
            raise ValueError(f"curvature_range={self.curvature_range} must satisfy 0 < lo <= hi < inf")
        if not self.l2_reg > 0:
            raise ValueError("l2_reg must be positive")

    def build(self, data_sizes, rng):
        """The task of this recipe, one client per entry of ``data_sizes``."""
        return _KINDS[self.kind].generate(self, data_sizes, rng)


@dataclass
class Scenario:
    """A full experiment setup minus the seed.

    ``processes`` holds one iteration process per client. ``data_sizes`` may
    mix fixed integers and ``GaussianFloorSize`` tiers; tiered sizes are drawn
    once per run at materialization. ``min_upload_iterations`` implements
    client-selection systems: intervals where a client completes fewer
    iterations do not reach the server at all.
    """

    name: str
    processes: list
    data_sizes: list
    batch_size: int = 32
    task: TaskSpec = field(default_factory=TaskSpec)
    interval_length: float = 1.0
    overhead: float = 0.0
    min_upload_iterations: int = 0
    full_batch: bool = False

    def __post_init__(self) -> None:
        if any(char in self.name for char in "/\\\0"):  # it starts every output file name
            raise FieldError(f"name: {self.name!r} must not contain '/', '\\' or NUL")
        _at_least("n_clients", self.n_clients, 1)
        if len(self.data_sizes) != self.n_clients:
            raise FieldError(f"data_sizes: {len(self.data_sizes)} sizes for n_clients={self.n_clients}")
        _at_least("batch_size", self.batch_size, 1)
        for k, size in enumerate(self.data_sizes):
            if not isinstance(size, GaussianFloorSize):
                _at_least(f"data_sizes[{k}]", size, 1)
        _check_timing(self.interval_length, self.overhead)
        _at_least("min_upload_iterations", self.min_upload_iterations, 0)

    @property
    def n_clients(self) -> int:
        return len(self.processes)

    @property
    def mean_tau(self) -> np.ndarray:
        return np.array([p.mean for p in self.processes])

    def default_required_iterations(self) -> int:
        """The fast tier's mean iteration count, rounded: the baselines' count
        unless their runner is given one."""
        return max(1, int(round(self.mean_tau.max())))

    @property
    def seconds_per_iteration(self) -> np.ndarray:
        """Each client's pace: its mean iteration count fits one interval. A
        client whose mean count is not positive never iterates: its pace is inf."""
        mean = self.mean_tau
        return np.divide(self.interval_length, mean, out=np.full(mean.shape, np.inf), where=mean > 0)

    def materialize(self, rng):
        """Draw the data sizes and build the task."""
        sizes = [spec.draw(rng, minimum=self.batch_size) if isinstance(spec, GaussianFloorSize) else int(spec)
                 for spec in self.data_sizes]
        return self.task.build(sizes, rng)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "n_clients": self.n_clients,
            "mean_tau": [p.mean for p in self.processes],
            "task": dataclasses.asdict(self.task),
            "interval_length": self.interval_length,
            "min_upload_iterations": self.min_upload_iterations,
            "full_batch": self.full_batch,
            "batch_size": self.batch_size,
        }


def tiered(n_clients: int, tiers: list) -> list:
    """Assign ``tiers`` to clients in contiguous blocks, in order, whose sizes
    differ by at most one. Every tier needs a client."""
    _at_least("n_clients", n_clients, len(tiers))
    return [tiers[i * len(tiers) // n_clients] for i in range(n_clients)]


def _fixed_tiers(name: str, n_clients: int, taus: list, data_size: int, batch_size: int) -> Scenario:
    """Clients tiered over fixed iteration counts ``taus``, each holding ``data_size`` samples."""
    tiers = [FixedIterations(tau) for tau in taus]
    _at_least("data_size", data_size, 1)
    return Scenario(name=name, processes=tiered(n_clients, tiers), data_sizes=[data_size] * n_clients, batch_size=batch_size)


def case1(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32) -> Scenario:
    """Two static tiers: half the clients at 1 iteration, half at 4 (degree 2.25)."""
    return _fixed_tiers("case1", n_clients, [1, 4], data_size, batch_size)


def case2(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32) -> Scenario:
    """Four static tiers at 1/2/3/4 iterations by quarters (degree 1.25)."""
    return _fixed_tiers("case2", n_clients, [1, 2, 3, 4], data_size, batch_size)


def case3(n_clients: int = 20, batch_size: int = 32) -> Scenario:
    """Dynamic tiers: floored-Gaussian iteration counts and tiered data sizes."""
    # The five size tiers first: they set the preset's least client count.
    sizes = tiered(
        n_clients,
        [
            GaussianFloorSize(512.0, 100.0),
            GaussianFloorSize(768.0, 150.0),
            GaussianFloorSize(1024.0, 200.0),
            GaussianFloorSize(1280.0, 250.0),
            GaussianFloorSize(1536.0, 300.0),
        ],
    )
    processes = tiered(
        n_clients,
        [
            GaussianFloorIterations(2.0, 0.4),
            GaussianFloorIterations(3.0, 0.6),
            GaussianFloorIterations(4.0, 0.8),
            GaussianFloorIterations(5.0, 1.0),
        ],
    )
    return Scenario(
        name="case3",
        processes=processes,
        data_sizes=sizes,
        batch_size=batch_size,
    )


def homogeneous(n_clients: int = 20, tau: int = 4, data_size: int = 1024, batch_size: int = 32) -> Scenario:
    """Every client identical: fixed iteration count and equal data."""
    return _fixed_tiers("homogeneous", n_clients, [tau], data_size, batch_size)


PRESETS = {
    "case1": case1,
    "case2": case2,
    "case3": case3,
    "homogeneous": homogeneous,
}


def preset(name: str, **kwargs) -> Scenario:
    try:
        factory = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown scenario preset {name!r}; choose from {sorted(PRESETS)}") from None
    return factory(**kwargs)


def latency_table(
    deltas: list[float] = (0.0, 1.25, 2.25),
    rounds: int = 50,
    mean_tau: float = 2.5,
    interval_length: float = 1.0,
    overhead: float = 0.0,
    required_iterations: float | None = None,
) -> list[dict]:
    """Wall-clock totals of round-driven vs time-driven scheduling per
    heterogeneity degree.

    A row's population is two equal tiers of mean iteration counts
    ``mean_tau -/+ sqrt(delta)``, whose variance is ``delta`` (delta=2.25 is
    the case1 split). The round-driven schedule requires the fast tier's count
    from every client unless overridden, so the slow tier sets its round time,
    while the time-driven total stays fixed.
    """
    if not len(deltas):
        raise FieldError("deltas: list must be non-empty")
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be at least 1")
    _check_timing(interval_length, overhead)
    if required_iterations is not None and not required_iterations > 0:
        raise FieldError(f"required_iterations: must be positive, got {required_iterations!r}")
    rows = []
    for delta in map(float, deltas):
        if delta < 0:
            raise ValueError(f"delta={delta:g} must be non-negative")
        spread = float(np.sqrt(delta))
        if spread >= mean_tau:
            raise ValueError(
                f"delta={delta:g} puts the slow tier at mean_tau - sqrt(delta) = "
                f"{mean_tau - spread:g}; it must stay positive"
            )
        speeds = np.array([mean_tau - spread, mean_tau + spread])
        required = float(speeds[1]) if required_iterations is None else float(required_iterations)
        sfl_total = rounds * round_seconds(interval_length / speeds, required, overhead)
        tsfl_total = rounds * interval_length
        rows.append(
            {
                "delta": delta,
                "rounds": rounds,
                "required_iterations": required,
                "sfl_seconds": sfl_total,
                "tsfl_seconds": tsfl_total,
                "ratio": tsfl_total / sfl_total,
            }
        )
    return rows
