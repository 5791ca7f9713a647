"""Scenario presets: client populations, compute-power processes, latency model.

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

from .core import ClientProfile
from .training import LogisticTask, QuadraticTask


class FieldError(ValueError):
    """A field outside its range. The message starts with the field's name,
    so a config error can name the leaf, as in ``config.scenario.batch_size``."""


def _at_least(name: str, value, least) -> None:
    if not value >= least:
        raise FieldError(f"{name}: must be at least {least}, got {value!r}")


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

    def draw(self, rng, minimum: int) -> int:
        return max(minimum, int(np.floor(rng.normal(self.mean_value, self.std))))


@dataclass
class LatencyModel:
    """Wall-clock accounting for the schedulers.

    The time-driven scheduler advances by exactly ``interval_length`` per
    interval; upload and aggregation happen inside the fixed schedule. The
    round-driven scheduler waits for the slowest client, so a round costs
    ``required_iterations * max(seconds_per_iteration) + overhead``.
    """

    seconds_per_iteration: np.ndarray
    interval_length: float = 1.0
    overhead: float = 0.0

    def __post_init__(self) -> None:
        self.seconds_per_iteration = np.asarray(self.seconds_per_iteration, dtype=float)
        if not np.all(self.seconds_per_iteration > 0):
            raise ValueError("per-iteration times must be positive")
        if not (0 < self.interval_length < np.inf and 0 <= self.overhead < np.inf):
            raise ValueError("interval_length must be positive, overhead non-negative, both finite")

    def sync_round_seconds(self, required_iterations: int) -> float:
        return float(required_iterations * self.seconds_per_iteration.max() + self.overhead)


@dataclass(frozen=True)
class TaskSpec:
    """Synthetic-task recipe; materialized per run seed."""

    kind: str = "quadratic"
    dimension: int = 4
    noniid_spread: float = 0.0
    sample_noise: float = 0.5
    curvature_range: tuple[float, float] = (0.5, 1.0)
    shared_curvature: bool = False
    separation: float = 1.5
    l2_reg: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "logistic"):
            raise ValueError(f"kind must be 'quadratic' or 'logistic', got {self.kind!r}")
        least = 2 if self.kind == "logistic" else 1
        if self.dimension < least:
            raise ValueError(f"dimension={self.dimension} must be at least {least} for a {self.kind} task")
        if self.noniid_spread < 0 or self.sample_noise < 0:
            raise ValueError("noniid_spread and sample_noise must be non-negative")
        lo, hi = self.curvature_range
        if not 0 < lo <= hi:
            raise ValueError(f"curvature_range={self.curvature_range} must satisfy 0 < lo <= hi")
        if self.l2_reg <= 0:
            raise ValueError("l2_reg must be positive")

    def build(self, n_clients: int, data_sizes, rng):
        if self.kind == "quadratic":
            return QuadraticTask.generate(
                n_clients,
                self.dimension,
                data_sizes,
                rng,
                noniid_spread=self.noniid_spread,
                sample_noise=self.sample_noise,
                curvature_range=self.curvature_range,
                shared_curvature=self.shared_curvature,
            )
        return LogisticTask.generate(
            n_clients,
            self.dimension,
            data_sizes,
            rng,
            noniid_spread=self.noniid_spread,
            separation=self.separation,
            sample_noise=self.sample_noise,
            l2_reg=self.l2_reg,
        )


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
    required_iterations: int | None = None
    min_upload_iterations: int = 0
    full_batch: bool = False

    def __post_init__(self) -> None:
        _at_least("n_clients", self.n_clients, 1)
        _at_least("batch_size", self.batch_size, 1)
        for k, size in enumerate(self.data_sizes):
            if not isinstance(size, GaussianFloorSize):
                _at_least(f"data_sizes[{k}]", size, 1)
        if not 0 < self.interval_length < np.inf:
            raise FieldError(f"interval_length: must be positive and finite, got {self.interval_length!r}")
        _at_least("overhead", self.overhead, 0)
        if self.required_iterations is not None:
            _at_least("required_iterations", self.required_iterations, 1)
        _at_least("min_upload_iterations", self.min_upload_iterations, 0)

    @property
    def n_clients(self) -> int:
        return len(self.processes)

    @property
    def mean_tau(self) -> np.ndarray:
        return np.array([p.mean for p in self.processes])

    def default_required_iterations(self) -> int:
        if self.required_iterations is not None:
            return self.required_iterations
        return max(1, int(round(self.mean_tau.max())))

    def latency_model(self) -> LatencyModel:
        # A client paces so that its mean iteration count fits one interval.
        spi = self.interval_length / np.maximum(self.mean_tau, 1e-9)
        return LatencyModel(
            seconds_per_iteration=spi,
            interval_length=self.interval_length,
            overhead=self.overhead,
        )

    def materialize(self, rng) -> tuple["object", list[ClientProfile]]:
        """Draw the data sizes, build the task, and assemble client profiles."""
        sizes = []
        for spec in self.data_sizes:
            if isinstance(spec, GaussianFloorSize):
                sizes.append(spec.draw(rng, minimum=self.batch_size))
            else:
                sizes.append(int(spec))
        task = self.task.build(self.n_clients, sizes, rng)
        profiles = [
            ClientProfile(
                id=i + 1,
                data_size=sizes[i],
                batch_size=min(self.batch_size, sizes[i]),
                compute_process=self.processes[i],
            )
            for i in range(self.n_clients)
        ]
        return task, profiles

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


def _equal_sizes(n_clients: int, data_size: int) -> list:
    _at_least("data_size", data_size, 1)
    return [data_size] * n_clients


def tiered(n_clients: int, tiers: list) -> list:
    """Assign ``tiers`` to clients in contiguous equal blocks, one per tier."""
    return [tiers[i * len(tiers) // n_clients] for i in range(n_clients)]


def case1(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Two static tiers: half the clients at 1 iteration, half at 4 (degree 2.25)."""
    processes = tiered(n_clients, [FixedIterations(1), FixedIterations(4)])
    return Scenario(
        name="case1",
        processes=processes,
        data_sizes=_equal_sizes(n_clients, data_size),
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


def case2(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Four static tiers at 1/2/3/4 iterations by quarters (degree 1.25)."""
    processes = tiered(
        n_clients,
        [FixedIterations(1), FixedIterations(2), FixedIterations(3), FixedIterations(4)],
    )
    return Scenario(
        name="case2",
        processes=processes,
        data_sizes=_equal_sizes(n_clients, data_size),
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


def case3(n_clients: int = 20, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Dynamic tiers: floored-Gaussian iteration counts and tiered data sizes."""
    processes = tiered(
        n_clients,
        [
            GaussianFloorIterations(2.0, 0.4),
            GaussianFloorIterations(3.0, 0.6),
            GaussianFloorIterations(4.0, 0.8),
            GaussianFloorIterations(5.0, 1.0),
        ],
    )
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
    return Scenario(
        name="case3",
        processes=processes,
        data_sizes=sizes,
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


def homogeneous(n_clients: int = 20, tau: int = 4, data_size: int = 1024, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Every client identical: fixed iteration count and equal data."""
    return Scenario(
        name="homogeneous",
        processes=[FixedIterations(tau)] * n_clients,
        data_sizes=_equal_sizes(n_clients, data_size),
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


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


def apply_client_selection(scenario: Scenario, min_iterations: int) -> Scenario:
    """Exclude uploads from clients below an iteration threshold.

    A threshold of zero leaves the scenario unchanged. Excluded clients are
    dropped before any weight computation; the server never sees them.
    """
    if min_iterations < 0:
        raise ValueError("min_iterations must be non-negative")
    if min_iterations == 0:
        return scenario
    return dataclasses.replace(scenario, min_upload_iterations=min_iterations)


def two_tier_speed_profile(delta: float, n_clients: int = 20, mean_tau: float = 2.5) -> np.ndarray:
    """Per-client mean iteration counts for a symmetric two-tier split of variance ``delta``.

    Half the clients run at mean_tau + sqrt(delta), half at mean_tau -
    sqrt(delta); delta=2.25 reproduces the case1 split. Used by the latency
    sweep, where fractional counts are fine because only speeds matter.
    """
    if delta < 0:
        raise ValueError(f"delta={delta:g} must be non-negative")
    spread = float(np.sqrt(delta))
    if spread >= mean_tau:
        raise ValueError(
            f"delta={delta:g} puts the slow tier at mean_tau - sqrt(delta) = "
            f"{mean_tau - spread:g}; it must stay positive"
        )
    half = n_clients // 2
    return np.array([mean_tau - spread] * half + [mean_tau + spread] * (n_clients - half))


def latency_table(
    deltas: list[float] = (0.0, 1.25, 2.25),
    rounds: int = 50,
    n_clients: int = 20,
    mean_tau: float = 2.5,
    interval_length: float = 1.0,
    overhead: float = 0.0,
    required_iterations: float | None = None,
) -> list[dict]:
    """Wall-clock totals of round-driven vs time-driven scheduling per
    heterogeneity degree.

    Each degree maps to a symmetric two-tier speed split around ``mean_tau``.
    The round-driven schedule requires the fast tier's per-interval count from
    every client unless overridden, so its round time is governed by the
    slowest client while the time-driven total stays fixed.
    """
    if rounds < 1:
        raise ValueError(f"rounds={rounds} must be at least 1")
    rows = []
    for delta in deltas:
        profile = two_tier_speed_profile(float(delta), n_clients=n_clients, mean_tau=mean_tau)
        model = LatencyModel(
            seconds_per_iteration=interval_length / profile,
            interval_length=interval_length,
            overhead=overhead,
        )
        required = float(profile.max()) if required_iterations is None else float(required_iterations)
        sfl_total = rounds * model.sync_round_seconds(required)
        tsfl_total = rounds * interval_length
        rows.append(
            {
                "delta": float(delta),
                "rounds": rounds,
                "required_iterations": required,
                "sfl_seconds": sfl_total,
                "tsfl_seconds": tsfl_total,
                "ratio": tsfl_total / sfl_total,
            }
        )
    return rows
