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


@dataclass(frozen=True)
class FixedIterations:
    """Constant per-interval iteration count; never consumes randomness."""

    tau: int

    def draw(self, rng, size: int | None = None):
        """One count, or ``size`` of them as an int array."""
        return self.tau if size is None else np.full(size, self.tau)

    @property
    def mean(self) -> float:
        return float(self.tau)


@dataclass(frozen=True)
class GaussianFloorIterations:
    """Per-interval count floor(N(mean, std)), clipped at zero."""

    mean_value: float
    std: float

    def draw(self, rng, size: int | None = None):
        """One count, or ``size`` of them as an int array: the same values, and
        the same rng state, as ``size`` successive single draws."""
        if size is None:
            return max(0, int(np.floor(rng.normal(self.mean_value, self.std))))
        return np.maximum(np.floor(rng.normal(self.mean_value, self.std, size=size)), 0).astype(int)

    @property
    def mean(self) -> float:
        return float(self.mean_value)


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
        if self.kind == "logistic":
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
        raise ValueError(f"unknown task kind {self.kind!r}")


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


def _tiered(n_clients: int, tiers: list, pieces: int) -> list:
    """Assign ``tiers`` to clients in ``pieces`` contiguous equal blocks."""
    if len(tiers) != pieces:
        raise ValueError("one tier spec per piece required")
    out = []
    for i in range(n_clients):
        out.append(tiers[min(i * pieces // n_clients, pieces - 1)])
    return out


def case1(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Two static tiers: half the clients at 1 iteration, half at 4 (degree 2.25)."""
    processes = _tiered(n_clients, [FixedIterations(1), FixedIterations(4)], 2)
    return Scenario(
        name="case1",
        processes=processes,
        data_sizes=[data_size] * n_clients,
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


def case2(n_clients: int = 20, data_size: int = 1024, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Four static tiers at 1/2/3/4 iterations by quarters (degree 1.25)."""
    processes = _tiered(
        n_clients,
        [FixedIterations(1), FixedIterations(2), FixedIterations(3), FixedIterations(4)],
        4,
    )
    return Scenario(
        name="case2",
        processes=processes,
        data_sizes=[data_size] * n_clients,
        batch_size=batch_size,
        task=TaskSpec(**task_kwargs),
    )


def case3(n_clients: int = 20, batch_size: int = 32, **task_kwargs) -> Scenario:
    """Dynamic tiers: floored-Gaussian iteration counts and tiered data sizes."""
    processes = _tiered(
        n_clients,
        [
            GaussianFloorIterations(2.0, 0.4),
            GaussianFloorIterations(3.0, 0.6),
            GaussianFloorIterations(4.0, 0.8),
            GaussianFloorIterations(5.0, 1.0),
        ],
        4,
    )
    sizes = _tiered(
        n_clients,
        [
            GaussianFloorSize(512.0, 100.0),
            GaussianFloorSize(768.0, 150.0),
            GaussianFloorSize(1024.0, 200.0),
            GaussianFloorSize(1280.0, 250.0),
            GaussianFloorSize(1536.0, 300.0),
        ],
        5,
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
        data_sizes=[data_size] * n_clients,
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
