"""Run engines: time-driven intervals, round-driven sync, per-arrival async,
and buffered semi-async, all producing the same RunLog shape.

Determinism contract: a run is a pure function of (scenario, strategy,
constants, seed). The seed expands through a fixed spawn layout - one stream
for scenario materialization, one for server-side draws, and one pair
(iteration process, mini-batch sampling) per client - so clients may train in
any order, or in parallel, without changing the result.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from typing import Literal, get_args

import numpy as np

# ``bound_optimal_weights``, ``dms_weights``, ``iteration_spaced_weights`` and
# ``local_train`` are not called here; runs use the ``*_plan`` engines and
# ``train_clients``. Nor is ``IntervalRecord``: runners write whole columns.
# perfbench's tracer wraps these names on this module, so they must stay
# importable from it.
from .aggregation import (  # noqa: F401
    bound_optimal_weight_plan,
    bound_optimal_weights,
    dms_weight_plan,
    dms_weights,
    fedasync_update,
    fedavg_weights,
    iteration_spaced_weights,
    proportional_weight_plan,
    spaced_weight_plan,
)
from .analysis import estimate_dissimilarity
from .core import IntervalRecord, RunLog, SystemConstants, interval_records  # noqa: F401
from .scenarios import Scenario
from .training import draw_batches, estimate_constants, local_train, train_clients  # noqa: F401


class _RunSetup:
    """Materialized task, client profiles, rng streams, and resolved constants."""

    def __init__(self, scenario: Scenario, constants: SystemConstants, seed: int,
                 probe_count: int, equality_theta: bool):
        if probe_count < 0:
            raise ValueError(f"probe_count must be non-negative, got {probe_count}")
        root = np.random.SeedSequence(seed)
        scenario_ss, server_ss, tau_parent, batch_parent = root.spawn(4)
        self.scenario_rng = np.random.default_rng(scenario_ss)
        self.server_rng = np.random.default_rng(server_ss)
        self.tau_rngs = [np.random.default_rng(s) for s in tau_parent.spawn(scenario.n_clients)]
        self.batch_rngs = [np.random.default_rng(s) for s in batch_parent.spawn(scenario.n_clients)]

        self.scenario = scenario
        self.task, self.profiles = scenario.materialize(self.scenario_rng)
        self.latency = scenario.latency_model()
        self.w0 = self.scenario_rng.normal(size=self.task.dimension)

        sources = {"L": "configured", "G": "configured", "sigma": "configured"}
        sigma_i = np.zeros(scenario.n_clients)
        if probe_count > 0:
            est = estimate_constants(self.task, self.profiles, probe_count, self.scenario_rng)
            sigma_i = est.sigma_hat
            sigma_global = float(max(est.sigma_hat.max(), 0.0))
            constants = dataclasses.replace(
                constants,
                L=est.L_hat,
                G=max(est.G_hat, 1e-12),
                sigma_global=sigma_global,
            )
            sources = {"L": est.source["L"], "G": est.source["G"], "sigma": est.source["sigma"]}
        if equality_theta:
            constants = dataclasses.replace(constants, theta=None)
        self.constants = constants
        self.sources = sources
        self.sigma_i = sigma_i
        for profile, sigma in zip(self.profiles, sigma_i):
            profile.sigma_i = float(sigma)

        probes = [self.w0 + 0.5 * self.scenario_rng.normal(size=self.task.dimension)
                  for _ in range(probe_count)]
        v_hat = epsilon_hat = None
        if probes:
            try:
                v_hat, epsilon_hat = estimate_dissimilarity(self.task, probes)
            except ValueError:
                pass

        self.analysis_inputs = {
            "sigma_i": sigma_i.tolist(),
            "gamma_noniid": self.task.gamma_noniid.tolist(),
            "w_star": self.task.w_star.tolist(),
            "f_star": self.task.f_star,
            "w0": self.w0.tolist(),
            "v_hat": v_hat,
            "epsilon_hat": epsilon_hat,
        }

    def plan_batches(self, steps) -> None:
        """Plan the run's local steps before training: client i may take
        ``steps[i]`` of them. Its mini-batches for all of them are drawn now,
        in one ``draw_batches`` call, from its own stream, and each client's
        stream is reduced at once to what its SGD steps read
        (``task.reduce_batches``)."""
        self.planned = np.asarray(steps, dtype=int)
        self.used = np.zeros_like(self.planned)
        self.batches = None
        if not self.scenario.full_batch:
            self.batches = draw_batches(
                self.batch_rngs, [p.data_size for p in self.profiles],
                np.array([p.batch_size for p in self.profiles]), self.planned)
            # In place: each index stream is dropped as soon as it is reduced.
            for i, drawn in enumerate(self.batches):
                self.batches[i] = self.task.reduce_batches(i, drawn)

    def train(self, clients, starts, steps, interval: int, prox_center=None) -> np.ndarray:
        """Lock-step local SGD: client ``clients[i]`` takes ``steps[i]`` steps
        from ``starts[i]`` on its next ``steps[i]`` planned mini-batches. A
        client that asks for more steps than were planned raises."""
        clients, steps = np.asarray(clients, dtype=int), np.asarray(steps, dtype=int)
        first = self.used[clients]
        end = first + steps
        over = end > self.planned[clients]
        if over.any():
            raise RuntimeError(f"interval {interval}: clients {clients[over].tolist()} "
                               "ask for more local steps than were planned")
        self.used[clients] = end
        batches = None
        if self.batches is not None:
            batches = [self.batches[i][lo:hi] for i, lo, hi in
                       zip(clients.tolist(), first.tolist(), end.tolist())]
        return train_clients(
            self.task,
            clients,
            starts,
            steps,
            self.constants.eta,
            batches=batches,
            prox_center=prox_center,
            mu=self.constants.mu if prox_center is not None else 0.0,
            context=f"interval {interval}",
        )

    def new_log(self, strategy: str, seed: int) -> RunLog:
        return RunLog(
            scenario=self.scenario.describe(),
            seed=seed,
            strategy=strategy,
            constants=self.constants,
            records=interval_records(self.constants.T, self.scenario.n_clients, self.task.dimension),
            initial_model=self.w0.copy(),
            constants_source=self.sources,
            analysis_inputs=self.analysis_inputs,
        )

    def finish(self, log: RunLog, model: np.ndarray) -> RunLog:
        grad = self.task.global_grad(model)
        log.final_model = model.copy()
        log.final_loss = self.task.global_loss(model)
        log.final_grad_norm_sq = float(grad @ grad)
        log.validate()
        return log


# Strategy table. A weight rule plans a whole run before any training: it maps
# (setup, tau, eligible), the run's (T, n) iteration counts and upload mask, to
# the (T, n) weights rho and participation beta. The weights never read the
# model, so planning first changes no result. Rules and runner adapters look
# engines and runners up as module globals at call time, so rebinding one of
# those names (to trace it, say) reaches every strategy that uses it.


def _fedavg_plan(setup, tau, eligible):
    sizes = [p.data_size for p in setup.profiles]
    return proportional_weight_plan(sizes, eligible), eligible


def _theorem2_plan(setup, tau, eligible):
    rho = np.zeros(tau.shape)
    # A run where no upload reaches the server needs no solve, nor noise bounds.
    if eligible.any():
        r0 = float(np.sum((setup.w0 - setup.task.w_star) ** 2))
        rho = bound_optimal_weight_plan(tau, eligible, setup.constants, setup.sigma_i,
                                        setup.task.gamma_noniid, r0=r0)
    return rho, eligible


# The update rules of ``run_afl``; the config's ``runner.variant`` takes one.
AsyncVariant = Literal["footnote-mean", "arrival-blend"]


def _run_interval(scenario, strategy, constants, seed, **kwargs):
    return run_tsfl(scenario, strategy, constants, seed, **kwargs)


def _run_buffered(scenario, _, constants, seed, buffer_size=None, **kwargs):
    size = max(1, scenario.n_clients // 2) if buffer_size is None else buffer_size
    return run_semi_async(scenario, size, constants, seed, **kwargs)


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One strategy: ``run(scenario, name, constants, seed, **kwargs)``; the
    whole-run weight rule, for strategies run by ``run_tsfl``; the config
    ``runner`` keys it accepts, with the type each value is converted to; and
    whether local training adds the FedProx proximal term."""

    run: Callable[..., RunLog] = _run_interval
    weights: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None
    options: dict[str, object] = dataclasses.field(default_factory=dict)
    proximal: bool = False


STRATEGIES: dict[str, Strategy] = {
    "fedavg": Strategy(weights=_fedavg_plan),
    "fedprox": Strategy(weights=_fedavg_plan, proximal=True),
    "tsfl-uniform": Strategy(weights=lambda setup, tau, eligible: (
        proportional_weight_plan(1.0, eligible), eligible)),
    "tsfl-corollary1": Strategy(weights=lambda setup, tau, eligible: (
        spaced_weight_plan(tau, eligible, setup.constants)[0], eligible)),
    "tsfl-theorem2": Strategy(weights=_theorem2_plan),
    # The filter draw consumes the server stream every interval, in interval
    # order, even where nobody is eligible.
    "tsfl-dms": Strategy(weights=lambda setup, tau, eligible: dms_weight_plan(
        tau, eligible, setup.constants, setup.server_rng)[:2]),
    "fedasync": Strategy(
        lambda scenario, _, constants, seed, **kwargs: run_afl(scenario, constants, seed, **kwargs),
        options={"variant": AsyncVariant, "local_iterations": int}),
    "semiasync": Strategy(_run_buffered, options={"buffer_size": int, "local_iterations": int}),
    "sfl": Strategy(
        lambda scenario, _, constants, seed, **kwargs: run_sfl(scenario, constants, seed, **kwargs),
        options={"required_iterations": int}),
}
INTERVAL_STRATEGIES = tuple(name for name, spec in STRATEGIES.items() if spec.weights)
ALL_STRATEGIES = tuple(STRATEGIES)


def _run_plan(setup: _RunSetup, strategy: str, seed: int, tau, beta, rho, clock,
              proximal: bool = False) -> RunLog:
    """Train a planned run: in interval t every client takes ``tau[t]`` local
    steps from the current global model, then the local models are combined
    under ``rho[t]``. An interval where every weight is zero carries the
    model over and is marked non-aggregated. ``beta`` and ``clock`` (the wall
    clock at each interval's end) are recorded as given.
    """
    # A strided row of rho (a plan built from a transposed tau, say) would
    # round its product with the local models differently.
    rho = np.ascontiguousarray(rho)
    log = setup.new_log(strategy, seed)
    records = log.records
    aggregated = (rho > 0.0).any(axis=1)
    records.t = np.arange(len(tau))
    records.tau, records.beta, records.rho, records.aggregated = tau, beta, rho, aggregated
    records.wall_clock = clock

    setup.plan_batches(tau.sum(axis=0))
    # Columns looked up once: a recarray attribute lookup per interval costs
    # more than the arithmetic of a small task.
    losses, grad_norms, models = records.global_loss, records.global_grad_norm_sq, records.model
    clients = np.arange(setup.scenario.n_clients)
    w = setup.w0.copy()
    for t in range(len(tau)):
        grad = setup.task.global_grad(w)
        losses[t] = setup.task.global_loss(w)
        grad_norms[t] = grad @ grad
        local_models = setup.train(clients, w, tau[t], t, prox_center=w if proximal else None)
        if aggregated[t]:
            # RunLog.validate checks every row's weights once the run is over,
            # and train_clients has checked that the local models are finite.
            w = rho[t] @ local_models
        models[t] = w
    return setup.finish(log, w)


def run_tsfl(
    scenario: Scenario,
    strategy: str,
    constants: SystemConstants,
    seed: int,
    probe_count: int = 0,
    equality_theta: bool = False,
) -> RunLog:
    """Time-driven run, planned before it is trained: draw every interval's
    iteration counts, weigh the whole run with the strategy's rule, then train
    interval by interval from the current global model and aggregate.

    Clients drawing zero iterations contribute the unchanged global model
    under their normal weight; discriminative selection is what removes them.
    When every client is filtered the model is carried over and the record is
    marked non-aggregated. Wall clock advances by exactly one interval length
    per interval.
    """
    spec = STRATEGIES.get(strategy)
    if spec is None or spec.weights is None:
        raise ValueError(f"{strategy!r} is not an interval strategy")
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta)
    T = setup.constants.T
    # Each client draws its own T counts from its own stream, so drawing them
    # client by client yields the values of the interval-by-interval order.
    # The transpose is copied, so the plans read contiguous rows.
    tau = np.ascontiguousarray(np.array(
        [p.compute_process.draw(rng, size=T) for p, rng in zip(setup.profiles, setup.tau_rngs)],
        dtype=int,
    ).T)
    eligible = tau >= scenario.min_upload_iterations
    rho, beta = spec.weights(setup, tau, eligible)
    clock = np.arange(1, T + 1) * scenario.interval_length
    return _run_plan(setup, strategy, seed, tau, beta, rho, clock, spec.proximal)


def run_sfl(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    required_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
) -> RunLog:
    """Round-driven run: every client performs the same fixed iteration count,
    data-size weighting aggregates, and each round's wall clock is dominated
    by the slowest client.
    """
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta)
    T = setup.constants.T
    required = (
        scenario.default_required_iterations()
        if required_iterations is None
        else int(required_iterations)
    )
    if required < 1:
        raise ValueError("required_iterations must be >= 1")
    n = scenario.n_clients
    rho = np.tile(fedavg_weights([p.data_size for p in setup.profiles]).rho, (T, 1))
    # cumsum adds in sequence: the same bits as a clock advanced round by round.
    clock = np.cumsum(np.full(T, setup.latency.sync_round_seconds(required)))
    return _run_plan(setup, "sfl", seed, np.full((T, n), required), np.ones((T, n), dtype=int),
                     rho, clock)


def _arrivals(cycles, horizon: float) -> tuple[np.ndarray, np.ndarray]:
    """Every upload by ``horizon`` in processing order, by time, then by
    client: client i uploads at ``a * cycles[i]`` for a = 1, 2, ... .
    ``horizon // cycle`` only sizes the candidate range; the ``<=`` test on
    the float product decides which arrivals fall inside it."""
    cycles = np.asarray(cycles, dtype=float)
    # A product may round down onto the horizon: the range runs past it.
    counts = (horizon // cycles).astype(int) + 2
    clients = np.repeat(np.arange(len(cycles)), counts)
    times = np.concatenate([np.arange(1, c + 1) for c in counts.tolist()]) * cycles[clients]
    keep = times <= horizon
    times, clients = times[keep], clients[keep]
    order = np.lexsort((clients, times))
    return times[order], clients[order]


def _event_run(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    strategy: str,
    upload,
    local_iterations: int | None,
    probe_count: int,
    equality_theta: bool,
) -> RunLog:
    """Train a per-arrival run. Client i uploads after ``k`` local steps, so
    every ``k * seconds_per_iteration[i]`` seconds; the arrival times never
    read the model, so the whole schedule is planned first. Arrivals sharing
    a timestamp train as one group, in client order, each from the global
    model it downloaded after its previous upload. ``upload(w, clients,
    models)`` returns the new global model, or None when it is unchanged.
    Records are emitted at interval boundaries, for comparability with the
    interval runners.
    """
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta)
    k = scenario.default_required_iterations() if local_iterations is None else int(local_iterations)
    if k < 1:
        raise ValueError("local_iterations must be >= 1")
    T, n = setup.constants.T, scenario.n_clients
    boundaries = np.arange(1, T + 1) * scenario.interval_length
    times, clients = _arrivals(k * setup.latency.seconds_per_iteration, boundaries[-1])
    setup.plan_batches(k * np.bincount(clients, minlength=n))
    # An arrival exactly on a boundary closes that interval.
    intervals = np.searchsorted(boundaries, times)

    log = setup.new_log(strategy, seed)
    records = log.records
    records.t = np.arange(T)
    records.wall_clock = boundaries
    # tau holds the iterations trained in each interval. The uploads are
    # weighed outside the interval rows, so beta and rho stay zero.
    np.add.at(records.tau, (intervals, clients), k)

    # Arrivals sharing a timestamp form one group; interval t trains groups
    # first[t] to first[t + 1].
    starts = np.flatnonzero(np.diff(times, prepend=-np.inf))
    groups = np.split(clients, starts[1:])
    first = np.searchsorted(intervals[starts], np.arange(T + 1))
    losses, grad_norms, models = records.global_loss, records.global_grad_norm_sq, records.model
    aggregated = records.aggregated
    basis = np.tile(setup.w0, (n, 1))
    w = setup.w0.copy()
    for t in range(T):
        grad = setup.task.global_grad(w)
        losses[t] = setup.task.global_loss(w)
        grad_norms[t] = grad @ grad
        for ids in groups[first[t]:first[t + 1]]:
            new = upload(w, ids, setup.train(ids, basis[ids], np.full(len(ids), k), t))
            if new is not None:
                w, aggregated[t] = new, True
            basis[ids] = w
        models[t] = w
    return setup.finish(log, w)


def run_afl(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    variant: AsyncVariant = "footnote-mean",
    local_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
) -> RunLog:
    """Per-arrival asynchronous run with the depreciated blend update.

    ``footnote-mean`` blends the previous global model with the mean of every
    client's latest model on each arrival; ``arrival-blend`` blends with the
    arriving model alone. A client always trains from the global model it
    received after its previous upload, which is where staleness comes from.
    """
    if variant not in get_args(AsyncVariant):
        raise ValueError(f"unknown asynchronous variant {variant!r}")
    latest = None

    def upload(w, clients, models):
        nonlocal latest
        if latest is None:
            # Slots start at the initial global model, which is still current
            # on the first arrival.
            latest = np.tile(w, (scenario.n_clients, 1))
        for i, model in zip(clients, models):
            latest[i] = model
            w = fedasync_update(w, latest if variant == "footnote-mean" else model[None], constants.gamma)
        return w

    return _event_run(
        scenario, constants, seed, "fedasync", upload,
        local_iterations, probe_count, equality_theta,
    )


def run_semi_async(
    scenario: Scenario,
    buffer_size: int,
    constants: SystemConstants,
    seed: int,
    local_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
) -> RunLog:
    """Buffered semi-asynchronous run.

    Arrivals accumulate in a buffer; every time it holds ``buffer_size``
    models they are averaged uniformly into the global model, oldest first.
    Uploaders download the post-flush global model before starting their next
    cycle. buffer_size=1 reproduces the per-arrival update order; a full
    buffer with homogeneous clients reproduces the round-driven trajectory.
    """
    if not 1 <= buffer_size <= scenario.n_clients:
        raise ValueError("buffer_size must lie in [1, n_clients]")
    buffer: list[np.ndarray] = []

    def upload(w, clients, models):
        buffer.extend(models)
        new = None
        while len(buffer) >= buffer_size:
            new = np.mean(buffer[:buffer_size], axis=0)
            del buffer[:buffer_size]
        return new

    return _event_run(
        scenario, constants, seed, "semiasync", upload,
        local_iterations, probe_count, equality_theta,
    )


def run_strategy(
    scenario: Scenario,
    strategy: str,
    constants: SystemConstants,
    seed: int,
    **kwargs,
) -> RunLog:
    """Run a strategy by name; ``kwargs`` go to its runner."""
    try:
        spec = STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {ALL_STRATEGIES}") from None
    return spec.run(scenario, strategy, constants, seed, **kwargs)


def participation_frequency(log: RunLog) -> np.ndarray | None:
    """Fraction of intervals each client's model entered the aggregation, or
    None when the log does not record participation (the event runners)."""
    if not log.intervals:
        raise ValueError("log has no records")
    return log.records.beta.mean(axis=0) if log.participation_recorded else None
