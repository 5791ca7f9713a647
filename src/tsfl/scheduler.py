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
import heapq
from collections.abc import Callable

import numpy as np

from .aggregation import (
    WeightAssignment,
    aggregate,
    bound_optimal_weights,
    dms_weights,
    fedasync_update,
    fedavg_weights,
    iteration_spaced_weights,
    uniform_weights,
)
from .analysis import estimate_dissimilarity
from .core import IntervalRecord, RunLog, SystemConstants, interval_records
from .scenarios import Scenario
from .training import estimate_constants, local_train


class _RunSetup:
    """Materialized task, client profiles, rng streams, and resolved constants."""

    def __init__(self, scenario: Scenario, constants: SystemConstants, seed: int,
                 probe_count: int, equality_theta: bool, w0):
        root = np.random.SeedSequence(seed)
        scenario_ss, server_ss, tau_parent, batch_parent = root.spawn(4)
        self.scenario_rng = np.random.default_rng(scenario_ss)
        self.server_rng = np.random.default_rng(server_ss)
        self.tau_rngs = [np.random.default_rng(s) for s in tau_parent.spawn(scenario.n_clients)]
        self.batch_rngs = [np.random.default_rng(s) for s in batch_parent.spawn(scenario.n_clients)]

        self.scenario = scenario
        self.task, self.profiles = scenario.materialize(self.scenario_rng)
        self.latency = scenario.latency_model()
        self.w0 = (
            self.scenario_rng.normal(size=self.task.dimension)
            if w0 is None
            else np.asarray(w0, dtype=float).copy()
        )

        sources = {"L": "configured", "G": "configured", "sigma": "configured"}
        sigma_i = np.zeros(scenario.n_clients)
        if probe_count > 0:
            est = estimate_constants(self.task, self.profiles, probe_count, self.scenario_rng)
            smooth = self.task.smoothness if self.task.kind == "quadratic" else est.L_hat
            sigma_i = est.sigma_hat
            sigma_global = float(max(est.sigma_hat.max(), 0.0))
            constants = dataclasses.replace(
                constants,
                L=smooth,
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
                  for _ in range(max(probe_count, 0))]
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

    def train(self, client: int, start: np.ndarray, steps: int, prox_center=None) -> np.ndarray:
        profile = self.profiles[client]
        return local_train(
            self.task,
            client,
            start,
            steps,
            self.constants.eta,
            rng=self.batch_rngs[client],
            batch_size=None if self.scenario.full_batch else profile.batch_size,
            prox_center=prox_center,
            mu=self.constants.mu if prox_center is not None else 0.0,
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


# Strategy table. A weight rule maps (setup, tau, eligible, tau_history,
# beta_history), the log's columns up to and including the current interval,
# to the interval's WeightAssignment. Rules and runner adapters look engines and
# runners up as module globals at call time, so rebinding one of those names
# (to trace it, say) reaches every strategy that uses it.


def _needs_eligible(rule):
    """All-zero weights, without calling ``rule``, when no upload reached the server."""
    return lambda setup, tau, eligible, *history: (
        rule(setup, tau, eligible, *history) if eligible.any()
        else WeightAssignment(rho=np.zeros(tau.size), method="none")
    )


def _fedavg_rule(setup, tau, eligible, *_):
    sizes = np.array([p.data_size for p in setup.profiles], dtype=float)
    rho = np.zeros(tau.size)
    rho[eligible] = fedavg_weights(sizes[eligible]).rho
    return WeightAssignment(rho=rho, method="fedavg")


def _theorem2_rule(setup, tau, eligible, tau_history, beta_history):
    r0 = float(np.sum((setup.w0 - setup.task.w_star) ** 2))
    return bound_optimal_weights(tau_history, setup.constants, setup.sigma_i,
                                 setup.task.gamma_noniid, beta_history=beta_history, r0=r0)


def _run_interval(scenario, strategy, constants, seed, **kwargs):
    return run_tsfl(scenario, strategy, constants, seed, **kwargs)


def _run_buffered(scenario, _, constants, seed, buffer_size=None, **kwargs):
    size = max(1, scenario.n_clients // 2) if buffer_size is None else buffer_size
    return run_semi_async(scenario, size, constants, seed, **kwargs)


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One strategy: ``run(scenario, name, constants, seed, **kwargs)``; the
    interval weight rule, for strategies run by ``run_tsfl``; the config
    ``runner`` keys it accepts, with the type each value is converted to; and
    whether local training adds the FedProx proximal term."""

    run: Callable[..., RunLog] = _run_interval
    weights: Callable[..., WeightAssignment] | None = None
    options: dict[str, type] = dataclasses.field(default_factory=dict)
    proximal: bool = False


STRATEGIES: dict[str, Strategy] = {
    "fedavg": Strategy(weights=_needs_eligible(_fedavg_rule)),
    "fedprox": Strategy(weights=_needs_eligible(_fedavg_rule), proximal=True),
    "tsfl-uniform": Strategy(weights=_needs_eligible(
        lambda setup, tau, eligible, *_: uniform_weights(eligible))),
    "tsfl-corollary1": Strategy(weights=_needs_eligible(
        lambda setup, tau, eligible, *_: iteration_spaced_weights(tau, eligible, setup.constants))),
    "tsfl-theorem2": Strategy(weights=_needs_eligible(_theorem2_rule)),
    # Weighed even with nobody eligible: the filter draw consumes the server
    # stream every interval.
    "tsfl-dms": Strategy(weights=lambda setup, tau, eligible, *_: dms_weights(
        tau, setup.constants, setup.server_rng, eligible=eligible)),
    "fedasync": Strategy(
        lambda scenario, _, constants, seed, **kwargs: run_afl(scenario, constants, seed, **kwargs),
        options={"variant": str, "local_iterations": int}),
    "semiasync": Strategy(_run_buffered, options={"buffer_size": int, "local_iterations": int}),
    "sfl": Strategy(
        lambda scenario, _, constants, seed, **kwargs: run_sfl(scenario, constants, seed, **kwargs),
        options={"required_iterations": int}),
}
INTERVAL_STRATEGIES = tuple(name for name, spec in STRATEGIES.items() if spec.weights)
ALL_STRATEGIES = tuple(STRATEGIES)


def run_tsfl(
    scenario: Scenario,
    strategy: str,
    constants: SystemConstants,
    seed: int,
    probe_count: int = 0,
    equality_theta: bool = False,
    w0=None,
) -> RunLog:
    """Time-driven run: every interval, draw iteration counts, train locally
    from the current global model, weight, and aggregate.

    Clients drawing zero iterations contribute the unchanged global model
    under their normal weight; discriminative selection is what removes them.
    When every client is filtered the model is carried over and the record is
    marked non-aggregated. Wall clock advances by exactly one interval length
    per interval.
    """
    spec = STRATEGIES.get(strategy)
    if spec is None or spec.weights is None:
        raise ValueError(f"{strategy!r} is not an interval strategy")
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta, w0)
    c = setup.constants
    n, d = scenario.n_clients, setup.task.dimension
    log = setup.new_log(strategy, seed)
    records = log.records
    w = setup.w0.copy()

    for t in range(c.T):
        tau = np.array(
            [p.compute_process.draw(setup.tau_rngs[i]) for i, p in enumerate(setup.profiles)],
            dtype=int,
        )
        loss = setup.task.global_loss(w)
        grad = setup.task.global_grad(w)
        eligible = tau >= scenario.min_upload_iterations
        records.tau[t] = tau
        records.beta[t] = eligible

        assignment = spec.weights(setup, tau, eligible, records.tau[: t + 1], records.beta[: t + 1])
        beta = eligible.astype(int) if assignment.participation is None else assignment.participation

        prox_center = w.copy() if spec.proximal else None
        local_models = np.empty((n, d))
        for i in range(n):
            if tau[i] == 0:
                local_models[i] = w
            else:
                local_models[i] = setup.train(i, w, int(tau[i]), prox_center=prox_center)

        aggregated = assignment.any_participant
        if aggregated:
            w = aggregate(local_models, assignment)

        records[t] = IntervalRecord(
            t=t,
            tau=tau,
            beta=beta,
            rho=assignment.rho,
            global_loss=loss,
            global_grad_norm_sq=float(grad @ grad),
            wall_clock=(t + 1) * scenario.interval_length,
            aggregated=aggregated,
            model=w,
        )

    return setup.finish(log, w)


def run_sfl(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    required_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
    w0=None,
) -> RunLog:
    """Round-driven run: every client performs the same fixed iteration count,
    data-size weighting aggregates, and each round's wall clock is dominated
    by the slowest client.
    """
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta, w0)
    c = setup.constants
    required = (
        scenario.default_required_iterations()
        if required_iterations is None
        else int(required_iterations)
    )
    if required < 1:
        raise ValueError("required_iterations must be >= 1")
    n, d = scenario.n_clients, setup.task.dimension
    sizes = [p.data_size for p in setup.profiles]
    assignment = fedavg_weights(sizes)
    round_seconds = setup.latency.sync_round_seconds(required)

    log = setup.new_log("sfl", seed)
    w = setup.w0.copy()
    clock = 0.0
    for t in range(c.T):
        loss = setup.task.global_loss(w)
        grad = setup.task.global_grad(w)
        local_models = np.empty((n, d))
        for i in range(n):
            local_models[i] = setup.train(i, w, required)
        w = aggregate(local_models, assignment)
        clock += round_seconds
        log.records[t] = IntervalRecord(
            t=t,
            tau=np.full(n, required),
            beta=np.ones(n, dtype=int),
            rho=assignment.rho,
            global_loss=loss,
            global_grad_norm_sq=float(grad @ grad),
            wall_clock=clock,
            model=w,
        )
    return setup.finish(log, w)


class _EventLoop:
    """Shared machinery for the per-arrival runners.

    Clients upload after a fixed iteration count; a client's cycle duration is
    that count times its per-iteration seconds, so faster clients arrive more
    often. All events sharing a timestamp are processed as one batch in client
    order, and records are emitted at interval boundaries for comparability
    with the interval runners.
    """

    def __init__(self, setup: _RunSetup, local_iterations: int | None):
        self.setup = setup
        scenario = setup.scenario
        self.k = (
            scenario.default_required_iterations()
            if local_iterations is None
            else int(local_iterations)
        )
        if self.k < 1:
            raise ValueError("local_iterations must be >= 1")
        spi = setup.latency.seconds_per_iteration
        self.cycles = self.k * spi
        self.arrival_counts = np.zeros(scenario.n_clients, dtype=int)
        self.heap = [(float(self.cycles[i]), i) for i in range(scenario.n_clients)]
        heapq.heapify(self.heap)
        self.basis = [setup.w0.copy() for _ in range(scenario.n_clients)]

    def pop_batch(self, horizon: float):
        """All clients arriving at the earliest pending timestamp <= horizon."""
        if not self.heap or self.heap[0][0] > horizon:
            return None
        time = self.heap[0][0]
        clients = []
        while self.heap and self.heap[0][0] == time:
            clients.append(heapq.heappop(self.heap)[1])
        return time, clients

    def reschedule(self, client: int, current_global: np.ndarray) -> None:
        self.basis[client] = current_global.copy()
        self.arrival_counts[client] += 1
        next_time = float((self.arrival_counts[client] + 1) * self.cycles[client])
        heapq.heappush(self.heap, (next_time, client))


def _event_run(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    strategy: str,
    apply_uploads,
    local_iterations: int | None,
    probe_count: int,
    equality_theta: bool,
    w0,
) -> RunLog:
    setup = _RunSetup(scenario, constants, seed, probe_count, equality_theta, w0)
    c = setup.constants
    loop = _EventLoop(setup, local_iterations)
    log = setup.new_log(strategy, seed)
    records = log.records
    state = {"global": setup.w0.copy()}

    for t in range(c.T):
        loss = setup.task.global_loss(state["global"])
        grad = setup.task.global_grad(state["global"])
        boundary = (t + 1) * scenario.interval_length
        updated = False
        while True:
            batch = loop.pop_batch(boundary)
            if batch is None:
                break
            _, clients = batch
            models = {}
            for i in clients:
                models[i] = setup.train(i, loop.basis[i], loop.k)
                records.tau[t, i] += loop.k
            updated = apply_uploads(state, clients, models) or updated
            for i in clients:
                loop.reschedule(i, state["global"])
        # tau holds the iterations trained in this interval. The uploads are
        # weighed outside the interval rows, so beta and rho stay zero.
        records[t] = IntervalRecord(
            t=t,
            tau=records.tau[t],
            beta=0,
            rho=0.0,
            global_loss=loss,
            global_grad_norm_sq=float(grad @ grad),
            wall_clock=boundary,
            aggregated=updated,
            model=state["global"],
        )
    return setup.finish(log, state["global"])


def run_afl(
    scenario: Scenario,
    constants: SystemConstants,
    seed: int,
    variant: str = "footnote-mean",
    local_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
    w0=None,
) -> RunLog:
    """Per-arrival asynchronous run with the depreciated blend update.

    ``footnote-mean`` blends the previous global model with the mean of every
    client's latest model on each arrival; ``arrival-blend`` blends with the
    arriving model alone. A client always trains from the global model it
    received after its previous upload, which is where staleness comes from.
    """
    if variant not in ("footnote-mean", "arrival-blend"):
        raise ValueError(f"unknown asynchronous variant {variant!r}")
    latest: list[np.ndarray] = []

    def apply_uploads(state, clients, models) -> bool:
        if not latest:
            # Slots start at the initial global model, which is still current
            # on the first arrival.
            latest.extend(state["global"].copy() for _ in range(scenario.n_clients))
        for i in clients:
            latest[i] = models[i]
            if variant == "footnote-mean":
                state["global"] = fedasync_update(state["global"], latest, constants.gamma)
            else:
                state["global"] = fedasync_update(state["global"], [models[i]], constants.gamma)
        return bool(clients)

    return _event_run(
        scenario, constants, seed, "fedasync", apply_uploads,
        local_iterations, probe_count, equality_theta, w0,
    )


def run_semi_async(
    scenario: Scenario,
    buffer_size: int,
    constants: SystemConstants,
    seed: int,
    local_iterations: int | None = None,
    probe_count: int = 0,
    equality_theta: bool = False,
    w0=None,
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

    def apply_uploads(state, clients, models) -> bool:
        updated = False
        for i in clients:
            buffer.append(models[i])
        while len(buffer) >= buffer_size:
            chunk = buffer[:buffer_size]
            del buffer[:buffer_size]
            state["global"] = np.mean(chunk, axis=0)
            updated = True
        return updated

    return _event_run(
        scenario, constants, seed, "semiasync", apply_uploads,
        local_iterations, probe_count, equality_theta, w0,
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
