"""Run engines: time-driven intervals, round-driven sync, per-arrival async,
and buffered semi-async. Each plans its whole upload schedule first, and one
loop (``_train``) trains every run into the same RunLog shape.

Determinism contract: a run is a pure function of (scenario, strategy,
constants, seed). Each stream of a seed is named by its spawn key,
``SeedSequence(seed, spawn_key=key)``: ``(0,)`` materializes the scenario,
``(1,)`` makes the server-side draws, and client i draws its iteration
process from ``(2, i)`` and its mini-batches from ``(3, i)`` (as
``SeedSequence(seed).spawn(4)[k].spawn(n)[i]`` would), so clients may train
in any order, or in parallel, without changing the result. Only stream 0
builds a ``RunSetup``, which every run of the same (scenario, seed,
constants, probe count) may share; a run (``_Run``) builds the others, so it
draws on a shared setup exactly what it draws on its own.
"""

from __future__ import annotations

import copy
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
from .scenarios import Scenario, round_seconds
from .training import draw_batches, estimate_constants, local_train, train_clients  # noqa: F401


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of the seed's stream with the spawn key ``key``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


class RunSetup:
    """What every run of one (scenario, seed, constants, probe count) shares,
    all drawn from the seed's scenario stream, so it reads no strategy: the
    materialized task, client data and batch sizes, ``w0``, and the
    resolved constants; ``equality_theta`` moves theta to the run's L."""

    def __init__(self, scenario: Scenario, constants: SystemConstants, seed: int,
                 probe_count: int, equality_theta: bool):
        if probe_count < 0:
            raise ValueError(f"probe_count must be non-negative, got {probe_count}")
        self.scenario, self.seed = scenario, seed
        rng = _stream(seed, 0)
        self.task = scenario.materialize(rng)
        self.sizes = np.array([self.task.data_size(i) for i in range(scenario.n_clients)])
        self.batch = np.minimum(scenario.batch_size, self.sizes)
        self.w0 = rng.normal(size=self.task.dimension)

        # Every analysis constant is resolved here, once: N is the scenario's
        # client count, and probes replace L, G, sigma_global, V and epsilon.
        # Without probes, a client that samples (a mini-batch run whose batch
        # is smaller than its data) has the noise bound sigma_global, and any
        # other client has none.
        resolved = {"N": scenario.n_clients}
        self.sources = dict.fromkeys(("L", "G", "sigma", "V", "epsilon"), "configured")
        samples = (self.batch < self.sizes) & (not scenario.full_batch)
        self.sigma_i = np.where(samples, constants.sigma_global, 0.0)
        if probe_count > 0:
            est = estimate_constants(self.task, self.batch, probe_count, rng)
            self.sigma_i = est.sigma_hat
            resolved.update(L=est.L_hat, G=max(est.G_hat, 1e-12), sigma_global=float(max(est.sigma_hat.max(), 0.0)))
            self.sources.update(est.source)

        probes = [self.w0 + 0.5 * rng.normal(size=self.task.dimension) for _ in range(probe_count)]
        v_hat = epsilon_hat = None
        if probes:
            try:
                v_hat, epsilon_hat = estimate_dissimilarity(self.task, probes)
            except ValueError:
                pass
        if v_hat is not None and epsilon_hat > 0:
            resolved.update(V=max(v_hat, 1.0), epsilon=epsilon_hat)
            self.sources.update(V="probed", epsilon="probed")
        if equality_theta:
            resolved["theta"] = None  # the equality point of the run's L
        self.constants = dataclasses.replace(constants, **resolved)
        self.analysis_inputs = {
            "sigma_i": self.sigma_i.tolist(),
            "gamma_noniid": self.task.gamma_noniid.tolist(),
            "w_star": self.task.w_star.tolist(),
            "f_star": self.task.f_star,
            "v_hat": v_hat,
            "epsilon_hat": epsilon_hat,
        }

    def new_log(self, strategy: str, clock) -> RunLog:
        """An empty log of a run on this setup, its rows numbered and closed
        at the wall clock times ``clock``, with its own copies of its dicts."""
        log = RunLog(
            scenario=self.scenario.describe(),
            seed=self.seed,
            strategy=strategy,
            constants=self.constants,
            records=interval_records(self.constants.T, self.scenario.n_clients, self.task.dimension),
            initial_model=self.w0.copy(),
            constants_source=dict(self.sources),
            analysis_inputs=copy.deepcopy(self.analysis_inputs),
        )
        log.records.t = np.arange(self.constants.T)
        log.records.wall_clock = clock
        return log


class _Run:
    """One run on a setup: the seed's server, iteration and batch streams,
    and, once planned, its window's mini-batch steps, one stream per batch size."""

    def __init__(self, setup: RunSetup):
        self.setup = setup
        n = setup.scenario.n_clients
        self.server_rng = _stream(setup.seed, 1)
        self.tau_rngs = [_stream(setup.seed, 2, i) for i in range(n)]
        self.batch_rngs = [_stream(setup.seed, 3, i) for i in range(n)]

    def plan_batches(self, steps) -> None:
        """Plan the next window's local steps: client i may take ``steps[i]`` of
        them. Their mini-batches are drawn now, in one ``draw_batches`` call,
        each from its client's stream where the last window left it. Each batch
        size has one stream: its clients' draws concatenated in client order
        and reduced in one ``task.reduce_batches`` call to what the SGD steps
        read. Client i's steps are rows ``offset[i]`` on of
        ``streams[setup.batch[i]]``. A full-batch run plans no stream."""
        setup = self.setup
        self.planned = np.asarray(steps, dtype=int)
        self.used, self.offset = np.zeros_like(self.planned), np.zeros_like(self.planned)
        self.streams = {}
        if setup.scenario.full_batch:
            return
        drawn = draw_batches(self.batch_rngs, setup.sizes, setup.batch, self.planned)
        for b in set(setup.batch.tolist()):
            members = np.flatnonzero(setup.batch == b)
            counts = self.planned[members]
            self.offset[members] = np.cumsum(counts) - counts
            self.streams[b] = setup.task.reduce_batches(np.repeat(members, counts),
                                                        np.concatenate([drawn[i] for i in members]))

    def train(self, clients, starts, steps, interval: int, prox_center=None) -> np.ndarray:
        """Lock-step local SGD: client ``clients[i]`` takes ``steps[i]`` steps
        from ``starts[i]`` on its next ``steps[i]`` planned mini-batches, one
        ``train_clients`` call per batch size, in full-batch runs too; no
        row's arithmetic reads another's. A client that asks for more steps
        than were planned raises, and so does a local model that is not
        finite, naming every diverged client of the group."""
        task, c = self.setup.task, self.setup.constants
        clients, steps = np.asarray(clients, dtype=int), np.asarray(steps, dtype=int)
        used = self.used.take(clients)
        end = used + steps
        over = end > self.planned.take(clients)
        if over.any():
            raise RuntimeError(f"interval {interval}: clients {clients[over].tolist()} "
                               "ask for more local steps than were planned")
        self.used[clients] = end
        first = self.offset.take(clients) + used
        batch = self.setup.batch.take(clients)
        starts = np.asarray(starts, dtype=float)
        out = np.empty((len(clients), task.dimension))
        sizes = set(batch.tolist())
        for b in sizes:
            # A group of one batch size reads its rows as views.
            rows = slice(None) if len(sizes) == 1 else np.flatnonzero(batch == b)
            out[rows] = train_clients(task, clients[rows], starts[rows], steps[rows], c.eta,
                                      stream=self.streams.get(b), first=first[rows],
                                      prox_center=prox_center, mu=c.mu)
        if not np.isfinite(out).all():
            diverged = sorted(clients[~np.isfinite(out).all(axis=1)].tolist())
            raise ValueError(f"interval {interval}: local models of clients {diverged} are not finite")
        return out


# Whole-run weight rules. A rule plans a whole run before any training: it
# maps (run, tau, eligible), the run's (T, n) iteration counts and upload
# mask, to the (T, n) weights rho and participation beta. The weights never
# read the model, so planning first changes no result. Rules and schedule
# builders look engines up as module globals at call time, so rebinding one
# of those names (to trace it, say) reaches every strategy that uses it.


def _fedavg_plan(run, tau, eligible):
    return proportional_weight_plan(run.setup.sizes, eligible), eligible


def _uniform_plan(run, tau, eligible):
    return proportional_weight_plan(1.0, eligible), eligible


def _corollary1_plan(run, tau, eligible):
    return spaced_weight_plan(tau, eligible, run.setup.constants)[0], eligible


def _dms_plan(run, tau, eligible):
    # The filter draws on the server stream in every interval, nobody eligible too.
    return dms_weight_plan(tau, eligible, run.setup.constants, run.server_rng)[:2]


def _theorem2_plan(run, tau, eligible):
    setup, rho = run.setup, np.zeros(tau.shape)
    # A run where no upload reaches the server needs no solve, nor noise bounds.
    if eligible.any():
        r0 = float(np.sum((setup.w0 - setup.task.w_star) ** 2))
        rho = bound_optimal_weight_plan(tau, eligible, setup.constants, setup.sigma_i,
                                        setup.task.gamma_noniid, r0=r0)
    return rho, eligible


# The most steps a client plans in one window of intervals, unless one interval
# asks for more: a run holds one window's mini-batches, however long it is.
_WINDOW = 4096


def _train(run: _Run, log: RunLog, intervals, groups, steps, combine,
           proximal: bool = False) -> RunLog:
    """Train a planned run: the one training loop of every strategy.

    Group g trains in interval ``intervals[g]`` (non-decreasing): client
    ``groups[g][j]`` takes ``steps[g][j]`` local steps from the global model
    it downloaded after its previous upload, then ``combine(g, w, clients,
    models)`` returns the new global model, or None when it is unchanged.
    Groups of one interval train in order, and every member of a group
    downloads the model its group leaves. ``proximal`` adds the FedProx pull
    toward the current global model. The schedule is written to
    ``records.tau``, and its mini-batches are planned a window at a time.
    """
    setup, records = run.setup, log.records
    tau = records.tau
    # A group lists each client at most once.
    for t, ids, k in zip(intervals, groups, steps):
        tau[t, ids] += k
    # Interval t trains groups first[t] to first[t + 1].
    first = np.searchsorted(intervals, np.arange(len(records) + 1))
    # Columns looked up once: a recarray attribute lookup per interval costs
    # more than the arithmetic of a small task.
    losses, grad_norms, models = records.global_loss, records.global_grad_norm_sq, records.model
    aggregated = records.aggregated
    basis = np.tile(setup.w0, (setup.scenario.n_clients, 1))
    w, end = setup.w0.copy(), 0
    for t in range(len(records)):
        if t == end:
            # The window: the longest run of intervals from t (at least t) in
            # which no client plans more than _WINDOW steps. Cumulative counts
            # never fall, so the rows within the bound are a prefix.
            planned = np.cumsum(tau[t : t + _WINDOW], axis=0)
            k = max(1, int((planned <= _WINDOW).all(axis=1).sum()))
            run.plan_batches(planned[k - 1])
            end = t + k
        losses[t], grad = setup.task.global_loss_and_grad(w)
        grad_norms[t] = grad @ grad
        for g in range(first[t], first[t + 1]):
            ids = groups[g]
            new = combine(g, w, ids, run.train(ids, basis[ids], steps[g], t,
                                               prox_center=w if proximal else None))
            if new is not None:
                w, aggregated[t] = new, True
            basis[ids] = w
        models[t] = w
    log.final_loss, grad = setup.task.global_loss_and_grad(w)
    log.final_model, log.final_grad_norm_sq = w.copy(), float(grad @ grad)
    log.validate()
    return log


def _run_plan(run: _Run, strategy: str, tau, beta, rho, clock, proximal: bool = False) -> RunLog:
    """Train a planned synchronous run: in interval t every client takes
    ``tau[t]`` local steps from the current global model, then the local
    models are combined under ``rho[t]``. An interval where every weight is
    zero carries the model over and is marked non-aggregated. ``beta`` and
    ``clock`` (the wall clock at each interval's end) are recorded as given.
    """
    # A strided row of rho (a plan built from a transposed tau, say) would
    # round its product with the local models differently.
    rho = np.ascontiguousarray(rho)
    log = run.setup.new_log(strategy, clock)
    log.records.beta, log.records.rho = beta, rho
    weighed = (rho > 0.0).any(axis=1)

    def combine(t, w, clients, models):
        # RunLog.validate checks every row's weights once the run is over,
        # and run.train has checked that the local models are finite.
        return rho[t] @ models if weighed[t] else None

    T, n = tau.shape
    return _train(run, log, np.arange(T), [np.arange(n)] * T, tau, combine, proximal)


def _time_driven(setup: RunSetup, strategy: str) -> RunLog:
    """Time-driven run, planned before it is trained: draw every interval's
    iteration counts, weigh the whole run with the strategy's rule, then train
    interval by interval from the current global model and aggregate.

    Clients drawing zero iterations contribute the unchanged global model
    under their normal weight; discriminative selection is what removes them.
    When every client is filtered the model is carried over and the record is
    marked non-aggregated. Wall clock advances by exactly one interval length
    per interval.
    """
    spec, run, scenario, T = STRATEGIES[strategy], _Run(setup), setup.scenario, setup.constants.T
    # Each client draws its own T counts from its own stream, so drawing them
    # client by client yields the values of the interval-by-interval order.
    # The transpose is copied, so the plans read contiguous rows.
    tau = np.ascontiguousarray(np.array(
        [process.draw(rng, size=T) for process, rng in zip(scenario.processes, run.tau_rngs)],
        dtype=int,
    ).T)
    eligible = tau >= scenario.min_upload_iterations
    rho, beta = spec.weights(run, tau, eligible)
    clock = np.arange(1, T + 1) * scenario.interval_length
    return _run_plan(run, strategy, tau, beta, rho, clock, spec.proximal)


def _round_driven(setup: RunSetup, strategy: str, required_iterations: int | None = None) -> RunLog:
    """Round-driven run: every client performs the same fixed iteration count,
    data-size weighting aggregates, and each round's wall clock is dominated
    by the slowest client.
    """
    scenario, T = setup.scenario, setup.constants.T
    required = (scenario.default_required_iterations() if required_iterations is None
                else int(required_iterations))
    if required < 1:
        raise ValueError("required_iterations must be >= 1")
    pace = scenario.seconds_per_iteration
    idle = np.flatnonzero(np.isinf(pace))
    if idle.size:
        raise ValueError(f"clients {idle.tolist()} never iterate, so no synchronous round ends")
    n = scenario.n_clients
    rho = np.tile(fedavg_weights(setup.sizes).rho, (T, 1))
    # cumsum adds in sequence: the same bits as a clock advanced round by round.
    clock = np.cumsum(np.full(T, round_seconds(pace, required, scenario.overhead)))
    return _run_plan(_Run(setup), strategy, np.full((T, n), required), np.ones((T, n), dtype=int),
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


def _event_run(setup: RunSetup, strategy: str, upload, local_iterations: int | None) -> RunLog:
    """Train a per-arrival run. Client i uploads after ``k`` local steps, so
    every ``k * seconds_per_iteration[i]`` seconds, and a client that never
    iterates never uploads; the arrival times never read the model, so the
    whole schedule is planned first. Arrivals sharing a timestamp train as
    one group, in client order, each from the global model it downloaded
    after its previous upload. ``upload`` is the ``combine`` rule of
    ``_train``. Records are emitted at interval boundaries, for comparability
    with the interval runners.
    """
    scenario = setup.scenario
    k = scenario.default_required_iterations() if local_iterations is None else int(local_iterations)
    if k < 1:
        raise ValueError("local_iterations must be >= 1")
    boundaries = np.arange(1, setup.constants.T + 1) * scenario.interval_length
    times, clients = _arrivals(k * scenario.seconds_per_iteration, boundaries[-1])
    # Arrivals sharing a timestamp form one group, trained in the interval
    # their timestamp falls in; one exactly on a boundary closes that
    # interval. The uploads are weighed outside the interval rows, so beta
    # and rho stay zero.
    starts = np.flatnonzero(np.diff(times, prepend=-np.inf))
    groups = np.split(clients, starts)[1:]
    steps = np.split(np.full(clients.size, k), starts)[1:]
    log = setup.new_log(strategy, boundaries)
    return _train(_Run(setup), log, np.searchsorted(boundaries, times[starts]), groups, steps, upload)


# The update rules of ``run_afl``; the config's ``runner.variant`` takes one.
AsyncVariant = Literal["footnote-mean", "arrival-blend"]


def _per_arrival(setup: RunSetup, strategy: str, variant: AsyncVariant = "footnote-mean",
                 local_iterations: int | None = None) -> RunLog:
    """Per-arrival asynchronous run with the depreciated blend update.

    ``footnote-mean`` blends the previous global model with the mean of every
    client's latest model on each arrival; ``arrival-blend`` blends with the
    arriving model alone. A client always trains from the global model it
    received after its previous upload, which is where staleness comes from.
    """
    if variant not in get_args(AsyncVariant):
        raise ValueError(f"unknown asynchronous variant {variant!r}")
    latest = np.tile(setup.w0, (setup.scenario.n_clients, 1))  # slots start at w0, global until the first arrival

    def upload(_, w, clients, models):
        for i, model in zip(clients, models):
            latest[i] = model
            w = fedasync_update(w, latest if variant == "footnote-mean" else model[None], setup.constants.gamma)
        return w

    return _event_run(setup, strategy, upload, local_iterations)


def _buffered(setup: RunSetup, strategy: str, buffer_size: int | None = None,
              local_iterations: int | None = None) -> RunLog:
    """Buffered semi-asynchronous run.

    Arrivals accumulate in a buffer; every time it holds ``buffer_size``
    models (half the clients by default) they are averaged uniformly into the
    global model, oldest first. Uploaders download the post-flush global model
    before starting their next cycle. buffer_size=1 reproduces the
    per-arrival update order; a full buffer with homogeneous clients
    reproduces the round-driven trajectory.
    """
    n = setup.scenario.n_clients
    size = max(1, n // 2) if buffer_size is None else buffer_size
    if not 1 <= size <= n:
        raise ValueError("buffer_size must lie in [1, n_clients]")
    buffer: list[np.ndarray] = []

    def upload(_, w, clients, models):
        buffer.extend(models)
        new = None
        while len(buffer) >= size:
            new = np.mean(buffer[:size], axis=0)
            del buffer[:size]
        return new

    return _event_run(setup, strategy, upload, local_iterations)


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One strategy: its schedule builder ``run(setup, name, **options)``,
    which plans and trains one run on a setup, on streams of the run's own;
    the whole-run weight rule of a ``_time_driven`` strategy; the config
    ``runner`` keys it accepts, with the type each value is converted to; and
    whether local training adds the FedProx proximal term."""

    run: Callable[..., RunLog] = _time_driven
    weights: Callable[..., tuple[np.ndarray, np.ndarray]] | None = None
    options: dict[str, object] = dataclasses.field(default_factory=dict)
    proximal: bool = False


STRATEGIES: dict[str, Strategy] = {
    "fedavg": Strategy(weights=_fedavg_plan),
    "fedprox": Strategy(weights=_fedavg_plan, proximal=True),
    "tsfl-uniform": Strategy(weights=_uniform_plan),
    "tsfl-corollary1": Strategy(weights=_corollary1_plan),
    "tsfl-theorem2": Strategy(weights=_theorem2_plan),
    "tsfl-dms": Strategy(weights=_dms_plan),
    "fedasync": Strategy(_per_arrival, options={"variant": AsyncVariant, "local_iterations": int}),
    "semiasync": Strategy(_buffered, options={"buffer_size": int, "local_iterations": int}),
    "sfl": Strategy(_round_driven, options={"required_iterations": int}),
}
INTERVAL_STRATEGIES = tuple(name for name, spec in STRATEGIES.items() if spec.weights)
ALL_STRATEGIES = tuple(STRATEGIES)


def run_strategy(scenario: Scenario, strategy: str, constants: SystemConstants, seed: int,
                 probe_count: int = 0, equality_theta: bool = False, **options) -> RunLog:
    """Run a strategy by name on a setup of its own; ``options`` go to its
    schedule builder."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {ALL_STRATEGIES}")
    setup = RunSetup(scenario, constants, seed, probe_count, equality_theta)
    return STRATEGIES[strategy].run(setup, strategy, **options)


def run_tsfl(scenario: Scenario, strategy: str, constants: SystemConstants, seed: int,
             probe_count: int = 0, equality_theta: bool = False) -> RunLog:
    """A time-driven run of an interval strategy (``_time_driven``)."""
    if strategy not in INTERVAL_STRATEGIES:
        raise ValueError(f"{strategy!r} is not an interval strategy")
    return run_strategy(scenario, strategy, constants, seed, probe_count, equality_theta)


def run_sfl(scenario: Scenario, constants: SystemConstants, seed: int, required_iterations: int | None = None,
            probe_count: int = 0, equality_theta: bool = False) -> RunLog:
    """A round-driven run (``_round_driven``)."""
    return run_strategy(scenario, "sfl", constants, seed, probe_count, equality_theta,
                        required_iterations=required_iterations)


def run_afl(scenario: Scenario, constants: SystemConstants, seed: int, variant: AsyncVariant = "footnote-mean",
            local_iterations: int | None = None, probe_count: int = 0, equality_theta: bool = False) -> RunLog:
    """A per-arrival asynchronous run (``_per_arrival``)."""
    return run_strategy(scenario, "fedasync", constants, seed, probe_count, equality_theta,
                        variant=variant, local_iterations=local_iterations)


def run_semi_async(scenario: Scenario, buffer_size: int, constants: SystemConstants, seed: int,
                   local_iterations: int | None = None, probe_count: int = 0, equality_theta: bool = False) -> RunLog:
    """A buffered semi-asynchronous run (``_buffered``)."""
    return run_strategy(scenario, "semiasync", constants, seed, probe_count, equality_theta,
                        buffer_size=buffer_size, local_iterations=local_iterations)


def participation_frequency(log: RunLog) -> np.ndarray | None:
    """Fraction of intervals each client's model entered the aggregation, or
    None when the log does not record participation (the event runners)."""
    if not log.intervals:
        raise ValueError("log has no records")
    return log.records.beta.mean(axis=0) if log.participation_recorded else None
