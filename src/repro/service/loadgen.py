"""Deployment helpers and the scenario load generator.

Two builders turn a workload into a running deployment:

* :func:`build_traffic_service` — serve a lazy
  :class:`~repro.workloads.base.RequestStream` in traffic mode: one
  per-shard :class:`~repro.vnet.topology.LinearDatacenter` sized to the
  shard's nodes, requests charged slot distances, reveals migrating VMs.
* :func:`build_reveal_service` — serve a validated
  :class:`~repro.core.instance.OnlineMinLAInstance` in reveals mode: every
  request is one reveal step, costs are pure learner swaps, and at one
  shard the served totals are bit-identical to
  :func:`repro.core.simulator.run_online` (the E14 anchor).

The load generator replays any registered :mod:`repro.workloads` scenario
against a deployment in one of three modes:

* ``replay`` — submit as fast as the queues accept (backpressure-paced);
  the mode E13, ``repro serve`` and the determinism tests use, because the
  served cost totals are a pure function of
  ``(scenario, seed, shards, batch)``,
* ``open`` — open-loop Poisson arrivals at ``rate`` requests/second
  (seeded, so the arrival schedule itself is reproducible),
* ``closed`` — a fixed window of ``concurrency`` outstanding requests,
  each completion admitting the next submission.

Randomness discipline: shard ``i``'s learner draws from
:func:`shard_rng` ``(seed, i)`` and nothing else, so served cost totals
never depend on thread timing, arrival pacing or the worker count of any
other shard.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from threading import BoundedSemaphore
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.core.rand_cliques import MoveSmallerCliqueLearner, RandomizedCliqueLearner
from repro.core.rand_lines import MoveSmallerLineLearner, RandomizedLineLearner
from repro.envconfig import read_env_choice
from repro.errors import ServiceError
from repro.graphs.reveal import GraphKind
from repro.obs.clock import now as monotonic_now
from repro.obs.export import resident_bytes
from repro.obs.spans import SpanTrace
from repro.service.broker import BACKENDS, ArrangementService, Request, ServeResult
from repro.service.engine import ShardEngine
from repro.service.metrics import (
    ServiceSummary,
    summarize_results,
    summarize_snapshot,
)
from repro.service.observation import FleetSnapshot, StatsReporter
from repro.service.partition import (
    ShardPartition,
    discover_stream_partition,
    reveal_partition,
)
from repro.vnet.topology import LinearDatacenter
from repro.workloads.base import RequestStream, Scenario

#: Serving algorithm names accepted by the builders and the CLI.
LEARNERS = ("rand", "move-smaller", "det")

#: Modes the load generator understands.
MODES = ("replay", "open", "closed")

#: Default batch timeout (seconds) forced in closed-loop mode: a worker
#: waiting to fill a batch while the window waits for completions would
#: deadlock, so closed-loop batching must always be adaptive.
CLOSED_LOOP_BATCH_TIMEOUT = 0.002


def learner_factory(kind: GraphKind, name: str) -> Callable:
    """Resolve a serving-algorithm name for one graph kind."""
    if name == "det":
        return DeterministicClosestLearner
    if name == "rand":
        return (
            RandomizedCliqueLearner
            if kind is GraphKind.CLIQUES
            else RandomizedLineLearner
        )
    if name == "move-smaller":
        return (
            MoveSmallerCliqueLearner
            if kind is GraphKind.CLIQUES
            else MoveSmallerLineLearner
        )
    raise ServiceError(
        f"unknown serving algorithm {name!r}; choose one of {list(LEARNERS)}"
    )


def shard_rng(seed: object, shard_index: int) -> random.Random:
    """The deterministic random stream of one shard's learner."""
    return random.Random(f"{seed}|service-shard-{shard_index}")


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve the worker backend: explicit choice, else ``REPRO_SERVICE_BACKEND``.

    ``None`` falls back to the ``REPRO_SERVICE_BACKEND`` environment
    variable (validated, like every ``REPRO_*`` override) and then to
    ``"thread"``.  An invalid explicit choice raises a
    :class:`~repro.errors.ServiceError` naming the accepted backends.
    """
    if backend is None:
        return read_env_choice(
            "REPRO_SERVICE_BACKEND",
            BACKENDS,
            default="thread",
            error=ServiceError,
        )
    if backend not in BACKENDS:
        raise ServiceError(
            f"unknown service backend {backend!r}; choose one of {list(BACKENDS)}"
        )
    return backend


def _restrict_arrangement(
    arrangement: Optional[Arrangement], nodes: Sequence
) -> Optional[Arrangement]:
    """Restrict a global arrangement to one shard, preserving relative order."""
    if arrangement is None:
        return None
    return Arrangement(sorted(nodes, key=arrangement.position))


def build_traffic_service(
    stream: RequestStream,
    num_shards: int = 1,
    learner: str = "rand",
    seed: object = 0,
    batch_size: int = 1,
    batch_timeout: Optional[float] = None,
    queue_capacity: int = 1024,
    initial_arrangement: Optional[Arrangement] = None,
    partition: Optional[ShardPartition] = None,
    trace_every: Optional[int] = None,
    on_result: Optional[Callable[[ServeResult], None]] = None,
    backend: Optional[str] = None,
    retain_results: bool = True,
    span_rate: float = 0.0,
    span_seed: Optional[object] = None,
    span_max: int = 256,
    metrics_interval: Optional[float] = None,
) -> ArrangementService:
    """Deploy a stream-serving service (not yet started).

    The stream must be kind-pure (mixed fleets would need one learner per
    kind inside a shard).  ``partition`` defaults to a streamed calibration
    pass (:func:`~repro.service.partition.discover_stream_partition`); pass
    one explicitly to reuse it across deployments of the same workload.
    ``backend`` picks the worker runtime (see :func:`resolve_backend`).
    The observability knobs (``retain_results`` / ``span_rate`` /
    ``metrics_interval``) pass straight through to
    :class:`~repro.service.broker.ArrangementService`; ``span_seed``
    defaults to the serving ``seed`` so traces are reproducible without
    extra configuration.
    """
    if stream.kind is None:
        raise ServiceError(
            "the serving subsystem needs a kind-pure stream "
            "(all tenant cliques or all pipelines)"
        )
    if partition is None:
        partition = discover_stream_partition(stream, num_shards)
    engines = [
        ShardEngine(
            shard_index=index,
            nodes=nodes,
            kind=stream.kind,
            learner_factory=learner_factory(stream.kind, learner),
            rng=shard_rng(seed, index),
            datacenter=LinearDatacenter(len(nodes)),
            initial_arrangement=_restrict_arrangement(initial_arrangement, nodes),
            trace_every=trace_every,
        )
        for index, nodes in enumerate(partition.shard_nodes)
    ]
    return ArrangementService(
        engines,
        partition,
        batch_size=batch_size,
        batch_timeout=batch_timeout,
        queue_capacity=queue_capacity,
        on_result=on_result,
        backend=resolve_backend(backend),
        retain_results=retain_results,
        span_rate=span_rate,
        span_seed=seed if span_seed is None else span_seed,
        span_max=span_max,
        metrics_interval=metrics_interval,
    )


def build_reveal_service(
    instance: OnlineMinLAInstance,
    num_shards: int = 1,
    learner: str = "rand",
    seed: object = 0,
    batch_size: int = 1,
    batch_timeout: Optional[float] = None,
    queue_capacity: int = 1024,
    on_result: Optional[Callable[[ServeResult], None]] = None,
    backend: Optional[str] = None,
    retain_results: bool = True,
    span_rate: float = 0.0,
    span_seed: Optional[int] = None,
    span_max: int = 256,
    metrics_interval: Optional[float] = None,
) -> ArrangementService:
    """Deploy a reveal-serving service over one online MinLA instance.

    At one shard the single engine sees exactly the instance's node
    universe, initial arrangement and (via :func:`shard_rng` ``(seed, 0)``)
    random stream, so feeding the instance's steps in order serves a run
    bit-identical to :func:`repro.core.simulator.run_online`.  The
    observability knobs mirror :func:`build_traffic_service`.
    """
    partition = reveal_partition(instance.sequence, num_shards)
    engines = [
        ShardEngine(
            shard_index=index,
            nodes=nodes,
            kind=instance.kind,
            learner_factory=learner_factory(instance.kind, learner),
            rng=shard_rng(seed, index),
            datacenter=None,
            initial_arrangement=_restrict_arrangement(
                instance.initial_arrangement, nodes
            ),
        )
        for index, nodes in enumerate(partition.shard_nodes)
    ]
    return ArrangementService(
        engines,
        partition,
        batch_size=batch_size,
        batch_timeout=batch_timeout,
        queue_capacity=queue_capacity,
        on_result=on_result,
        backend=resolve_backend(backend),
        retain_results=retain_results,
        span_rate=span_rate,
        span_seed=seed if span_seed is None else span_seed,
        span_max=span_max,
        metrics_interval=metrics_interval,
    )


# ----------------------------------------------------------------------
# Driving a deployment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadReport:
    """Everything one load-generation run produced."""

    scenario: str
    mode: str
    seed: int
    summary: ServiceSummary
    results: Sequence[ServeResult] = field(repr=False)
    """Per-request results — empty when the run did not retain them
    (``retain_requests=False``, the O(1) memory default of the CLI)."""
    shard_requests: Dict[int, int] = field(default_factory=dict)
    """Requests served per shard (the partition balance actually achieved)."""
    backend: str = "thread"
    """The worker backend that served the run."""
    snapshot: Optional[FleetSnapshot] = None
    """The fleet's merged O(buckets) metrics (always present on new runs)."""
    span_traces: "Tuple[SpanTrace, ...]" = ()
    """Sampled per-request span traces (empty unless ``span_rate > 0``)."""


def drive_service(
    service: ArrangementService,
    requests: Iterable[Request],
    mode: str = "replay",
    rate: Optional[float] = None,
    concurrency: int = 32,
    seed: object = 0,
    window: Optional[BoundedSemaphore] = None,
) -> "tuple[List[ServeResult], float]":
    """Feed ``requests`` to a started service; returns ``(results, wall s)``.

    ``replay`` submits back to back (queue backpressure is the only pacing),
    ``open`` paces submissions on a seeded Poisson arrival schedule at
    ``rate`` requests/second, ``closed`` keeps at most ``concurrency``
    requests outstanding (the service must have been built with the
    matching ``on_result`` hook releasing ``window``).
    """
    if mode not in MODES:
        raise ServiceError(f"unknown loadgen mode {mode!r}; choose one of {list(MODES)}")
    started = monotonic_now()
    if mode == "open":
        if rate is None or rate <= 0:
            raise ServiceError("open-loop load generation needs a positive --rate")
        arrival_rng = random.Random(f"{seed}|loadgen-arrivals")
        next_arrival = started
        for pair in requests:
            next_arrival += arrival_rng.expovariate(rate)
            delay = next_arrival - monotonic_now()
            if delay > 0:
                time.sleep(delay)
            service.submit(pair)
    elif mode == "closed":
        if window is None:
            raise ServiceError(
                "closed-loop load generation needs the concurrency window the "
                "service's on_result hook releases (use run_scenario_loadgen)"
            )
        for pair in requests:
            window.acquire()
            service.submit(pair)
    else:
        for pair in requests:
            service.submit(pair)
    results = service.drain()
    # repro: allow[obs002] — load-generator wall time is a reported measurement, not a zone
    return results, monotonic_now() - started


def run_scenario_loadgen(
    scenario: Scenario,
    num_nodes: int,
    num_requests: int,
    seed: int = 0,
    num_shards: int = 1,
    learner: str = "rand",
    batch_size: int = 1,
    batch_timeout: Optional[float] = None,
    queue_capacity: int = 1024,
    mode: str = "replay",
    rate: Optional[float] = None,
    concurrency: int = 32,
    backend: Optional[str] = None,
    retain_requests: bool = True,
    span_rate: float = 0.0,
    stats_interval: Optional[float] = None,
    stats_emit: Callable[[str], None] = print,
) -> LoadReport:
    """Replay one registered scenario through a fresh deployment, end to end.

    Builds the scenario's request stream, discovers the tenant partition,
    boots the service in-process (on the thread or process backend — see
    :func:`resolve_backend`), drives it in the requested mode, drains it,
    releases the backend, and reduces the run to a
    :class:`~repro.service.metrics.ServiceSummary`.

    ``retain_requests=True`` keeps every :class:`ServeResult` and computes
    exact nearest-rank percentiles (O(requests) memory — the audit path);
    ``False`` serves at O(1) memory and summarizes from the fleet
    histograms instead.  ``span_rate`` samples reproducible span traces,
    and ``stats_interval`` prints a live one-line fleet snapshot (through
    ``stats_emit``) every that-many seconds while the run drives.
    """
    if mode not in MODES:
        raise ServiceError(f"unknown loadgen mode {mode!r}; choose one of {list(MODES)}")
    if concurrency < 1:
        raise ServiceError(f"concurrency must be positive, got {concurrency}")
    backend = resolve_backend(backend)
    if mode == "open" and (rate is None or rate <= 0):
        # Validated before any deployment exists: a config error must not
        # leak a started service (worker threads blocked on their queues).
        raise ServiceError("open-loop load generation needs a positive --rate")
    stream = scenario.request_stream(num_nodes, num_requests, seed)
    window: Optional[BoundedSemaphore] = None
    on_result = None
    if mode == "closed":
        if batch_timeout is None and batch_size > 1:
            # A worker blocking to fill its batch while the window waits for
            # completions would deadlock: closed-loop batching is adaptive.
            batch_timeout = CLOSED_LOOP_BATCH_TIMEOUT
        window = BoundedSemaphore(concurrency)

        def on_result(_result: ServeResult) -> None:
            window.release()

    service = build_traffic_service(
        stream,
        num_shards=num_shards,
        learner=learner,
        seed=seed,
        batch_size=batch_size,
        batch_timeout=batch_timeout,
        queue_capacity=queue_capacity,
        on_result=on_result,
        backend=backend,
        retain_results=retain_requests,
        span_rate=span_rate,
        metrics_interval=stats_interval,
    )
    reporter: Optional[StatsReporter] = None
    try:
        service.start()
        if stats_interval is not None:
            reporter = StatsReporter(service, stats_interval, emit=stats_emit)
            reporter.start()
        results, wall_seconds = drive_service(
            service,
            stream,
            mode=mode,
            rate=rate,
            concurrency=concurrency,
            seed=seed,
            window=window,
        )
        if reporter is not None:
            reporter.stop()
            reporter = None
        snapshot = service.fleet_snapshot()
        if retain_requests:
            summary = summarize_results(
                results,
                service.shard_reports(),
                wall_seconds,
                batch_size,
                backend=backend,
                worker_stats=snapshot.shards,
            )
        else:
            summary = summarize_snapshot(
                snapshot,
                service.shard_reports(),
                wall_seconds,
                batch_size,
                backend=backend,
                worker_stats=snapshot.shards,
            )
        span_traces = service.span_traces()
    finally:
        if reporter is not None:
            reporter.stop()
        # Backend resources (worker processes, their queues) must
        # never outlive the run, even when driving it raised.
        service.close()
    if retain_requests:
        shard_requests: Dict[int, int] = {}
        for result in results:
            shard_requests[result.shard] = (
                shard_requests.get(result.shard, 0) + 1
            )
    else:
        shard_requests = snapshot.shard_request_counts()
    return LoadReport(
        scenario=scenario.name,
        mode=mode,
        seed=seed,
        summary=summary,
        results=tuple(results),
        shard_requests=dict(sorted(shard_requests.items())),
        backend=backend,
        snapshot=snapshot,
        span_traces=span_traces,
    )


# ----------------------------------------------------------------------
# Soak mode: stream indefinitely at O(1) memory
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SoakCheckpoint:
    """One mid-soak observation: progress, tail latency, resident memory."""

    requests_submitted: int
    elapsed_seconds: float
    throughput: float
    """Submission rate so far (requests / elapsed)."""
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    """Fleet-histogram percentiles at this instant (None before any ship
    from a process-backend worker)."""
    rss_bytes: Optional[int]
    """Broker-process resident set size (None off-Linux)."""


@dataclass(frozen=True)
class SoakReport:
    """Everything one soak run produced — O(buckets), never O(requests)."""

    scenario: str
    seed: int
    backend: str
    num_requests: int
    wall_seconds: float
    summary: ServiceSummary
    snapshot: FleetSnapshot
    checkpoints: "Tuple[SoakCheckpoint, ...]"
    shard_requests: Dict[int, int] = field(default_factory=dict)
    span_traces: "Tuple[SpanTrace, ...]" = ()

    #: RSS growth above this factor (final / first checkpoint) is reported
    #: as not flat.  The first checkpoint doubles as the warm-up mark.
    FLAT_RSS_FACTOR = 1.10

    def rss_growth(self) -> Optional[float]:
        """Final-over-first checkpoint RSS ratio (None without /proc)."""
        measured = [
            checkpoint.rss_bytes
            for checkpoint in self.checkpoints
            if checkpoint.rss_bytes is not None
        ]
        if len(measured) < 2 or measured[0] <= 0:
            return None
        return measured[-1] / measured[0]

    def memory_flat(self) -> Optional[bool]:
        """Whether RSS stayed within ``FLAT_RSS_FACTOR`` after warm-up."""
        growth = self.rss_growth()
        if growth is None:
            return None
        return growth <= self.FLAT_RSS_FACTOR

    def to_text(self) -> str:
        """The soak addendum ``repro loadgen --soak`` prints."""
        lines = [
            f"soak {self.scenario}: {self.num_requests} requests in "
            f"{self.wall_seconds:.1f} s, backend={self.backend}"
        ]
        for checkpoint in self.checkpoints:
            rss = (
                "-"
                if checkpoint.rss_bytes is None
                else f"{checkpoint.rss_bytes / 1e6:.1f}MB"
            )
            p99 = (
                "-" if checkpoint.p99_ms is None else f"{checkpoint.p99_ms:.2f}"
            )
            lines.append(
                f"  checkpoint req={checkpoint.requests_submitted} "
                f"t={checkpoint.elapsed_seconds:.1f}s "
                f"rate={checkpoint.throughput:,.1f}/s p99={p99}ms rss={rss}"
            )
        growth = self.rss_growth()
        if growth is None:
            lines.append("rss: unavailable (no /proc)")
        else:
            flat = "(flat)" if self.memory_flat() else "(growing)"
            first = next(
                checkpoint.rss_bytes
                for checkpoint in self.checkpoints
                if checkpoint.rss_bytes is not None
            )
            lines.append(
                f"rss first={first / 1e6:.1f}MB growth=x{growth:.3f} {flat}"
            )
        lines.append(self.summary.to_text())
        return "\n".join(lines)


def _soak_checkpoint(
    service: ArrangementService, submitted: int, elapsed: float
) -> SoakCheckpoint:
    snapshot = service.fleet_snapshot()
    p50 = snapshot.latency.percentile(0.50)
    p99 = snapshot.latency.percentile(0.99)
    return SoakCheckpoint(
        requests_submitted=submitted,
        elapsed_seconds=elapsed,
        throughput=submitted / elapsed if elapsed > 0 else 0.0,
        p50_ms=None if p50 is None else p50 * 1_000.0,
        p99_ms=None if p99 is None else p99 * 1_000.0,
        rss_bytes=resident_bytes(),
    )


def run_scenario_soak(
    scenario: Scenario,
    num_nodes: int,
    num_requests: int,
    seed: int = 0,
    num_shards: int = 1,
    learner: str = "rand",
    batch_size: int = 1,
    batch_timeout: Optional[float] = None,
    queue_capacity: int = 1024,
    backend: Optional[str] = None,
    duration_seconds: Optional[float] = None,
    max_requests: Optional[int] = None,
    checkpoint_requests: Optional[Sequence[int]] = None,
    span_rate: float = 0.0,
    stats_interval: Optional[float] = None,
    stats_emit: Callable[[str], None] = print,
) -> SoakReport:
    """Stream a scenario's requests in cycles until time or count runs out.

    The soak loop re-iterates the scenario's lazy
    :class:`~repro.workloads.base.RequestStream` (same node universe, same
    partition) over and over, submitting in replay mode, with retention
    off — so memory is O(shards × buckets) no matter how many requests
    flow (the E15 claim).  Stop conditions: ``duration_seconds`` wall
    time, ``max_requests`` submissions, or both (first wins).

    Checkpoints — RSS, throughput-so-far, live histogram tails — are
    captured at each count in ``checkpoint_requests`` (when given) or at
    fixed fractions of the configured horizon, plus always once at the
    end; the first checkpoint doubles as the warm-up mark RSS growth is
    judged against.
    """
    if duration_seconds is None and max_requests is None:
        raise ServiceError(
            "a soak run needs a horizon: --duration seconds, "
            "--max-requests, or both"
        )
    if duration_seconds is not None and duration_seconds <= 0:
        raise ServiceError(
            f"soak duration must be positive, got {duration_seconds}"
        )
    if max_requests is not None and max_requests < 1:
        raise ServiceError(
            f"soak max requests must be positive, got {max_requests}"
        )
    backend = resolve_backend(backend)
    stream = scenario.request_stream(num_nodes, num_requests, seed)
    marks: List[int] = sorted(
        set(checkpoint_requests or [])
    )
    if not marks and max_requests is not None:
        marks = sorted(
            {
                max(max_requests // 100, 1),
                max(max_requests // 10, 1),
            }
        )
    time_fractions = (
        [0.1, 0.4, 0.7] if duration_seconds is not None and not marks else []
    )
    service = build_traffic_service(
        stream,
        num_shards=num_shards,
        learner=learner,
        seed=seed,
        batch_size=batch_size,
        batch_timeout=batch_timeout,
        queue_capacity=queue_capacity,
        backend=backend,
        retain_results=False,
        span_rate=span_rate,
        metrics_interval=(
            stats_interval if stats_interval is not None else 0.5
        ),
    )
    reporter: Optional[StatsReporter] = None
    checkpoints: List[SoakCheckpoint] = []
    submitted = 0
    try:
        service.start()
        if stats_interval is not None:
            reporter = StatsReporter(service, stats_interval, emit=stats_emit)
            reporter.start()
        started = monotonic_now()
        deadline = (
            None if duration_seconds is None else started + duration_seconds
        )
        # Cursors into the (tiny, fixed) checkpoint schedules — the lists
        # themselves are never mutated while the soak drives.
        mark_cursor = 0
        fraction_cursor = 0
        soaking = True
        while soaking:
            cycle_submitted = 0
            for request in stream:
                service.submit(request)
                submitted += 1
                cycle_submitted += 1
                # repro: allow[obs002] — soak checkpoints report elapsed wall time, not a zone
                elapsed = monotonic_now() - started
                if mark_cursor < len(marks) and submitted >= marks[mark_cursor]:
                    mark_cursor += 1
                    checkpoints.append(
                        _soak_checkpoint(service, submitted, elapsed)
                    )
                if (
                    fraction_cursor < len(time_fractions)
                    and duration_seconds is not None
                    and elapsed
                    >= time_fractions[fraction_cursor] * duration_seconds
                ):
                    fraction_cursor += 1
                    checkpoints.append(
                        _soak_checkpoint(service, submitted, elapsed)
                    )
                if max_requests is not None and submitted >= max_requests:
                    soaking = False
                    break
                if deadline is not None and monotonic_now() >= deadline:
                    soaking = False
                    break
            if cycle_submitted == 0:
                # An empty stream would spin forever; stop and report the
                # zero-request summary ("no requests served") instead.
                soaking = False
        service.drain()
        # repro: allow[obs002] — the soak's total wall time is a reported measurement, not a zone
        wall_seconds = monotonic_now() - started
        checkpoints.append(
            _soak_checkpoint(service, submitted, wall_seconds)
        )
        if reporter is not None:
            reporter.stop()
            reporter = None
        snapshot = service.fleet_snapshot()
        summary = summarize_snapshot(
            snapshot,
            service.shard_reports(),
            max(wall_seconds, 1e-9),
            batch_size,
            backend=backend,
            worker_stats=snapshot.shards,
        )
        span_traces = service.span_traces()
    finally:
        if reporter is not None:
            reporter.stop()
        service.close()
    return SoakReport(
        scenario=scenario.name,
        seed=seed,
        backend=backend,
        num_requests=submitted,
        wall_seconds=wall_seconds,
        summary=summary,
        snapshot=snapshot,
        checkpoints=tuple(checkpoints),
        shard_requests=snapshot.shard_request_counts(),
        span_traces=span_traces,
    )
