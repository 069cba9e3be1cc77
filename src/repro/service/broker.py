"""The sharded broker: bounded queues, async workers, micro-batching.

An :class:`ArrangementService` owns one :class:`~repro.service.engine.ShardEngine`
per shard, one bounded FIFO queue per shard, and one worker per shard.  The
dispatcher routes every submitted request to the shard hosting both
endpoints (component-aligned, see :mod:`repro.service.partition`), so
workers never coordinate and never contend on engine state.

**Backends**: workers run either as threads (``backend="thread"``, the
default — one shared heap, zero startup cost, serialized by the GIL) or as
processes (``backend="process"``, :mod:`repro.service.procworker` — one
interpreter per shard, requests over bounded ``multiprocessing`` queues).
Both backends run the same loop, :func:`serve_shard`, over each shard's
requests in submission order, so served cost totals are bit-identical
across backends (experiment E14 gates on exact equality); only the timing
columns differ.

**Queue items** are lists of ``(request_index, pair, enqueued_at)``
entries, ended by a ``None`` sentinel.  With ``batch_timeout=None`` the
service buffers each shard's entries under its submit lock and ships one
list per full batch (``drain()`` flushes the partial buffers before the
sentinels), so a batch crosses its queue as one put — on the process
backend one pickled message instead of ``batch_size``.  With a finite
``batch_timeout`` every list holds one entry, so arrival-driven batching
sees each request as it comes.

**Backpressure** is explicit: ``queue_capacity`` counts requests (a
buffered queue holds ``max(1, queue_capacity // batch_size)`` lists);
:meth:`ArrangementService.submit` blocks until the shard has room (the
closed-loop shape — latency absorbs overload) while
:meth:`ArrangementService.try_submit` returns ``None`` immediately (the
open-loop shape — the caller decides whether to shed or retry).

**Micro-batching**: a worker opens a batch with the first queued list
and keeps pulling until it holds ``batch_size`` requests, then serves all
of them as one rearrangement pass (one embedding refresh, one slot-map
rebuild — the amortization lever of E13).  With ``batch_timeout=None`` (the
default) the worker waits for a full batch or the end-of-stream sentinel,
so batch composition — and therefore every served cost total — is a
deterministic function of the per-shard request order, independent of
thread timing.  A finite ``batch_timeout`` makes the batcher *adaptive*:
the batch is cut early once the timeout elapses after the batch opened,
trading amortization for tail latency under slow arrivals (cost totals may
then vary across runs; the determinism tests use the default).

**Results** leave a worker as one compact :data:`ServedBatch` record per
batch; :func:`expand_batch`, on the side that reads them, builds the
:class:`ServeResult` tuples — only when results are retained or an
``on_result`` hook wants them.

**Submission** routes, numbers and timestamps a request in one frame: a
hit is two reads of the partition's ``node_to_shard`` table and one
``_running`` flag (set by ``start()``, cleared by ``drain()`` and
``close()``); only a miss goes through the routing checks that raise.

Timing: every request is stamped once at submission, with the clock
:meth:`ArrangementService.start` bound from the :mod:`repro.obs.clock` seam
(a :class:`~repro.obs.clock.ManualClock` must be installed before
``start()``), and records queue time (enqueue to batch start), service time
(its batch's rearrangement pass) and total latency; every worker records
its queue-depth high-water mark (in requests) and busy fraction in its
:class:`~repro.service.observation.ShardMetrics`, one ``record_many`` per
histogram per batch.  Costs never depend on these measurements — they are
observability, not semantics.
"""

from __future__ import annotations

import queue
import threading
from typing import Callable, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.permutation import Arrangement
from repro.errors import ServiceError
from repro.obs.clock import get_clock
from repro.obs.clock import now as monotonic_now
from repro.obs.spans import SpanCollector, SpanSampler, SpanTrace
from repro.service.engine import ShardEngine, ShardReport
from repro.service.observation import (
    FleetSnapshot,
    ShardMetrics,
    ShardMetricsSnapshot,
)
from repro.service.partition import ShardPartition

Node = Hashable
Request = Tuple[Node, Node]

#: Worker backends :class:`ArrangementService` can run.
BACKENDS: Tuple[str, ...] = ("thread", "process")

#: One queue item: the ``(request_index, pair, enqueued_at)`` entries of one
#: submission (one entry) or of one buffered batch (up to ``batch_size``).
Entries = List[Tuple[int, Request, float]]


def queue_slots(
    queue_capacity: int, batch_size: int, batch_timeout: Optional[float]
) -> int:
    """How many queue items hold ``queue_capacity`` requests.

    Buffered submission (``batch_timeout=None``) ships ``batch_size``
    entries per item; with a batch timeout every item is one request.
    """
    if batch_timeout is not None:
        return queue_capacity
    return max(1, queue_capacity // batch_size)


class ServeResult(NamedTuple):
    """The served outcome of one request: cost deltas plus timing.

    ``queue_seconds`` runs from enqueue to batch start (how long the request
    waited for its worker), ``service_seconds`` is the duration of the
    rearrangement pass that served the request's batch, ``latency_seconds``
    runs from enqueue to completion (queue plus service) and ``batch_size``
    counts the requests that shared that pass.  A tuple subclass: it
    compares equal to a plain tuple holding the same values.
    """

    request_index: int
    pair: Request
    shard: int
    revealed: bool
    migration_swaps: int
    communication_cost: float
    queue_seconds: float
    service_seconds: float
    latency_seconds: float
    batch_size: int


#: One served batch, ``(service_seconds, started, finished, rows)``, with one
#: ``(request_index, pair, revealed, migration_swaps, communication_cost,
#: enqueued_at)`` row per request: plain tuples, one cheap pickle per batch.
ServedBatch = Tuple[float, float, float, List[Tuple]]


def expand_batch(shard: int, served: ServedBatch) -> List[ServeResult]:
    """The :class:`ServeResult` of every request in one served batch record."""
    service_seconds, started, finished, rows = served
    size = len(rows)
    return [
        ServeResult(
            index,
            pair,
            shard,
            revealed,
            swaps,
            cost,
            started - enqueued_at,
            service_seconds,
            finished - enqueued_at,
            size,
        )
        for index, pair, revealed, swaps, cost, enqueued_at in rows
    ]


def serve_shard(
    engine: ShardEngine,
    requests,
    batch_size: int,
    batch_timeout: Optional[float],
    metrics: ShardMetrics,
    spans: Optional[SpanCollector] = None,
    emit: Optional[Callable[[ServedBatch], None]] = None,
    after_batch: Optional[Callable[[], None]] = None,
) -> None:
    """One shard's serving loop, shared by the thread and process backends.

    ``requests`` is the shard's bounded ``queue.Queue`` (threads) or
    ``multiprocessing.Queue`` (processes) of entry lists (see
    :data:`Entries`), ended by a ``None`` sentinel — object identity does
    not survive a pipe, so the sentinel cannot be an ``object()``.  Each
    batch opens with the first queued list and pulls lists until it holds
    ``batch_size`` requests, the sentinel arrives, or ``batch_timeout``
    elapses after the batch opened; it is then served as one
    :meth:`~repro.service.engine.ShardEngine.serve_batch` pass.  The queue
    depth is observed in requests: the queued items times the size of the
    one that opened the batch.

    Every batch feeds ``metrics`` (histograms, queue-depth high-water mark,
    busy time) and, for sampled requests, ``spans``; ``emit`` (when given)
    receives the batch's :data:`ServedBatch` record and ``after_batch``
    (when given) runs last.  On failure the loop keeps consuming its queue
    until the sentinel — a bounded queue nobody drains would block every later
    submit instead of reaching the drain that reports the error — and then
    re-raises.
    """
    metrics.started_at = monotonic_now()
    shard_index = engine.shard_index
    get = requests.get
    sentinel_seen = False
    try:
        while True:
            item = get()
            if item is None:
                sentinel_seen = True
                return
            try:
                depth = (requests.qsize() + 1) * len(item)
            except NotImplementedError:  # pragma: no cover - macOS qsize
                depth = len(item)
            metrics.observe_depth(depth)
            opened = monotonic_now()
            batch = list(item)
            deadline = None
            if batch_timeout is not None:
                deadline = monotonic_now() + batch_timeout
            while len(batch) < batch_size:
                if deadline is None:
                    item = get()
                else:
                    remaining = deadline - monotonic_now()
                    if remaining <= 0:
                        break
                    try:
                        item = get(timeout=remaining)
                    except queue.Empty:
                        break
                if item is None:
                    sentinel_seen = True
                    break
                batch.extend(item)
            started = monotonic_now()
            rows = engine.serve_batch([pair for _, pair, _ in batch])
            finished = monotonic_now()
            # repro: allow[obs002] — per-batch service latency feeds the shard histograms, not a zone
            service_seconds = finished - started
            metrics.observe_batch(
                queue_seconds=[started - enqueued_at for _, _, enqueued_at in batch],
                latency_seconds=[
                    finished - enqueued_at for _, _, enqueued_at in batch
                ],
                num_reveals=[revealed for revealed, _, _ in rows].count(True),
                service_seconds=service_seconds,
            )
            if emit is not None:
                served = [
                    (index, pair, revealed, swaps, cost, enqueued_at)
                    for (index, pair, enqueued_at), (revealed, swaps, cost) in zip(
                        batch, rows
                    )
                ]
                emit((service_seconds, started, finished, served))
            # Per-shard indices are monotone, so one integer compare on the
            # batch's last index skips a batch with no sampled request (and
            # every batch once the retention cap is reached), and one per
            # request skips every unsampled request of the rest.
            if spans is not None and batch[-1][0] >= spans.next_interesting:
                replied = monotonic_now()
                for index, _, enqueued_at in batch:
                    if index >= spans.next_interesting and spans.wants(index):
                        spans.record_raw(
                            index,
                            shard_index,
                            enqueued_at,
                            opened,
                            started,
                            finished,
                            replied,
                        )
            if after_batch is not None:
                after_batch()
            if sentinel_seen:
                return
    except BaseException:
        # Skipped when the failure came after the sentinel was consumed.
        while not sentinel_seen:
            if get() is None:
                break
        raise
    finally:
        metrics.finished_at = monotonic_now()


class _ShardWorker(threading.Thread):
    """The thread backend's shard worker: :func:`serve_shard` on a thread."""

    #: Cross-thread contract (enforced by THR001): attributes the worker
    #: thread writes.  All are single-writer — the worker publishes, the
    #: control thread reads them only after ``join()`` in ``drain()``.
    _shared = ("error", "results")

    def __init__(
        self,
        engine: ShardEngine,
        requests: "queue.Queue",
        batch_size: int,
        batch_timeout: Optional[float],
        on_result: Optional[Callable[[ServeResult], None]],
        metrics: ShardMetrics,
        spans: Optional[SpanCollector] = None,
        retain_results: bool = True,
    ) -> None:
        super().__init__(
            name=f"repro-serve-shard-{engine.shard_index}", daemon=True
        )
        self._engine = engine
        self._queue = requests
        self._batch_size = batch_size
        self._batch_timeout = batch_timeout
        self._on_result = on_result
        self._retain_results = retain_results
        self.metrics = metrics
        self.spans = spans
        self.results: List[ServeResult] = []
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        needs_results = self._retain_results or self._on_result is not None
        try:
            serve_shard(
                self._engine,
                self._queue,
                self._batch_size,
                self._batch_timeout,
                self.metrics,
                self.spans,
                emit=self._emit if needs_results else None,
            )
        except BaseException as error:  # noqa: BLE001 - reported at drain()
            self.error = error

    def _emit(self, record: ServedBatch) -> None:
        served = expand_batch(self._engine.shard_index, record)
        if self._retain_results:
            self.results.extend(served)
        if self._on_result is not None:
            for result in served:
                self._on_result(result)


class _ThreadFleet:
    """The thread backend: one daemon :class:`_ShardWorker` per shard.

    The fleet owns the per-shard bounded queues and the worker threads and
    exposes the backend contract the :class:`ArrangementService` dispatcher
    drives: ``start`` / ``submit`` / ``try_submit`` / ``drain`` (which
    first ships each shard's flushed entry lists, then its sentinel) /
    ``shard_reports`` / ``metrics_snapshots`` / ``span_traces`` /
    ``shard_arrangement`` / ``close``.
    :class:`~repro.service.procworker.ProcessShardFleet` is the
    process-backed implementation of the same contract.
    """

    def __init__(
        self,
        engines: Sequence[ShardEngine],
        batch_size: int,
        batch_timeout: Optional[float],
        queue_capacity: int,
        on_result: Optional[Callable[[ServeResult], None]],
        retain_results: bool = True,
        span_sampler: Optional[SpanSampler] = None,
        metrics_interval: Optional[float] = None,
    ) -> None:
        del metrics_interval  # threads share the heap: snapshots are free
        self._engines = list(engines)
        self._queue_capacity = queue_capacity
        slots = queue_slots(queue_capacity, batch_size, batch_timeout)
        self._queues: List["queue.Queue"] = [
            queue.Queue(maxsize=slots) for _ in engines
        ]
        self._workers = [
            _ShardWorker(
                engine,
                shard_queue,
                batch_size,
                batch_timeout,
                on_result,
                metrics=ShardMetrics(engine.shard_index),
                spans=(
                    None
                    if span_sampler is None or span_sampler.rate <= 0.0
                    else SpanCollector(span_sampler)
                ),
                retain_results=retain_results,
            )
            for engine, shard_queue in zip(self._engines, self._queues)
        ]
        self._drain_started = False

    def start(self) -> None:
        for worker in self._workers:
            worker.start()

    def submit(self, shard: int, item: Entries, timeout: Optional[float]) -> None:
        try:
            self._queues[shard].put(item, timeout=timeout)
        except queue.Full:
            raise ServiceError(
                f"shard {shard} applied backpressure for more than {timeout}s "
                f"(queue capacity {self._queue_capacity})"
            ) from None

    def try_submit(self, shard: int, item: Entries) -> bool:
        try:
            self._queues[shard].put_nowait(item)
        except queue.Full:
            return False
        return True

    def drain(self, flush: Sequence[Sequence[Entries]]) -> List[ServeResult]:
        if not self._drain_started:
            self._drain_started = True
            # Workers consume to the sentinel even after a failure, so
            # these blocking puts always find room.
            for shard_queue, items in zip(self._queues, flush):
                for item in items:
                    shard_queue.put(item)
                shard_queue.put(None)
            for worker in self._workers:
                worker.join()
        for worker in self._workers:
            if worker.error is not None:
                raise ServiceError(
                    f"shard {worker.name} failed: {worker.error!r}"
                ) from worker.error
        results = [
            result for worker in self._workers for result in worker.results
        ]
        results.sort(key=lambda result: result.request_index)
        return results

    def shard_reports(self) -> List[ShardReport]:
        return [engine.report() for engine in self._engines]

    def metrics_snapshots(self) -> "Tuple[ShardMetricsSnapshot, ...]":
        # Threads share the heap: snapshots read the live single-writer
        # aggregates directly, before or after the drain.
        return tuple(worker.metrics.snapshot() for worker in self._workers)

    def span_traces(self) -> "Tuple[SpanTrace, ...]":
        traces = [
            trace
            for worker in self._workers
            if worker.spans is not None
            for trace in worker.spans.traces()
        ]
        traces.sort(key=lambda trace: trace.request_index)
        return tuple(traces)

    def shard_arrangement(self, shard: int) -> Arrangement:
        return self._engines[shard].current_arrangement

    def close(self) -> None:
        # Threads share the parent heap: nothing to unlink or reap.  Workers
        # are daemons, so even an un-drained fleet never blocks exit.
        return None


class ArrangementService:
    """A running arrangement-serving deployment: shards, queues, workers.

    Build one with the deployment helpers of :mod:`repro.service.loadgen`
    (:func:`~repro.service.loadgen.build_traffic_service` /
    :func:`~repro.service.loadgen.build_reveal_service`), or hand it
    pre-built engines directly.  Lifecycle::

        service.start()
        service.submit((u, v))       # blocks when the shard queue is full
        ...
        results = service.drain()    # flush, stop workers, collect
        service.close()              # release backend resources

    ``backend`` selects the worker runtime: ``"thread"`` (default) shares
    the parent heap, ``"process"`` forks one interpreter per shard
    (:mod:`repro.service.procworker`).  Served cost totals are identical
    either way.  ``on_result`` (when given) is invoked for every completed
    request — the hook closed-loop load generators use to release their
    concurrency tokens; under the process backend it runs in a per-shard
    collector thread of the *submitting* process, not in the worker.

    **Observability** (:mod:`repro.obs`): every worker aggregates into
    per-shard fixed-bucket histograms regardless of configuration — read
    them with :meth:`metrics_snapshots` / :meth:`fleet_snapshot`.
    ``retain_results=False`` additionally drops the per-request
    :class:`ServeResult` lists, making a deployment O(1) memory in the
    request count (the soak mode); :meth:`drain` then returns ``[]``.
    ``span_rate``/``span_seed`` turn on deterministic head-sampled span
    tracing (:mod:`repro.obs.spans`), keeping at most 256 traces per shard;
    ``metrics_interval`` makes process-backend workers ship periodic
    metrics snapshots for live introspection (threads are always live).
    """

    #: Cross-thread contract (enforced by THR001): attributes written
    #: concurrently by submitter threads, guarded by ``_submit_lock``.
    _shared = ("_next_index", "_pending")

    def __init__(
        self,
        engines: Sequence[ShardEngine],
        partition: ShardPartition,
        batch_size: int = 1,
        batch_timeout: Optional[float] = None,
        queue_capacity: int = 1024,
        on_result: Optional[Callable[[ServeResult], None]] = None,
        backend: str = "thread",
        retain_results: bool = True,
        span_rate: float = 0.0,
        span_seed: object = 0,
        metrics_interval: Optional[float] = None,
    ) -> None:
        if not engines:
            raise ServiceError("the service needs at least one shard engine")
        if len(engines) != partition.num_shards:
            raise ServiceError(
                f"{len(engines)} engines for {partition.num_shards} shards; "
                "one engine per shard"
            )
        if batch_size < 1:
            raise ServiceError(f"batch size must be positive, got {batch_size}")
        if batch_timeout is not None and batch_timeout <= 0:
            raise ServiceError(
                f"batch timeout must be positive (or None), got {batch_timeout}"
            )
        if queue_capacity < 1:
            raise ServiceError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if backend not in BACKENDS:
            raise ServiceError(
                f"unknown service backend {backend!r}; "
                f"choose one of {list(BACKENDS)}"
            )
        if metrics_interval is not None and metrics_interval <= 0:
            raise ServiceError(
                f"metrics interval must be positive (or None), "
                f"got {metrics_interval}"
            )
        # Validates span_rate up front, for both backends.
        span_sampler = SpanSampler(span_seed, span_rate)
        self._engines = list(engines)
        self._partition = partition
        self.backend = backend
        self.batch_size = batch_size
        self.batch_timeout = batch_timeout
        self.queue_capacity = queue_capacity
        self.retain_results = retain_results
        if backend == "process":
            # Imported lazily: procworker imports this module's serving loop.
            from repro.service.procworker import ProcessShardFleet

            self._fleet = ProcessShardFleet(
                self._engines,
                batch_size,
                batch_timeout,
                queue_capacity,
                on_result,
                retain_results=retain_results,
                span_sampler=span_sampler,
                metrics_interval=metrics_interval,
            )
        else:
            self._fleet = _ThreadFleet(
                self._engines,
                batch_size,
                batch_timeout,
                queue_capacity,
                on_result,
                retain_results=retain_results,
                span_sampler=span_sampler,
                metrics_interval=metrics_interval,
            )
        self._node_to_shard = partition.node_to_shard
        # The submission clock; start() binds the installed clock's reader.
        self._now: Callable[[], float] = monotonic_now
        # Re-entrant: try_submit holds it across _accept and the put.
        self._submit_lock = threading.RLock()
        self._next_index = 0
        # Buffered submission (batch_timeout=None): each shard's entries
        # wait here until a full batch ships as one queue item.
        self._pending: Optional[List[Entries]] = (
            [[] for _ in self._engines] if batch_timeout is None else None
        )
        self._started = False
        self._drained = False
        self._closed = False
        # Started, not drained, not closed: the one check a routed hit makes.
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """How many shard workers this deployment runs."""
        return len(self._engines)

    @property
    def partition(self) -> ShardPartition:
        """The node-to-shard assignment requests are routed by."""
        return self._partition

    def start(self) -> "ArrangementService":
        """Start the shard workers (idempotent)."""
        if self._closed:
            raise ServiceError("the service is closed")
        if not self._started:
            self._started = True
            self._running = True
            self._now = get_clock().now
            self._fleet.start()
        return self

    def __enter__(self) -> "ArrangementService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if not self._drained:
                self.drain()
        finally:
            self.close()

    def close(self) -> None:
        """Release backend resources (idempotent).

        Thread backend: a no-op.  Process backend: reaps any still-running
        worker processes and closes the request and result queues — after
        ``close()`` the deployment holds no child processes.  Reports,
        results, metrics and shard arrangements collected by an earlier
        :meth:`drain` remain readable.
        """
        if not self._closed:
            self._closed = True
            self._running = False
            self._fleet.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _route(self, pair: Request) -> int:
        """The routing checks that raise: the lifecycle, then the pair."""
        if not self._started or self._drained or self._closed:
            raise ServiceError(
                "the service is not running (start() it, and submit before drain())"
            )
        return self._partition.shard_of_pair(*pair)

    def _accept(self, pair: Request) -> "Tuple[int, int, Optional[Entries]]":
        """Route, number and buffer ``pair``: ``(shard, index, item to ship or None)``."""
        u, v = pair
        shard = self._node_to_shard.get(u)
        if not self._running or shard is None or shard != self._node_to_shard.get(v):
            shard = self._route(pair)
        with self._submit_lock:
            index = self._next_index
            self._next_index = index + 1
            entry = (index, pair, self._now())
            pending = self._pending
            if pending is None:
                return shard, index, [entry]
            buffered = pending[shard]
            buffered.append(entry)
            batch_size = self.batch_size
            if len(buffered) < batch_size:
                return shard, index, None
            pending[shard] = buffered[batch_size:]
            del buffered[batch_size:]
            return shard, index, buffered

    def _unship(self, shard: int, item: Entries) -> None:
        """Re-buffer an item that did not ship, minus its refused last entry."""
        with self._submit_lock:
            if self._pending is not None:
                self._pending[shard] = item[:-1] + self._pending[shard]

    def submit(self, pair: Request, timeout: Optional[float] = None) -> int:
        """Enqueue one request, blocking while the shard queue is full.

        Returns the request's global submission index.  A ``timeout`` (in
        seconds) turns starvation into an explicit :class:`ServiceError`
        instead of waiting forever.  A dead worker process (process backend)
        also surfaces here, once its queue is full, as a
        :class:`ServiceError` naming the shard.  Buffered submission
        (``batch_timeout=None``) only blocks on the request that completes
        its shard's batch; a refused request leaves the earlier ones
        buffered.
        """
        shard, index, item = self._accept(pair)
        if item is not None:
            try:
                self._fleet.submit(shard, item, timeout)
            except BaseException:
                self._unship(shard, item)
                raise
        return index

    def try_submit(self, pair: Request) -> Optional[int]:
        """Enqueue one request or return ``None`` when the shard queue is full."""
        # Held across the non-blocking put: a refused item is re-buffered
        # before any other submitter can touch the buffer.
        with self._submit_lock:
            shard, index, item = self._accept(pair)
            if item is None:
                return index
            shipped = False
            try:
                shipped = self._fleet.try_submit(shard, item)
            finally:
                if not shipped:
                    self._unship(shard, item)
        return index if shipped else None

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def drain(self) -> List[ServeResult]:
        """Flush every queue, stop the workers and return all served results.

        Pending requests (including partial final micro-batches) are served
        before the workers exit.  Results come back in submission order.  A
        worker that died re-raises its failure here as a
        :class:`ServiceError`.  With ``retain_results=False`` (the O(1)
        memory mode) no per-request results were kept: drain still flushes
        and stops everything, but returns an empty list — read
        :meth:`fleet_snapshot` instead.
        """
        if not self._started:
            raise ServiceError("the service was never started")
        batch_size = self.batch_size
        flush: List[List[Entries]] = [[] for _ in self._engines]
        with self._submit_lock:
            self._drained = True
            self._running = False
            if self._pending is not None:
                for shard, entries in enumerate(self._pending):
                    flush[shard] = [
                        entries[start : start + batch_size]
                        for start in range(0, len(entries), batch_size)
                    ]
                self._pending = [[] for _ in self._engines]
        return self._fleet.drain(flush)

    def shard_reports(self) -> List[ShardReport]:
        """Per-shard cost summaries (call after :meth:`drain` for final totals).

        Under the process backend the authoritative engine state lives in
        the worker processes and ships home with the drain, so pre-drain
        reports show only the parent's untouched engine copies.
        """
        return self._fleet.shard_reports()

    def worker_stats(self) -> "Tuple[ShardMetricsSnapshot, ...]":
        """Per-shard ``queue_peak``/``busy_fraction``: :meth:`metrics_snapshots`."""
        return self.metrics_snapshots()

    def metrics_snapshots(self) -> "Tuple[ShardMetricsSnapshot, ...]":
        """Per-shard O(buckets) metrics snapshots, in shard order.

        Thread backend: live reads of the single-writer aggregates.
        Process backend: the freshest snapshot each worker shipped — exact
        after :meth:`drain`; mid-run freshness is bounded by the service's
        ``metrics_interval`` (empty snapshots before the first ship).
        """
        return self._fleet.metrics_snapshots()

    def fleet_snapshot(self) -> FleetSnapshot:
        """The merged fleet view of :meth:`metrics_snapshots`."""
        return FleetSnapshot.merge_shards(self.metrics_snapshots())

    def span_traces(self) -> "Tuple[SpanTrace, ...]":
        """Sampled per-request span traces, by request index (final after drain)."""
        return self._fleet.span_traces()

    def shard_arrangement(self, shard: int) -> Arrangement:
        """One shard's current served arrangement.

        Thread backend: the live engine's arrangement.  Process backend:
        the final arrangement the worker shipped home with :meth:`drain`;
        before the drain it raises :class:`ServiceError`.
        """
        if not 0 <= shard < len(self._engines):
            raise ServiceError(
                f"shard {shard} out of range for {len(self._engines)} shard(s)"
            )
        return self._fleet.shard_arrangement(shard)
