"""The process backend: one worker process per shard, queues across the fork.

:class:`ProcessShardFleet` implements the same backend contract as the
thread fleet in :mod:`repro.service.broker`, but runs every shard's
:class:`~repro.service.engine.ShardEngine` in its own forked interpreter —
the GIL stops being the ceiling, so shardable scenarios can use one core
per shard.  The moving parts, per shard:

* a bounded ``multiprocessing.Queue`` of entry lists — each list holds the
  ``(request_index, pair, enqueued_at)`` entries of one buffered batch
  (``batch_timeout=None``: one pickled message per batch, not per request)
  or of one request (with a batch timeout) — ended by a ``None`` sentinel;
  same capacity in requests, same explicit backpressure semantics as the
  thread backend's ``queue.Queue``,
* the worker process (:func:`_worker_main`), a thin wrapper around the
  broker's :func:`~repro.service.broker.serve_shard` — the one serving loop
  both backends run (deterministic batch composition with
  ``batch_timeout=None``),
* a bounded result queue carrying one ``("results", record)`` message per
  served batch — a compact :data:`~repro.service.broker.ServedBatch`, so no
  per-request object crosses the pipe; skipped entirely in the non-retained
  O(1) memory mode when no ``on_result`` hook needs it — periodic
  ``("metrics", snapshot)`` ships for live introspection, then
  ``("error", ...)`` on engine failure and finally
  ``("done", report, metrics, spans, work, arrangement)`` — ``work`` being
  the process's deterministic work-counter delta (:mod:`repro.obs.profile`)
  and ``arrangement`` the shard's final served arrangement,
* a collector thread in the broker process that drains the result queue,
  expands each record (:func:`~repro.service.broker.expand_batch`), fires
  ``on_result`` hooks, and notices a worker that died without saying
  goodbye.

**Determinism**: engines cross the fork bit-for-bit (no pickling on fork
platforms), each shard's learner keeps drawing only from its
:func:`~repro.service.loadgen.shard_rng` stream, and batch composition
depends only on the per-shard request order — so served cost totals are
bit-identical to the thread backend and to the sequential harness (gated
by experiment E14).

**Failure**: a worker that raises keeps draining its request queue until
the sentinel (its bounded queue must never stay full, or submitters would
hang) and reports the error at drain; a worker that *dies* (kill -9,
segfault) is detected by liveness polling on the full-queue path only — a
put that finds room costs no ``waitpid``, while a submit against a full
queue re-checks the worker every poll slice and raises a
:class:`~repro.errors.ServiceError` naming the dead shard instead of
blocking forever; ``drain()`` reports it too.

**Shutdown** is deterministic: sentinels flush every queue, workers flush
their result queues before exiting, and processes are joined with a
timeout and terminated (then killed) if unresponsive — no orphans.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.permutation import Arrangement
from repro.errors import ServiceError
from repro.obs.clock import now as monotonic_now
from repro.obs.profile import add_work, work_delta, work_snapshot
from repro.obs.spans import SpanCollector, SpanSampler, SpanTrace
from repro.service.broker import (
    Entries,
    ServeResult,
    ServedBatch,
    expand_batch,
    queue_slots,
    serve_shard,
)
from repro.service.engine import ShardEngine, ShardReport
from repro.service.observation import ShardMetrics, ShardMetricsSnapshot

#: Liveness-polling interval for blocking queue operations against a worker
#: process: every slice a full queue stays full, we re-check the process is
#: still alive, so a dead worker turns a would-be-forever block into a
#: ServiceError.
_POLL_SECONDS = 0.05

#: How long drain() waits for a worker process to exit after its sentinel
#: before escalating to terminate() (and then kill()).
_JOIN_SECONDS = 10.0


def _worker_main(
    engine: ShardEngine,
    requests: "multiprocessing.queues.Queue",
    results: "multiprocessing.queues.Queue",
    batch_size: int,
    batch_timeout: Optional[float],
    ship_results: bool = True,
    span_sampler: Optional[SpanSampler] = None,
    span_max: int = 256,
    metrics_interval: Optional[float] = None,
) -> None:
    """One shard's worker process: :func:`serve_shard` plus the result pipe.

    Ships each batch's result record (unless ``ship_results=False``, the
    O(1) memory mode), a ``("metrics", snapshot)`` message every
    ``metrics_interval`` seconds for live introspection, and always ends
    with a ``("done", report, metrics, spans, work, arrangement)`` goodbye
    so the collector knows a missing one means the process died.
    """
    # Deltas, not snapshots: the fork inherits the parent's (and any stale
    # thread's) counter registries, and diffing before/after cancels that
    # inheritance exactly — only work done in this process ships home.
    work_before = work_snapshot()
    metrics = ShardMetrics(engine.shard_index)
    spans = (
        None
        if span_sampler is None or span_sampler.rate <= 0.0
        else SpanCollector(span_sampler, span_max)
    )
    after_batch = None
    if metrics_interval is not None:
        last_shipped_at = monotonic_now()

        def ship_metrics() -> None:
            nonlocal last_shipped_at
            shipped_at = monotonic_now()
            if shipped_at - last_shipped_at >= metrics_interval:
                last_shipped_at = shipped_at
                results.put(("metrics", metrics.snapshot()))

        after_batch = ship_metrics

    def emit(served: ServedBatch) -> None:
        results.put(("results", served))

    try:
        serve_shard(
            engine,
            requests,
            batch_size,
            batch_timeout,
            metrics,
            spans,
            emit=emit if ship_results else None,
            after_batch=after_batch,
        )
    except BaseException as error:  # noqa: BLE001 - reported at drain()
        results.put(("error", type(error).__name__, str(error)))
    finally:
        results.put(
            (
                "done",
                engine.report(),
                metrics.snapshot(),
                () if spans is None else spans.traces(),
                work_delta(work_before, work_snapshot()),
                engine.current_arrangement,
            )
        )


class _ResultCollector(threading.Thread):
    """Drains one shard's result queue in the broker process.

    Expands each batch record, fires ``on_result`` for every served
    request, remembers the shard's final report, metrics and arrangement
    from the worker's goodbye message, and — when the queue goes quiet and the process is no longer
    alive — records the death instead of waiting forever.
    """

    #: Cross-thread contract (enforced by THR001): single-writer fields the
    #: collector publishes; the control thread reads them after ``join()``
    #: (``live_metrics`` is also read mid-run by the stats reporter — a
    #: single reference assignment, atomic under the GIL).
    _shared = (
        "results",
        "report",
        "failure",
        "metrics",
        "spans",
        "work",
        "arrangement",
        "live_metrics",
    )

    def __init__(
        self,
        shard_index: int,
        results_queue: "multiprocessing.queues.Queue",
        process: multiprocessing.Process,
        on_result: Optional[Callable[[ServeResult], None]],
        retain_results: bool = True,
    ) -> None:
        super().__init__(
            name=f"repro-serve-collect-{shard_index}", daemon=True
        )
        self.shard_index = shard_index
        self._queue = results_queue
        self._process = process
        self._on_result = on_result
        self._retain_results = retain_results
        self.results: List[ServeResult] = []
        self.report: Optional[ShardReport] = None
        self.failure: Optional[str] = None
        self.metrics: Optional[ShardMetricsSnapshot] = None
        self.spans: "Tuple[SpanTrace, ...]" = ()
        self.work: "dict[str, int]" = {}
        self.arrangement: Optional[Arrangement] = None
        self.live_metrics: Optional[ShardMetricsSnapshot] = None

    def run(self) -> None:
        while True:
            try:
                message = self._queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if not self._process.is_alive():
                    # The pipe is drained and the writer is gone: anything
                    # flushed before death has already been delivered, so a
                    # missing goodbye can only mean the process died hard.
                    self.failure = (
                        f"worker process died (exit code "
                        f"{self._process.exitcode}) before finishing its drain"
                    )
                    return
                continue
            except Exception as error:  # noqa: BLE001 - truncated pickle etc.
                self.failure = f"result channel broke: {error!r}"
                return
            kind = message[0]
            if kind == "results":
                served = expand_batch(self.shard_index, message[1])
                if self._retain_results:
                    self.results.extend(served)
                if self._on_result is not None:
                    for result in served:
                        self._on_result(result)
            elif kind == "metrics":
                self.live_metrics = message[1]
            elif kind == "error":
                self.failure = f"{message[1]}: {message[2]}"
            else:  # "done"
                self.report = message[1]
                self.metrics = message[2]
                self.spans = tuple(message[3])
                self.work = dict(message[4])
                self.arrangement = message[5]
                return


class ProcessShardFleet:
    """The process backend: forked shard workers behind bounded mp queues.

    Implements the backend contract of
    :class:`~repro.service.broker.ArrangementService` (see the thread
    fleet's docstring).  The parent keeps a pristine copy of every engine —
    only for node universes and pre-drain reports; authoritative serving
    state lives in the workers and ships home with the drain.
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
        span_max: int = 256,
        metrics_interval: Optional[float] = None,
    ) -> None:
        self._engines = list(engines)
        self._queue_capacity = queue_capacity
        self._drain_started = False
        self._reports: Optional[List[ShardReport]] = None
        self._results: Optional[List[ServeResult]] = None
        self._failures: List[str] = []
        self._closed = False
        slots = queue_slots(queue_capacity, batch_size, batch_timeout)
        self._request_queues = [
            multiprocessing.Queue(maxsize=slots) for _ in self._engines
        ]
        self._result_queues = [
            multiprocessing.Queue(maxsize=queue_capacity) for _ in self._engines
        ]
        # Per-request results only cross the process boundary when someone
        # will consume them: the drain (retention) or an on_result hook.
        ship_results = retain_results or on_result is not None
        self._processes = [
            multiprocessing.Process(
                target=_worker_main,
                args=(
                    engine,
                    request_queue,
                    result_queue,
                    batch_size,
                    batch_timeout,
                    ship_results,
                    span_sampler,
                    span_max,
                    metrics_interval,
                ),
                name=f"repro-serve-proc-{engine.shard_index}",
                daemon=True,
            )
            for engine, request_queue, result_queue in zip(
                self._engines, self._request_queues, self._result_queues
            )
        ]
        self._collectors = [
            _ResultCollector(
                engine.shard_index,
                result_queue,
                process,
                on_result,
                retain_results=retain_results,
            )
            for engine, result_queue, process in zip(
                self._engines, self._result_queues, self._processes
            )
        ]

    def start(self) -> None:
        # Fork first, then start collector threads: forking a process while
        # our own helper threads are live would clone half-initialized
        # thread state into every worker.
        for process in self._processes:
            process.start()
        for collector in self._collectors:
            collector.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _check_alive(self, shard: int) -> None:
        process = self._processes[shard]
        if process.pid is not None and not process.is_alive():
            raise ServiceError(
                f"shard {shard} worker process is dead "
                f"(exit code {process.exitcode}); drain() has the details"
            )

    def submit(self, shard: int, item: Entries, timeout: Optional[float]) -> None:
        deadline = None if timeout is None else monotonic_now() + timeout
        while True:
            if deadline is None:
                slice_seconds = _POLL_SECONDS
            else:
                remaining = deadline - monotonic_now()
                if remaining <= 0:
                    raise ServiceError(
                        f"shard {shard} applied backpressure for more than "
                        f"{timeout}s (queue capacity {self._queue_capacity})"
                    )
                slice_seconds = min(_POLL_SECONDS, remaining)
            try:
                self._request_queues[shard].put(item, timeout=slice_seconds)
                return
            except queue.Full:
                # Poll in slices so a worker that dies with a full queue
                # turns into an error instead of an eternal block.
                self._check_alive(shard)

    def try_submit(self, shard: int, item: Entries) -> bool:
        try:
            self._request_queues[shard].put_nowait(item)
        except queue.Full:
            self._check_alive(shard)
            return False
        return True

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _send(self, shard: int, item: Optional[Entries]) -> bool:
        """Put ``item`` (``None``: the sentinel); ``False`` if the worker died."""
        process = self._processes[shard]
        while True:
            if process.pid is not None and not process.is_alive():
                return False  # the collector records the death
            try:
                self._request_queues[shard].put(item, timeout=_POLL_SECONDS)
                return True
            except queue.Full:
                continue

    def _reap(self) -> None:
        """Join every worker, escalating to terminate/kill — no orphans."""
        for process in self._processes:
            if process.pid is None:
                continue
            process.join(timeout=_JOIN_SECONDS)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=1.0)

    def drain(self, flush: Sequence[Sequence[Entries]]) -> List[ServeResult]:
        if not self._drain_started:
            self._drain_started = True
            for shard, items in enumerate(flush):
                for item in [*items, None]:
                    if not self._send(shard, item):
                        break
            for collector in self._collectors:
                collector.join()
            self._reap()
            reports: List[ShardReport] = []
            results: List[ServeResult] = []
            for shard, collector in enumerate(self._collectors):
                results.extend(collector.results)
                # Fold the worker's deterministic work counters into this
                # process, so totals match the thread backend bit-for-bit.
                add_work(collector.work)
                if collector.failure is not None:
                    self._failures.append(
                        f"shard {shard} failed: {collector.failure}"
                    )
                reports.append(
                    collector.report
                    if collector.report is not None
                    else self._engines[shard].report()
                )
            results.sort(key=lambda result: result.request_index)
            self._reports = reports
            self._results = results
        if self._failures:
            raise ServiceError("; ".join(self._failures))
        assert self._results is not None
        return self._results

    def shard_reports(self) -> List[ShardReport]:
        if self._reports is not None:
            return list(self._reports)
        return [engine.report() for engine in self._engines]

    def metrics_snapshots(self) -> "Tuple[ShardMetricsSnapshot, ...]":
        # Final snapshots arrive with the goodbye message; before that the
        # freshest periodic ("metrics", ...) ship stands in (workers only
        # send those when the fleet was built with a metrics_interval).
        snapshots = []
        for collector in self._collectors:
            if collector.metrics is not None:
                snapshots.append(collector.metrics)
            elif collector.live_metrics is not None:
                snapshots.append(collector.live_metrics)
            else:
                snapshots.append(
                    ShardMetricsSnapshot.empty(collector.shard_index)
                )
        return tuple(snapshots)

    def span_traces(self) -> "Tuple[SpanTrace, ...]":
        traces = [
            trace
            for collector in self._collectors
            for trace in collector.spans
        ]
        traces.sort(key=lambda trace: trace.request_index)
        return tuple(traces)

    def shard_arrangement(self, shard: int) -> Arrangement:
        arrangement = self._collectors[shard].arrangement
        if arrangement is None:
            raise ServiceError(
                f"shard {shard}'s arrangement lives in its worker process "
                "until drain() ships it home"
            )
        return arrangement

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for process in self._processes:
            if process.pid is not None and process.is_alive():
                process.terminate()
        self._reap()
        for request_queue in self._request_queues:
            request_queue.cancel_join_thread()
            request_queue.close()
        for result_queue in self._result_queues:
            result_queue.cancel_join_thread()
            result_queue.close()
