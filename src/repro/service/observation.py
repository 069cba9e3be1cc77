"""Per-shard serving metrics and the live fleet view, built on :mod:`repro.obs`.

Each shard worker owns one :class:`ShardMetrics` — two fixed-bucket
histograms (total latency and queue wait), request/reveal/batch counters
and the worker's utilization (queue-depth high-water mark, busy and
lifetime seconds) — and updates it once per served batch.  That is the whole
memory story of the default (non-retained) serving path: O(buckets) per
shard, no matter how many requests flow.  Workers are the only writers;
readers take :meth:`ShardMetrics.snapshot` copies (the process backend
ships :class:`ShardMetricsSnapshot` messages across its result queue) and
merge them into a :class:`FleetSnapshot` — exact integer-count merges, so
the fleet view is bit-identical however the shard snapshots are grouped.

:class:`StatsReporter` is the live-introspection thread behind
``--stats-interval N``: every interval it snapshots the fleet and emits
one :func:`format_stats_line` — throughput, queue-depth high-water,
histogram p50/p95/p99, mean busy fraction — without touching the serving
hot path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.obs.clock import now as monotonic_now
from repro.obs.registry import (
    LATENCY_BUCKET_EDGES,
    FixedBucketHistogram,
    HistogramSnapshot,
    MetricValue,
    merge_histograms,
)


@dataclass(frozen=True)
class ShardMetricsSnapshot:
    """One shard's aggregated serving metrics, frozen and picklable."""

    shard_index: int
    num_requests: int
    num_reveals: int
    num_batches: int
    latency: HistogramSnapshot
    """Total per-request latency (enqueue to batch completion), seconds."""
    queue_wait: HistogramSnapshot
    """The queue-wait component of the same requests, seconds."""
    queue_peak: int
    """Queue-depth high-water mark at batch openings (queued items plus the
    one just dequeued): how deep backpressure actually stacked."""
    busy_seconds: float
    """Time spent inside rearrangement passes."""
    lifetime_seconds: float
    """The worker's lifetime so far (final once it stopped)."""

    @property
    def busy_fraction(self) -> float:
        """Share of the worker's lifetime spent serving batches."""
        if self.lifetime_seconds <= 0.0:
            return 0.0
        return min(self.busy_seconds / self.lifetime_seconds, 1.0)

    @classmethod
    def empty(
        cls,
        shard_index: int,
        edges: Sequence[float] = LATENCY_BUCKET_EDGES,
    ) -> "ShardMetricsSnapshot":
        blank = HistogramSnapshot.empty(edges)
        return cls(
            shard_index=shard_index,
            num_requests=0,
            num_reveals=0,
            num_batches=0,
            latency=blank,
            queue_wait=blank,
            queue_peak=0,
            busy_seconds=0.0,
            lifetime_seconds=0.0,
        )


class ShardMetrics:
    """A worker's mutable, O(buckets) aggregation of everything it served.

    Single-writer by contract: only the owning shard worker calls
    :meth:`observe_batch`.  Readers (the stats reporter, pre-drain
    introspection on the thread backend) call :meth:`snapshot`, which
    copies under the GIL — a reader may see a batch half-applied across
    the two histograms, which is acceptable for observability and
    irrelevant to the final post-drain snapshot.
    """

    def __init__(
        self,
        shard_index: int,
        edges: Sequence[float] = LATENCY_BUCKET_EDGES,
    ) -> None:
        self.shard_index = shard_index
        self.latency = FixedBucketHistogram(edges)
        self.queue_wait = FixedBucketHistogram(edges)
        self.num_requests = 0
        self.num_reveals = 0
        self.num_batches = 0
        self.queue_peak = 0
        self.busy_seconds = 0.0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def observe_depth(self, depth: int) -> None:
        """Record the queue depth at a batch opening (high-water tracking)."""
        if depth > self.queue_peak:
            self.queue_peak = depth

    def observe_batch(
        self,
        queue_seconds: Sequence[float],
        latency_seconds: Sequence[float],
        num_reveals: int,
        service_seconds: float = 0.0,
    ) -> None:
        """Absorb one served micro-batch (one entry per request)."""
        for value in queue_seconds:
            self.queue_wait.record(value)
        for value in latency_seconds:
            self.latency.record(value)
        self.num_requests += len(latency_seconds)
        self.num_reveals += num_reveals
        self.num_batches += 1
        self.busy_seconds += service_seconds

    def snapshot(self) -> ShardMetricsSnapshot:
        lifetime_seconds = 0.0
        if self.started_at is not None:
            finished = self.finished_at
            if finished is None:
                finished = monotonic_now()
            lifetime_seconds = finished - self.started_at
        return ShardMetricsSnapshot(
            shard_index=self.shard_index,
            num_requests=self.num_requests,
            num_reveals=self.num_reveals,
            num_batches=self.num_batches,
            latency=self.latency.snapshot(),
            queue_wait=self.queue_wait.snapshot(),
            queue_peak=self.queue_peak,
            busy_seconds=self.busy_seconds,
            lifetime_seconds=lifetime_seconds,
        )


@dataclass(frozen=True)
class FleetSnapshot:
    """The whole deployment's metrics: shard snapshots plus their merge."""

    shards: Tuple[ShardMetricsSnapshot, ...]
    latency: HistogramSnapshot
    queue_wait: HistogramSnapshot
    num_requests: int
    num_reveals: int
    num_batches: int

    @classmethod
    def merge_shards(
        cls, snapshots: Iterable[ShardMetricsSnapshot]
    ) -> "FleetSnapshot":
        """Merge per-shard snapshots (exact, order-independent counts)."""
        ordered = tuple(
            sorted(snapshots, key=lambda snapshot: snapshot.shard_index)
        )
        if not ordered:
            blank = HistogramSnapshot.empty()
            return cls(
                shards=(),
                latency=blank,
                queue_wait=blank,
                num_requests=0,
                num_reveals=0,
                num_batches=0,
            )
        return cls(
            shards=ordered,
            latency=merge_histograms(
                snapshot.latency for snapshot in ordered
            ),
            queue_wait=merge_histograms(
                snapshot.queue_wait for snapshot in ordered
            ),
            num_requests=sum(snapshot.num_requests for snapshot in ordered),
            num_reveals=sum(snapshot.num_reveals for snapshot in ordered),
            num_batches=sum(snapshot.num_batches for snapshot in ordered),
        )

    def shard_request_counts(self) -> Dict[int, int]:
        """Requests served per shard (the balance view, retention-free)."""
        return {
            snapshot.shard_index: snapshot.num_requests
            for snapshot in self.shards
        }


def fleet_metrics(
    snapshot: FleetSnapshot,
    worker_stats: Sequence = (),
) -> Dict[str, MetricValue]:
    """Flatten a fleet snapshot into an exportable metrics mapping.

    This is what ``--metrics-out`` (Prometheus text) and
    ``--metrics-jsonl`` render: counters for requests/reveals/batches, the
    two fleet histograms, and utilization gauges from the per-shard
    snapshots passed as ``worker_stats``.
    """
    metrics: Dict[str, MetricValue] = {
        "requests_served_total": snapshot.num_requests,
        "reveals_total": snapshot.num_reveals,
        "batches_served_total": snapshot.num_batches,
        "latency_seconds": snapshot.latency,
        "queue_wait_seconds": snapshot.queue_wait,
        "shards": len(snapshot.shards),
    }
    if worker_stats:
        metrics["queue_depth_peak"] = float(
            max(stats.queue_peak for stats in worker_stats)
        )
        metrics["worker_busy_fraction_mean"] = sum(
            stats.busy_fraction for stats in worker_stats
        ) / len(worker_stats)
    return metrics


def _format_quantile_ms(histogram: HistogramSnapshot, q: float) -> str:
    value = histogram.percentile(q)
    if value is None:
        return "-"
    return f"{value * 1_000.0:.2f}"


def format_stats_line(
    snapshot: FleetSnapshot,
    worker_stats: Sequence,
    elapsed_seconds: float,
) -> str:
    """One greppable fleet snapshot line (what ``--stats-interval`` prints)."""
    rate = (
        snapshot.num_requests / elapsed_seconds if elapsed_seconds > 0 else 0.0
    )
    queue_peak = max(
        (stats.queue_peak for stats in worker_stats), default=0
    )
    busy = (
        sum(stats.busy_fraction for stats in worker_stats) / len(worker_stats)
        if worker_stats
        else 0.0
    )
    latency = snapshot.latency
    return (
        f"stats t={elapsed_seconds:.1f}s served={snapshot.num_requests} "
        f"rate={rate:,.1f}/s "
        f"p50={_format_quantile_ms(latency, 0.50)}ms "
        f"p95={_format_quantile_ms(latency, 0.95)}ms "
        f"p99={_format_quantile_ms(latency, 0.99)}ms "
        f"queue_peak={queue_peak} busy={busy * 100.0:.1f}% "
        f"shards={len(snapshot.shards)}"
    )


class StatsReporter(threading.Thread):
    """A daemon that emits one stats line per interval while a run drives.

    Reads only snapshots (never worker internals), emits through an
    injectable callable (``print`` by default), and always emits one final
    line on :meth:`stop` so even a sub-interval run produces output.
    """

    #: Cross-thread contract (enforced by THR001): single-writer fields the
    #: reporter publishes; the control thread reads them after ``stop()``.
    _shared = ("num_emitted",)

    def __init__(
        self,
        service,
        interval_seconds: float,
        emit: Callable[[str], None] = print,
    ) -> None:
        super().__init__(name="repro-stats-reporter", daemon=True)
        if interval_seconds <= 0:
            raise ValueError(
                f"stats interval must be positive, got {interval_seconds}"
            )
        self._service = service
        self._interval = interval_seconds
        self._emit = emit
        self._stop_event = threading.Event()
        self._started_at = monotonic_now()
        self.num_emitted = 0

    def _emit_line(self) -> None:
        snapshot = self._service.fleet_snapshot()
        # repro: allow[obs002] — the live stats line reports fleet uptime, not a zone
        elapsed = monotonic_now() - self._started_at
        self._emit(format_stats_line(snapshot, snapshot.shards, elapsed))
        self.num_emitted += 1

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            self._emit_line()

    def stop(self) -> None:
        """Stop the loop and emit the final line (idempotent)."""
        if not self._stop_event.is_set():
            self._stop_event.set()
            self.join(timeout=self._interval + 5.0)
            self._emit_line()
