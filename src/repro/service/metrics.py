"""Latency/throughput summaries of a served run.

The serving subsystem measures what the batch harness cannot: per-request
latency under concurrency.  This module reduces a drained run's
:class:`~repro.service.broker.ServeResult` list to the standard serving
metrics — throughput plus p50/p95/p99 latency — next to the deterministic
cost totals aggregated from the shard engines.

Percentiles use the nearest-rank method on the sorted sample (the smallest
value with cumulative frequency ≥ p), so a percentile is always an actually
observed latency, never an interpolation artefact.

Since the observability rework there are two summary paths: the exact one
above (:func:`summarize_results`, needs ``retain_results=True``) and the
O(buckets) histogram path (:func:`summarize_snapshot`, the default for
loadgen and the only option for soak runs) whose quantiles are fixed-bucket
upper edges bounding the exact values within one bucket width.  A summary
records which path produced it in ``latency_source``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ServiceError
from repro.experiments.tables import ResultTable
from repro.obs.registry import HistogramSnapshot
from repro.service.broker import ServeResult
from repro.service.engine import ShardReport
from repro.service.observation import FleetSnapshot, ShardMetricsSnapshot

#: The latency quantiles every summary reports.
QUANTILES = (0.50, 0.95, 0.99)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in ``(0, 1]``).

    An empty sample *raises* — a percentile of nothing is not ``0.0``, and
    silently returning one would fabricate a perfect latency out of an
    idle run.  Callers that can legitimately see zero served requests
    (the soak/loadgen summaries) check first and surface
    "no requests served" instead.
    """
    if not values:
        raise ServiceError(
            "percentile() needs a non-empty sample (no requests served?)"
        )
    if not 0.0 < q <= 1.0:
        raise ServiceError(f"percentile q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return float(ordered[rank - 1])


@dataclass(frozen=True)
class ServiceSummary:
    """One served run, reduced to throughput, latency and cost totals."""

    num_requests: int
    num_shards: int
    batch_size: int
    wall_seconds: float
    throughput: float
    """Served requests per second of wall-clock time."""
    latency_ms: Dict[str, float]
    """``p50`` / ``p95`` / ``p99`` / ``mean`` / ``max`` total latency."""
    queue_ms: Dict[str, float]
    """The same quantiles of the queue-wait component."""
    num_reveals: int
    num_batches: int
    mean_batch: float
    """Mean served micro-batch size (the amortization actually achieved)."""
    migration_cost: float
    communication_cost: float
    total_cost: float
    """Migration plus communication — deterministic, unlike the timings."""
    backend: str = "thread"
    """Which worker backend served the run (``thread`` or ``process``)."""
    shard_stats: "Tuple[ShardMetricsSnapshot, ...]" = field(default_factory=tuple)
    """Per-shard queue-depth high-water marks and busy fractions."""
    latency_source: str = "exact"
    """Where the quantiles came from: ``exact`` (retained per-request
    samples, nearest-rank) or ``histogram`` (fixed-bucket upper edges —
    each bounds its exact counterpart within one bucket width)."""
    latency_histogram: Optional[HistogramSnapshot] = None
    queue_histogram: Optional[HistogramSnapshot] = None
    """The fleet-merged histograms behind a ``histogram``-sourced summary
    (kept so archives and exporters can band full distributions, not just
    three quantiles)."""

    @property
    def max_queue_peak(self) -> int:
        """The deepest per-shard queue high-water mark observed."""
        return max((stats.queue_peak for stats in self.shard_stats), default=0)

    @property
    def mean_busy_fraction(self) -> float:
        """Mean worker busy fraction across shards (0 without stats)."""
        if not self.shard_stats:
            return 0.0
        return sum(stats.busy_fraction for stats in self.shard_stats) / len(
            self.shard_stats
        )

    def to_text(self) -> str:
        """The multi-line human summary ``repro serve``/``loadgen`` print."""
        worker_line = f"workers    : backend={self.backend}"
        if self.shard_stats:
            per_shard = "; ".join(
                f"shard {stats.shard_index}: queue peak {stats.queue_peak}, "
                f"busy {stats.busy_fraction * 100.0:.1f}%"
                for stats in self.shard_stats
            )
            worker_line = f"{worker_line}; {per_shard}"
        cost_line = (
            f"served cost: migration={self.migration_cost:.1f} "
            f"communication={self.communication_cost:.1f} "
            f"total={self.total_cost:.1f} (reveals={self.num_reveals})"
        )
        if self.num_requests == 0:
            return "\n".join(
                [
                    f"no requests served on {self.num_shards} shard(s) in "
                    f"{self.wall_seconds:.2f} s — nothing to summarize",
                    worker_line,
                    cost_line,
                ]
            )
        latency = self.latency_ms
        queue = self.queue_ms
        source = "" if self.latency_source == "exact" else (
            f" [{self.latency_source}]"
        )
        return "\n".join(
            [
                f"served {self.num_requests} requests on {self.num_shards} "
                f"shard(s) in {self.wall_seconds:.2f} s — throughput "
                f"{self.throughput:,.1f} req/s",
                f"latency ms : p50={latency['p50']:.3f} p95={latency['p95']:.3f} "
                f"p99={latency['p99']:.3f} mean={latency['mean']:.3f} "
                f"max={latency['max']:.3f}{source}",
                f"queue ms   : p50={queue['p50']:.3f} p95={queue['p95']:.3f} "
                f"p99={queue['p99']:.3f}",
                f"batches    : {self.num_batches} served "
                f"(configured size {self.batch_size}, mean {self.mean_batch:.2f})",
                worker_line,
                cost_line,
            ]
        )

    def to_table(self, title: str) -> ResultTable:
        """A one-row :class:`ResultTable` (what the run store archives)."""
        table = ResultTable(
            title=title,
            columns=[
                "requests",
                "backend",
                "shards",
                "batch",
                "throughput req/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "queue peak",
                "busy %",
                "migration cost",
                "communication cost",
                "total cost",
                "reveals",
            ],
        )
        table.add_row(
            self.num_requests,
            self.backend,
            self.num_shards,
            self.batch_size,
            self.throughput,
            self.latency_ms.get("p50", math.nan),
            self.latency_ms.get("p95", math.nan),
            self.latency_ms.get("p99", math.nan),
            self.max_queue_peak,
            self.mean_busy_fraction * 100.0,
            self.migration_cost,
            self.communication_cost,
            self.total_cost,
            self.num_reveals,
        )
        return table

    def findings(self) -> Dict[str, float]:
        """Headline scalars (what loadgen archives as run-store findings)."""
        findings = {
            "throughput req/s": self.throughput,
            "max shard queue peak": float(self.max_queue_peak),
            "mean worker busy fraction": self.mean_busy_fraction,
            "served total cost": self.total_cost,
        }
        if self.num_requests > 0:
            # An idle run has no latency distribution: archiving 0.0 here
            # would band a fake perfect tail into runs report/compare.
            findings["latency p50 ms"] = self.latency_ms["p50"]
            findings["latency p95 ms"] = self.latency_ms["p95"]
            findings["latency p99 ms"] = self.latency_ms["p99"]
        return findings

    def latency_histogram_table(self, title: str) -> Optional[ResultTable]:
        """The latency histogram as an archivable bucket table.

        ``None`` for exact-sourced summaries (they carry no histogram).
        Only occupied buckets get rows, so the table stays compact while
        the archive keeps the full distribution — what lets
        ``runs report``/``runs compare`` band tail drift across commits.
        """
        if self.latency_histogram is None:
            return None
        table = ResultTable(
            title=title,
            columns=["le ms", "count", "cumulative"],
        )
        cumulative = 0
        edges = list(self.latency_histogram.edges) + [math.inf]
        for edge, count in zip(edges, self.latency_histogram.counts):
            cumulative += count
            if count > 0:
                table.add_row(edge * 1_000.0, count, cumulative)
        return table


def _histogram_quantile_map(histogram: HistogramSnapshot) -> Dict[str, float]:
    """The quantile map of a fleet histogram, in milliseconds.

    ``p50``/``p95``/``p99`` are bucket upper edges (each bounds the exact
    nearest-rank value within one bucket width); ``mean`` and ``max`` are
    exact, because the histogram tracks the sum and extremes on the side.
    """
    summary = {}
    for q in QUANTILES:
        value = histogram.percentile(q)
        assert value is not None  # callers check num_requests first
        summary[f"p{int(q * 100)}"] = value * 1_000.0
    assert histogram.mean is not None and histogram.max is not None
    summary["mean"] = histogram.mean * 1_000.0
    summary["max"] = histogram.max * 1_000.0
    return summary


def _quantile_map(seconds: List[float]) -> Dict[str, float]:
    milliseconds = [value * 1_000.0 for value in seconds]
    summary = {
        f"p{int(q * 100)}": percentile(milliseconds, q) for q in QUANTILES
    }
    summary["mean"] = sum(milliseconds) / len(milliseconds)
    summary["max"] = max(milliseconds)
    return summary


def summarize_results(
    results: Sequence[ServeResult],
    shard_reports: Sequence[ShardReport],
    wall_seconds: float,
    batch_size: int,
    backend: str = "thread",
    worker_stats: Sequence[ShardMetricsSnapshot] = (),
) -> ServiceSummary:
    """Reduce a drained run to its :class:`ServiceSummary`.

    ``backend`` and ``worker_stats`` (from
    :meth:`~repro.service.broker.ArrangementService.worker_stats`) label the
    summary with *where* time went — per-shard queue-depth high-water marks
    and busy fractions — so backend comparisons are more than totals.
    """
    if not results:
        raise ServiceError("summarize_results() needs at least one served request")
    if wall_seconds <= 0:
        raise ServiceError(f"wall_seconds must be positive, got {wall_seconds}")
    num_batches = sum(report.num_batches for report in shard_reports)
    return ServiceSummary(
        num_requests=len(results),
        num_shards=len(shard_reports),
        batch_size=batch_size,
        wall_seconds=wall_seconds,
        throughput=len(results) / wall_seconds,
        latency_ms=_quantile_map([result.latency_seconds for result in results]),
        queue_ms=_quantile_map([result.queue_seconds for result in results]),
        num_reveals=sum(report.num_reveals for report in shard_reports),
        num_batches=num_batches,
        mean_batch=len(results) / max(num_batches, 1),
        migration_cost=sum(report.migration_cost for report in shard_reports),
        communication_cost=sum(
            report.communication_cost for report in shard_reports
        ),
        total_cost=sum(report.total_cost for report in shard_reports),
        backend=backend,
        shard_stats=tuple(
            sorted(worker_stats, key=lambda stats: stats.shard_index)
        ),
    )


def summarize_snapshot(
    snapshot: FleetSnapshot,
    shard_reports: Sequence[ShardReport],
    wall_seconds: float,
    batch_size: int,
    backend: str = "thread",
    worker_stats: Sequence[ShardMetricsSnapshot] = (),
) -> ServiceSummary:
    """Reduce a fleet metrics snapshot to a :class:`ServiceSummary`.

    The histogram-sourced twin of :func:`summarize_results`: everything
    comes from the O(buckets) per-shard aggregates, so it works for runs
    that retained no per-request results (the default loadgen path and
    the soak mode).  Quantiles are bucket upper edges; a run that served
    nothing yields a summary whose ``to_text()`` says "no requests
    served" instead of fabricating zeros.
    """
    if wall_seconds <= 0:
        raise ServiceError(f"wall_seconds must be positive, got {wall_seconds}")
    served = snapshot.num_requests
    num_batches = sum(report.num_batches for report in shard_reports)
    return ServiceSummary(
        num_requests=served,
        num_shards=len(shard_reports),
        batch_size=batch_size,
        wall_seconds=wall_seconds,
        throughput=served / wall_seconds,
        latency_ms=(
            _histogram_quantile_map(snapshot.latency) if served else {}
        ),
        queue_ms=(
            _histogram_quantile_map(snapshot.queue_wait) if served else {}
        ),
        num_reveals=sum(report.num_reveals for report in shard_reports),
        num_batches=num_batches,
        mean_batch=served / max(num_batches, 1),
        migration_cost=sum(report.migration_cost for report in shard_reports),
        communication_cost=sum(
            report.communication_cost for report in shard_reports
        ),
        total_cost=sum(report.total_cost for report in shard_reports),
        backend=backend,
        shard_stats=tuple(
            sorted(worker_stats, key=lambda stats: stats.shard_index)
        ),
        latency_source="histogram",
        latency_histogram=snapshot.latency,
        queue_histogram=snapshot.queue_wait,
    )
