"""Fixed-bucket latency histograms and the metric values exporters read.

Exact percentiles would need one ``ServeResult`` per request —
``O(requests)`` memory, which breaks the stream architecture's
boundedness.  A :class:`FixedBucketHistogram` keeps ``O(buckets)`` state:

* **edges are fixed at construction** (log-spaced by default, see
  :func:`log_bucket_edges`), so two histograms built from the same edges are
  structurally identical and can be merged by adding their integer counts —
  merging is exactly associative and commutative, and therefore
  *bit-identical* regardless of shard count, worker backend, or the order
  snapshots arrive in;
* **counts are exact integers** — no sampling, no decay — so a merged
  fleet histogram reports every request ever recorded;
* **percentiles are nearest-rank over buckets**: the reported value is the
  upper edge of the bucket holding the rank, so it always *bounds* the
  exact nearest-rank percentile from above, and the error is at most one
  bucket width (the exact value lies in the same bucket).  The ``sum`` and
  ``max`` are tracked exactly on the side, so ``mean`` and ``max`` carry no
  bucket error at all.

Workers aggregate locally into these histograms and ship compact
:class:`HistogramSnapshot` messages instead of per-request results; the
opt-in exact path (``--retain-requests``) still exists for audits, and the
E15 tests prove the histogram percentiles bound the exact ones within one
bucket width.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import ObsError


def log_bucket_edges(
    low: float, high: float, per_decade: int = 10
) -> Tuple[float, ...]:
    """Log-spaced bucket upper edges from ``low`` until ``high`` is covered.

    Edge ``k`` is ``low * 10**(k / per_decade)``; the sequence stops at the
    first edge ``>= high``.  Edges are a pure function of the arguments, so
    every shard of a deployment builds the same bucket layout without any
    coordination.
    """
    if not (low > 0.0 and math.isfinite(low)):
        raise ObsError(f"bucket edges need a positive finite low, got {low}")
    if not (high > low and math.isfinite(high)):
        raise ObsError(f"bucket edges need high > low, got high={high} low={low}")
    if per_decade < 1:
        raise ObsError(f"per_decade must be a positive integer, got {per_decade}")
    edges: List[float] = []
    k = 0
    while True:
        edge = low * 10.0 ** (k / per_decade)
        edges.append(edge)
        if edge >= high:
            return tuple(edges)
        k += 1


#: The default latency bucket layout: 10 µs to 10 s, ten buckets per decade
#: (every edge ~26% above the last, so a histogram percentile is never more
#: than ~26% above the exact one).  61 buckets plus overflow — a shard's
#: entire latency state is ~62 integers no matter how many requests it
#: serves.
LATENCY_BUCKET_EDGES: Tuple[float, ...] = log_bucket_edges(1e-5, 10.0, 10)


def _validate_edges(edges: Sequence[float]) -> Tuple[float, ...]:
    validated = tuple(float(edge) for edge in edges)
    if not validated:
        raise ObsError("a histogram needs at least one bucket edge")
    for previous, current in zip(validated, validated[1:]):
        if not current > previous:
            raise ObsError(
                "histogram bucket edges must be strictly increasing; "
                f"got {previous} then {current}"
            )
    if not all(math.isfinite(edge) and edge > 0.0 for edge in validated):
        raise ObsError("histogram bucket edges must be positive and finite")
    return validated


def _percentile_from_counts(
    edges: Tuple[float, ...], counts: Sequence[int], total: int, q: float
) -> Optional[int]:
    """The bucket index holding the nearest-rank ``q`` (None when empty)."""
    if not 0.0 < q <= 1.0:
        raise ObsError(f"percentile q must lie in (0, 1], got {q}")
    if total == 0:
        return None
    rank = max(math.ceil(q * total), 1)
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= rank:
            return index
    raise ObsError("histogram counts are inconsistent with their total")


@dataclass(frozen=True)
class HistogramSnapshot:
    """An immutable, mergeable copy of one histogram's state.

    Snapshots are what worker processes ship home (picklable, compact) and
    what summaries/exporters read.  ``counts`` has one entry per edge plus a
    final overflow bucket for values above the last edge.
    """

    edges: Tuple[float, ...]
    counts: Tuple[int, ...]
    sum: float
    """Sum of every recorded value, so ``mean`` carries no bucket error.

    Floating-point addition is not associative, so merge *order* can
    perturb the sum's last ulp — the bit-identity guarantee covers the
    integer ``counts`` (and everything derived from them: percentiles,
    ``count``) plus ``min``/``max``, never the sum.
    """
    min: Optional[float]
    max: Optional[float]
    """Exact extremes of the recorded values (None when empty)."""

    @property
    def count(self) -> int:
        """How many values this histogram has absorbed."""
        return sum(self.counts)

    @property
    def mean(self) -> Optional[float]:
        """Exact mean of the recorded values (None when empty)."""
        total = self.count
        if total == 0:
            return None
        return self.sum / total

    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile, reported as its bucket's upper edge.

        Returns ``None`` on an empty histogram — never a fake ``0.0`` —
        and ``math.inf`` when the rank lands in the overflow bucket (the
        layout was too small for the data; widen the edges).
        """
        index = _percentile_from_counts(self.edges, self.counts, self.count, q)
        if index is None:
            return None
        if index == len(self.edges):
            return math.inf
        return self.edges[index]

    def percentile_bounds(self, q: float) -> Optional[Tuple[float, float]]:
        """The ``(lower, upper)`` edges of the bucket holding rank ``q``.

        The exact nearest-rank percentile lies in this half-open interval
        ``(lower, upper]`` — the one-bucket-width error bound the E15 tests
        assert.
        """
        index = _percentile_from_counts(self.edges, self.counts, self.count, q)
        if index is None:
            return None
        lower = 0.0 if index == 0 else self.edges[index - 1]
        upper = math.inf if index == len(self.edges) else self.edges[index]
        return lower, upper

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """This snapshot plus ``other`` (same edges required)."""
        return merge_histograms((self, other))

    def to_json(self) -> Dict[str, object]:
        """A JSON-serializable dict (the JSONL exporter's payload)."""
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def empty(
        cls, edges: Sequence[float] = LATENCY_BUCKET_EDGES
    ) -> "HistogramSnapshot":
        """A zero-count snapshot over ``edges``."""
        validated = _validate_edges(edges)
        return cls(
            edges=validated,
            counts=tuple(0 for _ in range(len(validated) + 1)),
            sum=0.0,
            min=None,
            max=None,
        )


def merge_histograms(
    snapshots: Iterable[HistogramSnapshot],
) -> HistogramSnapshot:
    """Sum histogram snapshots bucket by bucket.

    Counts are integers, so the merge is exactly associative and
    commutative: any grouping and any order of the same snapshots produces
    bit-identical counts.  All inputs must share one edge layout.
    """
    merged: Optional[HistogramSnapshot] = None
    for snapshot in snapshots:
        if merged is None:
            merged = snapshot
            continue
        if snapshot.edges != merged.edges:
            raise ObsError(
                "cannot merge histograms with different bucket edges "
                f"({len(merged.edges)} vs {len(snapshot.edges)} edges)"
            )
        extremes = [
            value
            for value in (merged.min, snapshot.min, merged.max, snapshot.max)
            if value is not None
        ]
        merged = HistogramSnapshot(
            edges=merged.edges,
            counts=tuple(
                ours + theirs
                for ours, theirs in zip(merged.counts, snapshot.counts)
            ),
            sum=merged.sum + snapshot.sum,
            min=min(extremes) if extremes else None,
            max=max(extremes) if extremes else None,
        )
    if merged is None:
        raise ObsError("merge_histograms() needs at least one snapshot")
    return merged


class FixedBucketHistogram:
    """A mutable histogram with edges fixed at construction.

    Single-writer by design: each shard worker owns one and records into it
    without locks; readers take :meth:`snapshot` copies.  ``record`` is a
    bisect plus three scalar updates.  The serving hot path records one
    served batch at a time with :meth:`record_many`, which validates the
    batch once and updates ``min``/``max`` once, leaving the state ``record``
    would leave value by value (the bench gate in
    ``benchmarks/bench_obs.py`` holds the instrumentation to <5% of loadgen
    throughput).
    """

    __slots__ = ("edges", "_counts", "_sum", "_min", "_max")

    def __init__(self, edges: Sequence[float] = LATENCY_BUCKET_EDGES) -> None:
        self.edges = _validate_edges(edges)
        self._counts = [0] * (len(self.edges) + 1)
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    @property
    def count(self) -> int:
        return sum(self._counts)

    def record(self, value: float) -> None:
        """Absorb one observation (finite, non-negative)."""
        observed = float(value)
        if not (math.isfinite(observed) and observed >= 0.0):
            raise ObsError(
                f"histograms record finite non-negative values, got {value!r}"
            )
        # bisect_left finds the first edge >= value: buckets are half-open
        # (previous_edge, edge], values above the last edge overflow.
        self._counts[bisect_left(self.edges, observed)] += 1
        self._sum += observed
        if self._min is None or observed < self._min:
            self._min = observed
        if self._max is None or observed > self._max:
            self._max = observed

    def record_many(self, values: Sequence[float]) -> None:
        """Absorb ``values`` in order: the state of ``record`` on each one.

        The batch is checked once — every value converts to ``float``, the
        running sum stays finite and the minimum is non-negative.  When that
        check fails (a bad value, or a sum that overflows) it falls back to
        ``record`` per value, which raises the same error after the same
        prefix.  The sum is accumulated in the same order as ``record``
        would, so ``sum`` is bit-identical too.
        """
        try:
            observed = list(map(float, values))
        except (TypeError, ValueError):
            observed = None
        if not observed:  # empty, or a value float() refuses: record raises
            for value in values:
                self.record(value)
            return
        total = self._sum
        for value in observed:
            total += value
        low = min(observed)
        if not (math.isfinite(total) and low >= 0.0):
            for value in values:
                self.record(value)
            return
        counts = self._counts
        edges = self.edges
        for value in observed:
            counts[bisect_left(edges, value)] += 1
        self._sum = total
        high = max(observed)
        if self._min is None or low < self._min:
            self._min = low
        if self._max is None or high > self._max:
            self._max = high

    def update(self, other: Union["FixedBucketHistogram", HistogramSnapshot]) -> None:
        """Fold another histogram's counts into this one (same edges)."""
        snapshot = other if isinstance(other, HistogramSnapshot) else other.snapshot()
        merged = merge_histograms((self.snapshot(), snapshot))
        self._counts = list(merged.counts)
        self._sum = merged.sum
        self._min = merged.min
        self._max = merged.max

    def percentile(self, q: float) -> Optional[float]:
        """See :meth:`HistogramSnapshot.percentile`."""
        return self.snapshot().percentile(q)

    def snapshot(self) -> HistogramSnapshot:
        """An immutable copy of the current state."""
        return HistogramSnapshot(
            edges=self.edges,
            counts=tuple(self._counts),
            sum=self._sum,
            min=self._min,
            max=self._max,
        )


#: What a metrics mapping (see
#: :func:`repro.service.observation.fleet_metrics`) holds per name: a counter
#: value, a gauge value, or a histogram snapshot.
MetricValue = Union[int, float, HistogramSnapshot]
