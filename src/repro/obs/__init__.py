"""Deterministic observability: metrics, spans, exporters, the clock seam.

The serving stack (:mod:`repro.service`) measures itself through this
package instead of keeping per-request state: shard workers aggregate into
fixed-bucket histograms (O(buckets) memory, exactly mergeable across
shards and processes), sampled requests leave reproducible span traces,
and every monotonic-clock read flows through the single seam in
:mod:`repro.obs.clock` (enforced tree-wide by the OBS001 analysis rule).
See ``DESIGN.md`` ("Observability subsystem") for the bucket-edge policy,
the span lifecycle and the sampling determinism story.
"""

from repro.obs.clock import Clock, ManualClock, MonotonicClock, get_clock, now, set_clock
from repro.obs.profile import (
    PROFILE_BUCKET_EDGES,
    ProfileSnapshot,
    ZoneProfiler,
    ZoneStat,
    active_profiler,
    add_work,
    count_work,
    merge_profiles,
    profile_zone,
    profiling,
    render_zone_table,
    reset_work_counters,
    set_profiler,
    work_delta,
    work_snapshot,
)
from repro.obs.export import (
    metrics_jsonl_lines,
    prometheus_text,
    resident_bytes,
    write_metrics_jsonl,
    write_prometheus_text,
)
from repro.obs.registry import (
    LATENCY_BUCKET_EDGES,
    FixedBucketHistogram,
    HistogramSnapshot,
    log_bucket_edges,
    merge_histograms,
)
from repro.obs.spans import (
    SPAN_NAMES,
    Span,
    SpanCollector,
    SpanSampler,
    SpanTrace,
    request_trace,
    spans_jsonl_lines,
    write_spans_jsonl,
)

__all__ = [
    "Clock",
    "FixedBucketHistogram",
    "HistogramSnapshot",
    "LATENCY_BUCKET_EDGES",
    "ManualClock",
    "MonotonicClock",
    "PROFILE_BUCKET_EDGES",
    "ProfileSnapshot",
    "SPAN_NAMES",
    "Span",
    "SpanCollector",
    "SpanSampler",
    "SpanTrace",
    "ZoneProfiler",
    "ZoneStat",
    "active_profiler",
    "add_work",
    "count_work",
    "get_clock",
    "log_bucket_edges",
    "merge_histograms",
    "merge_profiles",
    "metrics_jsonl_lines",
    "now",
    "profile_zone",
    "profiling",
    "prometheus_text",
    "render_zone_table",
    "request_trace",
    "reset_work_counters",
    "resident_bytes",
    "set_clock",
    "set_profiler",
    "spans_jsonl_lines",
    "work_delta",
    "work_snapshot",
    "write_metrics_jsonl",
    "write_prometheus_text",
    "write_spans_jsonl",
]
