"""Online arrangement serving: sharded async workers over the online algorithms.

The batch harness owns its whole loop; this subsystem turns the same online
algorithms into *servers*: requests are submitted one at a time, routed to
component-aligned shards, micro-batched into rearrangement passes, and
answered with per-request latency and cost accounting.  Workers run on one
of two interchangeable backends — ``thread`` (one thread per shard, shared
heap) or ``process`` (one forked interpreter per shard, bounded
multiprocessing queues) — selected via ``backend=`` / ``--backend`` /
``REPRO_SERVICE_BACKEND``.  Both run the same serving loop,
:func:`~repro.service.broker.serve_shard`, so served costs are
bit-identical across backends.  Every worker aggregates its latency,
queue-wait and utilization observations into one
:class:`~repro.service.observation.ShardMetrics` with :mod:`repro.obs`
fixed-bucket histograms, so the default serving path runs at
O(buckets) memory — per-request retention and exact percentiles are the
opt-in (``retain_results=True`` / ``--retain-requests``), and
:func:`run_scenario_soak` streams scenarios in cycles indefinitely on the
same guarantee.  See ``DESIGN.md`` ("Service subsystem" and "Observability
subsystem") for the shard/batch/backpressure model, the backend matrix and
the determinism guarantees, and experiments E13/E14/E15 for the
measurements.
"""

from repro.service.broker import (
    BACKENDS,
    ArrangementService,
    ServeResult,
)
from repro.service.engine import ShardEngine, ShardReport
from repro.service.loadgen import (
    LEARNERS,
    MODES,
    LoadReport,
    SoakCheckpoint,
    SoakReport,
    build_reveal_service,
    build_traffic_service,
    drive_service,
    learner_factory,
    resolve_backend,
    run_scenario_loadgen,
    run_scenario_soak,
    shard_rng,
)
from repro.service.metrics import (
    ServiceSummary,
    percentile,
    summarize_results,
    summarize_snapshot,
)
from repro.service.observation import (
    FleetSnapshot,
    ShardMetrics,
    ShardMetricsSnapshot,
    StatsReporter,
    fleet_metrics,
    format_stats_line,
)
from repro.service.partition import (
    ShardPartition,
    discover_stream_partition,
    partition_components,
    reveal_partition,
)

__all__ = [
    "ArrangementService",
    "BACKENDS",
    "FleetSnapshot",
    "LEARNERS",
    "LoadReport",
    "MODES",
    "ServeResult",
    "ServiceSummary",
    "ShardEngine",
    "ShardMetrics",
    "ShardMetricsSnapshot",
    "ShardPartition",
    "ShardReport",
    "SoakCheckpoint",
    "SoakReport",
    "StatsReporter",
    "build_reveal_service",
    "build_traffic_service",
    "discover_stream_partition",
    "drive_service",
    "fleet_metrics",
    "format_stats_line",
    "learner_factory",
    "partition_components",
    "percentile",
    "resolve_backend",
    "reveal_partition",
    "run_scenario_loadgen",
    "run_scenario_soak",
    "shard_rng",
    "summarize_results",
    "summarize_snapshot",
]
