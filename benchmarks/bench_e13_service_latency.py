"""Benchmark E13 — serving throughput/latency vs backend, shards and batch.

Boots the arrangement-serving subsystem in-process and replays four
registered scenarios across the backend × shard-count × micro-batch grid,
measuring throughput and p50/p95/p99 latency.  Cost totals must agree
across backends in every cell; the process-beats-thread throughput claim
is asserted only when the host has a schedulable core for every shard of
the largest shard count plus one for the parent.  With fewer, the workers
share cores with each other and with the parent that routes and collects,
so the benchmark measures the process backend's IPC overhead, not its
parallel speedup; both best throughputs stay findings either way.
"""

import os

from repro.experiments.suite_service import run_e13_service_latency
from repro.service.broker import BACKENDS

#: Registered scenarios whose reveal graphs split into several components,
#: so the component-aligned partition actually populates multiple shards.
SHARDABLE_SCENARIOS = ("uniform-cliques", "zipf-tenants", "bursty-pipelines")


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def test_e13_service_latency(run_experiment):
    result = run_experiment(run_e13_service_latency)
    table = result.tables[0]
    # Every configuration served its full request load.
    requests = table.column("requests")
    assert all(value > 0 for value in requests)
    # Latency percentiles are well-ordered in every row.
    p50 = table.column("p50 ms")
    p95 = table.column("p95 ms")
    p99 = table.column("p99 ms")
    for low, mid, high in zip(p50, p95, p99):
        assert low <= mid <= high
    for backend in BACKENDS:
        assert result.findings[f"best throughput {backend} (req/s)"] > 0
    # The backends race on timing but must agree on every cost total.
    assert result.findings["max cross-backend cost deviation"] == 0.0
    # Process workers only out-scale threads with one core per shard (plus
    # one for the parent); on such a host the best process-backed
    # throughput at the largest shard count must beat the thread backend
    # on shardable scenarios.
    rows = table.rows
    columns = table.columns
    shards_i = columns.index("shards")
    max_shards = max(row[shards_i] for row in rows)
    if _available_cores() >= max_shards + 1:
        scenario_i = columns.index("scenario")
        backend_i = columns.index("backend")
        throughput_i = columns.index("throughput req/s")
        best = {}
        for row in rows:
            if row[scenario_i] in SHARDABLE_SCENARIOS and row[shards_i] == max_shards:
                key = row[backend_i]
                best[key] = max(best.get(key, 0.0), row[throughput_i])
        assert best["process"] >= best["thread"], (
            f"process backend ({best['process']:.0f} req/s) should beat the "
            f"thread backend ({best['thread']:.0f} req/s) at "
            f"shards={max_shards} with {_available_cores()} cores"
        )
