"""Experiments E13–E14: serving latency/throughput and serving correctness.

* **E13** boots the arrangement-serving subsystem (:mod:`repro.service`)
  in-process and replays four registered scenarios against it across a grid
  of worker backends (thread vs process), shard counts and micro-batch
  sizes, measuring throughput and p50/p95/p99 latency.  Latency and
  throughput are *measurements* — they vary run to run with the machine —
  while every served cost total in the table is a pure function of
  ``(scenario, seed, shards, batch)`` and must agree across backends.
* **E14** is the correctness anchor behind those numbers: on identical
  workloads the served cost totals of *both* backends are compared against
  the offline batch harness — :func:`repro.core.simulator.run_online` for
  reveal serving and
  :meth:`repro.vnet.controller.DemandAwareController.run_stream` for
  traffic serving — and must be **bit-identical** at batch size 1 (and at
  any batch size for reveal serving, whose costs are batch-invariant).

E14 is deterministic like E1–E12.  E13's timing columns are the one
deliberate exception in the suite: archiving it in the run store therefore
accumulates one content-addressed entry per invocation instead of deduping,
which is exactly what a latency log should do.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.core.instance import OnlineMinLAInstance
from repro.core.simulator import run_online
from repro.experiments.charts import horizontal_bar_chart
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentScale,
    scale_pick,
    seeded_rng,
)
from repro.experiments.tables import ResultTable
from repro.service.broker import BACKENDS, ArrangementService
from repro.service.loadgen import (
    build_reveal_service,
    learner_factory,
    run_scenario_loadgen,
    shard_rng,
)
from repro.vnet.controller import DemandAwareController
from repro.vnet.topology import LinearDatacenter
from repro.workloads.registry import get_scenario

#: The (kind-pure) scenarios both serving experiments exercise.
SERVICE_SCENARIOS = (
    "uniform-cliques",
    "zipf-tenants",
    "bursty-pipelines",
    "growing-hotspot",
)


def _available_cores() -> int:
    """CPU cores this process may schedule on (what backend scaling can use)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# E13 — serving throughput and latency vs backend, shards and batch size
# ----------------------------------------------------------------------
def run_e13_service_latency(
    scale: ExperimentScale = ExperimentScale.BENCH, seed: int = 0
) -> ExperimentResult:
    """Throughput and latency percentiles of the sharded serving subsystem."""
    num_nodes: int = scale_pick(scale, 24, 48, 96)
    num_requests: int = scale_pick(scale, 300, 1_500, 6_000)
    shard_counts: Tuple[int, ...] = scale_pick(scale, (1, 2), (1, 2, 4), (1, 2, 4))
    batch_sizes: Tuple[int, ...] = scale_pick(scale, (1, 4), (1, 16), (1, 16))

    table = ResultTable(
        title="E13 — serving: throughput and latency vs backend, shards, batch",
        columns=[
            "scenario",
            "backend",
            "nodes",
            "requests",
            "shards",
            "batch",
            "throughput req/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
            "busy %",
            "served cost",
        ],
    )
    findings: Dict[str, float] = {}
    worst_p99 = 0.0
    best_throughput: Dict[str, float] = {backend: 0.0 for backend in BACKENDS}
    max_shards = max(shard_counts)
    best_at_max_shards: Dict[str, float] = {backend: 0.0 for backend in BACKENDS}
    served_costs: Dict[Tuple[str, int, int], Dict[str, float]] = {}
    chart_labels: List[str] = []
    chart_values: List[float] = []
    chart_batch = max(batch_sizes)
    for scenario_name in SERVICE_SCENARIOS:
        scenario = get_scenario(scenario_name)
        for backend in BACKENDS:
            for num_shards in shard_counts:
                for batch_size in batch_sizes:
                    report = run_scenario_loadgen(
                        scenario,
                        num_nodes=num_nodes,
                        num_requests=num_requests,
                        seed=seed,
                        num_shards=num_shards,
                        batch_size=batch_size,
                        queue_capacity=max(num_requests, 1),
                        backend=backend,
                    )
                    summary = report.summary
                    table.add_row(
                        scenario_name,
                        backend,
                        num_nodes,
                        summary.num_requests,
                        num_shards,
                        batch_size,
                        summary.throughput,
                        summary.latency_ms["p50"],
                        summary.latency_ms["p95"],
                        summary.latency_ms["p99"],
                        summary.mean_batch,
                        summary.mean_busy_fraction * 100.0,
                        summary.total_cost,
                    )
                    worst_p99 = max(worst_p99, summary.latency_ms["p99"])
                    best_throughput[backend] = max(
                        best_throughput[backend], summary.throughput
                    )
                    if num_shards == max_shards:
                        best_at_max_shards[backend] = max(
                            best_at_max_shards[backend], summary.throughput
                        )
                    served_costs.setdefault(
                        (scenario_name, num_shards, batch_size), {}
                    )[backend] = summary.total_cost
                    if (
                        scenario_name == SERVICE_SCENARIOS[1]
                        and batch_size == chart_batch
                    ):
                        chart_labels.append(
                            f"{backend} shards={num_shards}"
                        )
                        chart_values.append(summary.throughput)
    for backend in BACKENDS:
        findings[f"best throughput {backend} (req/s)"] = best_throughput[backend]
    if best_at_max_shards["thread"] > 0.0:
        findings[f"process/thread speedup at shards={max_shards}"] = (
            best_at_max_shards["process"] / best_at_max_shards["thread"]
        )
    findings["max cross-backend cost deviation"] = max(
        (
            max(per_backend.values()) - min(per_backend.values())
            for per_backend in served_costs.values()
        ),
        default=0.0,
    )
    findings["worst p99 latency (ms)"] = worst_p99
    chart = horizontal_bar_chart(chart_labels, chart_values)
    return ExperimentResult(
        experiment_id="E13",
        title="Serving throughput and latency vs backend, shards and batch size",
        paper_claim="The paper's algorithms are online: served request by "
        "request, they sustain datacenter-style traffic under concurrency.  "
        "Component-aligned sharding shrinks each worker's arrangement (an "
        "O(n/shards) refresh) and micro-batching amortizes re-embedding "
        "passes; because shards never share state, process-backed workers "
        "can in principle scale past the GIL to one core per shard.",
        tables=[table],
        findings=findings,
        notes=[
            "Throughput and latency are wall-clock measurements (they vary "
            "with the machine and run); every 'served cost' value is "
            "deterministic for its (scenario, seed, shards, batch) cell and "
            "identical across backends ('max cross-backend cost deviation' "
            "must be 0) — E14 pins those totals to the offline harness.",
            "backend=thread serializes pure-Python compute under the GIL, "
            "so shard scaling shows mainly through smaller per-shard "
            "arrangements; backend=process forks one interpreter per shard "
            "(requests over bounded multiprocessing queues), removing the "
            "GIL ceiling at the "
            "price of per-request IPC.  Near-linear process scaling needs "
            f"one core per shard; this run saw {_available_cores()} "
            "schedulable core(s), so single-core hosts measure only the "
            "IPC overhead, not the parallel speedup.",
            "The shards column is the configured count; the component-"
            "aligned partition drops empty shards, so a single-component "
            "scenario (growing-hotspot) serves every configuration through "
            "one engine however many shards were requested.",
            f"throughput on {SERVICE_SCENARIOS[1]} by backend and shard "
            f"count (batch={chart_batch}):\n" + chart,
        ],
    )


# ----------------------------------------------------------------------
# E14 — served totals vs the offline batch harness
# ----------------------------------------------------------------------
def _serve_reveals(
    instance: OnlineMinLAInstance,
    learner: str,
    seed: int,
    batch_size: int,
    backend: str,
) -> float:
    """Serve an instance's reveal steps through a 1-shard deployment."""
    service: ArrangementService = build_reveal_service(
        instance,
        num_shards=1,
        learner=learner,
        seed=seed,
        batch_size=batch_size,
        queue_capacity=max(instance.num_steps, 1),
        backend=backend,
    )
    try:
        service.start()
        for step in instance.steps:
            service.submit((step.u, step.v))
        results = service.drain()
    finally:
        service.close()
    return float(sum(result.migration_swaps for result in results))


def run_e14_serving_equivalence(
    scale: ExperimentScale = ExperimentScale.BENCH, seed: int = 0
) -> ExperimentResult:
    """Bit-identity of served cost totals against the offline harness."""
    num_nodes: int = scale_pick(scale, 16, 32, 64)
    num_requests: int = scale_pick(scale, 300, 1_200, 5_000)
    batch_sizes: Tuple[int, ...] = scale_pick(scale, (1, 4), (1, 8), (1, 32))
    learner = "rand"

    table = ResultTable(
        title="E14 — serving correctness: served totals vs the offline harness",
        columns=[
            "scenario",
            "view",
            "n",
            "work items",
            "batch",
            "offline cost",
            "thread cost",
            "process cost",
            "identical",
        ],
    )
    max_deviation = 0.0
    for scenario_name in SERVICE_SCENARIOS[:3]:
        scenario = get_scenario(scenario_name)

        # Reveal serving vs run_online: batch-invariant, so every batch size
        # on every backend must reproduce the offline ledger exactly.
        sequence = scenario.reveal_sequences(num_nodes, seed)[0]
        instance = OnlineMinLAInstance.with_random_start(
            sequence, seeded_rng(seed, "e14-start", scenario_name)
        )
        factory = learner_factory(sequence.kind, learner)
        offline = run_online(factory(), instance, rng=shard_rng(seed, 0))
        for batch_size in batch_sizes:
            served = {
                backend: _serve_reveals(
                    instance, learner, seed, batch_size, backend
                )
                for backend in BACKENDS
            }
            deviation = max(
                abs(cost - offline.total_cost) for cost in served.values()
            )
            max_deviation = max(max_deviation, deviation)
            table.add_row(
                scenario_name,
                "reveals",
                instance.num_nodes,
                instance.num_steps,
                batch_size,
                float(offline.total_cost),
                served["thread"],
                served["process"],
                deviation == 0.0,
            )

        # Traffic serving vs the streamed demand-aware controller: the
        # controller fed the same batch boundaries is the offline yardstick
        # (batch size 1 = a slot-map refresh after every revealing request).
        stream = scenario.request_stream(num_nodes, num_requests, seed)
        datacenter = LinearDatacenter(stream.num_nodes)
        controller_factory = learner_factory(stream.kind, learner)
        for batch_size in batch_sizes:
            controller = DemandAwareController(datacenter, controller_factory)
            offline_report = controller.run_stream(
                stream, rng=shard_rng(seed, 0), batch_size=batch_size
            )
            served = {}
            for backend in BACKENDS:
                report = run_scenario_loadgen(
                    scenario,
                    num_nodes=num_nodes,
                    num_requests=num_requests,
                    seed=seed,
                    num_shards=1,
                    batch_size=batch_size,
                    queue_capacity=max(num_requests, 1),
                    backend=backend,
                )
                served[backend] = report.summary.total_cost
            deviation = max(
                abs(cost - offline_report.total_cost)
                for cost in served.values()
            )
            max_deviation = max(max_deviation, deviation)
            table.add_row(
                scenario_name,
                "traffic",
                stream.num_nodes,
                stream.num_requests,
                batch_size,
                offline_report.total_cost,
                served["thread"],
                served["process"],
                deviation == 0.0,
            )
    return ExperimentResult(
        experiment_id="E14",
        title="Serving correctness: served totals equal the offline harness",
        paper_claim="Serving is an execution strategy, not a different "
        "algorithm: dispatching the same reveal sequence (or request "
        "stream) through the sharded service must charge exactly the swaps "
        "and slot distances the batch harness charges — bit-identical "
        "totals on every worker backend, not approximately equal ones.",
        tables=[table],
        findings={"max |served - offline| cost deviation": max_deviation},
        notes=[
            "Reveal serving wraps the learner with the same node universe, "
            "initial arrangement and random stream as run_online, so totals "
            "match for every micro-batch size (costs are batch-invariant).  "
            "Traffic serving reproduces run_stream's batched re-embedding: "
            "identical batch boundaries give identical totals, with batch "
            "size 1 refreshing the slot maps after every revealing request.",
            "The thread and process columns must both equal the offline "
            "column bit for bit: engines cross the fork unchanged, each "
            "shard's learner draws only from its seed-derived stream, and "
            "batch composition depends only on per-shard request order — "
            "on neither backend do thread or process timings touch costs.",
            "All rows use one shard: with several shards each engine serves "
            "a restriction of the workload, which is the deployment mode "
            "E13 measures but not a configuration the offline harness can "
            "replay directly.",
        ],
    )
