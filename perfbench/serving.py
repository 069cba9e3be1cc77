"""The serving workloads: ``serve-thread`` and ``serve-process``.

Both serve the same ``zipf-tenants`` traffic stream (256 nodes) through
``repro.service`` with 2 shards, batch 16 and the ``rand`` learner; only the
worker backend differs.  There are two phases, each on a fresh service:

* **replay** submits the whole request list back to back with
  ``batch_timeout=None``.  Batch composition, and so every served cost, is
  then a function of the request order alone.  This phase measures capacity
  (``req_per_s``) and gives the deterministic work counts.  Every repeat
  runs it.
* **fixed rate** drives ``ArrangementService.submit`` from this file with
  the first 20,000 requests, on a seeded open-loop Poisson schedule at
  10,000 req/s with a 2 ms batch timeout.  Each request is timed from when
  it was *due* to when its result reaches this process, so a stalled
  generator shows as latency, and the generator's own lateness is reported
  as ``loadgen.lag_ms_p90``.  Only the first ``FIXED_PHASES`` untraced
  repeats run it: its latency percentiles already agree within a few
  percent between runs, while the replay time needs as many repeats as a
  run can hold.

This process, with every thread it starts, runs on one CPU; the process
backend's shard workers run on the other CPUs.  Left to the scheduler, the
three busy parties (this process and two workers, or three threads) on a
2-vCPU cloud VM timed the scheduler and the host's load more than the
program.  The thread backend's threads share one interpreter lock, so a
second CPU gives them no parallelism, only hand-offs that must wake it: in
three alternating pairs of runs (2 seeds x 5-6 replays) the median replay
took 0.87-0.93 s on one CPU and 0.97-1.58 s on both, and across ten seeds
the spread of ``wall_s`` (IQR over median) fell from 0.12-0.26 to 0.04.
For the process backend, five seeds run interleaved in each placement gave
a ``wall_s`` spread of 0.38 left to the scheduler, 0.53 with everything on
one CPU and 0.09 with the workers apart from this process.

The request list, its arrival schedule and the shard partition are built in
set-up.  The replay totals must equal a sequential reference computed once
per run by serving each shard's requests straight through its
``ShardEngine`` in batches of 16.  Both backends must match that reference,
which is how the two workloads are held to the same served cost.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from typing import Callable, List, Optional, Sequence, Tuple

from repro.obs.clock import now
from repro.obs.profile import work_delta, work_snapshot
from repro.service.engine import ShardEngine, ShardReport
from repro.service.loadgen import build_traffic_service, learner_factory, shard_rng
from repro.service.partition import discover_stream_partition
from repro.vnet.topology import LinearDatacenter
from repro.workloads.registry import get_scenario

from layers import Repeat, SolverCounts, traced_layers
from tracer import Tracer, maybe_span, patched

SERVE_SCENARIO = "zipf-tenants"
SERVE_NODES = 256
SERVE_SHARDS = 2
SERVE_BATCH = 16
SERVE_LEARNER = "rand"
REPLAY_REQUESTS = 100_000
FIXED_RATE = 10_000.0
FIXED_REQUESTS = 20_000
FIXED_BATCH_TIMEOUT = 0.002
FIXED_PHASES = 3


def drive_open_loop(
    submit: Callable, requests: Sequence, offsets: Sequence[float], sleep=time.sleep
) -> Tuple[List[float], List[float]]:
    """Submit ``requests[i]`` when ``offsets[i]`` seconds have passed.

    An open loop: a slow ``submit`` delays later submissions but never moves
    their due times.  Returns ``(due, sent)`` clock readings per request.
    """
    count = len(offsets)
    due = [0.0] * count
    sent = [0.0] * count
    started = now()
    for index in range(count):
        due_at = started + offsets[index]
        delay = due_at - now()
        if delay > 0:
            sleep(delay)
        sent[index] = now()
        due[index] = due_at
        submit(requests[index])
    return due, sent


def _totals(report: ShardReport) -> Tuple:
    return (
        report.num_requests,
        report.num_batches,
        report.num_reveals,
        report.migration_swaps,
        report.communication_cost,
    )


class Serve:
    #: Fixed-rate latency is timed against a schedule and a batch timeout,
    #: which the host's speed does not scale.
    scaled_latency = False

    def __init__(self, seed: int, backend: str) -> None:
        self.name = f"serve-{backend}"
        self.seed = seed
        self.backend = backend
        self.setup_solver = SolverCounts()
        self.build_samples: List[float] = []
        self.reference: Optional[Tuple] = None
        self.fixed_phases = 0
        cpus = sorted(os.sched_getaffinity(0))
        # Before any service thread starts: threads inherit the affinity.
        os.sched_setaffinity(0, cpus[:1])
        self.worker_cpus = set(cpus[1:]) or set(cpus)

    def setup(self, tracer: Optional[Tracer]) -> None:
        with maybe_span(tracer, "workloads"):
            stream = get_scenario(SERVE_SCENARIO).request_stream(
                SERVE_NODES, REPLAY_REQUESTS, self.seed
            )
            requests = list(stream)
            arrivals = random.Random(f"{self.seed}|perfbench-arrivals")
            offsets = []
            due = 0.0
            for _ in range(FIXED_REQUESTS):
                due += arrivals.expovariate(FIXED_RATE)
                offsets.append(due)
        with maybe_span(tracer, "service.partition"):
            partition = discover_stream_partition(stream, SERVE_SHARDS)
        self.stream = stream
        self.requests = requests
        self.offsets = offsets
        self.partition = partition

    def prepare(self) -> None:
        """Serve the replay sequentially once: the totals both backends must hit."""
        kind = self.stream.kind
        engines = [
            ShardEngine(
                shard_index=index,
                nodes=nodes,
                kind=kind,
                learner_factory=learner_factory(kind, SERVE_LEARNER),
                rng=shard_rng(self.seed, index),
                datacenter=LinearDatacenter(len(nodes)),
            )
            for index, nodes in enumerate(self.partition.shard_nodes)
        ]
        per_shard: List[list] = [[] for _ in engines]
        for pair in self.requests:
            per_shard[self.partition.shard_of_pair(*pair)].append(pair)
        for engine, pairs in zip(engines, per_shard):
            for start in range(0, len(pairs), SERVE_BATCH):
                engine.serve_batch(pairs[start : start + SERVE_BATCH])
        self.reference = tuple(_totals(engine.report()) for engine in engines)

    def _start_service(self, batch_timeout: Optional[float], on_result):
        """Build and start a fresh service; the time counts as set-up."""
        started = now()
        service = build_traffic_service(
            self.stream,
            num_shards=SERVE_SHARDS,
            learner=SERVE_LEARNER,
            seed=self.seed,
            batch_size=SERVE_BATCH,
            batch_timeout=batch_timeout,
            partition=self.partition,
            on_result=on_result,
            backend=self.backend,
            retain_results=False,
        )
        service.start()
        # Each worker has one thread until its first result; later ones
        # inherit this affinity.
        for worker in multiprocessing.active_children():
            os.sched_setaffinity(worker.pid, self.worker_cpus)
        self.build_samples.append(now() - started)
        return service

    def repeat(self, tracer: Optional[Tracer]) -> Repeat:
        """One replay, plus one fixed-rate phase in the first untraced repeats."""
        solver = SolverCounts()
        patches = [] if tracer is None else traced_layers(tracer, solver)
        served = [0] * SERVE_SHARDS
        busy = [0.0] * SERVE_SHARDS

        def on_replayed(result) -> None:
            # One writer per shard: its worker thread or its collector thread.
            served[result.shard] += 1
            busy[result.shard] += result.service_seconds / result.batch_size

        service = self._start_service(None, on_replayed)
        try:
            work_before = work_snapshot()
            # Patched after start(): process workers fork untraced.
            with patched(patches):
                started = now()
                submit = service.submit
                for pair in self.requests:
                    submit(pair)
                service.drain()
                wall = now() - started
            work = work_delta(work_before, work_snapshot())
            totals = tuple(_totals(report) for report in service.shard_reports())
        finally:
            service.close()

        problems = []
        unserved = REPLAY_REQUESTS - sum(served)
        if unserved:
            problems.append(f"replay: {unserved} of {REPLAY_REQUESTS} requests unserved")
        if totals != self.reference:
            problems.append(
                f"replay totals {totals} differ from the sequential reference "
                f"{self.reference}"
            )
        batches = sum(total[1] for total in totals)
        extra = {
            "batches": batches,
            "busy_s": sum(busy),
            "batch_mean": REPLAY_REQUESTS / batches if batches else 0.0,
        }
        latencies: Optional[List[float]] = None
        attempted = REPLAY_REQUESTS
        if tracer is None and self.fixed_phases < FIXED_PHASES:
            self.fixed_phases += 1
            fixed = self._fixed_rate()
            latencies = fixed.pop("latencies_s")
            problems.extend(fixed.pop("problems"))
            unserved += fixed.pop("unserved")
            attempted += FIXED_REQUESTS
            extra.update(fixed)
        return Repeat(
            wall_s=wall,
            units=REPLAY_REQUESTS,
            attempted=attempted,
            failed=unserved,
            fingerprint=totals,
            work=work,
            latencies_s=latencies,
            problems=problems,
            solver=solver,
            extra=extra,
        )

    def _fixed_rate(self) -> dict:
        count = FIXED_REQUESTS
        completed: List[Optional[float]] = [None] * count
        queue_s = [0.0] * count
        child_latency_s = [0.0] * count

        def on_result(result) -> None:
            index = result.request_index
            completed[index] = now()
            queue_s[index] = result.queue_seconds
            child_latency_s[index] = result.latency_seconds

        service = self._start_service(FIXED_BATCH_TIMEOUT, on_result)
        try:
            due, sent = drive_open_loop(service.submit, self.requests, self.offsets)
            service.drain()
            stats = service.worker_stats()
            served = sum(report.num_requests for report in service.shard_reports())
        finally:
            service.close()

        done = [index for index in range(count) if completed[index] is not None]
        problems = []
        if len(done) != count or served != count:
            problems.append(
                f"fixed rate: {count - len(done)} of {count} requests never "
                f"completed ({served} served)"
            )
        return {
            "latencies_s": [completed[i] - due[i] for i in done],
            "problems": problems,
            "unserved": count - len(done),
            "lag_s": [sent[i] - due[i] for i in range(count)],
            "queue_s": [queue_s[i] for i in done],
            # Parent completion minus the worker's own completion stamp.
            "reply_s": [completed[i] - (sent[i] + child_latency_s[i]) for i in done],
            "queue_peak": max(stat.queue_peak for stat in stats),
            "busy_frac": sum(stat.busy_fraction for stat in stats) / len(stats),
        }
