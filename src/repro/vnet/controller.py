"""Embedding controllers: demand-aware, static and oracle.

The case study of experiment E10 compares three ways of placing virtual
nodes on the linear datacenter while a traffic trace plays out:

* :class:`StaticController` — keep the initial embedding forever (no
  migration cost, full communication cost),
* :class:`OracleController` — an offline yardstick that knows the final
  communication pattern, migrates once to the MinLA embedding closest to the
  initial one, and then never moves,
* :class:`DemandAwareController` — the paper's approach: run an online
  learning MinLA algorithm; whenever the trace reveals a new piece of the
  pattern (two previously separate components communicate for the first
  time) the learner migrates VMs, otherwise requests are served in place.

Every controller returns a :class:`ControllerReport` with the migration and
communication cost split, so the trade-off the paper motivates (migrate more
to communicate less) can be read off directly.  Migration swaps are charged
through the same ledger machinery as the core experiments: the demand-aware
controller records every learner update (with its moving/rearranging phase
attribution) in a :class:`~repro.core.cost.CostLedger`, so E10 reports
phase-split migration costs identically to E2/E3.

Datacenter scale (experiment E12) goes through :meth:`run_stream` instead of
:meth:`run`: the traffic arrives as a lazy
:class:`~repro.workloads.base.RequestStream` consumed in batches, and the
embedding is refreshed **once per batch** rather than once per reveal.
Rebuilding the embedding's slot maps costs ``O(n)``, so per-reveal refreshes
cost ``O(n · reveals)`` — prohibitive at thousands of tenants — while the
batched path pays ``O(n · batches)`` and keeps peak memory bounded by the
batch size (the request list is never materialized).  Requests inside a
batch are served on the embedding as of the batch start; the learner's swap
accounting is unchanged.

Both streamed paths cache per-pair slot distances through a
:class:`~repro.vnet.distance_cache.SlotDistanceCache`.  The static cache
never invalidates; the demand-aware cache invalidates *incrementally* on
every batched re-embedding — only pairs whose endpoints actually moved are
evicted, so the hot-pair entries that dominate Zipf-skewed traffic survive
most batches.  Totals stay bit-identical to the uncached loops (costs
accumulate in stream order and each cached distance equals the recomputed
one), asserted in ``tests/test_vnet.py``.

``run_stream(trace_every=…)`` additionally records the learner's migration
swaps as a downsampled :class:`~repro.telemetry.trace.CostTrace` (one event
per ``trace_every`` reveals, exact totals), so datacenter-scale runs can be
archived in the run store and banded by ``python -m repro runs report``
like the core experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.base import RequestStream

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.cost import CostLedger
from repro.core.opt import offline_optimum_bounds
from repro.core.instance import OnlineMinLAInstance
from repro.errors import EmbeddingError
from repro.graphs.components import DisjointSetForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep
from repro.telemetry.trace import CostTrace, TraceRecorder
from repro.vnet.distance_cache import SlotDistanceCache
from repro.vnet.embedding import Embedding
from repro.vnet.topology import LinearDatacenter
from repro.vnet.traffic import TrafficTrace


@dataclass(frozen=True)
class ControllerReport:
    """Cost summary of one controller run over one traffic trace."""

    controller_name: str
    num_requests: int
    migration_cost: float
    communication_cost: float
    migration_ledger: Optional[CostLedger] = None
    """Per-update migration swaps with their moving/rearranging phase split.

    ``None`` for controllers without per-update accounting (the static
    controller never migrates; the oracle performs one offline jump).
    """
    migration_cost_per_swap: float = 1.0
    """The datacenter's price per adjacent swap (scales the ledger totals)."""
    num_reveals: int = 0
    """Requests that revealed a new piece of the hidden pattern."""
    num_batches: int = 0
    """Batches consumed by a streamed run (0 for materialized runs)."""
    trace: Optional[CostTrace] = None
    """Downsampled migration-swap trace of a streamed run (``None`` unless
    ``run_stream`` was called with ``trace_every``); its exact totals equal
    the migration ledger's, so the run store can band datacenter runs."""

    @property
    def total_cost(self) -> float:
        """Migration plus communication cost."""
        return self.migration_cost + self.communication_cost

    @property
    def moving_migration_cost(self) -> float:
        """Migration cost attributed to moving phases (ledger-backed)."""
        if self.migration_ledger is None:
            return self.migration_cost
        return self.migration_ledger.total_moving_cost * self.migration_cost_per_swap

    @property
    def rearranging_migration_cost(self) -> float:
        """Migration cost attributed to rearranging phases (ledger-backed)."""
        if self.migration_ledger is None:
            return 0.0
        return (
            self.migration_ledger.total_rearranging_cost * self.migration_cost_per_swap
        )


class StaticController:
    """Never migrate: serve all traffic on the initial embedding."""

    name = "static-embedding"

    def __init__(self, datacenter: LinearDatacenter) -> None:
        self._datacenter = datacenter

    def run(
        self,
        trace: TrafficTrace,
        initial_embedding: Optional[Embedding] = None,
        rng: Optional[random.Random] = None,
    ) -> ControllerReport:
        """Replay the trace without ever moving a virtual node."""
        embedding = _default_embedding(self._datacenter, trace, initial_embedding)
        communication = embedding.communication_cost(trace.requests)
        return ControllerReport(
            controller_name=self.name,
            num_requests=trace.num_requests,
            migration_cost=0.0,
            communication_cost=communication,
            migration_ledger=CostLedger(),
            migration_cost_per_swap=self._datacenter.migration_cost_per_swap,
        )

    def run_stream(
        self,
        stream: "RequestStream",
        initial_embedding: Optional[Embedding] = None,
        rng: Optional[random.Random] = None,
        batch_size: int = 1024,
    ) -> ControllerReport:
        """Replay a lazy request stream without ever moving a virtual node.

        Peak memory is bounded by ``batch_size`` plus a per-tenant-pair
        distance cache: the static embedding never changes, so the slot
        distance of a communicating pair is computed once on first sight and
        reused for every repeat — under Zipf-skewed datacenter traffic a few
        hot pairs carry most requests, which is exactly where the per-request
        slot lookups used to dominate this loop.  The cache holds one float
        per *distinct* pair (bounded by the hidden pattern's edge set, not
        the stream length), and the cost accumulates in stream order, so the
        total is bit-identical to the uncached loop.
        """
        embedding = _default_embedding(self._datacenter, stream, initial_embedding)
        cache = SlotDistanceCache(embedding)
        communication = 0.0
        num_requests = 0
        num_batches = 0
        for batch in stream.batches(batch_size):
            for cost in cache.costs(batch):
                communication += cost
            num_requests += len(batch)
            num_batches += 1
        return ControllerReport(
            controller_name=self.name,
            num_requests=num_requests,
            migration_cost=0.0,
            communication_cost=communication,
            migration_ledger=CostLedger(),
            migration_cost_per_swap=self._datacenter.migration_cost_per_swap,
            num_batches=num_batches,
        )


class OracleController:
    """Offline yardstick: jump once to the best final embedding, then stay."""

    name = "oracle-embedding"

    def __init__(self, datacenter: LinearDatacenter) -> None:
        self._datacenter = datacenter

    def run(
        self,
        trace: TrafficTrace,
        initial_embedding: Optional[Embedding] = None,
        rng: Optional[random.Random] = None,
    ) -> ControllerReport:
        """Migrate to the single-jump offline target before any traffic flows."""
        embedding = _default_embedding(self._datacenter, trace, initial_embedding)
        instance = OnlineMinLAInstance(trace.sequence, embedding.arrangement)
        bounds = offline_optimum_bounds(instance)
        target = embedding.with_arrangement(bounds.upper_arrangement)
        migration = embedding.migration_cost_to(target)
        communication = target.communication_cost(trace.requests)
        return ControllerReport(
            controller_name=self.name,
            num_requests=trace.num_requests,
            migration_cost=migration,
            communication_cost=communication,
        )


class DemandAwareController:
    """Online re-embedding driven by a learning MinLA algorithm."""

    def __init__(
        self,
        datacenter: LinearDatacenter,
        learner_factory: Callable[[], OnlineMinLAAlgorithm],
        name: Optional[str] = None,
    ) -> None:
        self._datacenter = datacenter
        self._learner_factory = learner_factory
        self.name = name or "demand-aware-embedding"

    def run(
        self,
        trace: TrafficTrace,
        initial_embedding: Optional[Embedding] = None,
        rng: Optional[random.Random] = None,
    ) -> ControllerReport:
        """Replay the trace, migrating whenever the learner reacts to a reveal."""
        embedding = _default_embedding(self._datacenter, trace, initial_embedding)
        learner = self._learner_factory()
        learner.reset(
            nodes=list(trace.virtual_nodes),
            kind=trace.kind,
            initial_arrangement=embedding.arrangement,
            rng=rng if rng is not None else random.Random(0),
        )
        components = DisjointSetForest(trace.virtual_nodes)
        line_view = (
            LineForest(trace.virtual_nodes) if trace.kind is GraphKind.LINES else None
        )
        ledger = CostLedger()
        communication = 0.0
        for u, v in trace.requests:
            if not components.connected(u, v):
                if line_view is not None:
                    line_view.add_edge(u, v)
                ledger.add(learner.process(RevealStep(u, v)))
                components.union(u, v)
                embedding = embedding.with_arrangement(learner.current_arrangement)
            communication += embedding.communication_cost([(u, v)])
        return ControllerReport(
            controller_name=self.name,
            num_requests=trace.num_requests,
            migration_cost=self._datacenter.migration_cost(ledger.total_cost),
            communication_cost=communication,
            migration_ledger=ledger,
            migration_cost_per_swap=self._datacenter.migration_cost_per_swap,
            num_reveals=len(ledger),
        )

    def run_stream(
        self,
        stream: "RequestStream",
        initial_embedding: Optional[Embedding] = None,
        rng: Optional[random.Random] = None,
        batch_size: int = 1024,
        trace_every: Optional[int] = None,
    ) -> ControllerReport:
        """Replay a lazy request stream with **batched** embedding updates.

        Requests are consumed in batches of ``batch_size``; reveals detected
        inside a batch are fed to the learner immediately (its swap
        accounting is identical to :meth:`run`), but the embedding's slot
        maps — ``O(n)`` to rebuild — are refreshed only once per batch, so
        requests are served on the embedding as of the batch start.  Peak
        memory is bounded by the batch size plus the ``O(n)`` pattern state;
        the request list is never materialized.

        Per-pair slot distances are cached across batches and invalidated
        *incrementally*: a batched re-embedding evicts only the entries
        whose endpoints moved, so hot pairs keep their cached distance
        across the many batches that migrate other tenants.  The cost
        accumulation order matches the uncached loop exactly, so totals are
        bit-identical.

        ``trace_every`` (when set) records the learner's updates as a
        downsampled :class:`~repro.telemetry.trace.CostTrace` on the report
        (one event per ``trace_every`` reveals; totals stay exact and equal
        the migration ledger's swap totals).
        """
        if stream.kind is None:
            raise EmbeddingError(
                "the demand-aware controller needs a kind-pure stream "
                "(all tenant cliques or all pipelines)"
            )
        embedding = _default_embedding(self._datacenter, stream, initial_embedding)
        learner = self._learner_factory()
        learner.reset(
            nodes=list(stream.virtual_nodes),
            kind=stream.kind,
            initial_arrangement=embedding.arrangement,
            rng=rng if rng is not None else random.Random(0),
        )
        components = DisjointSetForest(stream.virtual_nodes)
        line_view = (
            LineForest(stream.virtual_nodes) if stream.kind is GraphKind.LINES else None
        )
        ledger = CostLedger()
        recorder = TraceRecorder(every=trace_every) if trace_every is not None else None
        cache = SlotDistanceCache(embedding)
        communication = 0.0
        num_requests = 0
        num_batches = 0
        for batch in stream.batches(batch_size):
            # Same accumulation order as the uncached
            # ``embedding.communication_cost(batch)`` loop: a per-batch
            # subtotal built left to right, added once per batch.
            batch_cost = 0.0
            for cost in cache.costs(batch):
                batch_cost += cost
            communication += batch_cost
            num_requests += len(batch)
            num_batches += 1
            revealed_in_batch = False
            for u, v in batch:
                if not components.connected(u, v):
                    if line_view is not None:
                        line_view.add_edge(u, v)
                    record = learner.process(RevealStep(u, v))
                    ledger.add(record)
                    if recorder is not None:
                        recorder.record_update(record)
                    components.union(u, v)
                    revealed_in_batch = True
            if revealed_in_batch:
                embedding = embedding.with_arrangement(learner.current_arrangement)
                cache.rebind(embedding)
        return ControllerReport(
            controller_name=self.name,
            num_requests=num_requests,
            migration_cost=self._datacenter.migration_cost(ledger.total_cost),
            communication_cost=communication,
            migration_ledger=ledger,
            migration_cost_per_swap=self._datacenter.migration_cost_per_swap,
            num_reveals=len(ledger),
            num_batches=num_batches,
            trace=recorder.as_trace() if recorder is not None else None,
        )


def _default_embedding(
    datacenter: LinearDatacenter,
    workload,
    initial_embedding: Optional[Embedding],
) -> Embedding:
    """Validate a provided embedding or build the canonical initial one.

    ``workload`` is anything carrying ``virtual_nodes`` / ``num_nodes`` — a
    materialized :class:`~repro.vnet.traffic.TrafficTrace` or a lazy
    :class:`~repro.workloads.base.RequestStream`.
    """
    if initial_embedding is not None:
        if initial_embedding.datacenter != datacenter:
            raise EmbeddingError("the provided embedding uses a different datacenter")
        if initial_embedding.arrangement.nodes != frozenset(workload.virtual_nodes):
            raise EmbeddingError("the provided embedding does not cover the trace's nodes")
        return initial_embedding
    if datacenter.num_slots != workload.num_nodes:
        raise EmbeddingError(
            f"the datacenter has {datacenter.num_slots} slots but the trace uses "
            f"{workload.num_nodes} virtual nodes"
        )
    return Embedding.initial(datacenter, workload.virtual_nodes)
