"""The single-shard serving core: one learner, one embedding, one queue owner.

A :class:`ShardEngine` is the unit of state of the serving subsystem.  It
wraps one online learning MinLA algorithm (``det`` / ``rand_cliques`` /
``rand_lines`` / any :class:`~repro.core.algorithm.OnlineMinLAAlgorithm`)
over one shard's node universe, in one of two modes:

* **traffic mode** (a :class:`~repro.vnet.topology.LinearDatacenter` is
  attached) — the vnet-controller semantics of
  :meth:`repro.vnet.controller.DemandAwareController.run_stream`: every
  request is a point-to-point message, charged the slot distance of its
  endpoints on the current embedding; a request joining two previously
  separate components of the hidden pattern additionally triggers a learner
  migration.  One :meth:`ShardEngine.serve_batch` call is one rearrangement
  pass: the whole batch is served on the embedding as of the batch start
  and the ``O(n)`` slot maps are refreshed once at the end — exactly the
  batched re-embedding of ``run_stream``, so the engine's cost totals are
  bit-identical to the offline controller fed the same request order with
  the same batch boundaries (batch size 1 is ``run_stream(batch_size=1)``:
  the slot maps refresh after every revealing request).
* **reveals mode** (no datacenter) — the core-simulator semantics of
  :func:`repro.core.simulator.run_online`: every request *is* a reveal step
  and costs the learner's swaps; there is no communication charge and no
  embedding, so totals are independent of batching and bit-identical to the
  offline harness for any batch size.

Engines are deliberately single-threaded: a shard's requests are served in
submission order by exactly one worker, which is what makes the served cost
totals a pure function of ``(scenario, seed, shard count, batch size)`` —
never of thread timing.  The sharded broker
(:mod:`repro.service.broker`) owns one engine per shard and never shares
one between workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Optional, Sequence, Tuple

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.cost import CostLedger
from repro.core.permutation import Arrangement
from repro.errors import ServiceError
from repro.graphs.components import DisjointSetForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep
from repro.telemetry.trace import CostTrace, TraceRecorder
from repro.vnet.distance_cache import SlotDistanceCache
from repro.vnet.embedding import Embedding
from repro.vnet.topology import LinearDatacenter

Node = Hashable
Request = Tuple[Node, Node]


#: What serving one request produced: ``(revealed, migration_swaps,
#: communication_cost)``.  ``revealed`` says whether it joined two components
#: of the hidden pattern, ``migration_swaps`` counts the learner swaps that
#: triggered (0 unless it revealed), ``communication_cost`` is its
#: slot-distance charge (0.0 in reveals mode).  No timing: the broker adds it.
Row = Tuple[bool, int, float]


@dataclass(frozen=True)
class ShardReport:
    """Aggregate cost summary of one engine after (or during) a run."""

    shard_index: int
    num_nodes: int
    num_requests: int
    num_batches: int
    num_reveals: int
    migration_swaps: int
    migration_cost: float
    communication_cost: float
    trace: Optional[CostTrace] = None

    @property
    def total_cost(self) -> float:
        """Migration plus communication cost (the served-cost objective)."""
        return self.migration_cost + self.communication_cost


class ShardEngine:
    """One shard's serving state: ``serve_batch(pairs)`` returns one :data:`Row` each.

    Parameters
    ----------
    nodes:
        The shard's node universe, in global universe order (the restriction
        of the scenario's node order to this shard).
    kind:
        Graph kind of the shard's hidden pattern (must be kind-pure).
    learner_factory:
        Zero-argument factory of the online algorithm to serve with.
    rng:
        The learner's randomness; pass :func:`repro.service.loadgen.shard_rng`
        for the deterministic per-shard stream.
    datacenter:
        Attach a linear datacenter to serve in traffic mode; ``None`` serves
        in reveals mode.
    initial_arrangement:
        Starting permutation over exactly ``nodes`` (defaults to universe
        order).
    trace_every:
        When set, learner updates are recorded as a downsampled
        :class:`~repro.telemetry.trace.CostTrace` on the shard report.
    """

    def __init__(
        self,
        shard_index: int,
        nodes: Sequence[Node],
        kind: GraphKind,
        learner_factory,
        rng: Optional[random.Random] = None,
        datacenter: Optional[LinearDatacenter] = None,
        initial_arrangement: Optional[Arrangement] = None,
        trace_every: Optional[int] = None,
    ) -> None:
        if not nodes:
            raise ServiceError(f"shard {shard_index} has an empty node universe")
        if datacenter is not None and datacenter.num_slots != len(nodes):
            raise ServiceError(
                f"shard {shard_index}: the datacenter has {datacenter.num_slots} "
                f"slots but the shard hosts {len(nodes)} nodes"
            )
        self.shard_index = shard_index
        self._nodes = tuple(nodes)
        self._kind = kind
        arrangement = (
            initial_arrangement
            if initial_arrangement is not None
            else Arrangement(self._nodes)
        )
        if arrangement.nodes != frozenset(self._nodes):
            raise ServiceError(
                f"shard {shard_index}: the initial arrangement does not cover "
                "exactly the shard's nodes"
            )
        self._learner: OnlineMinLAAlgorithm = learner_factory()
        self._learner.reset(
            nodes=list(self._nodes),
            kind=kind,
            initial_arrangement=arrangement,
            rng=rng if rng is not None else random.Random(0),
        )
        self._components = DisjointSetForest(self._nodes)
        self._line_view = (
            LineForest(self._nodes) if kind is GraphKind.LINES else None
        )
        self._ledger = CostLedger()
        self._recorder = (
            TraceRecorder(every=trace_every) if trace_every is not None else None
        )
        if datacenter is not None:
            embedding = Embedding(datacenter, arrangement)
            self._datacenter: Optional[LinearDatacenter] = datacenter
            self._cache: Optional[SlotDistanceCache] = SlotDistanceCache(embedding)
        else:
            self._datacenter = None
            self._cache = None
        self._communication = 0.0
        self._num_requests = 0
        self._num_batches = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_batch(self, pairs: Sequence[Request]) -> List[Row]:
        """Serve a micro-batch of requests in one rearrangement pass.

        Traffic mode mirrors ``run_stream``: every request is charged on the
        embedding as of the batch start, reveals are fed to the learner in
        request order, and the slot maps are refreshed once at the end (with
        incremental distance-cache invalidation).  Reveals mode feeds every
        request to the learner directly.  Returns one :data:`Row` per
        request, in request order.
        """
        if not pairs:
            return []
        self._num_batches += 1
        self._num_requests += len(pairs)
        cache = self._cache
        if cache is None:
            return [(True, self._reveal(u, v), 0.0) for u, v in pairs]
        communication = cache.costs(pairs)
        # Accumulate through a per-batch subtotal, matching the controller's
        # per-batch summation order bit for bit.
        batch_cost = 0.0
        for cost in communication:
            batch_cost += cost
        self._communication += batch_cost
        rows: List[Row] = []
        append = rows.append
        connected = self._components.connected
        revealed_in_batch = False
        for (u, v), cost in zip(pairs, communication):
            if connected(u, v):
                append((False, 0, cost))
            else:
                append((True, self._reveal(u, v), cost))
                revealed_in_batch = True
        if revealed_in_batch:
            cache.rebind(
                cache.embedding.with_arrangement(self._learner.current_arrangement)
            )
        return rows

    def _reveal(self, u: Node, v: Node) -> int:
        """Feed the reveal ``(u, v)`` to the learner; returns its swaps."""
        if self._line_view is not None:
            self._line_view.add_edge(u, v)
        record = self._learner.process(RevealStep(u, v))
        self._ledger.add(record)
        if self._recorder is not None:
            self._recorder.record_update(record)
        self._components.union(u, v)
        return record.total_cost

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The shard's node universe, in universe order."""
        return self._nodes

    @property
    def kind(self) -> GraphKind:
        """The graph kind this shard serves."""
        return self._kind

    @property
    def ledger(self) -> CostLedger:
        """The learner's migration ledger (moving/rearranging phase split)."""
        return self._ledger

    @property
    def current_arrangement(self) -> Arrangement:
        """The learner's live arrangement over the shard's nodes."""
        return self._learner.current_arrangement

    def report(self) -> ShardReport:
        """The shard's aggregate cost summary so far."""
        swaps = self._ledger.total_cost
        migration_cost = (
            self._datacenter.migration_cost(swaps)
            if self._datacenter is not None
            else float(swaps)
        )
        return ShardReport(
            shard_index=self.shard_index,
            num_nodes=len(self._nodes),
            num_requests=self._num_requests,
            num_batches=self._num_batches,
            num_reveals=len(self._ledger),
            migration_swaps=swaps,
            migration_cost=migration_cost,
            communication_cost=self._communication,
            trace=self._recorder.as_trace() if self._recorder is not None else None,
        )
