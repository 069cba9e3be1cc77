"""Baseline algorithms for the dynamic MinLA cost model.

Three strategies from the paper's related-work discussion (Section 1.3) plus
an adapter turning the paper's learning algorithms into dynamic-model
players:

* :class:`NeverMoveAlgorithm` — serve every request in place; the trivial
  ``O(n)``-competitive strategy mentioned for dynamic MinLA.
* :class:`MoveToFrontPairAlgorithm` — a list-update-inspired heuristic that
  pulls the two requested nodes next to each other at the cheaper side.
* :class:`MoveSmallerComponentAlgorithm` — the "move the smaller component
  towards the larger" rule of the self-adjusting grid networks line of work
  ([4] in the paper): components of previously requested pairs are kept
  collocated by always migrating the smaller side.
* :class:`CollocateLearnerAdapter` — wraps any
  :class:`~repro.core.algorithm.OnlineMinLAAlgorithm`; the first request
  between two components is treated as a reveal (the learner migrates), and
  every further request is served in place.  This is how the paper's
  algorithms would be deployed in the dynamic cost model, and experiment E9
  compares the resulting total cost against the baselines above.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.permutation import Arrangement
from repro.dynamic_minla.model import DynamicMinLAAlgorithm, DynamicRequest
from repro.errors import ReproError
from repro.graphs.components import DisjointSetForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep
from repro.workloads.streaming import (
    iter_pipeline_requests,
    iter_tenant_requests,
    pair_count_weights,
    pipeline_edges,
    split_groups,
)

Node = Hashable


class NeverMoveAlgorithm(DynamicMinLAAlgorithm):
    """Serve every request at its current distance and never rearrange."""

    name = "dynamic-never-move"

    def _rearrange(self, request: DynamicRequest) -> Tuple[Arrangement, int]:
        return self.current_arrangement, 0


class MoveToFrontPairAlgorithm(DynamicMinLAAlgorithm):
    """Pull the two requested nodes together, moving the one that is cheaper to move.

    A list-update-style heuristic: after serving ``(u, v)``, the node whose
    relocation is cheaper (fewer positions to travel) is moved right next to
    the other.  Aggressive collocation of hot pairs, oblivious to component
    structure.
    """

    name = "dynamic-move-to-front-pair"

    def _rearrange(self, request: DynamicRequest) -> Tuple[Arrangement, int]:
        arrangement = self.current_arrangement
        pos_u = arrangement.position(request.u)
        pos_v = arrangement.position(request.v)
        if abs(pos_u - pos_v) <= 1:
            return arrangement, 0
        # Moving a single node next to the other costs (gap) swaps.
        mover, anchor = (request.u, request.v)
        return arrangement.slide_block_next_to([mover], [anchor])


class MoveSmallerComponentAlgorithm(DynamicMinLAAlgorithm):
    """Keep requested components collocated by migrating the smaller side.

    Maintains a union–find over the requested pairs.  When a request joins
    two components, the smaller one slides next to the larger one (the
    deterministic counterpart of the paper's biased coin); requests within a
    component are served in place.  This mirrors the "move smaller towards
    larger" algorithm whose total cost is ``O(n² log n)`` in the dynamic
    setting ([4]).
    """

    name = "dynamic-move-smaller"

    def _after_reset(self) -> None:
        self._components = DisjointSetForest(self.current_arrangement.nodes)

    def _rearrange(self, request: DynamicRequest) -> Tuple[Arrangement, int]:
        arrangement = self.current_arrangement
        if self._components.connected(request.u, request.v):
            return arrangement, 0
        component_u = self._components.component_of(request.u)
        component_v = self._components.component_of(request.v)
        if len(component_u) <= len(component_v):
            mover, stayer = component_u, component_v
        else:
            mover, stayer = component_v, component_u
        new_arrangement, cost = arrangement.slide_block_next_to(mover, stayer)
        self._components.union(request.u, request.v)
        return new_arrangement, cost


class CollocateLearnerAdapter(DynamicMinLAAlgorithm):
    """Run a learning MinLA algorithm inside the dynamic cost model.

    Parameters
    ----------
    learner_factory:
        Builds a fresh :class:`~repro.core.algorithm.OnlineMinLAAlgorithm`
        per run (e.g. ``RandomizedCliqueLearner``).
    kind:
        Which reveal semantics first-time requests carry: clique merges or
        line edges.  For ``GraphKind.LINES`` requests that would violate the
        line structure (joining non-endpoints) are served without revealing,
        matching the model's assumption that the hidden pattern *is* a
        collection of lines.
    """

    def __init__(
        self,
        learner_factory: Callable[[], OnlineMinLAAlgorithm],
        kind: GraphKind,
        name: Optional[str] = None,
    ) -> None:
        super().__init__()
        self._learner_factory = learner_factory
        self._learner: Optional[OnlineMinLAAlgorithm] = None
        self._kind = kind
        self.name = name or f"dynamic-learner-{kind.value}"

    def _after_reset(self) -> None:
        self._learner = self._learner_factory()
        self._learner.reset(
            nodes=list(self.current_arrangement.nodes),
            kind=self._kind,
            initial_arrangement=self.current_arrangement,
            rng=self._rng,
        )
        if self._kind is GraphKind.LINES:
            self._line_view = LineForest(self.current_arrangement.nodes)
        else:
            self._line_view = None
        self._components = DisjointSetForest(self.current_arrangement.nodes)

    def _rearrange(self, request: DynamicRequest) -> Tuple[Arrangement, int]:
        if self._learner is None:
            raise ReproError("adapter used before reset")
        if self._components.connected(request.u, request.v):
            return self._learner.current_arrangement, 0
        if self._kind is GraphKind.LINES:
            assert self._line_view is not None
            if not (
                self._line_view.is_endpoint(request.u)
                and self._line_view.is_endpoint(request.v)
            ):
                # The request does not extend the hidden line pattern; serve in place.
                return self._learner.current_arrangement, 0
            self._line_view.add_edge(request.u, request.v)
        record = self._learner.process(RevealStep(request.u, request.v))
        self._components.union(request.u, request.v)
        # Pass the learner's phase attribution through to the shared ledger,
        # so E9 reports the moving/rearranging split exactly like E2/E3.
        self._charge_phase_split(
            record.moving_cost, record.rearranging_cost, record.kendall_tau
        )
        return self._learner.current_arrangement, record.total_cost


# ----------------------------------------------------------------------
# Request-stream generators for the comparison experiment (E9)
# ----------------------------------------------------------------------
def requests_from_clique_pattern(
    group_sizes: Sequence[int], num_requests: int, rng: random.Random
) -> Tuple[List[Node], List[DynamicRequest]]:
    """Random intra-group requests for a hidden tenant-clique pattern.

    Nodes ``0 … sum(sizes)-1`` are partitioned into groups; every request
    picks a group (proportionally to the number of pairs it contains) and a
    uniform pair inside it — drawn by
    :func:`repro.workloads.streaming.iter_tenant_requests`, the one
    tenant-draw implementation.  Returns the node universe and the request
    list.
    """
    if num_requests < 1:
        raise ReproError("num_requests must be positive")
    groups = split_groups(group_sizes)
    requests = [
        DynamicRequest(u, v)
        for u, v in iter_tenant_requests(
            groups, pair_count_weights(groups), num_requests, rng
        )
    ]
    return list(range(sum(group_sizes))), requests


def requests_from_line_pattern(
    path_sizes: Sequence[int], num_requests: int, rng: random.Random
) -> Tuple[List[Node], List[DynamicRequest]]:
    """Random along-the-path requests for a hidden pipeline pattern.

    Nodes ``0 … sum(sizes)-1`` are split into paths in order; every request
    is a uniform draw among all path edges (so a path is picked in
    proportion to its edge count) — drawn by
    :func:`repro.workloads.streaming.iter_pipeline_requests`, the one
    pipeline-draw implementation.  This is the traffic of a pipelined
    workload where only neighbouring stages communicate.
    """
    if num_requests < 1:
        raise ReproError("num_requests must be positive")
    edges = pipeline_edges(split_groups(path_sizes))
    requests = [
        DynamicRequest(u, v) for u, v in iter_pipeline_requests(edges, num_requests, rng)
    ]
    return list(range(sum(path_sizes))), requests
