"""Deterministic tenant-to-shard partitioning.

The serving subsystem shards state by *hidden component* (a tenant clique or
a pipeline): every request of the paper's model is intra-component, and
reveals only ever merge components of the same tenant group, so a
component-aligned partition guarantees that no request and no rearrangement
ever crosses a shard boundary — shard engines need no coordination at all.

The partition is a pure function of the workload:

* :func:`discover_stream_partition` learns the component structure of a lazy
  :class:`~repro.workloads.base.RequestStream` with one streamed union-find
  calibration pass (memory ``O(n)``, the request list is never
  materialized).  Streams are re-iterable, so the pass costs one extra
  iteration and nothing else — in a real deployment the same information
  would come from the tenant catalog.
* :func:`reveal_partition` reads the final components of a validated
  :class:`~repro.graphs.reveal.RevealSequence` directly.

Components are ordered by their first node in universe order and assigned
to the least-loaded shard (ties to the lowest shard index), so the same
workload always produces the same ``node -> shard`` map — for every worker
count, machine and run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

from repro.errors import ServiceError
from repro.graphs.components import DisjointSetForest
from repro.graphs.reveal import RevealSequence
from repro.workloads.base import RequestStream

Node = Hashable


@dataclass(frozen=True)
class ShardPartition:
    """A deterministic assignment of a node universe to worker shards."""

    num_shards: int
    shard_nodes: Tuple[Tuple[Node, ...], ...]
    """Per shard: its nodes, in global universe order."""
    node_to_shard: Dict[Node, int]

    def shard_of(self, node: Node) -> int:
        """The shard hosting ``node`` (unknown nodes raise)."""
        try:
            return self.node_to_shard[node]
        except KeyError:
            raise ServiceError(
                f"request names unknown node {node!r}; the service hosts "
                f"{sum(len(nodes) for nodes in self.shard_nodes)} nodes"
            ) from None

    def shard_of_pair(self, u: Node, v: Node) -> int:
        """The shard hosting both endpoints (cross-shard pairs raise)."""
        # The routing hot path: two dict reads.  A pair that fails them has
        # an unknown node (``shard_of`` raises) or crosses shards.
        shard = self.node_to_shard.get(u)
        if shard is not None and shard == self.node_to_shard.get(v):
            return shard
        shard_u = self.shard_of(u)
        shard_v = self.shard_of(v)
        raise ServiceError(
            f"request ({u!r}, {v!r}) crosses shards {shard_u} and {shard_v}; "
            "the partition must be component-aligned (requests and reveals "
            "are intra-component in the paper's model)"
        )

    @property
    def num_nodes(self) -> int:
        """Total nodes across all shards."""
        return sum(len(nodes) for nodes in self.shard_nodes)


def partition_components(
    components: Sequence[Iterable[Node]],
    universe: Sequence[Node],
    num_shards: int,
) -> ShardPartition:
    """Assign whole components to shards, deterministically and balanced.

    Components are ordered by the universe position of their first node and
    greedily placed on the least-loaded shard (node count; ties to the
    lowest shard index).  Every universe node must belong to exactly one
    component.  Shards that end up empty are dropped, so the returned
    partition never contains an engine with nothing to serve.
    """
    if num_shards < 1:
        raise ServiceError(f"the service needs at least one shard, got {num_shards}")
    position = {node: index for index, node in enumerate(universe)}
    if len(position) != len(universe):
        raise ServiceError("the node universe contains duplicates")
    ordered_components: List[Tuple[Node, ...]] = []
    seen = 0
    for component in components:
        members = sorted(component, key=position.__getitem__)
        if not members:
            raise ServiceError("cannot place an empty component on a shard")
        ordered_components.append(tuple(members))
        seen += len(members)
    if seen != len(universe) or {
        node for component in ordered_components for node in component
    } != set(universe):
        raise ServiceError(
            "the components must partition the node universe exactly"
        )
    ordered_components.sort(key=lambda members: position[members[0]])
    loads = [0] * num_shards
    assigned: List[List[Node]] = [[] for _ in range(num_shards)]
    for members in ordered_components:
        shard = min(range(num_shards), key=lambda index: (loads[index], index))
        assigned[shard].extend(members)
        loads[shard] += len(members)
    occupied = [nodes for nodes in assigned if nodes]
    shard_nodes = tuple(
        tuple(sorted(nodes, key=position.__getitem__)) for nodes in occupied
    )
    node_to_shard = {
        node: shard for shard, nodes in enumerate(shard_nodes) for node in nodes
    }
    return ShardPartition(
        num_shards=len(shard_nodes),
        shard_nodes=shard_nodes,
        node_to_shard=node_to_shard,
    )


def discover_stream_partition(
    stream: RequestStream, num_shards: int, batch_size: int = 4096
) -> ShardPartition:
    """Learn a stream's component partition with one streamed calibration pass.

    Requests are unioned into a disjoint-set forest batch by batch (peak
    memory bounded by ``batch_size`` plus the ``O(n)`` forest); the final
    components — including the never-communicating singletons — are then
    placed with :func:`partition_components`.  Deterministic because streams
    re-iterate identically.
    """
    forest = DisjointSetForest(stream.virtual_nodes)
    for batch in stream.batches(batch_size):
        for u, v in batch:
            if not forest.connected(u, v):
                forest.union(u, v)
    by_root: Dict[Node, List[Node]] = {}
    for node in stream.virtual_nodes:
        by_root.setdefault(forest.find(node), []).append(node)
    return partition_components(
        list(by_root.values()), stream.virtual_nodes, num_shards
    )


def reveal_partition(
    sequence: RevealSequence, num_shards: int
) -> ShardPartition:
    """Partition a reveal sequence's universe by its final components."""
    return partition_components(
        sequence.final_components(), sequence.nodes, num_shards
    )
