"""Virtual-to-physical embeddings on the linear datacenter.

An embedding assigns every virtual node to exactly one slot of a
:class:`~repro.vnet.topology.LinearDatacenter`.  Because the physical
topology is a line with one VM per host, an embedding is exactly a linear
arrangement of the virtual nodes, and re-embedding costs are measured in
adjacent swaps — the same currency as the online learning MinLA problem.
This module is the thin translation layer between the two vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, Tuple

from repro.core.permutation import Arrangement
from repro.errors import EmbeddingError
from repro.vnet.topology import LinearDatacenter

VirtualNode = Hashable


@dataclass(frozen=True)
class Embedding:
    """A one-to-one placement of virtual nodes onto datacenter slots."""

    datacenter: LinearDatacenter
    arrangement: Arrangement

    def __post_init__(self) -> None:
        if len(self.arrangement) != self.datacenter.num_slots:
            raise EmbeddingError(
                f"the embedding places {len(self.arrangement)} virtual nodes on "
                f"{self.datacenter.num_slots} slots; counts must match"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def initial(
        cls, datacenter: LinearDatacenter, virtual_nodes: Sequence[VirtualNode]
    ) -> "Embedding":
        """Place the virtual nodes on slots ``0, 1, …`` in the given order."""
        return cls(datacenter, Arrangement(virtual_nodes))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def slot_of(self, virtual_node: VirtualNode) -> int:
        """The physical slot hosting ``virtual_node``."""
        return self.arrangement.position(virtual_node)

    def communication_cost(
        self, traffic: Iterable[Tuple[VirtualNode, VirtualNode]]
    ) -> float:
        """Total cost of one message per listed virtual node pair."""
        return sum(
            self.datacenter.communication_cost(self.slot_of(u), self.slot_of(v))
            for u, v in traffic
        )

    def migration_cost_to(self, other: "Embedding") -> float:
        """Cost of migrating from this embedding to ``other``.

        Both embeddings must use the same datacenter and host the same
        virtual nodes; the cost is the minimum number of adjacent VM
        exchanges (the Kendall-tau distance) times the per-swap price.
        """
        if other.datacenter != self.datacenter:
            raise EmbeddingError("migration cost requires the same physical datacenter")
        swaps = self.arrangement.kendall_tau(other.arrangement)
        return self.datacenter.migration_cost(swaps)

    def with_arrangement(self, arrangement: Arrangement) -> "Embedding":
        """A new embedding on the same datacenter using the given arrangement."""
        return Embedding(self.datacenter, arrangement)
