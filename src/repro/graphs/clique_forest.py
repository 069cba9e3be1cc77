"""Incremental model of a *collection of disjoint cliques*.

In the clique variant of online learning MinLA every revealed subgraph
``G_i`` is a disjoint union of cliques, and the step from ``G_i`` to
``G_{i+1}`` merges two of those cliques into a single larger clique (all
edges between the two components are revealed at once).  The class below
maintains that structure incrementally:

* the current set of cliques (components),
* the merge history, which forms a laminar family / binary merge tree — the
  object the offline-optimum computation needs in order to construct
  permutations that are simultaneously MinLA of every prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, TYPE_CHECKING, Tuple

from repro.errors import RevealError
from repro.graphs.components import DisjointSetForest

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where a graph is built
    import networkx as nx

Node = Hashable


@dataclass(frozen=True)
class MergeRecord:
    """One merge event: the two cliques (as node sets) that became one."""

    first: FrozenSet[Node]
    second: FrozenSet[Node]

    @property
    def merged(self) -> FrozenSet[Node]:
        """The clique resulting from the merge."""
        return self.first | self.second


class CliqueForest:
    """A dynamic disjoint union of cliques supporting merge reveals.

    Examples
    --------
    >>> forest = CliqueForest(range(4))
    >>> forest.merge(0, 1)
    >>> forest.merge(2, 3)
    >>> sorted(len(c) for c in forest.components())
    [2, 2]
    >>> forest.num_edges
    2
    """

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise RevealError("duplicate nodes in clique forest universe")
        self._dsf = DisjointSetForest(nodes)
        # Each root's clique, in the order of the union-find's roots.  A
        # merge replaces only the merged clique, so an unchanged clique is
        # the same frozenset object (with its hash cached) between merges.
        self._cliques: Dict[Node, FrozenSet[Node]] = {
            node: frozenset((node,)) for node in nodes
        }
        self._history: List[MergeRecord] = []

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[Node]:
        """All nodes of the (eventually revealed) graph."""
        return self._dsf.nodes

    @property
    def num_components(self) -> int:
        """Current number of cliques."""
        return self._dsf.num_components

    @property
    def num_edges(self) -> int:
        """Number of edges of the currently revealed graph (sum of C(c, 2))."""
        return sum(len(c) * (len(c) - 1) // 2 for c in self.components())

    def components(self) -> List[FrozenSet[Node]]:
        """The current cliques as a list of node sets.

        The order is the union-find's (:meth:`DisjointSetForest.components`),
        and an unchanged clique comes back as the same object after a merge.
        """
        return list(self._cliques.values())

    def component_of(self, node: Node) -> FrozenSet[Node]:
        """The clique containing ``node``."""
        return self._cliques[self._dsf.find(node)]

    def same_component(self, first: Node, second: Node) -> bool:
        """``True`` iff the two nodes currently belong to the same clique."""
        return self._dsf.connected(first, second)

    @property
    def history(self) -> Tuple[MergeRecord, ...]:
        """All merge events so far, in reveal order."""
        return tuple(self._history)

    def edges(self) -> List[Tuple[Node, Node]]:
        """All edges of the currently revealed graph."""
        result: List[Tuple[Node, Node]] = []
        for component in self.components():
            members = sorted(component, key=repr)
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    result.append((u, v))
        return result

    def to_networkx(self) -> nx.Graph:
        """The currently revealed graph as a :class:`networkx.Graph`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.nodes)
        graph.add_edges_from(self.edges())
        return graph

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def peek_merge(self, first: Node, second: Node) -> Tuple[FrozenSet[Node], FrozenSet[Node]]:
        """The two cliques that *would* merge when ``(first, second)`` is revealed.

        Raises :class:`~repro.errors.RevealError` if the nodes already share a
        clique (such a reveal would not change the graph).
        """
        if self._dsf.connected(first, second):
            raise RevealError(
                f"nodes {first!r} and {second!r} already belong to the same clique"
            )
        return self.component_of(first), self.component_of(second)

    def merge(self, first: Node, second: Node) -> MergeRecord:
        """Merge the cliques of ``first`` and ``second`` into one clique.

        The merged clique takes the surviving root's place in
        :meth:`components`; the other part's entry is removed.
        """
        comp_a, comp_b = self.peek_merge(first, second)
        dsf = self._dsf
        root_a, root_b = dsf.find(first), dsf.find(second)
        survivor = dsf.union(first, second)
        cliques = self._cliques
        del cliques[root_b if survivor == root_a else root_a]
        cliques[survivor] = comp_a | comp_b
        record = MergeRecord(comp_a, comp_b)
        self._history.append(record)
        return record

    def copy(self) -> "CliqueForest":
        """An independent copy of the forest (history included)."""
        clone = CliqueForest([])
        clone._dsf = self._dsf.copy()
        clone._cliques = dict(self._cliques)
        clone._history = list(self._history)
        return clone

