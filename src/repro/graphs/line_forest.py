"""Incremental model of a *collection of disjoint lines* (paths).

In the line variant of online learning MinLA every revealed subgraph ``G_i``
is a disjoint union of simple paths, and the step to ``G_{i+1}`` reveals one
new edge ``(x_i, z_i)``.  For the union to remain a collection of paths the
two endpoints must be *path endpoints* (or isolated nodes) of two distinct
components; the class below enforces exactly that.

Besides the component structure, the forest keeps each component's node
sequence in path order — the information the line algorithm of Section 4
needs to know which of the two orientations a component may take in a MinLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, TYPE_CHECKING, Tuple

from repro.errors import RevealError

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where a graph is built
    import networkx as nx

Node = Hashable


@dataclass(frozen=True)
class LineMergeRecord:
    """One edge reveal: the two paths it joined and the resulting path order."""

    first: Tuple[Node, ...]
    second: Tuple[Node, ...]
    endpoint_first: Node
    endpoint_second: Node
    merged: Tuple[Node, ...]


class LineForest:
    """A dynamic disjoint union of simple paths supporting edge reveals.

    Examples
    --------
    >>> forest = LineForest(range(4))
    >>> _ = forest.add_edge(0, 1)
    >>> _ = forest.add_edge(2, 1)
    >>> forest.path_of(0)
    (0, 1, 2)
    """

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        if len(set(nodes)) != len(nodes):
            raise RevealError("duplicate nodes in line forest universe")
        # Each component is stored once as a tuple of nodes in path order;
        # ``_component_id`` maps every node to the index of its component.
        # A reveal replaces only the joined paths, so an unchanged path is
        # the same tuple object between reveals.
        self._paths: Dict[int, Tuple[Node, ...]] = {}
        self._component_id: Dict[Node, int] = {}
        self._history: List[LineMergeRecord] = []
        self._next_id = 0
        for node in nodes:
            self._paths[self._next_id] = (node,)
            self._component_id[node] = self._next_id
            self._next_id += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> FrozenSet[Node]:
        """All nodes of the (eventually revealed) graph."""
        return frozenset(self._component_id)

    @property
    def num_components(self) -> int:
        """Current number of paths (isolated nodes count as length-1 paths)."""
        return len(self._paths)

    @property
    def num_edges(self) -> int:
        """Number of edges of the currently revealed graph."""
        return sum(len(path) - 1 for path in self._paths.values())

    def components(self) -> List[FrozenSet[Node]]:
        """The current components as node sets."""
        # repro: allow[det003] — path dict is insertion-ordered; merges update it deterministically
        return [frozenset(path) for path in self._paths.values()]

    def paths(self) -> List[Tuple[Node, ...]]:
        """The current components as node sequences in path order.

        A reveal appends the joined path at the end and removes its two
        parts; every other path comes back as the same tuple object.
        """
        return list(self._paths.values())

    def component_of(self, node: Node) -> FrozenSet[Node]:
        """The node set of ``node``'s path."""
        return frozenset(self._paths[self._component_id[node]])

    def path_of(self, node: Node) -> Tuple[Node, ...]:
        """The path containing ``node``, as a node sequence in path order."""
        return self._paths[self._component_id[node]]

    def same_component(self, first: Node, second: Node) -> bool:
        """``True`` iff the two nodes currently belong to the same path."""
        return self._component_id[first] == self._component_id[second]

    def is_endpoint(self, node: Node) -> bool:
        """``True`` iff ``node`` is an endpoint of its path (or isolated)."""
        path = self._paths[self._component_id[node]]
        return node == path[0] or node == path[-1]

    @property
    def history(self) -> Tuple[LineMergeRecord, ...]:
        """All edge reveals so far, in order."""
        return tuple(self._history)

    def edges(self) -> List[Tuple[Node, Node]]:
        """All edges of the currently revealed graph."""
        result: List[Tuple[Node, Node]] = []
        # repro: allow[det003] — path dict is insertion-ordered; merges update it deterministically
        for path in self._paths.values():
            result.extend(zip(path, path[1:]))
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
    def peek_edge(self, first: Node, second: Node) -> Tuple[Tuple[Node, ...], Tuple[Node, ...]]:
        """The two paths that would be joined by revealing edge ``(first, second)``.

        Validates the reveal: the endpoints must lie in distinct components
        and must be endpoints of their respective paths, otherwise the union
        would stop being a collection of simple paths.
        """
        if first not in self._component_id or second not in self._component_id:
            raise RevealError("edge endpoints must belong to the node universe")
        if self.same_component(first, second):
            raise RevealError(
                f"nodes {first!r} and {second!r} already belong to the same path"
            )
        if not self.is_endpoint(first) or not self.is_endpoint(second):
            raise RevealError(
                f"edge ({first!r}, {second!r}) would create a node of degree 3: "
                "both endpoints must be path endpoints"
            )
        return self.path_of(first), self.path_of(second)

    def add_edge(self, first: Node, second: Node) -> LineMergeRecord:
        """Reveal the edge ``(first, second)`` and join the two paths."""
        path_a, path_b = self.peek_edge(first, second)
        # Orient path_a so that ``first`` is its last node, and path_b so that
        # ``second`` is its first node; the merged path is the concatenation.
        oriented_a = path_a if path_a[-1] == first else path_a[::-1]
        oriented_b = path_b if path_b[0] == second else path_b[::-1]
        merged = oriented_a + oriented_b

        id_a = self._component_id[first]
        id_b = self._component_id[second]
        new_id = self._next_id
        self._next_id += 1
        del self._paths[id_a]
        del self._paths[id_b]
        self._paths[new_id] = merged
        for node in merged:
            self._component_id[node] = new_id

        record = LineMergeRecord(
            first=path_a,
            second=path_b,
            endpoint_first=first,
            endpoint_second=second,
            merged=merged,
        )
        self._history.append(record)
        return record

    def copy(self) -> "LineForest":
        """An independent copy of the forest (history included)."""
        clone = LineForest([])
        clone._paths = dict(self._paths)
        clone._component_id = dict(self._component_id)
        clone._history = list(self._history)
        clone._next_id = self._next_id
        return clone
