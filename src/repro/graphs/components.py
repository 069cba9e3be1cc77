"""Union–find (disjoint-set forest) with component membership tracking.

Online learning MinLA is driven by components merging over time: the revealed
subgraphs are collections of disjoint cliques or lines, and each reveal step
joins exactly two connected components.  Both the reveal-sequence validators
and the online algorithms need to answer "which component does this node
belong to?" and "which nodes form that component?" efficiently, which is what
this structure provides.

The implementation is a classic union-by-size forest with path compression,
augmented with an explicit member list per root so that whole components can
be enumerated in ``O(component size)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List

from repro.errors import ReproError

Node = Hashable


class DisjointSetForest:
    """Union–find over an arbitrary (hashable) node universe.

    Parameters
    ----------
    nodes:
        The initial universe; every node starts in its own singleton
        component.  Additional nodes can be added later with :meth:`add`.

    Examples
    --------
    >>> forest = DisjointSetForest(["a", "b", "c"])
    >>> forest.union("a", "b")
    >>> sorted(forest.component_of("a"))
    ['a', 'b']
    >>> forest.num_components
    2
    """

    def __init__(self, nodes: Iterable[Node] = ()):
        self._parent: Dict[Node, Node] = {}
        self._size: Dict[Node, int] = {}
        self._members: Dict[Node, List[Node]] = {}
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    # Universe management
    # ------------------------------------------------------------------
    def add(self, node: Node) -> None:
        """Add ``node`` as a new singleton component (no-op if already present)."""
        if node in self._parent:
            return
        self._parent[node] = node
        self._size[node] = 1
        self._members[node] = [node]

    def __contains__(self, node: Node) -> bool:
        return node in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    @property
    def nodes(self) -> FrozenSet[Node]:
        """All nodes ever added to the forest."""
        return frozenset(self._parent)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, node: Node) -> Node:
        """The canonical representative of ``node``'s component."""
        if node not in self._parent:
            raise ReproError(f"node {node!r} is not part of the forest")
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def connected(self, first: Node, second: Node) -> bool:
        """``True`` iff the two nodes are in the same component."""
        # Fast path: nodes with one parent share its component.  Once path
        # compression has flattened a component, every member hangs off
        # its root, so repeated queries never walk the tree.
        parent = self._parent
        try:
            if parent[first] == parent[second]:
                return True
        except KeyError:
            pass  # find() raises the forest's own error
        return self.find(first) == self.find(second)

    def component_size(self, node: Node) -> int:
        """Number of nodes in ``node``'s component."""
        return self._size[self.find(node)]

    def component_of(self, node: Node) -> FrozenSet[Node]:
        """The set of nodes in the same component as ``node``."""
        return frozenset(self._members[self.find(node)])

    def components(self) -> List[FrozenSet[Node]]:
        """All components as a list of frozensets (in no particular order)."""
        # repro: allow[det003] — dict of roots is insertion-ordered; union() updates it deterministically
        return [frozenset(members) for members in self._members.values()]

    def representatives(self) -> Iterator[Node]:
        """Iterate over one representative per component."""
        return iter(self._members)

    @property
    def num_components(self) -> int:
        """The current number of components."""
        return len(self._members)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def union(self, first: Node, second: Node) -> Node:
        """Merge the components of the two nodes; returns the surviving root.

        Raises :class:`~repro.errors.ReproError` if the nodes already share a
        component — in the online learning MinLA model a reveal step always
        joins two *distinct* components, so silent self-merges would hide
        modelling bugs.
        """
        root_a = self.find(first)
        root_b = self.find(second)
        if root_a == root_b:
            raise ReproError(
                f"nodes {first!r} and {second!r} are already in the same component"
            )
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._members[root_a].extend(self._members[root_b])
        del self._members[root_b]
        del self._size[root_b]
        return root_a

    def copy(self) -> "DisjointSetForest":
        """An independent deep copy of the forest."""
        clone = DisjointSetForest()
        clone._parent = dict(self._parent)
        clone._size = dict(self._size)
        # repro: allow[det003] — clone preserves the source dict's deterministic insertion order
        clone._members = {root: list(members) for root, members in self._members.items()}
        return clone
