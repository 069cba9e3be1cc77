"""Permutations, arrangements and the Kendall-tau metric.

The central object of the online learning MinLA problem is a *linear
arrangement*: an ordering of the graph's nodes along a line.  The paper
identifies an arrangement with a permutation ``π`` mapping each node to its
position, and measures the cost of updating an arrangement by the Kendall-tau
distance, i.e. the minimum number of swaps of *adjacent* nodes needed to turn
one arrangement into the other.

This module provides :class:`Arrangement`, an immutable ordering of hashable
node labels, together with

* the Kendall-tau distance, counted by the one inversion counter of
  :mod:`repro.telemetry.backends`,
* the block slide the paper's algorithms move components with, returning
  the new arrangement *and* the exact number of adjacent swaps it costs,
* small helpers (spans, contiguity checks, restrictions) shared by the
  offline solvers, the online algorithms and the analysis code.

:class:`MutableArrangement` is the array-backed fast path the online
algorithms run on: the block slide, block rewrites and wholesale rewrites,
executed in place on int-indexed ``order``/``position`` arrays; the slide
and the wholesale rewrite return their swap count.  Immutable
:class:`Arrangement` snapshots are materialized at API boundaries via
:meth:`MutableArrangement.snapshot`.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterable, Iterator, List, Sequence, Tuple

from repro.errors import ArrangementError
from repro.obs.profile import count_work as _count_work
from repro.telemetry.backends import count_inversions

Node = Hashable
"""Type alias for node labels: any hashable object (ints, strings, tuples)."""


class Arrangement:
    """An immutable linear arrangement of distinct hashable nodes.

    The arrangement stores the left-to-right order of the nodes.  Position
    indices are 0-based: ``arrangement[0]`` is the leftmost node.

    Parameters
    ----------
    order:
        The nodes from left to right.  Node labels must be distinct.

    Examples
    --------
    >>> a = Arrangement(["a", "b", "c"])
    >>> a.position("c")
    2
    >>> a.kendall_tau(Arrangement(["c", "b", "a"]))
    3
    """

    __slots__ = ("_order", "_positions", "_hash")

    def __init__(self, order: Iterable[Node]):
        order_tuple = tuple(order)
        positions: Dict[Node, int] = {}
        for index, node in enumerate(order_tuple):
            if node in positions:
                raise ArrangementError(f"duplicate node {node!r} in arrangement")
            positions[node] = index
        self._order: Tuple[Node, ...] = order_tuple
        self._positions: Dict[Node, int] = positions
        self._hash = hash(order_tuple)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Arrangement":
        """The arrangement ``0, 1, …, n-1`` of integer node labels."""
        if n < 0:
            raise ArrangementError("an arrangement cannot have negative size")
        return cls(range(n))

    @classmethod
    def _from_trusted(
        cls, order: Tuple[Node, ...], positions: Dict[Node, int]
    ) -> "Arrangement":
        """Internal constructor skipping validation (inputs already consistent)."""
        instance = object.__new__(cls)
        instance._order = order
        instance._positions = positions
        instance._hash = hash(order)
        return instance

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def order(self) -> Tuple[Node, ...]:
        """The nodes from left to right as a tuple."""
        return self._order

    @property
    def nodes(self) -> frozenset:
        """The set of nodes of the arrangement."""
        return frozenset(self._order)

    def position(self, node: Node) -> int:
        """The 0-based position of ``node``; raises if the node is unknown."""
        try:
            return self._positions[node]
        except KeyError as exc:
            raise ArrangementError(f"node {node!r} is not part of the arrangement") from exc

    def positions(self) -> Dict[Node, int]:
        """A fresh ``node -> position`` dictionary."""
        return dict(self._positions)

    def positions_of(self, nodes: Iterable[Node]) -> List[int]:
        """The positions of ``nodes``, in iteration order."""
        positions = self._positions
        try:
            return [positions[node] for node in nodes]
        except KeyError as exc:
            raise ArrangementError(
                f"node {exc.args[0]!r} is not part of the arrangement"
            ) from exc

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._order)

    def __getitem__(self, index: int) -> Node:
        return self._order[index]

    def __contains__(self, node: Node) -> bool:
        return node in self._positions

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Arrangement):
            return NotImplemented
        return self._order == other._order

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Arrangement({list(self._order)!r})"

    def left_of(self, x: Node, y: Node) -> bool:
        """``True`` iff node ``x`` is strictly to the left of node ``y``."""
        return self.position(x) < self.position(y)

    def restricted_order(self, nodes: Iterable[Node]) -> Tuple[Node, ...]:
        """The given nodes, in the left-to-right order they have in ``self``."""
        subset = set(nodes)
        unknown = subset - set(self._positions)
        if unknown:
            raise ArrangementError(f"nodes {sorted(map(repr, unknown))} are not in the arrangement")
        return tuple(node for node in self._order if node in subset)

    def span(self, nodes: Iterable[Node]) -> Tuple[int, int]:
        """The ``(leftmost, rightmost)`` positions occupied by ``nodes``."""
        positions = [self.position(node) for node in nodes]
        if not positions:
            raise ArrangementError("span() of an empty node set is undefined")
        return min(positions), max(positions)

    def is_contiguous(self, nodes: Iterable[Node]) -> bool:
        """``True`` iff ``nodes`` occupy a contiguous interval of positions."""
        positions = sorted(self.position(node) for node in nodes)
        if not positions:
            raise ArrangementError("is_contiguous() of an empty node set is undefined")
        return positions[-1] - positions[0] + 1 == len(positions)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def kendall_tau(self, other: "Arrangement") -> int:
        """Kendall-tau distance between ``self`` and ``other``.

        This is the number of node pairs ordered differently by the two
        arrangements, which equals the minimum number of adjacent swaps
        required to transform one arrangement into the other.  Both
        arrangements must be over the same node set.
        """
        if self.nodes != other.nodes:
            raise ArrangementError("Kendall-tau distance requires identical node sets")
        projected = [other.position(node) for node in self._order]
        return count_inversions(projected)

    # ------------------------------------------------------------------
    # Elementary moves
    # ------------------------------------------------------------------
    def adjacent_swap(self, position: int) -> "Arrangement":
        """Swap the nodes at ``position`` and ``position + 1``."""
        if position < 0 or position + 1 >= len(self._order):
            raise ArrangementError(f"adjacent swap at position {position} is out of range")
        order = list(self._order)
        order[position], order[position + 1] = order[position + 1], order[position]
        return Arrangement(order)

    # ------------------------------------------------------------------
    # Block operations (used by the online algorithms)
    # ------------------------------------------------------------------
    def _block_bounds(self, block: Iterable[Node]) -> Tuple[int, int]:
        """Validate that ``block`` is contiguous and return its (lo, hi) span."""
        block = list(block)
        if not block:
            raise ArrangementError("block operations require a non-empty block")
        lo, hi = self.span(block)
        distinct = len(set(block))
        if hi - lo + 1 != distinct:
            raise ArrangementError("block operations require the block to be contiguous")
        if distinct != len(block):
            raise ArrangementError(f"duplicate node in block {block!r}")
        return lo, hi

    def slide_block_next_to(
        self, block: Iterable[Node], target: Iterable[Node]
    ) -> Tuple["Arrangement", int]:
        """Slide the contiguous ``block`` until it touches the contiguous ``target``.

        The block keeps its internal order and moves over the nodes that
        separate it from the target; those nodes keep their internal order and
        simply shift towards the block's old side.  This is exactly the
        "moving" action of the paper's randomized algorithm (Figure 1): the
        moving component ends up adjacent to the target component on the side
        it approached from.

        Returns
        -------
        (new_arrangement, cost):
            ``cost`` is the number of adjacent swaps performed, namely
            ``|block| * (number of nodes strictly between block and target)``,
            and equals the Kendall-tau distance between the old and the new
            arrangements.
        """
        b_lo, b_hi = self._block_bounds(block)
        t_lo, t_hi = self._block_bounds(target)
        order = list(self._order)
        if b_hi < t_lo:
            # Block is to the left of the target: slide it right.
            between = order[b_hi + 1 : t_lo]
            moved = order[b_lo : b_hi + 1]
            new_order = order[:b_lo] + between + moved + order[t_lo:]
        elif t_hi < b_lo:
            # Block is to the right of the target: slide it left.
            between = order[t_hi + 1 : b_lo]
            moved = order[b_lo : b_hi + 1]
            new_order = order[: t_hi + 1] + moved + between + order[b_hi + 1 :]
        else:
            # Each block fills its span, so overlapping spans share a node.
            raise ArrangementError("slide_block_next_to() requires disjoint block and target")
        cost = len(moved) * len(between)
        _count_work("core.permutation.slides")
        _count_work("core.permutation.swaps", cost)
        return Arrangement(new_order), cost


class MutableArrangement:
    """An array-backed, mutable linear arrangement — the hot-path twin of
    :class:`Arrangement`.

    Node labels are interned into dense integer indices once at construction;
    afterwards the arrangement is two plain int arrays (``order``: position →
    node index, ``position``: node index → position) that the block operations
    rewrite in place; :attr:`labels` is the fixed index → label tuple and
    :meth:`index_order` copies ``order``.  Every operation that moves nodes
    returns the exact number of adjacent swaps it performed; the slide has the
    same semantics (and the same :class:`~repro.errors.ArrangementError`
    validation) as :meth:`Arrangement.slide_block_next_to`.

    The read-only query surface (``position``, ``span``, ``is_contiguous``,
    indexing, iteration) mirrors :class:`Arrangement`, so feasibility checks
    can run directly against a mutable arrangement without materializing a
    snapshot.

    Examples
    --------
    >>> m = MutableArrangement(["a", "b", "c", "d"])
    >>> m.slide_block_next_to(["a"], ["c", "d"])
    1
    >>> list(m)
    ['b', 'a', 'c', 'd']
    >>> m.snapshot() == Arrangement(["b", "a", "c", "d"])
    True
    """

    __slots__ = ("_labels", "_index_of", "_order", "_position")

    def __init__(self, order: Iterable[Node]):
        labels = tuple(order)
        index_of: Dict[Node, int] = {}
        for index, node in enumerate(labels):
            if node in index_of:
                raise ArrangementError(f"duplicate node {node!r} in arrangement")
            index_of[node] = index
        self._labels: Tuple[Node, ...] = labels
        self._index_of: Dict[Node, int] = index_of
        self._order: List[int] = list(range(len(labels)))
        self._position: List[int] = list(range(len(labels)))

    @classmethod
    def from_arrangement(cls, arrangement: Arrangement) -> "MutableArrangement":
        """A mutable copy of an immutable arrangement."""
        return cls(arrangement.order)

    # ------------------------------------------------------------------
    # Read-only queries (same surface as Arrangement)
    # ------------------------------------------------------------------
    def snapshot(self) -> Arrangement:
        """Materialize the current state as an immutable :class:`Arrangement`."""
        labels = self._labels
        order = tuple(labels[index] for index in self._order)
        position = self._position
        # repro: allow[det003] — builds a lookup mapping; its content is order-independent
        positions = {node: position[index] for node, index in self._index_of.items()}
        return Arrangement._from_trusted(order, positions)

    @property
    def order(self) -> Tuple[Node, ...]:
        """The nodes from left to right as a tuple (materialized per call)."""
        return tuple(self._labels[index] for index in self._order)

    @property
    def nodes(self) -> frozenset:
        """The (fixed) set of nodes of the arrangement."""
        return frozenset(self._index_of)

    def position(self, node: Node) -> int:
        """The 0-based position of ``node``; raises if the node is unknown."""
        try:
            return self._position[self._index_of[node]]
        except KeyError as exc:
            raise ArrangementError(f"node {node!r} is not part of the arrangement") from exc

    @property
    def labels(self) -> Tuple[Node, ...]:
        """The interned labels: node index ``i`` stands for ``labels[i]``."""
        return self._labels

    def index_order(self) -> List[int]:
        """The node indices from left to right as a fresh list (see :attr:`labels`)."""
        return self._order.copy()

    def positions_of(self, nodes: Iterable[Node]) -> List[int]:
        """The positions of ``nodes``, in iteration order."""
        position = self._position
        index_of = self._index_of
        try:
            return [position[index_of[node]] for node in nodes]
        except KeyError as exc:
            raise ArrangementError(
                f"node {exc.args[0]!r} is not part of the arrangement"
            ) from exc

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[Node]:
        labels = self._labels
        return (labels[index] for index in self._order)

    def __getitem__(self, index: int) -> Node:
        return self._labels[self._order[index]]

    def __contains__(self, node: Node) -> bool:
        return node in self._index_of

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MutableArrangement({list(self)!r})"

    def span(self, nodes: Iterable[Node]) -> Tuple[int, int]:
        """The ``(leftmost, rightmost)`` positions occupied by ``nodes``."""
        positions = self.positions_of(nodes)
        if not positions:
            raise ArrangementError("span() of an empty node set is undefined")
        return min(positions), max(positions)

    def is_contiguous(self, nodes: Iterable[Node]) -> bool:
        """``True`` iff ``nodes`` occupy a contiguous interval of positions."""
        positions = self.positions_of(nodes)
        if not positions:
            raise ArrangementError("is_contiguous() of an empty node set is undefined")
        return max(positions) - min(positions) + 1 == len(positions)

    def _block_bounds(self, block: Iterable[Node]) -> Tuple[int, int]:
        """Validate a block to move and return its ``(lo, hi)`` span.

        Reads each node's position once.  ``block`` must be non-empty,
        contiguous and free of repeated nodes; a ``set`` or ``frozenset``
        (what the online algorithms pass) cannot repeat one, so only other
        iterables pay for the distinctness test.
        """
        positions = self.positions_of(block)
        if not positions:
            raise ArrangementError("block operations require a non-empty block")
        lo, hi = min(positions), max(positions)
        if hi - lo + 1 != len(positions) or not isinstance(block, (set, frozenset)):
            distinct = len(set(positions))
            if hi - lo + 1 != distinct:
                raise ArrangementError("block operations require the block to be contiguous")
            if distinct != len(positions):
                raise ArrangementError(f"duplicate node in block {block!r}")
        return lo, hi

    # ------------------------------------------------------------------
    # In-place block operations
    # ------------------------------------------------------------------
    def _reindex(self, lo: int, hi: int) -> None:
        """Refresh the position array for the order segment ``lo..hi`` inclusive."""
        position = self._position
        for index, node in enumerate(self._order[lo : hi + 1], lo):
            position[node] = index

    def slide_block_next_to(self, block: Iterable[Node], target: Iterable[Node]) -> int:
        """Slide the contiguous ``block`` until it touches the contiguous ``target``.

        In-place counterpart of :meth:`Arrangement.slide_block_next_to`;
        returns the number of adjacent swaps performed.  Each block fills its
        span, so two blocks share a node iff their spans overlap: the node
        sets are never intersected.
        """
        b_lo, b_hi = self._block_bounds(block)
        t_lo, t_hi = self._block_bounds(target)
        order = self._order
        if b_hi < t_lo:
            # Block is to the left of the target: slide it right.
            moved = order[b_lo : b_hi + 1]
            between = order[b_hi + 1 : t_lo]
            order[b_lo:t_lo] = between + moved
            self._reindex(b_lo, t_lo - 1)
        elif t_hi < b_lo:
            # Block is to the right of the target: slide it left.
            moved = order[b_lo : b_hi + 1]
            between = order[t_hi + 1 : b_lo]
            order[t_hi + 1 : b_hi + 1] = moved + between
            self._reindex(t_hi + 1, b_hi)
        else:
            raise ArrangementError("slide_block_next_to() requires disjoint block and target")
        cost = len(moved) * len(between)
        _count_work("core.permutation.slides")
        _count_work("core.permutation.swaps", cost)
        return cost

    def set_block_order(self, new_block_order: Sequence[Node]) -> None:
        """Replace the internal order of a contiguous block of nodes, in place.

        ``new_block_order`` must contain exactly the nodes of a contiguous
        block; the block keeps its span.  The cost is not computed: a caller
        that knows the block's shape prices the rewrite itself (``Rand`` for
        lines does so in closed form, see
        :func:`repro.core.rand_lines.forward_layout_cost`).
        """
        new_block_order = list(new_block_order)
        lo, hi = self._block_bounds(new_block_order)
        index_of = self._index_of
        self._order[lo : hi + 1] = [index_of[node] for node in new_block_order]
        self._reindex(lo, hi)
        _count_work("core.permutation.rewrites")

    def rewrite_to(self, target: Arrangement) -> int:
        """Adopt the order of ``target`` wholesale; returns the Kendall-tau distance.

        ``target`` must range over the same node set.  This is the fast path
        of algorithms (such as ``Det``) that recompute their arrangement from
        scratch each step: one inversion count instead of two full-arrangement
        Kendall-tau computations.
        """
        if len(target) != len(self._order) or any(
            node not in self._index_of for node in target.order
        ):
            raise ArrangementError("rewrite_to() requires identical node sets")
        index_of = self._index_of
        labels = self._labels
        target_position = target.positions()
        cost = count_inversions(
            [target_position[labels[index]] for index in self._order]
        )
        self._order = [index_of[node] for node in target.order]
        self._reindex(0, len(self._order) - 1)
        _count_work("core.permutation.rewrites")
        _count_work("core.permutation.swaps", cost)
        return cost

    def kendall_tau(self, other: Arrangement) -> int:
        """Kendall-tau distance to an immutable arrangement over the same nodes."""
        if self.nodes != other.nodes:
            raise ArrangementError("Kendall-tau distance requires identical node sets")
        labels = self._labels
        return count_inversions([other.position(labels[index]) for index in self._order])


def random_arrangement(nodes: Iterable[Node], rng: random.Random) -> Arrangement:
    """A uniformly random arrangement of ``nodes`` drawn with ``rng``.

    ``rng`` is a :class:`random.Random` instance (or any object providing a
    compatible ``shuffle``), so experiments stay reproducible.
    """
    order = list(nodes)
    rng.shuffle(order)
    return Arrangement(order)
