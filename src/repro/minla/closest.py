"""Closest feasible arrangement: the optimization behind ``Det`` and OPT.

Both the deterministic algorithm of Section 2 ("move to an arbitrary MinLA of
``G_i`` that minimizes the distance to ``π_0``") and the offline-optimum
bounds need to solve the same subproblem:

    Given the initial permutation ``π_0`` and the components of a revealed
    graph (cliques, or paths with a fixed node order), find an arrangement in
    which every component is contiguous (and path-ordered, for lines) that
    minimizes the Kendall-tau distance to ``π_0``.

The distance decomposes into

* an *internal* part per component — zero for cliques (use the order induced
  by ``π_0``), and the better of the two orientations for a path — and
* a *cross* part depending only on the left-to-right order of the components:
  for components ``A`` placed before ``B`` it contributes the number of pairs
  ``(a, b) ∈ A × B`` that ``π_0`` orders the other way.

Choosing the component order is a (weighted) linear ordering problem.  This
module provides three strategies:

* ``exact`` — dynamic programming over subsets of the multi-node
  components times the number of one-node components placed (those keep
  their ``π_0`` order), expanding only the states whose cost so far plus a
  pairwise lower bound on the rest stays within a greedy order's cost:
  ``O(m² + m · 2^⌈k/2⌉)`` set-up plus ``O(k)`` per kept state, at worst
  ``O(2^k · (s + 1) · k)``, for ``k`` multi-node and ``s`` one-node
  components; exact for any instance, and run only for ``m = k + s ≤ 13``
  components by default,
* ``insertion`` — exact special case used when at most one component has more
  than one node (singletons keep their ``π_0`` order, the single block is
  inserted in the best gap); this covers the Theorem 16 adversary for any
  ``n``,
* ``greedy`` — order components by mean ``π_0`` position followed by
  local search over adjacent component swaps; a documented approximation used
  only when the exact strategies are out of reach.

``method="auto"`` picks the best applicable strategy.  All three share the
``m × m`` cross-cost matrix.

*Run-scoped state.*  A reveal merges two components and leaves every other
one as it was, so consecutive graphs of one run share almost all of their
blocks.  A :class:`ClosestSolver` is built once from ``π_0`` and solves
every graph of one run.  For each block of its latest solve it keeps the
block's internal order, internal cost, ``π_0`` position sum (the greedy
strategy's mean position) and slot in the latest cross matrix, which it
also keeps.  When a solve's blocks are the latest solve's with some of them
replaced by their union, in the same relative order (a forward reveal of
either forest, or the same blocks again), the matrix is updated in
``O(m · parts)`` list operations instead of rebuilt in one ``O(n · m)``
pass over ``π_0``; any other block list (a first solve, OPT's laminar
blocks, the prefix walk's splits) is rebuilt.  For every component of the
latest forest it read, :meth:`ClosestSolver.blocks` keeps the
:class:`Block`, keyed by the forest's own component object, so a clique's
``repr`` sort runs once.  Entries of blocks that are gone are dropped, so
the state stays ``O(n + m²)``.  The state only saves work: a solve returns
exactly what a fresh solver returns.  Its owners are per run: ``Det``
builds one in ``reset()`` and :func:`repro.core.opt.offline_optimum_bounds`
one per call, shared by its final, laminar and prefix solves.  No state
outlives them, so repeating a run repeats all of its work.
:func:`closest_feasible_arrangement` solves through the caller's solver, or
through a fresh one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from operator import add, ge, is_not, itemgetter, sub
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple, Union

from repro.core.permutation import Arrangement
from repro.obs.profile import count_work as _count_work, profile_zone
from repro.telemetry.backends import count_inversions
from repro.errors import SolverError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest

Node = Hashable

#: Default limit on the number of components for the subset-DP strategy.
DEFAULT_MAX_EXACT_BLOCKS = 13


class BlockKind(str, enum.Enum):
    """How a component constrains its internal order in a MinLA."""

    FREE = "free"
    """Any internal order is allowed (cliques)."""

    PATH = "path"
    """Only the stored node order or its reverse is allowed (lines)."""


@dataclass(frozen=True)
class Block:
    """One component of the revealed graph, as seen by the solver."""

    kind: BlockKind
    nodes: Tuple[Node, ...]
    """For ``PATH`` blocks, the nodes in path order; for ``FREE`` blocks any order."""

    @property
    def size(self) -> int:
        """Number of nodes in the block."""
        return len(self.nodes)


@dataclass(frozen=True)
class ClosestResult:
    """Result of a closest-feasible-arrangement computation."""

    arrangement: Arrangement
    distance: int
    exact: bool
    method: str


def _clique_block(component: FrozenSet[Node]) -> Block:
    """A clique's block, its nodes sorted by ``repr`` (a deterministic order)."""
    return Block(BlockKind.FREE, tuple(sorted(component, key=repr)))


def _path_block(path: Tuple[Node, ...]) -> Block:
    """A path's block, its nodes in path order."""
    return Block(BlockKind.PATH, path)


def blocks_from_forest(forest: Union[CliqueForest, LineForest]) -> List[Block]:
    """Convert a clique or line forest into the solver's block representation."""
    if isinstance(forest, CliqueForest):
        return [_clique_block(component) for component in forest.components()]
    return [_path_block(path) for path in forest.paths()]


# ----------------------------------------------------------------------
# Internal order of a single block
# ----------------------------------------------------------------------
def best_internal_order(pi0: Arrangement, block: Block) -> Tuple[Tuple[Node, ...], int]:
    """The block's internal order closest to ``π_0`` and its internal cost.

    For a ``FREE`` block the order induced by ``π_0`` costs zero.  For a
    ``PATH`` block only the path order and its reverse are allowed; their
    costs sum to ``C(size, 2)``, so the cheaper one is returned.
    """
    if block.kind is BlockKind.FREE:
        return pi0.restricted_order(block.nodes), 0
    forward = tuple(block.nodes)
    positions = [pi0.position(node) for node in forward]
    forward_cost = count_inversions(positions)
    total_pairs = block.size * (block.size - 1) // 2
    backward_cost = total_pairs - forward_cost
    if forward_cost <= backward_cost:
        return forward, forward_cost
    return tuple(reversed(forward)), backward_cost


# ----------------------------------------------------------------------
# Cross-block inversion counts
# ----------------------------------------------------------------------
def _pairwise_inversions(pi0: Arrangement, blocks: Sequence[Block]) -> List[List[int]]:
    """Matrix ``inv[i][j]``: cost of placing block ``i`` entirely before block ``j``.

    The cost is the number of pairs ``(x, y)`` with ``x`` in block ``i`` and
    ``y`` in block ``j`` that ``π_0`` orders as ``y`` before ``x``.
    Complements satisfy ``inv[i][j] + inv[j][i] = size_i · size_j``.

    One O(n · m) pass over ``π_0``: each position adds the per-block counts
    of the positions before it to its own block's row.
    """
    block_of = {node: index for index, block in enumerate(blocks) for node in block.nodes}
    m = len(blocks)
    inv = [[0] * m for _ in range(m)]
    seen = [0] * m
    for index in map(block_of.__getitem__, pi0.order):
        inv[index] = list(map(add, inv[index], seen))
        seen[index] += 1
    for index in range(m):
        inv[index][index] = 0
    return inv


# ----------------------------------------------------------------------
# Ordering strategies
# ----------------------------------------------------------------------
def _singletons_in_pi0_order(pi0: Arrangement, blocks: Sequence[Block]) -> List[int]:
    """Indices of the one-node blocks, sorted by their node's ``π_0`` position."""
    return sorted(
        (index for index, block in enumerate(blocks) if block.size == 1),
        key=lambda index: pi0.position(blocks[index].nodes[0]),
    )


def _subset_sums(values: Sequence[int]) -> List[int]:
    """``sums[mask]``: the sum of ``values[p]`` over the set bits ``p`` of ``mask``."""
    sums = [0]
    for value in values:
        sums += [total + value for total in sums]
    return sums


def _exact_order_dp(
    inv: Sequence[Sequence[int]], singletons: Sequence[int]
) -> Tuple[List[int], int]:
    """Optimal block order by a dynamic program bounded from both sides.

    ``singletons`` lists the ``s`` one-node blocks in ``π_0`` order; the
    other ``k`` blocks are the non-singletons.  State ``(S, j)`` holds a
    subset ``S`` of the non-singletons plus the first ``j`` singletons, and
    ``dp(S, j)`` is the minimal cross cost of placing those blocks first;
    putting block ``b`` last among them adds ``out = Σ_{o outside}
    inv[b][o]``.  With no singletons this is the DP over subsets of all
    blocks, which is also what callers with arbitrary matrices get.  At
    worst it reaches all ``2^k · (s + 1)`` states, each with up to
    ``k + 1`` candidates; the bounds usually keep a few states per layer.

    *Exchange argument.*  ``inv`` counts pairs that ``π_0`` orders the
    other way.  Take one-node blocks ``t`` before ``u`` in ``π_0``.  Any
    order of a set of blocks that places ``u`` before ``t`` gets strictly
    cheaper when the two swap places: their own pair saves 1, a node
    placed between them that ``π_0`` also puts between them saves 2, and
    every other node breaks even.  So in every sub-problem every optimum
    keeps the singletons in ``π_0`` order, and ending the set of ``(S, j)``
    with a singleton other than the ``j``-th is strictly worse.

    *Bounds.*  The upper bound ``UB`` is the cost of one feasible order:
    blocks sorted by ``Σ_o inv[b][o] − inv[o][b]`` (ties by index), then
    :func:`_local_search`.  The blocks of a set ``U`` cost at least
    ``LB(U) = Σ_{{a, b} ⊆ U} min(inv[a][b], inv[b][a])`` among themselves,
    in any order and for any matrix.  The DP carries ``f = dp + LB(rest)``
    as one number, ``rest`` being the blocks not yet placed: placing ``b``
    adds ``out`` to ``dp`` and takes ``b``'s pairs out of ``LB(rest)``, so
    ``f`` grows by ``Σ_{o in rest} excess[b][o]`` with ``excess = inv −
    min(inv, invᵀ) ≥ 0``, from ``f(∅) = LB(all)`` to ``f(all) =
    dp(all)``.  States are pushed layer by layer (a layer per number of
    blocks placed), and a candidate ``P → P ∪ {b}`` is kept only if its
    ``f = dp(P) + out + LB(rest) ≤ UB``.  The sum over ``rest`` is ``b``'s
    row total, minus the first ``j`` singletons (a prefix table), minus the
    members of ``S``, read from two half-width subset-sum tables per block
    (``2^⌊k/2⌋`` and ``2^⌈k/2⌉`` entries).

    *Same order and cost as without the bounds.*  Every prefix of an
    optimal order of a set is optimal for its own prefix set, so a state
    ``P`` on an optimal full order has an exact ``f*(P) = dp(P) + LB(rest)
    ≤ dp(P) + (cost of the rest of that order) = OPT ≤ UB``.  By induction
    along the order, its predecessor's ``f`` is exact, the candidate into
    ``P`` has value ``f*(P) ≤ UB`` and is kept, and so ``f(P) = f*(P)``.
    This covers the reconstruction path and every predecessor tied with
    it, which lies on an optimal order too.  Into such a state, a
    candidate the bound drops has ``f > UB ≥ f*(P)``, and one pushed from
    a state whose ``f`` is above its exact value is above ``f*(P)`` as
    well; neither can win or tie.  Ties go to the larger block index, as
    in the DP over all ``2^m`` subsets, whose winning candidates are all
    among these by the exchange argument.  So ``(order, cost)`` is
    identical to that DP's (``results/*.csv`` depend on this tie-break):
    the optimum whose reversed block sequence is lexicographically
    largest.

    A state's key is ``S | j << k``.  Layers are key lists; ``f`` and the
    chosen last block of each state sit in dicts that are only looked up.
    """
    m = len(inv)
    singleton_set = set(singletons)
    big = [block for block in range(m) if block not in singleton_set]
    k, s = len(big), len(singletons)
    columns = [list(column) for column in zip(*inv)]
    net = [sum(inv[block]) - sum(columns[block]) for block in range(m)]
    _, upper = _local_search(sorted(range(m), key=net.__getitem__), inv)
    half = k >> 1
    low_mask = (1 << half) - 1
    step = 1 << k  # adds one singleton to a key
    bit_of = [step] * m
    for position, block in enumerate(big):
        bit_of[block] = 1 << position

    def move(block: int) -> Tuple[int, int, List[int], List[int], List[int]]:
        # rest[j] − lows[S & low_mask] − highs[S >> half] is the sum of
        # excess[block][o] over the blocks o outside state (S, j).
        excess = list(map(sub, inv[block], map(min, inv[block], columns[block])))
        rest = list(
            accumulate((excess[t] for t in singletons), sub, initial=sum(excess))
        )
        lows = _subset_sums([excess[other] for other in big[:half]])
        highs = _subset_sums([excess[other] for other in big[half:]])
        return bit_of[block], block, rest, lows, highs

    big_moves = [move(block) for block in big]
    singleton_moves = [move(block) for block in singletons]
    floor = sum(min(inv[a][b], inv[b][a]) for a, b in combinations(range(m), 2))
    bounded = {0: floor}  # key -> f
    last: Dict[int, int] = {}  # key -> block placed last
    layer = [0]
    transitions = 0
    for _ in range(m):
        next_layer: List[int] = []
        for key in layer:
            base = bounded[key]
            j = key >> k
            low = key & low_mask
            high = (key & (step - 1)) >> half
            moves = [entry for entry in big_moves if not key & entry[0]]
            if j < s:
                moves.append(singleton_moves[j])
            for bit, block, rest, lows, highs in moves:
                estimate = base + rest[j] - lows[low] - highs[high]
                if estimate > upper:
                    continue
                transitions += 1
                target = key + bit
                incumbent = bounded.get(target)
                if incumbent is None:
                    next_layer.append(target)
                elif estimate > incumbent or (
                    estimate == incumbent and block < last[target]
                ):
                    continue
                bounded[target] = estimate
                last[target] = block
        layer = next_layer
    _count_work("minla.closest.dp_states", len(bounded) - 1)
    _count_work("minla.closest.dp_transitions", transitions)
    key = step * (s + 1) - 1
    cost = bounded[key]
    order_reversed: List[int] = []
    while key:
        block = last[key]
        order_reversed.append(block)
        key -= bit_of[block]
    order_reversed.reverse()
    return order_reversed, cost


def _mean_position_order(blocks: Sequence[Block], position_sums: Sequence[int]) -> List[int]:
    """Blocks sorted by their mean ``π_0`` position (greedy starting point).

    ``position_sums[i]`` is the sum of the ``π_0`` positions of block ``i``'s nodes.
    """
    means = [total / len(block.nodes) for block, total in zip(blocks, position_sums)]
    return sorted(range(len(blocks)), key=means.__getitem__)


def _local_search(
    order: List[int], inv: Sequence[Sequence[int]], max_passes: int = 50
) -> Tuple[List[int], int]:
    """Improve a block order by swapping adjacent blocks until a local optimum.

    Returns the order and its cross cost.  The start order is priced once
    (``O(m²)``); a swap of adjacent ``left, right`` then changes the cost
    by ``inv[right][left] − inv[left][right]``.
    """
    order = list(order)
    cost = 0
    later = list(order)
    for block in order:
        del later[0]
        row = inv[block]
        for other in later:
            cost += row[other]
    for _ in range(max_passes):
        improved = False
        for index in range(len(order) - 1):
            left, right = order[index], order[index + 1]
            gain = inv[left][right] - inv[right][left]
            if gain > 0:
                order[index], order[index + 1] = right, left
                cost -= gain
                improved = True
        if not improved:
            break
    return order, cost


def _insertion_order(
    pi0: Arrangement, blocks: Sequence[Block], inv: Sequence[Sequence[int]]
) -> Tuple[List[int], int]:
    """Exact order when at most one block has more than one node.

    Singleton blocks keep their ``π_0`` order (optimal by an exchange
    argument); the unique non-trivial block, if any, is inserted into the gap
    that minimizes the cross cost.
    """
    big_indices = [i for i, block in enumerate(blocks) if block.size > 1]
    if len(big_indices) > 1:
        raise SolverError("insertion strategy requires at most one non-trivial block")
    singleton_indices = _singletons_in_pi0_order(pi0, blocks)
    if not big_indices:
        return singleton_indices, 0
    big = big_indices[0]
    # Cost of each singleton relative to the big block depending on its side.
    before_costs = [inv[i][big] for i in singleton_indices]
    after_costs = [inv[big][i] for i in singleton_indices]
    suffix_after = [0] * (len(singleton_indices) + 1)
    for index in range(len(singleton_indices) - 1, -1, -1):
        suffix_after[index] = suffix_after[index + 1] + after_costs[index]
    best_gap = 0
    best_cost = None
    prefix_before = 0
    for gap in range(len(singleton_indices) + 1):
        cost = prefix_before + suffix_after[gap]
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_gap = gap
        if gap < len(singleton_indices):
            prefix_before += before_costs[gap]
    order = singleton_indices[:best_gap] + [big] + singleton_indices[best_gap:]
    return order, int(best_cost)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
class ClosestSolver:
    """Closest feasible arrangements to one ``π_0``, for all graphs of one run.

    Keeps the cross matrix of its latest solve and, for every block of that
    solve, the block's internal order, internal cost, ``π_0`` position sum
    and matrix slot; and, for every component of the latest forest read by
    :meth:`blocks`, its :class:`Block`.  See the module docstring.
    Per-block entries are keyed by the block's node tuple, so a block is
    recognised by value: the caller may pass new ``Block`` objects for
    unchanged components.  Each solve returns exactly what a fresh solver
    returns.
    """

    def __init__(self, pi0: Arrangement) -> None:
        self.pi0 = pi0
        self._nodes = pi0.nodes
        # The latest forest's components, as read by blocks(), and their Blocks.
        self._components: Dict[Union[FrozenSet[Node], Tuple[Node, ...]], Block] = {}
        # block.nodes -> [kind, internal order, internal cost, position sum,
        # slot]; ``slot`` is the block's index in the latest solve.
        self._known: Dict[Tuple[Node, ...], list] = {}
        # The latest solve's blocks by slot, and its cross matrix.
        self._previous: List[Block] = []
        self._inv: List[List[int]] = []

    def blocks(self, forest: Union[CliqueForest, LineForest]) -> List[Block]:
        """:func:`blocks_from_forest`, reusing the ``Block`` of every component seen before.

        Components are looked up by the forest's own objects (a clique's
        node set, a path's node tuple), which the forests keep unchanged
        between merges.
        """
        if isinstance(forest, CliqueForest):
            components, make = forest.components(), _clique_block
        else:
            components, make = forest.paths(), _path_block
        blocks = list(map(self._components.get, components))
        if not all(blocks):  # a miss is None; a Block is always true
            blocks = [
                make(component) if block is None else block
                for component, block in zip(components, blocks)
            ]
        self._components = dict(zip(components, blocks))
        return blocks

    def _carry(self, blocks: Sequence[Block]) -> Tuple[list, List[List[int]]]:
        """This solve's per-block entries and cross matrix.

        A block of the latest solve is found with one hash of its node
        tuple.  When every block but at most one is a block of the latest
        solve, in the same relative order, the new block is the union of
        the latest blocks that are gone (both lists partition the nodes),
        and the matrix is updated in place: the new row is the sum of their
        rows, every other row's new entry the sum of its entries for them,
        and their slots are deleted.  That covers a forward reveal of
        either forest and a repeated solve.  Any other block list gets a
        fresh :func:`_pairwise_inversions`.
        """
        pi0 = self.pi0
        known = self._known
        entries = list(map(known.get, [block.nodes for block in blocks]))
        fresh = []  # indices of the blocks the latest solve did not have
        if not all(entries):  # a miss is None; an entry is a non-empty list
            for index, block in enumerate(blocks):
                if entries[index] is None:
                    # A repeated node tuple finds this entry and counts as
                    # fresh again, which forces a rebuild.
                    entry = known.get(block.nodes)
                    if entry is None:
                        order, cost = best_internal_order(pi0, block)
                        entry = known[block.nodes] = [
                            block.kind, order, cost, sum(pi0.positions_of(block.nodes)), -1
                        ]
                    entries[index] = entry
                    fresh.append(index)
        if any(map(is_not, map(itemgetter(0), entries), [block.kind for block in blocks])):
            for entry, block in zip(entries, blocks):
                if entry[0] is not block.kind:
                    entry[:3] = [block.kind, *best_internal_order(pi0, block)]
        carried = [entry[4] for entry in entries if entry[4] >= 0]
        previous = self._previous
        gone = sorted(set(range(len(previous))).difference(carried))
        for slot in gone:
            known.pop(previous[slot].nodes, None)

        inv = self._inv
        if len(fresh) > 1 or any(map(ge, carried, carried[1:])):
            inv = _pairwise_inversions(pi0, blocks)
        else:
            merged = [0] * len(previous)
            for slot in gone:
                merged = list(map(add, merged, inv[slot]))
            for slot in reversed(gone):
                del inv[slot]
            column = [0] * len(inv)
            for slot in reversed(gone):
                column = list(map(add, column, map(list.pop, inv, repeat(slot))))
            if fresh:
                index = fresh[0]
                list(map(list.insert, inv, repeat(index), column))
                for slot in reversed(gone):
                    del merged[slot]
                merged.insert(index, 0)
                inv.insert(index, merged)

        for index, entry in enumerate(entries):
            entry[4] = index
        self._previous = list(blocks)
        self._inv = inv
        return entries, inv

    def solve(
        self,
        blocks: Sequence[Block],
        method: str = "auto",
        max_exact_blocks: int = DEFAULT_MAX_EXACT_BLOCKS,
    ) -> ClosestResult:
        """The feasible arrangement closest to ``π_0``; see :func:`closest_feasible_arrangement`."""
        with profile_zone("closest.solve"):
            pi0 = self.pi0
            all_nodes = [node for block in blocks for node in block.nodes]
            node_set = set(all_nodes)
            if len(node_set) != len(all_nodes):
                raise SolverError("blocks overlap: a node appears in two blocks")
            if node_set != self._nodes:
                raise SolverError(
                    "blocks must partition the node set of the reference permutation"
                )

            entries, inv = self._carry(blocks)
            internal_cost = sum(map(itemgetter(2), entries))

            if method == "auto":
                if len(blocks) <= max_exact_blocks:
                    method = "exact"
                elif sum(1 for block in blocks if len(block.nodes) > 1) <= 1:
                    method = "insertion"
                else:
                    method = "greedy"

            if method == "exact":
                if len(blocks) > max_exact_blocks:
                    raise SolverError(
                        f"exact ordering limited to {max_exact_blocks} blocks; got {len(blocks)}"
                    )
                order, cross_cost = _exact_order_dp(inv, _singletons_in_pi0_order(pi0, blocks))
                exact = True
            elif method == "insertion":
                order, cross_cost = _insertion_order(pi0, blocks, inv)
                exact = True
            elif method == "greedy":
                position_sums = [entry[3] for entry in entries]
                order, cross_cost = _local_search(
                    _mean_position_order(blocks, position_sums), inv
                )
                exact = False  # greedy never claims optimality
            else:
                raise SolverError(f"unknown closest-arrangement method {method!r}")

            layout: List[Node] = []
            for index in order:
                layout.extend(entries[index][1])
            # The partition test above makes the layout a permutation.
            arrangement = tuple(layout)
            return ClosestResult(
                arrangement=Arrangement._from_trusted(
                    arrangement, dict(zip(arrangement, range(len(arrangement))))
                ),
                distance=cross_cost + internal_cost,
                exact=exact,
                method=method,
            )


def closest_feasible_arrangement(
    pi0: Arrangement,
    blocks: Sequence[Block],
    method: str = "auto",
    max_exact_blocks: int = DEFAULT_MAX_EXACT_BLOCKS,
    *,
    solver: Optional[ClosestSolver] = None,
) -> ClosestResult:
    """The feasible arrangement (blocks contiguous, paths ordered) closest to ``π_0``.

    Parameters
    ----------
    pi0:
        The reference permutation distances are measured against.
    blocks:
        The components of the revealed graph; their node sets must partition
        the node set of ``pi0``.
    method:
        ``"auto"`` (default), ``"exact"``, ``"insertion"`` or ``"greedy"``.
    max_exact_blocks:
        Upper limit on the number of blocks for the subset DP used by
        ``"auto"``/``"exact"``.
    solver:
        The run's :class:`ClosestSolver` for ``pi0``, which reuses what its
        earlier solves computed for unchanged blocks; a fresh one if omitted.
        Either way the result is the same.

    Returns
    -------
    ClosestResult
        The arrangement, its Kendall-tau distance to ``π_0``, whether the
        result is provably optimal, and which strategy produced it.
    """
    if solver is None:
        solver = ClosestSolver(pi0)
    elif solver.pi0 != pi0:
        raise SolverError("the solver was built for another reference permutation")
    return solver.solve(blocks, method, max_exact_blocks)


def closest_minla_distance(
    pi0: Arrangement,
    forest: Union[CliqueForest, LineForest],
    method: str = "auto",
    max_exact_blocks: int = DEFAULT_MAX_EXACT_BLOCKS,
) -> ClosestResult:
    """Convenience wrapper: closest MinLA of a forest's current graph to ``π_0``."""
    return closest_feasible_arrangement(
        pi0, blocks_from_forest(forest), method=method, max_exact_blocks=max_exact_blocks
    )
