"""Offline optimum for online learning MinLA instances.

Competitive ratios are measured against an optimal offline algorithm OPT that
knows the whole reveal sequence but must still output a MinLA of ``G_i``
after every step, paying Kendall-tau distance for each move.  OPT has no
closed form in the paper, so this module computes

* a certified **lower bound** —
  ``max_i  min_{π ∈ MinLA(G_i)} d(π_0, π)``:
  since OPT's permutation after step ``i`` is a MinLA of ``G_i``, the
  triangle inequality forces OPT's total cost up to step ``i`` to be at least
  the distance from ``π_0`` to the closest such permutation (this is the
  quantity ``|L_{π0} \\ L_{πOPT_k}|`` the paper's upper bounds are stated
  against, maximized over prefixes);
* an achievable **upper bound** — the cost of the *single-jump* strategy that
  moves, on the first reveal, to the permutation closest to ``π_0`` among
  those that are simultaneously a MinLA of *every* prefix, and never moves
  again.  For lines every MinLA of the final graph qualifies (sub-paths of a
  path laid out in path order are contiguous and ordered), so lower and upper
  bound coincide and OPT is known exactly.  For cliques the qualifying
  permutations are those laying out every final clique consistently with its
  merge history (a laminar family), computed by a small dynamic program over
  the merge tree;
* the **exact optimum** for tiny instances, by dynamic programming over the
  layers of feasible permutations — used in the tests to sandwich-check the
  two bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.errors import SolverError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealSequence
from repro.minla.closest import (
    DEFAULT_MAX_EXACT_BLOCKS,
    Block,
    BlockKind,
    ClosestSolver,
    closest_feasible_arrangement,
)
from repro.obs.profile import profile_zone
from repro.telemetry.backends import count_cross_inversions

Node = Hashable


@dataclass(frozen=True)
class OptBounds:
    """Lower/upper bounds on OPT, plus the single-jump strategy's target."""

    lower: int
    upper: int
    upper_arrangement: Arrangement
    exact: bool
    """``True`` when ``lower == upper`` and both are certified, i.e. OPT is known."""


# ----------------------------------------------------------------------
# Laminar-consistent layouts for cliques
# ----------------------------------------------------------------------
def laminar_consistent_blocks(
    forest: CliqueForest, pi0: Arrangement
) -> Tuple[List[Block], int]:
    """Best merge-history-consistent internal order for every final clique.

    Walking the merge history, each merge may place either part on the left;
    the cross-pair cost of that choice is independent of all other choices,
    so taking the cheaper side at every merge minimizes the total internal
    cost over all layouts keeping every historical component contiguous.

    Returns the final cliques as ``PATH`` blocks whose stored order is the
    chosen layout (the solver may still use the layout or its mirror — both
    are laminar-consistent and have symmetric costs), together with the total
    internal cost of the chosen orientations.
    """
    orders: Dict[FrozenSet[Node], Tuple[Node, ...]] = {
        frozenset([node]): (node,) for node in forest.nodes
    }
    internal_cost: Dict[FrozenSet[Node], int] = {
        frozenset([node]): 0 for node in forest.nodes
    }
    for record in forest.history:
        first_order = orders[record.first]
        second_order = orders[record.second]
        cost_first_left = _cross_inversions(pi0, first_order, second_order)
        cost_second_left = _cross_inversions(pi0, second_order, first_order)
        if cost_first_left <= cost_second_left:
            merged_order = first_order + second_order
            merge_cost = cost_first_left
        else:
            merged_order = second_order + first_order
            merge_cost = cost_second_left
        merged_key = record.merged
        orders[merged_key] = merged_order
        internal_cost[merged_key] = (
            internal_cost[record.first] + internal_cost[record.second] + merge_cost
        )
    blocks: List[Block] = []
    total_internal = 0
    for component in forest.components():
        key = frozenset(component)
        blocks.append(Block(BlockKind.PATH, orders[key]))
        total_internal += internal_cost[key]
    return blocks, total_internal


def _cross_inversions(
    pi0: Arrangement, left_group: Sequence[Node], right_group: Sequence[Node]
) -> int:
    """Pairs ``(x, y)`` with ``x`` in the left group placed after ``y`` in ``π_0``."""
    left_positions = sorted(pi0.position(node) for node in left_group)
    right_positions = sorted(pi0.position(node) for node in right_group)
    return count_cross_inversions(left_positions, right_positions)


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------
def offline_optimum_bounds(
    instance: OnlineMinLAInstance,
    max_exact_blocks: int = DEFAULT_MAX_EXACT_BLOCKS,
    check_prefixes: bool = True,
) -> OptBounds:
    """Lower and upper bounds on the optimal offline cost of an instance.

    Parameters
    ----------
    instance:
        The reveal sequence plus initial permutation.
    max_exact_blocks:
        Component-count limit for the exact ordering DP; prefixes with more
        components (and more than one non-trivial component) are skipped when
        computing the lower bound, which keeps the bound valid (it is a
        maximum over certified per-prefix lower bounds).
    check_prefixes:
        When ``False`` only the final graph contributes to the lower bound;
        cheaper, and sufficient whenever the final graph is the binding
        constraint (e.g. fully merged instances for lines).
    """
    with profile_zone("opt.bounds"):
        pi0 = instance.initial_arrangement
        if instance.num_steps == 0:
            return OptBounds(lower=0, upper=0, upper_arrangement=pi0, exact=True)

        # One solver for every solve below: the final, laminar and prefix
        # graphs share most of their blocks.
        solver = ClosestSolver(pi0)
        final_forest = instance.sequence.final_forest()
        if instance.kind is GraphKind.LINES:
            result = closest_feasible_arrangement(
                pi0,
                solver.blocks(final_forest),
                max_exact_blocks=max_exact_blocks,
                solver=solver,
            )
            upper = result.distance
            lower = result.distance if result.exact else 0
            if check_prefixes and not result.exact:
                lower = _prefix_lower_bound(
                    solver, instance.sequence, max_exact_blocks, lower
                )
            return OptBounds(
                lower=lower,
                upper=upper,
                upper_arrangement=result.arrangement,
                exact=result.exact,
            )

        # Cliques: the single-jump target must respect the merge laminar family.
        assert isinstance(final_forest, CliqueForest)
        blocks, internal_cost = laminar_consistent_blocks(final_forest, pi0)
        cross_result = closest_feasible_arrangement(
            pi0, blocks, max_exact_blocks=max_exact_blocks, solver=solver
        )
        # ``cross_result.distance`` counts the best-orientation internal cost of the
        # PATH blocks plus the cross cost; the laminar internal cost can only be
        # larger or equal, so rebuild the upper bound explicitly.
        upper_arrangement = cross_result.arrangement
        upper = pi0.kendall_tau(upper_arrangement)

        lower = 0
        final_free_blocks = solver.blocks(final_forest)
        if _exactly_solvable(final_free_blocks, max_exact_blocks):
            final_result = closest_feasible_arrangement(
                pi0, final_free_blocks, max_exact_blocks=max_exact_blocks, solver=solver
            )
            lower = final_result.distance
        if check_prefixes:
            lower = _prefix_lower_bound(solver, instance.sequence, max_exact_blocks, lower)
        exact = lower == upper
        return OptBounds(
            lower=lower, upper=upper, upper_arrangement=upper_arrangement, exact=exact
        )


def _exactly_solvable(blocks: Sequence[Block], max_exact_blocks: int) -> bool:
    """Whether the closest-arrangement subproblem can be solved exactly."""
    if len(blocks) <= max_exact_blocks:
        return True
    return sum(1 for block in blocks if block.size > 1) <= 1


def _prefix_lower_bound(
    solver: ClosestSolver,
    sequence: RevealSequence,
    max_exact_blocks: int,
    lower: int,
) -> int:
    """``max(lower, max_i min_{π ∈ MinLA(G_i)} d(π_0, π))`` over exactly solvable prefixes.

    The walk runs from the last prefix (fewest components) towards the
    first and stops at the first prefix that is not exactly solvable.  One
    forward replay of ``sequence`` collects the block lists of the prefixes
    it reaches: those after the last prefix that is not exactly solvable.
    Solvability is read from the component count and a running count of
    multi-node components, so other prefixes build no blocks.

    Pruning: a prefix headed for the subset DP is first ordered greedily.
    The greedy order is a MinLA of ``G_i``, so ``greedy_i ≥ exact_i``, and
    ``greedy_i ≤ best`` implies ``exact_i ≤ best``: the exact solve cannot
    raise the running maximum and is skipped.  The result is the same as
    solving every prefix exactly.  Prefixes headed for the ``insertion``
    strategy are always solved: it is already linear in the block count.
    """
    pi0 = solver.pi0
    walk: List[List[Block]] = []
    forest = sequence.new_forest()
    join = forest.merge if isinstance(forest, CliqueForest) else forest.add_edge
    multi_node = 0
    for step in sequence.steps:
        record = join(step.u, step.v)
        # Two one-node parts make a new multi-node component; two
        # multi-node parts make one of two.
        multi_node += (len(record.first) == 1) + (len(record.second) == 1) - 1
        if forest.num_components <= max_exact_blocks or multi_node <= 1:
            walk.append(solver.blocks(forest))
        else:
            walk.clear()
    best = lower
    for blocks in reversed(walk):
        if len(blocks) <= max_exact_blocks:
            greedy = closest_feasible_arrangement(
                pi0, blocks, method="greedy", solver=solver
            )
            if greedy.distance <= best:
                continue
        result = closest_feasible_arrangement(
            pi0, blocks, max_exact_blocks=max_exact_blocks, solver=solver
        )
        best = max(best, result.distance)
    return best


# ----------------------------------------------------------------------
# Exact optimum for tiny instances
# ----------------------------------------------------------------------
def enumerate_feasible_arrangements(forest, max_arrangements: int = 200_000) -> List[Arrangement]:
    """Every MinLA arrangement of the forest's current graph.

    Generated constructively: all orderings of the components, with all
    internal orders for cliques and both orientations for paths.  Intended
    for the exact-OPT dynamic program on tiny instances.
    """
    if isinstance(forest, CliqueForest):
        component_orders: List[List[Tuple[Node, ...]]] = [
            [tuple(p) for p in itertools.permutations(sorted(component, key=repr))]
            for component in forest.components()
        ]
    elif isinstance(forest, LineForest):
        component_orders = []
        for path in forest.paths():
            if len(path) == 1:
                component_orders.append([tuple(path)])
            else:
                component_orders.append([tuple(path), tuple(reversed(path))])
    else:  # pragma: no cover - defensive
        raise SolverError(f"unsupported forest type {type(forest)!r}")

    arrangements: List[Arrangement] = []
    component_count = len(component_orders)
    for block_permutation in itertools.permutations(range(component_count)):
        for internal_choice in itertools.product(
            *[component_orders[index] for index in block_permutation]
        ):
            order: List[Node] = []
            for block in internal_choice:
                order.extend(block)
            arrangements.append(Arrangement(order))
            if len(arrangements) > max_arrangements:
                raise SolverError(
                    "too many feasible arrangements to enumerate; "
                    "reduce the instance size"
                )
    return arrangements


def exact_optimal_online_cost(
    instance: OnlineMinLAInstance,
    max_nodes: int = 7,
    max_layer_size: int = 6000,
) -> int:
    """The exact offline optimum of a tiny instance by layered dynamic programming.

    ``cost_i(π) = min_{π' feasible for G_{i-1}} cost_{i-1}(π') + d(π', π)``
    over all ``π`` feasible for ``G_i``; the answer is the minimum over the
    final layer.  Complexity is quadratic in the layer sizes, hence the hard
    limits on instance size.
    """
    if instance.num_nodes > max_nodes:
        raise SolverError(
            f"exact OPT is limited to {max_nodes} nodes; got {instance.num_nodes}"
        )
    current_layer: Dict[Arrangement, int] = {instance.initial_arrangement: 0}
    for step_count in range(1, instance.num_steps + 1):
        forest = instance.sequence.forest_after(step_count)
        feasible = enumerate_feasible_arrangements(forest)
        if len(feasible) > max_layer_size:
            raise SolverError(
                f"layer {step_count} has {len(feasible)} feasible arrangements; "
                "instance too large for exact OPT"
            )
        next_layer: Dict[Arrangement, int] = {}
        for candidate in feasible:
            best = min(
                cost_so_far + previous.kendall_tau(candidate)
                for previous, cost_so_far in current_layer.items()
            )
            next_layer[candidate] = int(best)
        current_layer = next_layer
    return min(current_layer.values())
