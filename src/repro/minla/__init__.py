"""Offline MinLA substrate: cost, characterizations, the closest-arrangement and exact solvers."""

from repro.minla.characterizations import (
    is_minla_of_cliques,
    is_minla_of_forest,
    is_minla_of_lines,
    is_path_ordered,
    optimal_value_of_forest,
)
from repro.minla.closest import (
    Block,
    BlockKind,
    ClosestResult,
    ClosestSolver,
    best_internal_order,
    blocks_from_forest,
    closest_feasible_arrangement,
)
from repro.minla.cost import (
    linear_arrangement_cost,
    optimal_clique_collection_cost,
    optimal_clique_cost,
    optimal_line_collection_cost,
    optimal_path_cost,
)
from repro.minla.exact import (
    all_minla_arrangements,
    exact_minla_arrangement,
    exact_minla_value,
)

__all__ = [
    "Block",
    "BlockKind",
    "ClosestResult",
    "ClosestSolver",
    "all_minla_arrangements",
    "best_internal_order",
    "blocks_from_forest",
    "closest_feasible_arrangement",
    "exact_minla_arrangement",
    "exact_minla_value",
    "is_minla_of_cliques",
    "is_minla_of_forest",
    "is_minla_of_lines",
    "is_path_ordered",
    "linear_arrangement_cost",
    "optimal_clique_collection_cost",
    "optimal_clique_cost",
    "optimal_line_collection_cost",
    "optimal_path_cost",
    "optimal_value_of_forest",
]
