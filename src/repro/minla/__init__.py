"""Offline MinLA substrate: cost, characterizations, exact and heuristic solvers."""

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
    closest_minla_distance,
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
from repro.minla.heuristics import (
    greedy_insertion_arrangement,
    heuristic_minla,
    local_search_refinement,
    spectral_arrangement,
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
    "closest_minla_distance",
    "exact_minla_arrangement",
    "exact_minla_value",
    "greedy_insertion_arrangement",
    "heuristic_minla",
    "is_minla_of_cliques",
    "is_minla_of_forest",
    "is_minla_of_lines",
    "is_path_ordered",
    "linear_arrangement_cost",
    "local_search_refinement",
    "optimal_clique_collection_cost",
    "optimal_clique_cost",
    "optimal_line_collection_cost",
    "optimal_path_cost",
    "optimal_value_of_forest",
    "spectral_arrangement",
]
