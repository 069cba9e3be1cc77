"""The deterministic algorithm ``Det`` of Section 2.

``Det`` is defined by a single rule: upon each reveal ``G_i`` it moves to an
arbitrary MinLA of ``G_i`` that minimizes the Kendall-tau distance to the
*initial* permutation ``π_0``.  Theorem 1 shows this family of algorithms is
``(2n − 2)``-competitive for collections of cliques and of lines, and
Theorem 16 shows the analysis is tight: some member of the family is forced
to pay ``Ω(n)`` times the optimum on a line instance.

Finding the distance-minimizing MinLA is itself an optimization problem; the
implementation delegates it to :mod:`repro.minla.closest` and exposes the
solver's ``method`` / ``max_exact_blocks`` knobs.  With the exact strategies
(`"exact"` subset DP, `"insertion"` for at most one non-trivial component)
the algorithm is a faithful member of the paper's family; with the
``"greedy"`` fallback it becomes the approximate variant that experiment E1
compares against the exact one.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.permutation import MutableArrangement
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.reveal import RevealStep
from repro.minla.closest import (
    DEFAULT_MAX_EXACT_BLOCKS,
    ClosestSolver,
    closest_feasible_arrangement,
)


class DeterministicClosestLearner(OnlineMinLAAlgorithm):
    """``Det``: always move to a MinLA of ``G_i`` closest to ``π_0``.

    Parameters
    ----------
    method:
        Strategy for the closest-MinLA subproblem: ``"auto"`` (default),
        ``"exact"``, ``"insertion"`` or ``"greedy"``; see
        :func:`repro.minla.closest.closest_feasible_arrangement`.
    max_exact_blocks:
        Component-count limit for the exact subset DP.
    """

    name = "det-closest-to-initial"

    def __init__(
        self,
        method: str = "auto",
        max_exact_blocks: int = DEFAULT_MAX_EXACT_BLOCKS,
    ) -> None:
        super().__init__()
        self._method = method
        self._max_exact_blocks = max_exact_blocks
        self._solver: Optional[ClosestSolver] = None

    def _after_reset(self) -> None:
        # One solver per run: it carries the unchanged components' internal
        # orders from each reveal to the next, and nothing to the next run.
        self._solver = ClosestSolver(self.initial_arrangement)

    def _handle_step_fast(
        self, step: RevealStep, arrangement: MutableArrangement
    ) -> Tuple[int, int, int]:
        forest = self.forest
        if isinstance(forest, CliqueForest):
            forest.merge(step.u, step.v)
        else:
            forest.add_edge(step.u, step.v)
        solver = self._solver
        assert solver is not None
        result = closest_feasible_arrangement(
            self.initial_arrangement,
            solver.blocks(forest),
            method=self._method,
            max_exact_blocks=self._max_exact_blocks,
            solver=solver,
        )
        # Adopting the solver's arrangement wholesale costs exactly the
        # Kendall-tau distance, computed once by the in-place rewrite.
        cost = arrangement.rewrite_to(result.arrangement)
        return cost, 0, cost


class GreedyClosestLearner(DeterministicClosestLearner):
    """The approximate ``Det`` variant that always uses the greedy ordering.

    Used by experiment E1's ablation to quantify how much the exactness of the
    closest-MinLA computation matters in practice.
    """

    name = "det-closest-greedy"

    def __init__(self) -> None:
        super().__init__(method="greedy")
