"""The randomized algorithm ``Rand`` for collections of lines (Section 4).

A reveal now adds a single edge ``(x_i, z_i)`` joining two paths ``X_i`` and
``Z_i``.  The update has two parts (Figures 1 and 2 of the paper):

* **Moving part** — exactly as in the clique case, the two components are
  made adjacent: ``X_i`` moves with probability ``|Z_i| / (|X_i| + |Z_i|)``
  and ``Z_i`` with the complementary probability.
* **Rearranging part** — the union ``X_i ∪ Z_i`` must be laid out as a single
  path with ``x_i`` and ``z_i`` adjacent.  Within the span now occupied by
  the union only two layouts are feasible: the merged path in one orientation
  or the other.  The algorithm flips a biased coin whose probability of
  choosing a layout equals the *other* layout's cost divided by
  ``C(|X_i| + |Z_i|, 2)`` (the two costs always add up to that binomial,
  because the layouts are mirror images of each other).

Theorem 8 proves the combination is ``8 ln n``-competitive: ``4 ln n`` for
the moving parts (Theorem 6 applies verbatim) plus ``4 ln n`` for the
rearranging parts (Lemmas 10–13).  The ledger keeps the two phases separate
so experiment E3 can report the split.
"""

from __future__ import annotations

from typing import FrozenSet, Hashable, Sequence, Tuple

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.permutation import MutableArrangement
from repro.errors import ReproError
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep

Node = Hashable


def forward_layout_cost(
    arrangement: MutableArrangement, merged_path: Sequence[Node], first_size: int
) -> int:
    """Swaps that lay ``merged_path`` out forward over the span it fills.

    ``merged_path`` is two paths ``A = merged_path[:first_size]`` and
    ``B = merged_path[first_size:]``, each contiguous and laid out in path
    order, one orientation or the other, with the two blocks adjacent — the
    layout right after the moving part.  Laying the union out forward keeps
    every pair's order except the pairs inside ``A`` when ``A`` lies
    reversed, those inside ``B`` when ``B`` lies reversed, and every
    ``(A, B)`` pair when ``B`` lies left of ``A``.  So the first and last
    node of each part settle the cost:
    ``C(a,2)·[A reversed] + C(b,2)·[B reversed] + a·b·[B left of A]``.
    """
    a = first_size
    b = len(merged_path) - a
    a_first, a_last, b_first, b_last = arrangement.positions_of(
        (merged_path[0], merged_path[a - 1], merged_path[a], merged_path[-1])
    )
    cost = 0
    if a_first > a_last:
        cost += a * (a - 1) // 2
    if b_first > b_last:
        cost += b * (b - 1) // 2
    if b_first < a_first:
        cost += a * b
    return cost


class RandomizedLineLearner(OnlineMinLAAlgorithm):
    """``Rand`` for lines: biased moving phase followed by biased rearranging phase.

    The maintained invariant is that every revealed path occupies contiguous
    positions in path order, hence the arrangement is always a MinLA of the
    revealed graph.
    """

    name = "rand-lines"

    @classmethod
    def supports(cls, kind: GraphKind) -> bool:
        return kind is GraphKind.LINES

    # ------------------------------------------------------------------
    # Coins (overridden by the ablation variants)
    # ------------------------------------------------------------------
    def _move_first_probability(
        self, first: FrozenSet[Node], second: FrozenSet[Node]
    ) -> float:
        """Probability that the *first* component is the one that moves."""
        return len(second) / (len(first) + len(second))

    def _forward_probability(self, forward_cost: int, backward_cost: int) -> float:
        """Probability of laying out the merged path in its forward orientation."""
        total = forward_cost + backward_cost
        if total == 0:
            return 1.0
        return backward_cost / total

    # ------------------------------------------------------------------
    # Update
    # ------------------------------------------------------------------
    def _choose_mover(
        self, first: FrozenSet[Node], second: FrozenSet[Node]
    ) -> Tuple[FrozenSet[Node], FrozenSet[Node]]:
        probability = self._move_first_probability(first, second)
        if self._rng.random() < probability:
            return first, second
        return second, first

    def _rearrange(
        self, arrangement: MutableArrangement, merged_path: Sequence[Node], first_size: int
    ) -> int:
        """Pick one of the two orientations of the merged path, biased by cost.

        The two orientations are mirror images, so their costs always sum to
        ``C(|path|, 2)``; only the chosen one is applied (in place) after the
        forward cost is read off the two parts' layout.
        """
        forward_cost = forward_layout_cost(arrangement, merged_path, first_size)
        size = len(merged_path)
        backward_cost = size * (size - 1) // 2 - forward_cost
        if self._rng.random() < self._forward_probability(forward_cost, backward_cost):
            arrangement.set_block_order(merged_path)
            return forward_cost
        arrangement.set_block_order(merged_path[::-1])
        return backward_cost

    def _handle_step_fast(
        self, step: RevealStep, arrangement: MutableArrangement
    ) -> Tuple[int, int, int]:
        forest = self.forest
        if not isinstance(forest, LineForest):
            raise ReproError(f"{self.name} only handles line instances")
        # Validate the reveal and look at the two components before merging.
        forest.peek_edge(step.u, step.v)
        component_x = forest.component_of(step.u)
        component_z = forest.component_of(step.v)

        # Moving part: make the two components adjacent.
        mover, stayer = self._choose_mover(component_x, component_z)
        moving_cost = arrangement.slide_block_next_to(mover, stayer)

        # Reveal the edge; the forest gives us the merged path's node order.
        record = forest.add_edge(step.u, step.v)

        # Rearranging part: orient the merged path inside its span.  The
        # moving phase flips only (mover, between) pairs and the rearranging
        # phase only pairs inside the merged path, so the two swap counts are
        # over disjoint pair sets and their sum is the exact Kendall-tau
        # distance of the combined update.
        rearranging_cost = self._rearrange(arrangement, record.merged, len(record.first))
        return moving_cost, rearranging_cost, moving_cost + rearranging_cost


class UnbiasedCoinLineLearner(RandomizedLineLearner):
    """Ablation: fair coins for both the moving and the rearranging phase."""

    name = "rand-lines-unbiased"

    def _move_first_probability(
        self, first: FrozenSet[Node], second: FrozenSet[Node]
    ) -> float:
        return 0.5

    def _forward_probability(self, forward_cost: int, backward_cost: int) -> float:
        return 0.5


class GreedyOrientationLineLearner(RandomizedLineLearner):
    """Ablation: keep the biased moving coin but always pick the cheaper orientation.

    Locally optimal, but the adversary can exploit the determinism of the
    orientation choice; experiment E3 measures how much of the guarantee
    survives.
    """

    name = "rand-lines-greedy-orientation"

    def _forward_probability(self, forward_cost: int, backward_cost: int) -> float:
        if forward_cost < backward_cost:
            return 1.0
        if forward_cost > backward_cost:
            return 0.0
        return 0.5


class MoveSmallerLineLearner(RandomizedLineLearner):
    """Ablation: always move the smaller component, keep the biased orientation coin."""

    name = "move-smaller-lines"

    def _move_first_probability(
        self, first: FrozenSet[Node], second: FrozenSet[Node]
    ) -> float:
        if len(first) < len(second):
            return 1.0
        if len(first) > len(second):
            return 0.0
        return 0.5
