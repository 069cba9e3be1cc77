"""Tests for the closest-feasible-arrangement solver (Det's and OPT's engine)."""

import itertools
import random

import pytest

from repro.core.permutation import Arrangement, random_arrangement
from repro.errors import SolverError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.minla.closest import (
    Block,
    BlockKind,
    best_internal_order,
    blocks_from_forest,
    closest_feasible_arrangement,
)


def brute_force_closest(pi0: Arrangement, blocks):
    """Reference implementation: enumerate all feasible arrangements."""
    best = None
    for block_order in itertools.permutations(range(len(blocks))):
        internal_choices = []
        for index in block_order:
            block = blocks[index]
            if block.kind is BlockKind.FREE:
                internal_choices.append(list(itertools.permutations(block.nodes)))
            else:
                internal_choices.append([tuple(block.nodes), tuple(reversed(block.nodes))])
        for combo in itertools.product(*internal_choices):
            layout = [node for part in combo for node in part]
            distance = pi0.kendall_tau(Arrangement(layout))
            if best is None or distance < best:
                best = distance
    return best


class TestBestInternalOrder:
    def test_free_block_costs_zero(self):
        pi0 = Arrangement([3, 1, 2, 0])
        order, cost = best_internal_order(pi0, Block(BlockKind.FREE, (0, 1, 2)))
        assert cost == 0
        assert order == (1, 2, 0)

    def test_path_block_picks_cheaper_orientation(self):
        pi0 = Arrangement([0, 1, 2, 3])
        order, cost = best_internal_order(pi0, Block(BlockKind.PATH, (3, 2, 1)))
        assert order == (1, 2, 3)
        assert cost == 0

    def test_path_block_costs_sum_to_pairs(self):
        pi0 = Arrangement([2, 0, 3, 1])
        block = Block(BlockKind.PATH, (0, 1, 2, 3))
        _, forward_cost = best_internal_order(pi0, block)
        reversed_block = Block(BlockKind.PATH, (3, 2, 1, 0))
        _, backward_cost = best_internal_order(pi0, reversed_block)
        assert forward_cost == backward_cost  # both report the cheaper orientation


class TestExactStrategies:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_dp_matches_brute_force_cliques(self, seed):
        rng = random.Random(seed)
        pi0 = random_arrangement(range(7), rng)
        blocks = [
            Block(BlockKind.FREE, (0, 1, 2)),
            Block(BlockKind.FREE, (3, 4)),
            Block(BlockKind.FREE, (5,)),
            Block(BlockKind.FREE, (6,)),
        ]
        result = closest_feasible_arrangement(pi0, blocks, method="exact")
        assert result.exact
        assert result.distance == pi0.kendall_tau(result.arrangement)
        assert result.distance == brute_force_closest(pi0, blocks)

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_dp_matches_brute_force_lines(self, seed):
        rng = random.Random(100 + seed)
        pi0 = random_arrangement(range(7), rng)
        blocks = [
            Block(BlockKind.PATH, (0, 1, 2)),
            Block(BlockKind.PATH, (3, 4)),
            Block(BlockKind.FREE, (5,)),
            Block(BlockKind.FREE, (6,)),
        ]
        result = closest_feasible_arrangement(pi0, blocks, method="exact")
        assert result.distance == brute_force_closest(pi0, blocks)

    @pytest.mark.parametrize("seed", range(5))
    def test_insertion_matches_brute_force(self, seed):
        rng = random.Random(200 + seed)
        pi0 = random_arrangement(range(8), rng)
        blocks = [Block(BlockKind.FREE, (0, 1, 2, 3))] + [
            Block(BlockKind.FREE, (i,)) for i in range(4, 8)
        ]
        insertion = closest_feasible_arrangement(pi0, blocks, method="insertion")
        exact = closest_feasible_arrangement(pi0, blocks, method="exact")
        assert insertion.exact
        assert insertion.distance == exact.distance
        assert insertion.distance == pi0.kendall_tau(insertion.arrangement)

    def test_insertion_all_singletons_returns_pi0(self):
        pi0 = Arrangement([2, 0, 1])
        blocks = [Block(BlockKind.FREE, (i,)) for i in range(3)]
        result = closest_feasible_arrangement(pi0, blocks, method="insertion")
        assert result.distance == 0
        assert result.arrangement == pi0

    def test_insertion_rejects_two_big_blocks(self):
        pi0 = Arrangement(range(4))
        blocks = [Block(BlockKind.FREE, (0, 1)), Block(BlockKind.FREE, (2, 3))]
        with pytest.raises(SolverError):
            closest_feasible_arrangement(pi0, blocks, method="insertion")


class TestGreedyStrategy:
    @pytest.mark.parametrize("seed", range(5))
    def test_greedy_is_feasible_and_not_better_than_exact(self, seed):
        rng = random.Random(300 + seed)
        pi0 = random_arrangement(range(9), rng)
        blocks = [
            Block(BlockKind.FREE, (0, 1, 2)),
            Block(BlockKind.FREE, (3, 4, 5)),
            Block(BlockKind.PATH, (6, 7)),
            Block(BlockKind.FREE, (8,)),
        ]
        greedy = closest_feasible_arrangement(pi0, blocks, method="greedy")
        exact = closest_feasible_arrangement(pi0, blocks, method="exact")
        assert not greedy.exact
        assert greedy.distance == pi0.kendall_tau(greedy.arrangement)
        assert greedy.distance >= exact.distance
        # Every block must still be contiguous in the greedy arrangement.
        for block in blocks:
            assert greedy.arrangement.is_contiguous(block.nodes)


class TestAutoDispatchAndValidation:
    def test_auto_uses_exact_for_few_blocks(self):
        pi0 = Arrangement(range(5))
        blocks = [Block(BlockKind.FREE, (0, 1)), Block(BlockKind.FREE, (2, 3, 4))]
        result = closest_feasible_arrangement(pi0, blocks)
        assert result.method == "exact"

    def test_auto_uses_insertion_for_many_singletons(self):
        pi0 = Arrangement(range(20))
        blocks = [Block(BlockKind.FREE, tuple(range(4)))] + [
            Block(BlockKind.FREE, (i,)) for i in range(4, 20)
        ]
        result = closest_feasible_arrangement(pi0, blocks, max_exact_blocks=10)
        assert result.method == "insertion"
        assert result.exact

    def test_auto_falls_back_to_greedy(self):
        pi0 = Arrangement(range(30))
        blocks = [Block(BlockKind.FREE, (2 * i, 2 * i + 1)) for i in range(15)]
        result = closest_feasible_arrangement(pi0, blocks, max_exact_blocks=10)
        assert result.method == "greedy"

    def test_overlapping_blocks_rejected(self):
        pi0 = Arrangement(range(3))
        blocks = [Block(BlockKind.FREE, (0, 1)), Block(BlockKind.FREE, (1, 2))]
        with pytest.raises(SolverError):
            closest_feasible_arrangement(pi0, blocks)

    def test_non_partition_rejected(self):
        pi0 = Arrangement(range(3))
        blocks = [Block(BlockKind.FREE, (0, 1))]
        with pytest.raises(SolverError):
            closest_feasible_arrangement(pi0, blocks)

    def test_unknown_method_rejected(self):
        pi0 = Arrangement(range(2))
        blocks = [Block(BlockKind.FREE, (0, 1))]
        with pytest.raises(SolverError):
            closest_feasible_arrangement(pi0, blocks, method="magic")

    def test_exact_method_rejects_too_many_blocks(self):
        pi0 = Arrangement(range(6))
        blocks = [Block(BlockKind.FREE, (i,)) for i in range(6)]
        with pytest.raises(SolverError):
            closest_feasible_arrangement(pi0, blocks, method="exact", max_exact_blocks=3)


class TestForestConvenience:
    def test_blocks_from_clique_forest(self):
        forest = CliqueForest(range(4))
        forest.merge(0, 1)
        blocks = blocks_from_forest(forest)
        kinds = {block.kind for block in blocks}
        assert kinds == {BlockKind.FREE}
        assert sorted(block.size for block in blocks) == [1, 1, 2]

    def test_blocks_from_line_forest(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        blocks = blocks_from_forest(forest)
        path_blocks = [block for block in blocks if block.size > 1]
        assert len(path_blocks) == 1
        assert path_blocks[0].kind is BlockKind.PATH

    def test_closest_arrangement_of_a_forest(self):
        rng = random.Random(0)
        pi0 = random_arrangement(range(6), rng)
        forest = CliqueForest(range(6))
        forest.merge(0, 1)
        forest.merge(0, 2)
        result = closest_feasible_arrangement(pi0, blocks_from_forest(forest))
        assert result.distance == pi0.kendall_tau(result.arrangement)
        assert result.arrangement.is_contiguous({0, 1, 2})
