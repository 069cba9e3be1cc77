"""Tests for the offline-optimum bounds and the exact tiny-instance optimum."""

import random

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import (
    enumerate_feasible_arrangements,
    exact_optimal_online_cost,
    laminar_consistent_blocks,
    offline_optimum_bounds,
)
from repro.core.permutation import Arrangement, random_arrangement
from repro.errors import SolverError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.generators import random_clique_merge_sequence, random_line_sequence
from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
from repro.minla.characterizations import is_minla_of_forest


def _laminar_family(forest):
    """Every component that ever existed in ``forest`` (singletons, intermediates, current).

    The merge process only ever joins whole components, so this family is
    laminar; a permutation laying out each of its sets contiguously is a
    MinLA of every revealed prefix.
    """
    family = [frozenset([node]) for node in sorted(forest.nodes, key=repr)]
    family.extend(record.merged for record in forest.history)
    return family


class TestOfflineBounds:
    def test_empty_sequence_costs_nothing(self):
        sequence = CliqueRevealSequence.from_pairs(range(3), [])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        bounds = offline_optimum_bounds(instance)
        assert bounds.lower == bounds.upper == 0
        assert bounds.exact

    def test_lines_bounds_are_exact(self):
        rng = random.Random(0)
        sequence = random_line_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        assert bounds.exact
        assert bounds.lower == bounds.upper
        assert bounds.upper == instance.initial_arrangement.kendall_tau(
            bounds.upper_arrangement
        )

    def test_cliques_bounds_bracket(self):
        rng = random.Random(1)
        sequence = random_clique_merge_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        assert 0 <= bounds.lower <= bounds.upper

    def test_upper_arrangement_is_feasible_for_every_prefix(self):
        rng = random.Random(2)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        for step_count in range(1, instance.num_steps + 1):
            forest = instance.sequence.forest_after(step_count)
            assert is_minla_of_forest(bounds.upper_arrangement, forest)

    def test_upper_arrangement_is_feasible_for_every_prefix_lines(self):
        rng = random.Random(3)
        sequence = random_line_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        for step_count in range(1, instance.num_steps + 1):
            forest = instance.sequence.forest_after(step_count)
            assert is_minla_of_forest(bounds.upper_arrangement, forest)

    def test_identity_start_on_identity_friendly_sequence(self):
        sequence = CliqueRevealSequence.from_pairs(range(6), [(0, 1), (2, 3), (4, 5)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        bounds = offline_optimum_bounds(instance)
        assert bounds.lower == bounds.upper == 0

    def test_prefix_scan_can_raise_lower_bound(self):
        # Final graph is one clique over all nodes (any permutation is a MinLA
        # of it), so only the intermediate prefixes force a positive optimum.
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 2), (0, 1), (0, 3)])
        instance = OnlineMinLAInstance(sequence, Arrangement([0, 1, 2, 3]))
        with_prefixes = offline_optimum_bounds(instance, check_prefixes=True)
        without_prefixes = offline_optimum_bounds(instance, check_prefixes=False)
        assert with_prefixes.lower >= without_prefixes.lower
        assert with_prefixes.lower >= 1  # the (0,2) merge forces a swap


class TestLaminarConsistentBlocks:
    def test_orders_keep_merge_history_contiguous(self):
        rng = random.Random(4)
        pi0 = random_arrangement(range(8), rng)
        forest = CliqueForest(range(8))
        for u, v in [(0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6)]:
            forest.merge(u, v)
        blocks, internal_cost = laminar_consistent_blocks(forest, pi0)
        assert internal_cost >= 0
        assert {frozenset(block.nodes) for block in blocks} == {
            frozenset(range(4)),
            frozenset(range(4, 8)),
        }
        for block in blocks:
            order = list(block.nodes)
            for historical in _laminar_family(forest):
                if historical <= set(order) and len(historical) > 1:
                    positions = sorted(order.index(node) for node in historical)
                    assert positions[-1] - positions[0] + 1 == len(historical)

    def test_internal_cost_matches_kendall_tau_within_block(self):
        rng = random.Random(5)
        pi0 = random_arrangement(range(6), rng)
        forest = CliqueForest(range(6))
        for u, v in [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]:
            forest.merge(u, v)
        blocks, internal_cost = laminar_consistent_blocks(forest, pi0)
        assert len(blocks) == 1
        block_order = blocks[0].nodes
        target_positions = {node: index for index, node in enumerate(block_order)}
        projected = [target_positions[node] for node in pi0.order if node in target_positions]
        from repro.core.permutation import count_inversions

        assert internal_cost == count_inversions(projected)


class TestExactOnlineOptimum:
    def test_matches_bounds_on_tiny_clique_instances(self):
        for seed in range(4):
            rng = random.Random(seed)
            sequence = random_clique_merge_sequence(5, rng)
            instance = OnlineMinLAInstance.with_random_start(sequence, rng)
            exact = exact_optimal_online_cost(instance)
            bounds = offline_optimum_bounds(instance)
            assert bounds.lower <= exact <= bounds.upper

    def test_matches_bounds_on_tiny_line_instances(self):
        for seed in range(4):
            rng = random.Random(100 + seed)
            sequence = random_line_sequence(5, rng)
            instance = OnlineMinLAInstance.with_random_start(sequence, rng)
            exact = exact_optimal_online_cost(instance)
            bounds = offline_optimum_bounds(instance)
            assert bounds.exact
            assert exact == bounds.lower == bounds.upper

    def test_rejects_large_instances(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(SolverError):
            exact_optimal_online_cost(instance, max_nodes=7)

    def test_enumerate_feasible_arrangements_cliques(self):
        forest = CliqueForest(range(4))
        forest.merge(0, 1)
        arrangements = enumerate_feasible_arrangements(forest)
        # 3 blocks (sizes 2,1,1): 3! block orders x 2 internal orders = 12.
        assert len(arrangements) == 12
        assert all(a.is_contiguous({0, 1}) for a in arrangements)

    def test_enumerate_feasible_arrangements_lines(self):
        sequence = LineRevealSequence.from_pairs(range(4), [(0, 1), (1, 2)])
        forest = sequence.final_forest()
        arrangements = enumerate_feasible_arrangements(forest)
        # 2 blocks (path of 3 and singleton): 2! orders x 2 orientations = 4.
        assert len(arrangements) == 4
