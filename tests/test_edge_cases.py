"""Edge-case tests across the library: degenerate sizes and boundary behaviour."""

import random

import pytest

from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import exact_optimal_online_cost, offline_optimum_bounds
from repro.core.permutation import Arrangement, MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner, forward_layout_cost
from repro.core.simulator import run_online
from repro.errors import RevealError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
from repro.minla.closest import Block, BlockKind, closest_feasible_arrangement
from repro.vnet.embedding import Embedding
from repro.vnet.topology import LinearDatacenter


class TestDegenerateSizes:
    def test_single_node_instance(self):
        sequence = CliqueRevealSequence.from_pairs(["only"], [])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        assert instance.num_steps == 0
        result = run_online(RandomizedCliqueLearner(), instance)
        assert result.total_cost == 0
        assert offline_optimum_bounds(instance).upper == 0
        assert exact_optimal_online_cost(instance) == 0

    def test_two_node_clique_instance(self):
        sequence = CliqueRevealSequence.from_pairs(["a", "b"], [("a", "b")])
        instance = OnlineMinLAInstance(sequence, Arrangement(["b", "a"]))
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(0))
        # The two nodes are already adjacent: no cost.
        assert result.total_cost == 0
        assert offline_optimum_bounds(instance).upper == 0

    def test_two_node_line_instance(self):
        sequence = LineRevealSequence.from_pairs(["a", "b"], [("a", "b")])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(0))
        assert result.total_cost == 0

    def test_empty_step_sequence_with_det(self):
        sequence = LineRevealSequence.from_pairs(range(4), [])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost == 0
        assert result.final_arrangement == instance.initial_arrangement

    def test_arrangement_of_one_node(self):
        arrangement = Arrangement(["x"])
        assert arrangement.kendall_tau(arrangement) == 0
        mutable = MutableArrangement(["x"])
        mutable.set_block_order(["x"])
        assert mutable.snapshot() == arrangement
        assert mutable.kendall_tau(arrangement) == 0

    def test_two_node_path_layout_costs(self):
        # The smallest merged path: two one-node parts, so only their order
        # can cost anything.
        mutable = MutableArrangement(["x", "y"])
        assert forward_layout_cost(mutable, ("x", "y"), 1) == 0
        assert forward_layout_cost(mutable, ("y", "x"), 1) == 1

    def test_forests_with_single_node(self):
        clique_forest = CliqueForest(["solo"])
        line_forest = LineForest(["solo"])
        assert clique_forest.num_edges == 0
        assert line_forest.num_edges == 0
        with pytest.raises(RevealError):
            clique_forest.merge("solo", "solo")


class TestClosestSolverBoundaries:
    def test_single_block_covering_everything(self):
        pi0 = Arrangement([3, 1, 0, 2])
        result = closest_feasible_arrangement(
            pi0, [Block(BlockKind.FREE, (0, 1, 2, 3))]
        )
        # One free block: π0 itself is feasible.
        assert result.distance == 0
        assert result.arrangement == pi0

    def test_single_path_block_covering_everything(self):
        pi0 = Arrangement([2, 1, 0, 3])
        result = closest_feasible_arrangement(
            pi0, [Block(BlockKind.PATH, (0, 1, 2, 3))]
        )
        # The path must be laid out in path order; the better orientation is
        # whichever agrees with π0 on more pairs.
        assert result.distance == min(
            pi0.kendall_tau(Arrangement([0, 1, 2, 3])),
            pi0.kendall_tau(Arrangement([3, 2, 1, 0])),
        )

    def test_all_singleton_blocks_cost_nothing(self):
        pi0 = Arrangement([4, 2, 0, 1, 3])
        blocks = [Block(BlockKind.FREE, (i,)) for i in range(5)]
        result = closest_feasible_arrangement(pi0, blocks)
        assert result.distance == 0
        assert result.arrangement == pi0


class TestOptBoundaries:
    def test_no_steps_yields_zero_bounds_for_lines(self):
        sequence = LineRevealSequence.from_pairs(range(3), [])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        bounds = offline_optimum_bounds(instance)
        assert bounds.lower == bounds.upper == 0
        assert bounds.exact

    def test_single_final_clique_with_adversarial_order_has_positive_lower_bound(self):
        # Final graph = K4 (every permutation optimal), but the prefix after the
        # first merge forces nodes 0 and 3 together.
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 3), (1, 0), (2, 0)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        bounds = offline_optimum_bounds(instance)
        assert bounds.lower >= 1
        exact = exact_optimal_online_cost(instance)
        assert bounds.lower <= exact <= bounds.upper


class TestVnetBoundaries:
    def test_single_slot_datacenter(self):
        datacenter = LinearDatacenter(1)
        embedding = Embedding.initial(datacenter, ["vm"])
        assert embedding.communication_cost([]) == 0
        assert embedding.migration_cost_to(embedding) == 0

    def test_zero_cost_factors(self):
        datacenter = LinearDatacenter(
            4, communication_cost_per_hop=0.0, migration_cost_per_swap=0.0
        )
        embedding = Embedding.initial(datacenter, list("abcd"))
        assert embedding.communication_cost([("a", "d")]) == 0.0
        assert datacenter.migration_cost(100) == 0.0
