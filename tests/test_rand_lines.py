"""Tests for the randomized line algorithm (Section 4) and its ablations."""

import random

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_lines import (
    MoveSmallerLineLearner,
    RandomizedLineLearner,
    UnbiasedCoinLineLearner,
)
from repro.core.simulator import run_online, run_trials
from repro.errors import ReproError
from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
from repro.workloads.generation import random_line_sequence


def figure2_instance(size_x=3, size_z=2):
    """The Figure 2 scenario: paths X and Z laid out in pi0 order, joined at their left ends."""
    x_nodes = [f"x{i}" for i in range(size_x)]
    z_nodes = [f"z{i}" for i in range(size_z)]
    nodes = x_nodes + z_nodes
    pairs = list(zip(x_nodes, x_nodes[1:])) + list(zip(z_nodes, z_nodes[1:]))
    pairs.append((x_nodes[0], z_nodes[0]))
    sequence = LineRevealSequence.from_pairs(nodes, pairs)
    return OnlineMinLAInstance.with_identity_start(sequence), x_nodes, z_nodes


class TestLineLearnerMechanics:
    def test_every_update_keeps_paths_ordered(self):
        rng = random.Random(0)
        sequence = random_line_sequence(12, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(1))
        final_path = sequence.final_paths()[0]
        lo, hi = result.final_arrangement.span(final_path)
        assert hi - lo + 1 == len(final_path)

    def test_cost_split_into_moving_and_rearranging(self):
        rng = random.Random(2)
        sequence = random_line_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(3))
        for record in result.ledger:
            assert record.moving_cost >= 0
            assert record.rearranging_cost >= 0
            # The two phases together must realize at least the net distance.
            assert record.total_cost >= record.kendall_tau
        assert (
            result.ledger.total_moving_cost + result.ledger.total_rearranging_cost
            == result.total_cost
        )

    def test_rejects_clique_instances(self):
        sequence = CliqueRevealSequence.from_pairs(range(3), [(0, 1)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        with pytest.raises(ReproError):
            run_online(RandomizedLineLearner(), instance)

    def test_already_laid_out_path_costs_nothing(self):
        sequence = LineRevealSequence.from_pairs(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(0))
        assert result.total_cost == 0

    def test_multiple_final_components_stay_separate(self):
        rng = random.Random(4)
        sequence = random_line_sequence(12, rng, num_final_components=3)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(5))
        for path in sequence.final_paths():
            assert result.final_arrangement.is_contiguous(path)


class TestFigure2Probabilities:
    def test_orientation_probability_matches_figure(self):
        size_x, size_z = 3, 2
        instance, x_nodes, z_nodes = figure2_instance(size_x, size_z)
        trials = 1000
        reversed_x_in_place = 0
        for trial in range(trials):
            result = run_online(
                RandomizedLineLearner(), instance, rng=random.Random(trial), verify=False
            )
            if result.final_arrangement.position(x_nodes[0]) < result.final_arrangement.position(
                z_nodes[0]
            ):
                reversed_x_in_place += 1
        pairs_z = size_z * (size_z - 1) // 2
        pairs_total = (size_x + size_z) * (size_x + size_z - 1) // 2
        theoretical = (size_x * size_z + pairs_z) / pairs_total
        assert abs(reversed_x_in_place / trials - theoretical) < 0.05

    def test_unbiased_variant_is_feasible(self):
        rng = random.Random(6)
        sequence = random_line_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(UnbiasedCoinLineLearner(), instance, rng=random.Random(7))
        assert result.total_cost >= 0

    def test_move_smaller_variant_is_feasible(self):
        rng = random.Random(8)
        sequence = random_line_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(MoveSmallerLineLearner(), instance, rng=random.Random(9))
        assert result.total_cost >= 0


class TestEdgeEndpointHandling:
    def test_size_two_merge_always_places_endpoints_adjacent(self):
        # pi0 = a, b; edge (a, b): already adjacent and in path order.
        sequence = LineRevealSequence.from_pairs(["a", "b"], [("a", "b")])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(0))
        assert result.total_cost == 0

    def test_endpoints_end_up_adjacent_after_every_reveal(self):
        rng = random.Random(10)
        sequence = random_line_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(
            RandomizedLineLearner(), instance, rng=random.Random(11), record_trajectory=True
        )
        assert result.arrangements is not None
        for step, arrangement in zip(instance.steps, result.arrangements[1:]):
            assert abs(arrangement.position(step.u) - arrangement.position(step.v)) == 1

    def test_trials_reproducible(self):
        rng = random.Random(12)
        sequence = random_line_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        first = run_trials(RandomizedLineLearner, instance, num_trials=3, seed=5)
        second = run_trials(RandomizedLineLearner, instance, num_trials=3, seed=5)
        assert [r.total_cost for r in first] == [r.total_cost for r in second]
