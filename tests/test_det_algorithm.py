"""Tests for the deterministic algorithm ``Det`` (Section 2)."""

import random

import pytest

from repro.core.bounds import det_competitive_bound
from repro.core.det import DeterministicClosestLearner, GreedyClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import offline_optimum_bounds
from repro.core.permutation import Arrangement
from repro.core.simulator import run_online
from repro.graphs.generators import (
    growing_clique_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
)
from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
from repro.minla.closest import blocks_from_forest, closest_feasible_arrangement


class TestDetBehaviour:
    def test_stays_put_when_initial_arrangement_is_already_optimal(self):
        # pi0 lays out the future cliques contiguously, so Det never moves.
        sequence = CliqueRevealSequence.from_pairs(range(6), [(0, 1), (2, 3), (0, 2)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost == 0
        assert result.final_arrangement == instance.initial_arrangement

    def test_deterministic_across_runs(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        first = run_online(DeterministicClosestLearner(), instance)
        second = run_online(DeterministicClosestLearner(), instance)
        assert first.total_cost == second.total_cost
        assert first.final_arrangement == second.final_arrangement

    def test_distance_to_initial_never_exceeds_final_opt_distance(self):
        """The key invariant of Theorem 1: d(pi0, pi_i) <= d(pi0, piOPT_i) for all i."""
        rng = random.Random(3)
        sequence = random_line_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        opt = offline_optimum_bounds(instance)
        result = run_online(DeterministicClosestLearner(), instance, record_trajectory=True)
        assert result.arrangements is not None
        for arrangement in result.arrangements:
            assert instance.initial_arrangement.kendall_tau(arrangement) <= opt.upper

    @pytest.mark.parametrize("kind", ["cliques", "lines"])
    def test_respects_theorem_1_bound(self, kind):
        rng = random.Random(11)
        if kind == "cliques":
            sequence = random_clique_merge_sequence(8, rng)
        else:
            sequence = random_line_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        opt = offline_optimum_bounds(instance)
        result = run_online(DeterministicClosestLearner(), instance)
        if opt.lower > 0:
            assert result.total_cost <= det_competitive_bound(8) * opt.lower
        else:
            assert result.total_cost == 0

    def test_growing_clique_with_identity_start_costs_nothing(self):
        sequence = growing_clique_sequence(7)
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost == 0

    def test_single_reveal_moves_to_closest_feasible(self):
        # pi0 = a c b; revealing the edge/clique {a, b} forces a,b adjacent.
        sequence = CliqueRevealSequence.from_pairs(["a", "b", "c"], [("a", "b")])
        instance = OnlineMinLAInstance(sequence, Arrangement(["a", "c", "b"]))
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost == 1
        assert result.final_arrangement.is_contiguous({"a", "b"})

    def test_exactness_flag(self):
        # Det's move is the solver's exact result on the revealed graph.
        sequence = CliqueRevealSequence.from_pairs(range(4), [(0, 1)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        closest = closest_feasible_arrangement(
            instance.initial_arrangement, blocks_from_forest(sequence.final_forest())
        )
        assert closest.exact
        assert result.final_arrangement == closest.arrangement
        assert result.total_cost == closest.distance

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("kind", ["cliques", "lines"])
    def test_every_step_matches_a_fresh_closest_solve(self, kind, seed):
        # Det keeps one solver across a run; after every reveal its distance
        # to pi0 must equal an exact solve from scratch on that prefix.
        rng = random.Random(20 + seed)
        if kind == "cliques":
            sequence = random_clique_merge_sequence(9, rng)
        else:
            sequence = random_line_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        pi0 = instance.initial_arrangement
        result = run_online(
            DeterministicClosestLearner(), instance, record_trajectory=True
        )
        assert result.arrangements is not None
        for step_count, arrangement in enumerate(result.arrangements[1:], start=1):
            fresh = closest_feasible_arrangement(
                pi0, blocks_from_forest(sequence.forest_after(step_count))
            )
            assert fresh.exact
            assert pi0.kendall_tau(arrangement) == fresh.distance

    def test_line_reveal_keeps_path_order(self):
        sequence = LineRevealSequence.from_pairs(range(4), [(0, 1), (1, 2), (2, 3)])
        rng = random.Random(5)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(DeterministicClosestLearner(), instance)
        order = result.final_arrangement.order
        assert order in ((0, 1, 2, 3), (3, 2, 1, 0))


class TestGreedyVariant:
    def test_greedy_variant_is_feasible_and_deterministic(self):
        rng = random.Random(9)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        first = run_online(GreedyClosestLearner(), instance)
        second = run_online(GreedyClosestLearner(), instance)
        assert first.total_cost == second.total_cost

    def test_greedy_variant_never_beats_exact_final_distance(self):
        rng = random.Random(10)
        sequence = random_clique_merge_sequence(9, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        exact = run_online(DeterministicClosestLearner(), instance)
        greedy = run_online(GreedyClosestLearner(), instance)
        pi0 = instance.initial_arrangement
        assert pi0.kendall_tau(greedy.final_arrangement) >= pi0.kendall_tau(
            exact.final_arrangement
        )
