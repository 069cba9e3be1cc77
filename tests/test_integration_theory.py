"""Integration tests: the paper's quantitative claims at test-suite scale.

These tests tie several subsystems together (generators → algorithms →
simulator → offline optimum → bounds) and check the *numbers*:

* Theorem 1 / Theorem 6 / Theorem 14 upper bounds hold on random workloads,
* Theorem 16's adversary really separates ``Det`` from ``Rand``,
* Lemma 3 / Lemma 10 hold to Monte-Carlo accuracy,
* the exact tiny-instance optimum agrees with the OPT bracket.
"""

import random

import pytest

from repro.adversary.line_adversary import run_line_adversary
from repro.adversary.tree_adversary import tree_adversary_instance
from repro.core.bounds import (
    det_competitive_bound,
    lemma3_left_probability,
    lemma10_orientation_probability,
    rand_cliques_cost_bound,
    rand_lines_cost_bound,
)
from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import offline_optimum_bounds
from repro.core.permutation import random_arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online, run_trials
from repro.workloads.generation import (
    growing_clique_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
)


class TestTheorem1UpperBound:
    @pytest.mark.parametrize("seed", range(3))
    def test_det_within_bound_on_cliques(self, seed):
        rng = random.Random(seed)
        n = 9
        sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost <= det_competitive_bound(n) * max(bounds.upper, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_det_within_bound_on_lines(self, seed):
        rng = random.Random(100 + seed)
        n = 9
        sequence = random_line_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        result = run_online(DeterministicClosestLearner(), instance)
        assert result.total_cost <= det_competitive_bound(n) * max(bounds.lower, 1)


class TestTheorem6And14CostBounds:
    @pytest.mark.parametrize("seed", range(3))
    def test_rand_cliques_expected_cost_bound(self, seed):
        rng = random.Random(seed)
        n = 12
        sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        results = run_trials(RandomizedCliqueLearner, instance, num_trials=20, seed=seed)
        mean_cost = sum(r.total_cost for r in results) / len(results)
        # Theorem 6: E[cost] <= 4 H_n * |L_pi0 \ L_piOPT| <= 4 H_n * OPT_upper.
        assert mean_cost <= rand_cliques_cost_bound(n, max(bounds.upper, 1)) * 1.10

    @pytest.mark.parametrize("seed", range(3))
    def test_rand_lines_expected_cost_bound_and_split(self, seed):
        rng = random.Random(200 + seed)
        n = 12
        sequence = random_line_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        results = run_trials(RandomizedLineLearner, instance, num_trials=20, seed=seed)
        mean_cost = sum(r.total_cost for r in results) / len(results)
        mean_moving = sum(r.ledger.total_moving_cost for r in results) / len(results)
        mean_rearranging = sum(r.ledger.total_rearranging_cost for r in results) / len(results)
        denominator = max(bounds.upper, 1)
        assert mean_cost <= rand_lines_cost_bound(n, denominator) * 1.10
        # Each phase individually respects its 4 H_n share (Theorem 14's proof).
        assert mean_moving <= rand_cliques_cost_bound(n, denominator) * 1.25
        assert mean_rearranging <= rand_cliques_cost_bound(n, denominator) * 1.25

    def test_growing_clique_worst_case_stays_logarithmic(self):
        # The growing-clique workload maximizes the harmonic-sum effect.
        n = 16
        sequence = growing_clique_sequence(n)
        rng = random.Random(0)
        instance = OnlineMinLAInstance(sequence, random_arrangement(range(n), rng))
        bounds = offline_optimum_bounds(instance)
        results = run_trials(RandomizedCliqueLearner, instance, num_trials=20, seed=0)
        mean_cost = sum(r.total_cost for r in results) / len(results)
        assert mean_cost <= rand_cliques_cost_bound(n, max(bounds.upper, 1))


class TestTheorem15And16LowerBounds:
    def test_tree_adversary_hurts_every_algorithm(self):
        rng = random.Random(1)
        instance, _ = tree_adversary_instance(32, rng)
        bounds = offline_optimum_bounds(instance)
        results = run_trials(RandomizedLineLearner, instance, num_trials=5, seed=1)
        mean_cost = sum(r.total_cost for r in results) / len(results)
        # The distribution forces a clearly super-constant gap already at n=32.
        assert mean_cost > 2 * bounds.upper

    def test_line_adversary_separates_det_from_rand(self):
        n = 31
        det_result = run_line_adversary(DeterministicClosestLearner(), n)
        rand_costs = [
            run_line_adversary(RandomizedLineLearner(), n, rng=random.Random(t)).total_cost
            for t in range(5)
        ]
        mean_rand = sum(rand_costs) / len(rand_costs)
        assert det_result.total_cost > 3 * mean_rand
        # Det's cost is quadratic-ish: well above the linear offline optimum.
        assert det_result.total_cost > 5 * det_result.opt_bounds.upper


class TestLemmaInvariants:
    def test_lemma3_on_a_fixed_component_pair(self):
        """After the first merge of a 2-clique, check its order vs a fixed singleton."""
        rng = random.Random(3)
        n = 6
        sequence = random_clique_merge_sequence(n, rng)
        pi0 = random_arrangement(range(n), rng)
        instance = OnlineMinLAInstance(sequence, pi0)
        first_step = sequence.steps[0]
        merged = frozenset({first_step.u, first_step.v})
        other = next(node for node in range(n) if node not in merged)
        trials = 600
        left_count = 0
        for trial in range(trials):
            result = run_online(
                RandomizedCliqueLearner(),
                instance,
                rng=random.Random(trial),
                verify=False,
                record_trajectory=True,
            )
            arrangement = result.arrangements[1]
            if max(arrangement.position(v) for v in merged) < arrangement.position(other):
                left_count += 1
        empirical = left_count / trials
        theoretical = lemma3_left_probability(merged, {other}, pi0)
        assert abs(empirical - theoretical) < 0.07

    def test_lemma10_on_the_final_path(self):
        rng = random.Random(4)
        n = 6
        sequence = random_line_sequence(n, rng)
        pi0 = random_arrangement(range(n), rng)
        instance = OnlineMinLAInstance(sequence, pi0)
        final_path = sequence.final_paths()[0]
        trials = 600
        forward = 0
        for trial in range(trials):
            result = run_online(
                RandomizedLineLearner(), instance, rng=random.Random(trial), verify=False
            )
            lo, _ = result.final_arrangement.span(final_path)
            laid_out = tuple(
                result.final_arrangement[lo + offset] for offset in range(len(final_path))
            )
            if laid_out == tuple(final_path):
                forward += 1
        empirical = forward / trials
        theoretical = lemma10_orientation_probability(final_path, pi0)
        assert abs(empirical - theoretical) < 0.07
