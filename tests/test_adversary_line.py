"""Tests for the adaptive Theorem 16 line adversary."""

import random

import pytest

from repro.adversary.line_adversary import (
    middle_node_index,
    offline_cost_upper_bound,
    online_cost_lower_bound,
    run_line_adversary,
)
from repro.core.det import DeterministicClosestLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import ReproError


class TestConstructionHelpers:
    def test_middle_node_index(self):
        assert middle_node_index(9) == 4
        assert middle_node_index(15) == 7

    def test_even_or_tiny_sizes_rejected(self):
        with pytest.raises(ReproError):
            middle_node_index(8)
        with pytest.raises(ReproError):
            middle_node_index(3)
        with pytest.raises(ReproError):
            run_line_adversary(DeterministicClosestLearner(), 10)

    def test_paper_bounds(self):
        assert offline_cost_upper_bound(21) == 21
        assert online_cost_lower_bound(21) == pytest.approx(21 * 21 / 16)


class TestAdversaryAgainstDet:
    def test_realized_sequence_is_valid_and_covers_all_but_x(self):
        result = run_line_adversary(DeterministicClosestLearner(), 11)
        assert result.num_nodes == 11
        assert len(result.sequence) == 9  # n - 2 edges: a path over n - 1 nodes
        final_components = result.sequence.final_components()
        sizes = sorted(len(c) for c in final_components)
        assert sizes == [1, 10]

    def test_offline_optimum_is_linear(self):
        result = run_line_adversary(DeterministicClosestLearner(), 15)
        assert result.opt_bounds.exact
        assert result.opt_bounds.upper <= offline_cost_upper_bound(15)

    def test_det_pays_superlinear_cost(self):
        small = run_line_adversary(DeterministicClosestLearner(), 11)
        large = run_line_adversary(DeterministicClosestLearner(), 21)
        # Quadratic growth: doubling n should much more than double the cost.
        assert large.total_cost > 2.5 * small.total_cost
        assert large.total_cost >= online_cost_lower_bound(21) / 4

    def test_det_ratio_grows_roughly_linearly(self):
        ratios = {}
        for size in (11, 21, 41):
            result = run_line_adversary(DeterministicClosestLearner(), size)
            ratios[size] = result.ratio_lower_estimate
        assert ratios[21] > 1.4 * ratios[11]
        assert ratios[41] > 1.4 * ratios[21]

    def test_result_ratio_properties(self):
        result = run_line_adversary(DeterministicClosestLearner(), 11)
        assert result.ratio_lower_estimate == (
            result.total_cost / max(result.opt_bounds.upper, 1)
        )
        assert result.total_cost == result.ledger.total_cost


class TestAdversaryAgainstRand:
    def test_rand_survives_the_adversary_with_logarithmic_ratio(self):
        det_result = run_line_adversary(DeterministicClosestLearner(), 21)
        rand_costs = []
        for trial in range(5):
            rand_result = run_line_adversary(
                RandomizedLineLearner(), 21, rng=random.Random(trial)
            )
            rand_costs.append(rand_result.total_cost)
        mean_rand = sum(rand_costs) / len(rand_costs)
        # The same adversary hurts Det far more than Rand.
        assert det_result.total_cost > 2 * mean_rand

    def test_custom_initial_arrangement(self):
        from repro.core.permutation import Arrangement

        initial = Arrangement(list(reversed(range(9))))
        result = run_line_adversary(
            DeterministicClosestLearner(), 9, initial_arrangement=initial
        )
        assert result.instance.initial_arrangement == initial

    def test_wrong_initial_arrangement_rejected(self):
        from repro.core.permutation import Arrangement

        with pytest.raises(ReproError):
            run_line_adversary(
                DeterministicClosestLearner(), 9, initial_arrangement=Arrangement(range(8))
            )
