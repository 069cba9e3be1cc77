"""Tests for the run-analysis tools of :mod:`repro.core.analysis` (potentials, merge profiles, harmonic certificates)."""

import random

import pytest

from repro.core.analysis import (
    cost_distribution,
    disagreement_trajectory,
    expected_per_step_costs,
    harmonic_certificate,
    instance_profile,
    merge_profile,
    per_step_cost_matrix,
    worst_harmonic_certificate,
)
from repro.core.bounds import harmonic_number
from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online, run_trials
from repro.errors import ReproError
from repro.workloads.generation import (
    balanced_clique_merge_sequence,
    growing_clique_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
)


class TestDisagreementTrajectory:
    def test_starts_at_zero_and_matches_final_distance(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(
            RandomizedCliqueLearner(), instance, rng=random.Random(1), record_trajectory=True
        )
        trajectory = disagreement_trajectory(result, instance.initial_arrangement)
        assert trajectory[0] == 0
        assert trajectory[-1] == instance.initial_arrangement.kendall_tau(
            result.final_arrangement
        )
        assert len(trajectory) == instance.num_steps + 1

    def test_requires_recorded_trajectory(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(1))
        with pytest.raises(ReproError):
            disagreement_trajectory(result, instance.initial_arrangement)


class TestMergeProfiles:
    def test_growing_clique_profile_of_the_seed_node(self):
        sequence = growing_clique_sequence(6)
        # Node 0 merges with a singleton at every step.
        assert merge_profile(sequence, 0) == [1, 1, 1, 1, 1]
        # Node 5 only takes part in the last merge, against a component of size 5.
        assert merge_profile(sequence, 5) == [5]

    def test_balanced_merge_profile_doubles(self):
        sequence = balanced_clique_merge_sequence(8)
        assert merge_profile(sequence, 0) == [1, 2, 4]

    def test_line_sequence_profiles_sum_to_component_size(self):
        rng = random.Random(1)
        sequence = random_line_sequence(9, rng)
        for node in sequence.nodes:
            profile = merge_profile(sequence, node)
            assert 1 + sum(profile) == 9

    def test_unknown_node_rejected(self):
        sequence = growing_clique_sequence(4)
        with pytest.raises(ReproError):
            merge_profile(sequence, 99)


class TestHarmonicCertificates:
    def test_growing_clique_seed_node_is_harmonic(self):
        n = 16
        sequence = growing_clique_sequence(n)
        certificate = harmonic_certificate(sequence, 0)
        # The seed node's Lemma 5 sum is H_n - 1 (every term is 1/(i+1)).
        assert certificate.lemma5_value == pytest.approx(harmonic_number(n) - 1)
        assert certificate.harmonic_budget == pytest.approx(harmonic_number(n))
        assert 0 < certificate.lemma5_utilization <= 1.0

    def test_certificates_never_exceed_lemma_budgets(self):
        rng = random.Random(2)
        for _ in range(5):
            sequence = random_clique_merge_sequence(12, rng)
            for node in (0, 5, 11):
                certificate = harmonic_certificate(sequence, node)
                assert certificate.lemma5_value <= certificate.harmonic_budget + 1e-9
                assert certificate.lemma13_square_value <= 2 * certificate.harmonic_budget + 1e-9
                assert certificate.lemma13_product_value <= 2 * certificate.harmonic_budget + 1e-9

    def test_worst_certificate_is_the_maximum(self):
        sequence = growing_clique_sequence(8)
        worst = worst_harmonic_certificate(sequence)
        assert worst.lemma5_value == pytest.approx(
            max(harmonic_certificate(sequence, node).lemma5_value for node in sequence.nodes)
        )


class TestCostDistributions:
    def _results(self, n=8, trials=6):
        rng = random.Random(3)
        sequence = random_line_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        return run_trials(RandomizedLineLearner, instance, num_trials=trials, seed=0), instance

    def test_cost_distribution_summaries(self):
        results, _ = self._results()
        distribution = cost_distribution(results)
        assert distribution.total.count == 6
        assert distribution.total.mean == pytest.approx(
            sum(r.total_cost for r in results) / len(results)
        )
        assert distribution.moving.mean + distribution.rearranging.mean == pytest.approx(
            distribution.total.mean
        )

    def test_per_step_matrix_and_means(self):
        results, instance = self._results()
        matrix = per_step_cost_matrix(results)
        assert len(matrix) == 6
        assert all(len(row) == instance.num_steps for row in matrix)
        means = expected_per_step_costs(results)
        assert len(means) == instance.num_steps
        assert sum(means) == pytest.approx(
            sum(r.total_cost for r in results) / len(results)
        )

    def test_empty_batches_rejected(self):
        with pytest.raises(ReproError):
            cost_distribution([])
        with pytest.raises(ReproError):
            per_step_cost_matrix([])


class TestInstanceProfile:
    def test_profile_fields(self):
        rng = random.Random(4)
        sequence = random_clique_merge_sequence(10, rng, num_final_components=2)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        profile = instance_profile(instance)
        assert profile["num_nodes"] == 10.0
        assert profile["num_steps"] == 8.0
        assert profile["num_final_components"] == 2.0
        assert profile["is_lines"] == 0.0
        assert 0.0 < profile["worst_lemma5_utilization"] <= 1.0

    def test_profile_for_lines(self):
        rng = random.Random(5)
        sequence = random_line_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        profile = instance_profile(instance)
        assert profile["is_lines"] == 1.0
        assert profile["largest_component"] == 8.0
