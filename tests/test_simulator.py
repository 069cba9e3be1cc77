"""Tests for the simulation driver and its feasibility enforcement."""

import random
from typing import Tuple

import pytest

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement, MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import expected_cost, run_online, run_trials
from repro.errors import InfeasibleArrangementError, ReproError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.generators import random_clique_merge_sequence, random_line_sequence
from repro.graphs.reveal import GraphKind, RevealStep


class DoNothingAlgorithm(OnlineMinLAAlgorithm):
    """Deliberately broken: never updates its arrangement."""

    name = "do-nothing"

    def _handle_step_fast(
        self, step: RevealStep, arrangement: MutableArrangement
    ) -> Tuple[int, int, int]:
        forest = self.forest
        if isinstance(forest, CliqueForest):
            forest.merge(step.u, step.v)
        else:
            forest.add_edge(step.u, step.v)
        return 0, 0, 0


class UnderReportingAlgorithm(RandomizedCliqueLearner):
    """Deliberately broken: reports zero cost for every update."""

    name = "under-reporting"

    def _handle_step_fast(self, step: RevealStep, arrangement: MutableArrangement):
        _, _, kendall_tau = super()._handle_step_fast(step, arrangement)
        return 0, 0, kendall_tau


class TestRunOnline:
    def test_feasible_run_produces_ledger(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(1))
        assert len(result.ledger) == instance.num_steps
        assert result.total_cost == result.ledger.total_cost
        assert result.final_arrangement.is_contiguous(range(8))

    def test_lines_run_is_feasible(self):
        rng = random.Random(2)
        sequence = random_line_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(3))
        final_path = sequence.final_paths()[0]
        lo, _ = result.final_arrangement.span(final_path)
        laid_out = tuple(
            result.final_arrangement[lo + offset] for offset in range(len(final_path))
        )
        assert laid_out in (tuple(final_path), tuple(reversed(final_path)))

    def test_infeasible_algorithm_is_caught(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(InfeasibleArrangementError):
            run_online(DoNothingAlgorithm(), instance)

    def test_under_reported_cost_is_caught(self):
        rng = random.Random(0)
        # Use an initial permutation that forces at least one non-trivial move.
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ReproError, match="reported 0 swaps"):
            run_online(UnderReportingAlgorithm(), instance, rng=random.Random(5))

    def test_verification_can_be_disabled(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(DoNothingAlgorithm(), instance, verify=False)
        assert result.total_cost == 0

    def test_trajectory_recording(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(
            RandomizedCliqueLearner(), instance, rng=random.Random(1), record_trajectory=True
        )
        assert result.arrangements is not None
        assert len(result.arrangements) == instance.num_steps + 1
        assert result.arrangements[0] == instance.initial_arrangement
        assert result.arrangements[-1] == result.final_arrangement

    def test_algorithm_kind_mismatch_rejected(self):
        rng = random.Random(0)
        sequence = random_line_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ReproError):
            run_online(RandomizedCliqueLearner(), instance)


class TestRunTrials:
    def test_trials_are_reproducible(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        first = run_trials(RandomizedCliqueLearner, instance, num_trials=4, seed=7)
        second = run_trials(RandomizedCliqueLearner, instance, num_trials=4, seed=7)
        assert [r.total_cost for r in first] == [r.total_cost for r in second]

    def test_trials_vary_across_seeds(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        costs = {
            tuple(r.total_cost for r in run_trials(RandomizedCliqueLearner, instance, 3, seed=s))
            for s in range(4)
        }
        assert len(costs) > 1

    def test_zero_trials_rejected(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(4, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ReproError):
            run_trials(RandomizedCliqueLearner, instance, num_trials=0)

    def test_expected_cost(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        results = run_trials(RandomizedCliqueLearner, instance, num_trials=5, seed=0)
        assert expected_cost(results) == pytest.approx(
            sum(r.total_cost for r in results) / 5
        )

    def test_expected_cost_empty_rejected(self):
        with pytest.raises(ReproError):
            expected_cost([])


class TestAlgorithmLifecycle:
    def test_process_before_reset_rejected(self):
        algorithm = RandomizedCliqueLearner()
        with pytest.raises(ReproError):
            algorithm.process(RevealStep(0, 1))
        with pytest.raises(ReproError):
            _ = algorithm.current_arrangement
        with pytest.raises(ReproError):
            _ = algorithm.forest
        with pytest.raises(ReproError):
            _ = algorithm.kind
        with pytest.raises(ReproError):
            _ = algorithm.initial_arrangement

    def test_reset_with_wrong_arrangement_rejected(self):
        algorithm = RandomizedCliqueLearner()
        with pytest.raises(ReproError):
            algorithm.reset(
                nodes=[0, 1, 2],
                kind=GraphKind.CLIQUES,
                initial_arrangement=Arrangement([0, 1]),
            )

    def test_supports_declaration(self):
        assert RandomizedCliqueLearner.supports(GraphKind.CLIQUES)
        assert not RandomizedCliqueLearner.supports(GraphKind.LINES)
        assert RandomizedLineLearner.supports(GraphKind.LINES)
        assert not RandomizedLineLearner.supports(GraphKind.CLIQUES)
