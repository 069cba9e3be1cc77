"""Tests for the parallel experiment runner.

The contract under test is *determinism*: the parallel paths must produce
bit-identical results to their sequential counterparts, because each trial's
randomness is derived solely from ``(seed, trial index)``.
"""

import random

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_trials, run_trials_sequential
from repro.errors import ExperimentError
from repro.experiments.parallel import (
    JOBS_ENV_VAR,
    _partition_trials,
    resolve_jobs,
    run_trials_parallel,
)
from repro.experiments.runner import ExperimentScale
from repro.experiments.suite import run_all
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


def _fingerprint(results):
    return [
        (
            result.algorithm_name,
            result.total_cost,
            result.ledger.total_moving_cost,
            result.ledger.total_rearranging_cost,
            result.final_arrangement.order,
        )
        for result in results
    ]


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "7")
        assert resolve_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "5")
        assert resolve_jobs(None) == 5

    def test_default_is_sequential(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert resolve_jobs(None) == 1

    @pytest.mark.parametrize("value", ["zero", "1.5", ""])
    def test_invalid_environment_value_rejected(self, monkeypatch, value):
        monkeypatch.setenv(JOBS_ENV_VAR, value)
        with pytest.raises(ExperimentError):
            resolve_jobs(None)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_non_positive_jobs_rejected(self, jobs):
        with pytest.raises(ExperimentError):
            resolve_jobs(jobs)


class TestPartition:
    def test_covers_every_trial_exactly_once(self):
        for num_trials in (1, 2, 5, 7, 16):
            for jobs in (1, 2, 3, 8, 32):
                batches = _partition_trials(num_trials, jobs)
                flattened = [trial for batch in batches for trial in batch]
                assert flattened == list(range(num_trials))
                assert len(batches) == min(jobs, num_trials)


class TestRunTrialsParallel:
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_cliques_results_bit_identical_to_sequential(self, jobs):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(16, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        sequential = run_trials_sequential(
            RandomizedCliqueLearner, instance, num_trials=6, seed=11
        )
        parallel = run_trials_parallel(
            RandomizedCliqueLearner, instance, num_trials=6, seed=11, jobs=jobs
        )
        assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_lines_results_bit_identical_to_sequential(self):
        rng = random.Random(1)
        sequence = random_line_sequence(14, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        sequential = run_trials_sequential(
            RandomizedLineLearner, instance, num_trials=5, seed=3
        )
        parallel = run_trials_parallel(
            RandomizedLineLearner, instance, num_trials=5, seed=3, jobs=4
        )
        assert _fingerprint(parallel) == _fingerprint(sequential)

    def test_run_trials_jobs_parameter_delegates(self):
        rng = random.Random(2)
        sequence = random_clique_merge_sequence(12, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        direct = run_trials(RandomizedCliqueLearner, instance, num_trials=4, seed=9)
        fanned = run_trials(
            RandomizedCliqueLearner, instance, num_trials=4, seed=9, jobs=2
        )
        assert _fingerprint(fanned) == _fingerprint(direct)

    def test_run_trials_honours_environment_variable(self, monkeypatch):
        rng = random.Random(4)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        baseline = run_trials(RandomizedCliqueLearner, instance, num_trials=3, seed=1)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        fanned = run_trials(RandomizedCliqueLearner, instance, num_trials=3, seed=1)
        assert _fingerprint(fanned) == _fingerprint(baseline)

    def test_env_driven_parallelism_falls_back_for_unpicklable_factory(
        self, monkeypatch
    ):
        """A lambda factory was valid before REPRO_JOBS existed; setting the
        env var must not break it — it runs sequentially instead."""
        rng = random.Random(6)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        results = run_trials(
            lambda: RandomizedCliqueLearner(), instance, num_trials=3, seed=2
        )
        baseline = run_trials_sequential(
            RandomizedCliqueLearner, instance, num_trials=3, seed=2
        )
        assert _fingerprint(results) == _fingerprint(baseline)

    def test_explicit_jobs_with_unpicklable_factory_raises_clearly(self):
        rng = random.Random(7)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ExperimentError, match="picklable"):
            run_trials(
                lambda: RandomizedCliqueLearner(),
                instance,
                num_trials=3,
                seed=2,
                jobs=2,
            )

    def test_zero_trials_rejected(self):
        rng = random.Random(5)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        with pytest.raises(ExperimentError):
            run_trials_parallel(
                RandomizedCliqueLearner, instance, num_trials=0, jobs=2
            )


class TestRunAllParallel:
    def test_experiment_results_identical_across_worker_counts(self):
        selected = ["E6", "E8"]
        sequential = run_all(ExperimentScale.SMOKE, seed=0, only=selected, jobs=1)
        parallel = run_all(ExperimentScale.SMOKE, seed=0, only=selected, jobs=2)
        assert [r.to_markdown() for r in sequential] == [
            r.to_markdown() for r in parallel
        ]
        assert [r.experiment_id for r in parallel] == selected
