"""Tests for the worst-of-k random adversarial search."""

import random

import pytest

from repro.adversary.random_adversary import (
    AdversarialSearchResult,
    random_instance,
    worst_of_k_search,
)
from repro.core.bounds import rand_cliques_ratio_bound, rand_lines_ratio_bound
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind


class TestRandomInstance:
    def test_kinds_and_sizes(self):
        rng = random.Random(0)
        clique_instance = random_instance(GraphKind.CLIQUES, 10, rng)
        line_instance = random_instance(GraphKind.LINES, 10, rng, num_final_components=2)
        assert clique_instance.kind is GraphKind.CLIQUES
        assert clique_instance.num_nodes == 10
        assert line_instance.kind is GraphKind.LINES
        assert len(line_instance.sequence.final_components()) == 2


class TestWorstOfKSearch:
    def test_search_respects_theoretical_bound_cliques(self):
        rng = random.Random(1)
        result = worst_of_k_search(
            RandomizedCliqueLearner,
            GraphKind.CLIQUES,
            num_nodes=10,
            num_candidates=6,
            rng=rng,
            trials_per_candidate=4,
        )
        assert isinstance(result, AdversarialSearchResult)
        assert result.candidates_evaluated == 6
        assert result.opt_lower <= result.opt_upper
        # Even the worst random instance cannot break the theorem.
        assert result.ratio <= rand_cliques_ratio_bound(10)

    def test_search_respects_theoretical_bound_lines(self):
        rng = random.Random(2)
        result = worst_of_k_search(
            RandomizedLineLearner,
            GraphKind.LINES,
            num_nodes=10,
            num_candidates=6,
            rng=rng,
            trials_per_candidate=4,
        )
        assert result.kind is GraphKind.LINES
        assert result.ratio <= rand_lines_ratio_bound(10)

    def test_search_is_reproducible(self):
        first = worst_of_k_search(
            RandomizedCliqueLearner,
            GraphKind.CLIQUES,
            num_nodes=8,
            num_candidates=4,
            rng=random.Random(7),
        )
        second = worst_of_k_search(
            RandomizedCliqueLearner,
            GraphKind.CLIQUES,
            num_nodes=8,
            num_candidates=4,
            rng=random.Random(7),
        )
        assert first.ratio == second.ratio
        assert first.mean_cost == second.mean_cost

    def test_sharded_search_is_bit_identical_to_sequential(self):
        sequential = worst_of_k_search(
            RandomizedCliqueLearner,
            GraphKind.CLIQUES,
            num_nodes=8,
            num_candidates=5,
            rng=random.Random(11),
            trials_per_candidate=3,
            jobs=1,
        )
        sharded = worst_of_k_search(
            RandomizedCliqueLearner,
            GraphKind.CLIQUES,
            num_nodes=8,
            num_candidates=5,
            rng=random.Random(11),
            trials_per_candidate=3,
            jobs=3,
        )
        assert sharded.ratio == sequential.ratio
        assert sharded.mean_cost == sequential.mean_cost
        assert sharded.opt_lower == sequential.opt_lower
        assert sharded.opt_upper == sequential.opt_upper
        assert sharded.candidates_evaluated == 5
        assert (
            sharded.instance.initial_arrangement
            == sequential.instance.initial_arrangement
        )
        assert [s.as_tuple() for s in sharded.instance.steps] == [
            s.as_tuple() for s in sequential.instance.steps
        ]

    def test_sharded_search_rejects_unpicklable_factory(self):
        with pytest.raises(ReproError):
            worst_of_k_search(
                lambda: RandomizedCliqueLearner(),
                GraphKind.CLIQUES,
                num_nodes=8,
                num_candidates=4,
                rng=random.Random(0),
                jobs=2,
            )

    def test_explicit_jobs_with_unpicklable_factory_raises_even_for_one_candidate(self):
        with pytest.raises(ReproError):
            worst_of_k_search(
                lambda: RandomizedCliqueLearner(),
                GraphKind.CLIQUES,
                num_nodes=8,
                num_candidates=1,
                rng=random.Random(0),
                trials_per_candidate=4,
                jobs=2,
            )

    def test_env_driven_sharding_falls_back_for_unpicklable_factory(self, monkeypatch):
        from repro.experiments.parallel import JOBS_ENV_VAR

        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        result = worst_of_k_search(
            lambda: RandomizedCliqueLearner(),
            GraphKind.CLIQUES,
            num_nodes=6,
            num_candidates=2,
            rng=random.Random(0),
            trials_per_candidate=2,
        )
        assert result.candidates_evaluated == 2

    def test_parameter_validation(self):
        rng = random.Random(0)
        with pytest.raises(ReproError):
            worst_of_k_search(
                RandomizedCliqueLearner, GraphKind.CLIQUES, 8, num_candidates=0, rng=rng
            )
        with pytest.raises(ReproError):
            worst_of_k_search(
                RandomizedCliqueLearner,
                GraphKind.CLIQUES,
                8,
                num_candidates=2,
                rng=rng,
                trials_per_candidate=0,
            )

