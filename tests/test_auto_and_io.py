"""Tests for the kind-dispatching learners and the JSON serialization layer."""

import random

import pytest

from repro.core.auto import AutoRandomizedLearner, KindDispatchingLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.errors import ReproError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep
from repro.io import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_json,
    load_result,
    result_from_dict,
    result_to_dict,
    save_instance,
    save_result,
    sequence_from_dict,
    sequence_to_dict,
)
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


class TestKindDispatchingLearner:
    def test_auto_rand_picks_the_right_delegate(self):
        rng = random.Random(0)
        clique_instance = OnlineMinLAInstance.with_random_start(
            random_clique_merge_sequence(8, rng), rng
        )
        line_instance = OnlineMinLAInstance.with_random_start(
            random_line_sequence(8, rng), rng
        )
        learner = AutoRandomizedLearner()
        run_online(learner, clique_instance, rng=random.Random(1))
        assert isinstance(learner.delegate, RandomizedCliqueLearner)
        run_online(learner, line_instance, rng=random.Random(2))
        assert isinstance(learner.delegate, RandomizedLineLearner)

    def test_costs_match_the_underlying_algorithm(self):
        rng = random.Random(4)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        auto_result = run_online(AutoRandomizedLearner(), instance, rng=random.Random(9))
        direct_result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(9))
        assert auto_result.total_cost == direct_result.total_cost
        assert auto_result.final_arrangement == direct_result.final_arrangement

    @pytest.mark.parametrize(
        "generate", [random_clique_merge_sequence, random_line_sequence]
    )
    def test_forest_is_the_delegates_revealed_graph(self, generate):
        rng = random.Random(6)
        instance = OnlineMinLAInstance.with_random_start(generate(8, rng), rng)
        learner = AutoRandomizedLearner()
        run_online(learner, instance, rng=random.Random(7))
        assert learner.forest is learner.delegate.forest
        assert learner.forest.num_components == 1

    @pytest.mark.parametrize(
        "generate", [random_clique_merge_sequence, random_line_sequence]
    )
    def test_reset_builds_one_arrangement_and_one_forest(self, generate, monkeypatch):
        rng = random.Random(3)
        instance = OnlineMinLAInstance.with_random_start(generate(8, rng), rng)
        learner = AutoRandomizedLearner()
        built = []
        for cls in (MutableArrangement, CliqueForest, LineForest):
            def counting_init(self, *args, _init=cls.__init__, _name=cls.__name__):
                built.append(_name)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting_init)
        learner.reset(
            instance.nodes, instance.kind, instance.initial_arrangement, random.Random(1)
        )
        forest = "CliqueForest" if instance.kind is GraphKind.CLIQUES else "LineForest"
        assert sorted(built) == sorted(["MutableArrangement", forest])
        assert learner.kind is instance.kind
        assert learner.initial_arrangement == instance.initial_arrangement

    def test_delegate_before_reset_rejected(self):
        learner = AutoRandomizedLearner()
        for read in ("delegate", "kind", "initial_arrangement", "forest", "current_arrangement"):
            with pytest.raises(ReproError):
                getattr(learner, read)
        with pytest.raises(ReproError):
            learner.process(RevealStep(0, 1))

    def test_mismatched_initial_arrangement_rejected(self):
        rng = random.Random(5)
        instance = OnlineMinLAInstance.with_random_start(
            random_clique_merge_sequence(6, rng), rng
        )
        learner = AutoRandomizedLearner()
        with pytest.raises(ReproError, match="node universe"):
            learner.reset(
                instance.nodes[:-1], instance.kind, instance.initial_arrangement
            )
        with pytest.raises(ReproError):
            _ = learner.delegate

    def test_incomplete_implementation_map_rejected(self):
        with pytest.raises(ReproError):
            KindDispatchingLearner({GraphKind.CLIQUES: RandomizedCliqueLearner})


class TestSequenceAndInstanceSerialization:
    def test_clique_sequence_round_trip(self):
        rng = random.Random(0)
        sequence = random_clique_merge_sequence(9, rng, num_final_components=2)
        restored = sequence_from_dict(sequence_to_dict(sequence))
        assert restored.kind is GraphKind.CLIQUES
        assert restored.nodes == sequence.nodes
        assert [s.as_tuple() for s in restored.steps] == [s.as_tuple() for s in sequence.steps]

    def test_line_sequence_round_trip(self):
        rng = random.Random(1)
        sequence = random_line_sequence(9, rng)
        restored = sequence_from_dict(sequence_to_dict(sequence))
        assert restored.kind is GraphKind.LINES
        assert restored.final_paths() == sequence.final_paths()

    def test_instance_round_trip_preserves_everything(self):
        rng = random.Random(2)
        sequence = random_line_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        restored = instance_from_dict(instance_to_dict(instance))
        assert restored.initial_arrangement == instance.initial_arrangement
        assert restored.kind == instance.kind
        assert [s.as_tuple() for s in restored.steps] == [s.as_tuple() for s in instance.steps]

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ReproError):
            sequence_from_dict({"kind": "triangles", "nodes": [1], "steps": []})
        with pytest.raises(ReproError):
            sequence_from_dict({"nodes": [1]})
        with pytest.raises(ReproError):
            instance_from_dict({"sequence": {"kind": "cliques", "nodes": [0, 1], "steps": []}})

    def test_invalid_sequences_are_revalidated_on_load(self):
        payload = {"kind": "lines", "nodes": [0, 1, 2], "steps": [[0, 1], [0, 1]]}
        with pytest.raises(ReproError):
            sequence_from_dict(payload)


class TestResultSerializationAndFiles:
    def test_result_round_trip(self):
        rng = random.Random(3)
        sequence = random_clique_merge_sequence(8, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(4))
        restored = result_from_dict(result_to_dict(result))
        assert restored.total_cost == result.total_cost
        assert restored.final_arrangement == result.final_arrangement
        assert len(restored.ledger) == len(result.ledger)

    def test_inconsistent_total_cost_rejected(self):
        rng = random.Random(5)
        sequence = random_clique_merge_sequence(6, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(6))
        payload = result_to_dict(result)
        payload["total_cost"] = payload["total_cost"] + 1
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_file_round_trips(self, tmp_path):
        rng = random.Random(7)
        sequence = random_line_sequence(7, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(8))

        instance_path = save_instance(instance, tmp_path / "deep" / "instance.json")
        result_path = save_result(result, tmp_path / "deep" / "result.json")
        assert load_instance(instance_path).initial_arrangement == instance.initial_arrangement
        assert load_result(result_path).total_cost == result.total_cost

    def test_load_json_errors(self, tmp_path):
        with pytest.raises(ReproError):
            load_json(tmp_path / "missing.json")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        with pytest.raises(ReproError):
            load_json(broken)
