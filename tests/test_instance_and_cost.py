"""Tests for problem instances, update records and cost ledgers."""

import random

import pytest

from repro.core.cost import CostLedger, SimulationResult, UpdateRecord
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind, LineRevealSequence, RevealStep
from repro.workloads.generation import random_clique_merge_sequence


class TestOnlineMinLAInstance:
    def test_identity_start(self):
        sequence = random_clique_merge_sequence(6, random.Random(0))
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        assert instance.initial_arrangement.order == sequence.nodes
        assert instance.kind is GraphKind.CLIQUES
        assert instance.num_nodes == 6
        assert instance.num_steps == 5
        assert instance.steps == sequence.steps
        assert instance.nodes == sequence.nodes

    def test_random_start_is_reproducible(self):
        sequence = random_clique_merge_sequence(6, random.Random(0))
        first = OnlineMinLAInstance.with_random_start(sequence, random.Random(1))
        second = OnlineMinLAInstance.with_random_start(sequence, random.Random(1))
        assert first.initial_arrangement == second.initial_arrangement

    def test_mismatched_arrangement_rejected(self):
        sequence = random_clique_merge_sequence(4, random.Random(0))
        with pytest.raises(ReproError):
            OnlineMinLAInstance(sequence, Arrangement(range(5)))

    def test_line_instance_kind(self):
        sequence = LineRevealSequence.from_pairs(range(3), [(0, 1)])
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        assert instance.kind is GraphKind.LINES


class TestCostLedger:
    def _record(self, index, moving, rearranging, tau):
        return UpdateRecord(
            step_index=index,
            step=RevealStep(0, 1),
            moving_cost=moving,
            rearranging_cost=rearranging,
            kendall_tau=tau,
        )

    def test_totals(self):
        ledger = CostLedger()
        ledger.add(self._record(0, 3, 1, 4))
        ledger.add(self._record(1, 0, 2, 2))
        assert len(ledger) == 2
        assert ledger.total_cost == 6
        assert ledger.total_moving_cost == 3
        assert ledger.total_rearranging_cost == 3
        assert ledger.total_kendall_tau == 6
        assert ledger.per_step_costs() == [4, 2]
        assert [record.total_cost for record in ledger] == [4, 2]

    def test_update_record_total(self):
        record = self._record(0, 5, 2, 7)
        assert record.total_cost == 7

    def test_simulation_result_total(self):
        ledger = CostLedger()
        ledger.add(self._record(0, 1, 0, 1))
        result = SimulationResult(
            algorithm_name="x",
            ledger=ledger,
            final_arrangement=Arrangement([0, 1]),
        )
        assert result.total_cost == 1
        assert result.arrangements is None
