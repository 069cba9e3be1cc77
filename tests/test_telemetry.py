"""Tests for the telemetry subsystem: the inversion counter, traces, serialization.

Covers the contract the rest of the library relies on:

* the inversion counter matches the quadratic pair-count definition,
* a :class:`TraceRecorder`'s totals always equal the
  :class:`~repro.core.cost.CostLedger` totals of the same run, for every
  downsampling stride,
* trace downsampling is deterministic under a fixed seed,
* serialization round-trips preserve the trace and every record's
  moving/rearranging phase attribution.
"""

import random

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.errors import ReproError
from repro.io import result_from_dict, result_to_dict, trace_from_dict, trace_to_dict
from repro.telemetry import (
    TraceRecorder,
    count_cross_inversions,
    count_inversions,
    downsample_events,
)
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


def _quadratic_count(values):
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


class TestInversionCounter:
    def test_reference_counts(self):
        assert count_inversions([]) == 0
        assert count_inversions([7]) == 0
        assert count_inversions([3, 2, 1, 0]) == 6
        assert count_inversions([2, 2, 1]) == 2

    def test_matches_quadratic_definition(self):
        rng = random.Random(0)
        for _ in range(20):
            values = [rng.randrange(12) for _ in range(rng.randrange(2, 40))]
            assert count_inversions(values) == _quadratic_count(values)

    def test_cross_inversions_matches_quadratic(self):
        rng = random.Random(1)
        for _ in range(20):
            left = sorted(rng.randrange(30) for _ in range(rng.randrange(1, 20)))
            right = sorted(rng.randrange(30) for _ in range(rng.randrange(1, 20)))
            expected = sum(1 for x in left for y in right if x > y)
            assert count_cross_inversions(left, right) == expected

    # Sizes on both sides of the powers of two at which the few-run path's
    # galloping probe doubles and halves.
    SIZES = (1, 2, 3, 17, 63, 64, 100, 128, 255, 256, 511, 512)

    @pytest.mark.parametrize("size", SIZES)
    def test_sorted_and_reversed(self, size):
        ascending = list(range(size))
        assert count_inversions(ascending) == 0
        assert count_inversions(ascending[::-1]) == size * (size - 1) // 2

    @pytest.mark.parametrize("size", SIZES)
    def test_random_permutations(self, size):
        rng = random.Random(size)
        values = list(range(size))
        rng.shuffle(values)
        assert count_inversions(values) == _quadratic_count(values)

    def test_duplicates(self):
        rng = random.Random(3)
        for size in self.SIZES:
            values = [rng.randrange(max(size // 4, 1)) for _ in range(size)]
            assert count_inversions(values) == _quadratic_count(values), (
                f"mismatch on a duplicate-heavy sequence of size {size}"
            )

    def test_cross_inversions_with_ties_and_empty_groups(self):
        assert count_cross_inversions([], [1, 2]) == 0
        assert count_cross_inversions([1, 2], []) == 0
        # Equal values are not inverted: only 3 > 2 and 3 > 2 count.
        assert count_cross_inversions([2, 3], [2, 2]) == 2
        rng = random.Random(4)
        for size in (1, 5, 64, 200, 512):
            left = sorted(rng.randrange(1000) for _ in range(size))
            right = sorted(rng.randrange(1000) for _ in range(size))
            expected = sum(1 for x in left for y in right if x > y)
            assert count_cross_inversions(left, right) == expected

    def test_kendall_tau_counts_the_discordant_node_pairs(self):
        from repro.core.permutation import Arrangement, MutableArrangement

        rng = random.Random(5)
        order = list(range(300))
        rng.shuffle(order)
        first = Arrangement(range(300))
        second = Arrangement(order)
        discordant = sum(
            1
            for a in range(300)
            for b in range(a + 1, 300)
            if second.position(a) > second.position(b)
        )
        assert first.kendall_tau(second) == discordant
        assert second.kendall_tau(first) == discordant
        assert MutableArrangement(range(300)).kendall_tau(second) == discordant


class TestTraceRecorder:
    def _run(self, trace_every, seed=0):
        rng = random.Random(seed)
        sequence = random_line_sequence(24, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        return run_online(
            RandomizedLineLearner(),
            instance,
            rng=random.Random(seed + 1),
            trace_every=trace_every,
        )

    @pytest.mark.parametrize("trace_every", [1, 2, 5, 100])
    def test_trace_totals_equal_ledger_totals(self, trace_every):
        result = self._run(trace_every)
        trace = result.trace
        assert trace is not None
        assert trace.total_cost == result.ledger.total_cost
        assert trace.total_moving_cost == result.ledger.total_moving_cost
        assert trace.total_rearranging_cost == result.ledger.total_rearranging_cost
        assert trace.total_kendall_tau == result.ledger.total_kendall_tau
        assert trace.num_steps == len(result.ledger)

    def test_trace_ends_on_the_exact_run_total(self):
        result = self._run(trace_every=7)
        trace = result.trace
        assert trace.events[-1].cumulative_cost == result.total_cost

    def test_full_stride_matches_ledger_records(self):
        result = self._run(trace_every=1)
        assert len(result.trace.events) == len(result.ledger)
        for event, record in zip(result.trace.events, result.ledger):
            assert event.step_index == record.step_index
            assert event.moving_cost == record.moving_cost
            assert event.rearranging_cost == record.rearranging_cost
            assert event.kendall_tau == record.kendall_tau

    def test_untraced_run_has_no_trace(self):
        rng = random.Random(9)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(1))
        assert result.trace is None

    def test_invalid_stride_rejected(self):
        with pytest.raises(ReproError):
            TraceRecorder(every=0)


class TestDownsampling:
    def _events(self, count=200):
        recorder = TraceRecorder()
        for index in range(count):
            recorder.record(index, index % 3, index % 2, index % 3)
        return recorder.as_trace().events

    def test_deterministic_under_a_fixed_seed(self):
        events = self._events()
        first = downsample_events(events, 17, seed=42)
        second = downsample_events(events, 17, seed=42)
        assert first == second
        assert len(first) == 17

    def test_keeps_first_and_last_events(self):
        events = self._events()
        sample = downsample_events(events, 5, seed=0)
        assert sample[0] == events[0]
        assert sample[-1] == events[-1]
        indices = [event.step_index for event in sample]
        assert indices == sorted(indices)

    def test_small_traces_pass_through(self):
        events = self._events(count=4)
        assert downsample_events(events, 10, seed=0) == tuple(events)

    def test_needs_room_for_endpoints(self):
        with pytest.raises(ReproError):
            downsample_events(self._events(), 1, seed=0)


class TestTraceConsumers:
    def _trace(self, count=30):
        recorder = TraceRecorder()
        for index in range(count):
            recorder.record(index, 2, 1, 3)
        return recorder.as_trace()

    def test_cumulative_costs_helper(self):
        from repro.experiments.metrics import trace_cumulative_costs

        trace = self._trace(4)
        assert trace_cumulative_costs(trace) == [3, 6, 9, 12]

    def test_cumulative_costs_rejects_empty_trace(self):
        from repro.experiments.metrics import trace_cumulative_costs

        with pytest.raises(ReproError):
            trace_cumulative_costs(TraceRecorder().as_trace())

    def test_phase_shares_helper(self):
        from repro.experiments.metrics import trace_phase_shares

        shares = trace_phase_shares(self._trace())
        assert shares["moving"] == pytest.approx(2 / 3)
        assert shares["rearranging"] == pytest.approx(1 / 3)

    def test_phase_shares_of_a_zero_cost_trace(self):
        from repro.experiments.metrics import trace_phase_shares

        recorder = TraceRecorder()
        recorder.record(0, 0, 0, 0)
        assert trace_phase_shares(recorder.as_trace()) == {
            "moving": 1.0,
            "rearranging": 0.0,
        }

    def test_trajectory_chart_downsampling_and_shares(self):
        from repro.experiments.charts import cost_trajectory_chart

        chart = cost_trajectory_chart(self._trace(200), max_points=10, seed=1)
        assert "total=600" in chart
        assert "moving 67%" in chart
        assert "steps=200" in chart

    def test_trajectory_chart_rejects_invalid_max_points(self):
        from repro.experiments.charts import cost_trajectory_chart

        with pytest.raises(ReproError):
            cost_trajectory_chart(self._trace(), max_points=1)


class TestTraceSerialization:
    def _traced_result(self):
        rng = random.Random(11)
        sequence = random_line_sequence(16, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        return run_online(
            RandomizedLineLearner(), instance, rng=random.Random(12), trace_every=2
        )

    def test_trace_round_trip(self):
        trace = self._traced_result().trace
        restored = trace_from_dict(trace_to_dict(trace))
        assert restored == trace

    def test_result_round_trip_preserves_trace_and_phases(self):
        result = self._traced_result()
        assert result.ledger.total_rearranging_cost > 0, "need a phase-split run"
        restored = result_from_dict(result_to_dict(result))
        assert restored.trace == result.trace
        for original, loaded in zip(result.ledger, restored.ledger):
            assert loaded.moving_cost == original.moving_cost
            assert loaded.rearranging_cost == original.rearranging_cost
            assert loaded.kendall_tau == original.kendall_tau

    def test_mangled_phase_totals_rejected(self):
        result = self._traced_result()
        payload = result_to_dict(result)
        # Shift one unit between phases: the grand total still matches, so
        # only the phase cross-check can catch it.
        payload["total_moving_cost"] += 1
        payload["total_rearranging_cost"] -= 1
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_mangled_record_split_rejected(self):
        result = self._traced_result()
        payload = result_to_dict(result)
        entry = next(e for e in payload["records"] if e["rearranging_cost"] > 0)
        entry["moving_cost"] += entry["rearranging_cost"]
        entry["rearranging_cost"] = 0
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_negative_phase_cost_rejected(self):
        result = self._traced_result()
        payload = result_to_dict(result)
        payload["records"][0]["moving_cost"] += 1
        payload["records"][0]["rearranging_cost"] -= 1
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_inconsistent_trace_rejected(self):
        result = self._traced_result()
        payload = result_to_dict(result)
        payload["trace"]["total_moving_cost"] += 1
        payload["trace"]["total_rearranging_cost"] -= 1
        with pytest.raises(ReproError):
            result_from_dict(payload)

    def test_negative_trace_event_cost_rejected(self):
        payload = trace_to_dict(self._traced_result().trace)
        payload["events"][0][1] -= payload["events"][0][1] + 5
        with pytest.raises(ReproError):
            trace_from_dict(payload)

    def test_eventless_trace_with_nonzero_totals_rejected(self):
        payload = {
            "every": 1,
            "num_steps": 0,
            "total_moving_cost": 7,
            "total_rearranging_cost": 0,
            "total_kendall_tau": 7,
            "events": [],
        }
        with pytest.raises(ReproError):
            trace_from_dict(payload)


class TestSharedLedgerAcrossLayers:
    def test_dynamic_run_reports_the_learner_phase_split(self):
        from repro.dynamic_minla.algorithms import (
            CollocateLearnerAdapter,
            requests_from_line_pattern,
        )
        from repro.dynamic_minla.model import run_dynamic
        from repro.core.permutation import Arrangement
        from repro.graphs.reveal import GraphKind

        rng = random.Random(13)
        nodes, requests = requests_from_line_pattern([6, 6], 120, rng)
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        adapter = CollocateLearnerAdapter(RandomizedLineLearner, GraphKind.LINES)
        result = run_dynamic(
            adapter,
            nodes,
            requests,
            Arrangement(shuffled),
            rng=random.Random(14),
            trace_every=1,
        )
        ledger = result.rearrangement_ledger
        assert ledger is not None
        assert ledger.total_cost == result.total_move_cost
        assert result.total_moving_cost + result.total_rearranging_cost == (
            result.total_move_cost
        )
        assert result.total_rearranging_cost > 0, "line learner must rearrange"
        assert result.trace.total_cost == ledger.total_cost
        assert result.trace.total_rearranging_cost == ledger.total_rearranging_cost

    def test_vnet_demand_aware_reports_the_phase_split(self):
        from repro.vnet.controller import DemandAwareController
        from repro.vnet.topology import LinearDatacenter
        from repro.vnet.traffic import pipeline_traffic

        rng = random.Random(15)
        trace = pipeline_traffic([5, 5], 80, rng)
        datacenter = LinearDatacenter(10, migration_cost_per_swap=2.0)
        controller = DemandAwareController(datacenter, RandomizedLineLearner)
        report = controller.run(trace, rng=random.Random(16))
        assert report.migration_ledger is not None
        assert report.moving_migration_cost + report.rearranging_migration_cost == (
            pytest.approx(report.migration_cost)
        )
        assert report.migration_cost == pytest.approx(
            report.migration_ledger.total_cost * 2.0
        )


class TestPhaseRegression:
    def test_regression_on_a_real_run(self):
        from repro.telemetry import regress_phases_against_harmonic

        sequence = random_clique_merge_sequence(48, random.Random(0))
        instance = OnlineMinLAInstance.with_random_start(sequence, random.Random(0))
        result = run_online(
            RandomizedCliqueLearner(),
            instance,
            rng=random.Random(1),
            trace_every=1,
        )
        regression = regress_phases_against_harmonic(result.trace)
        assert regression.num_events == len(result.trace.events)
        # Cumulative cost grows with the harmonic budget: positive slope,
        # decent fit on the moving phase (cliques never rearrange).
        assert regression.moving_slope > 0
        assert 0.0 <= regression.moving_r_squared <= 1.0
        assert regression.rearranging_slope == 0.0
        summary = regression.summary()
        assert "moving slope" in summary and "R²" in summary

    def test_needs_two_events(self):
        from repro.telemetry import TraceRecorder, regress_phases_against_harmonic

        recorder = TraceRecorder()
        recorder.record(0, 1, 0, 1)
        with pytest.raises(ReproError):
            regress_phases_against_harmonic(recorder.as_trace())

    def test_constant_series_fits_perfectly(self):
        from repro.telemetry import TraceRecorder, regress_phases_against_harmonic

        recorder = TraceRecorder()
        for step in range(5):
            recorder.record(step, 0, 0, 0)
        regression = regress_phases_against_harmonic(recorder.as_trace())
        assert regression.moving_slope == 0.0
        assert regression.moving_r_squared == 1.0
