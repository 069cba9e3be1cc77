"""Tests for engine observability: work counters and the zone profiler.

The two contracts under test are opposites (see :mod:`repro.obs.profile`):
work counters must be **bit-identical** across worker counts, fleets, and
aggregation orders (they count algorithmic events, not time), while zone
timings are machine-dependent — but become exactly reproducible when a
:class:`~repro.obs.clock.ManualClock` drives the seam.
"""

import random
import threading

import pytest

from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.simulator import run_trials
from repro.errors import ObsError
from repro.experiments.runner import ExperimentScale
from repro.experiments.suite import run_all
from repro.graphs.generators import random_clique_merge_sequence
from repro.obs.clock import ManualClock, set_clock
from repro.obs.profile import (
    ProfileSnapshot,
    ZoneProfiler,
    add_work,
    count_work,
    merge_profiles,
    profile_zone,
    profiling,
    render_zone_table,
    reset_work_counters,
    work_delta,
    work_snapshot,
)
from repro.service import run_scenario_loadgen
from repro.workloads.registry import get_scenario


def _clique_instance(n=10, seed=5):
    rng = random.Random(seed)
    sequence = random_clique_merge_sequence(n, rng)
    return OnlineMinLAInstance.with_random_start(sequence, rng)


def _trials_work(instance, jobs):
    before = work_snapshot()
    run_trials(
        RandomizedCliqueLearner, instance, num_trials=8, seed=11, jobs=jobs
    )
    return work_delta(before, work_snapshot())


def _serve_work(backend):
    scenario = get_scenario("zipf-tenants")
    before = work_snapshot()
    run_scenario_loadgen(
        scenario,
        num_nodes=24,
        num_requests=200,
        seed=3,
        num_shards=2,
        batch_size=4,
        queue_capacity=200,
        backend=backend,
    )
    return work_delta(before, work_snapshot())


class TestWorkCounters:
    def test_snapshot_merges_across_threads_exactly(self):
        before = work_snapshot()

        def worker(amount):
            for _ in range(amount):
                count_work("test.profile.threads")

        threads = [
            threading.Thread(target=worker, args=(amount,))
            for amount in (100, 200, 300)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        delta = work_delta(before, work_snapshot())
        assert delta["test.profile.threads"] == 600

    def test_delta_drops_zeros_and_rejects_backwards(self):
        assert work_delta({"a": 3, "b": 1}, {"a": 5, "b": 1}) == {"a": 2}
        with pytest.raises(ObsError, match="backwards"):
            work_delta({"a": 5}, {"a": 4})

    def test_add_work_folds_a_delta_into_the_snapshot(self):
        before = work_snapshot()
        add_work({"test.profile.added": 4, "test.profile.also": 1})
        add_work({"test.profile.added": 3})
        assert work_delta(before, work_snapshot()) == {
            "test.profile.added": 7,
            "test.profile.also": 1,
        }

    def test_add_work_rejects_a_negative_delta(self):
        before = work_snapshot()
        with pytest.raises(ObsError, match="only move forward"):
            add_work({"test.profile.ok": 2, "x": -1})
        assert work_delta(before, work_snapshot()) == {}

    def test_snapshot_and_delta_are_name_sorted(self):
        before = work_snapshot()
        count_work("test.profile.zeta", 2)
        count_work("test.profile.alpha")
        after = work_snapshot()
        assert list(after) == sorted(after)
        delta = work_delta(before, after)
        assert list(delta) == ["test.profile.alpha", "test.profile.zeta"]
        assert delta == {"test.profile.alpha": 1, "test.profile.zeta": 2}

    def test_added_deltas_sum_in_any_order(self):
        parts = [{"test.profile.a": 1, "test.profile.b": 2}, {"test.profile.a": 3}]
        totals = []
        for ordered in (parts, list(reversed(parts))):
            before = work_snapshot()
            for part in ordered:
                add_work(part)
            totals.append(work_delta(before, work_snapshot()))
        assert totals[0] == totals[1] == {"test.profile.a": 4, "test.profile.b": 2}

    def test_reset_zeroes_a_finished_threads_counts(self):
        thread = threading.Thread(target=count_work, args=("test.profile.gone", 5))
        thread.start()
        thread.join()
        assert work_snapshot()["test.profile.gone"] >= 5
        reset_work_counters()
        assert all(value == 0 for value in work_snapshot().values())

    def test_run_trials_counters_bit_identical_across_jobs(self):
        instance = _clique_instance()
        sequential = _trials_work(instance, jobs=1)
        parallel = _trials_work(instance, jobs=4)
        assert sequential["core.permutation.slides"] > 0
        assert sequential == parallel

    def test_suite_counters_bit_identical_across_jobs(self):
        # Two experiments so jobs=2 really fans out (a single experiment
        # short-circuits to the sequential path whatever the job count).
        before = work_snapshot()
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2", "E3"], jobs=1)
        sequential = work_delta(before, work_snapshot())
        before = work_snapshot()
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2", "E3"], jobs=2)
        parallel = work_delta(before, work_snapshot())
        assert sequential["core.permutation.slides"] > 0
        assert sequential == parallel

    def test_service_counters_bit_identical_across_backends(self):
        thread_work = _serve_work("thread")
        process_work = _serve_work("process")
        assert thread_work["core.permutation.slides"] > 0
        assert thread_work == process_work


class TestZoneProfiler:
    def _run_zones(self):
        clock = ManualClock()
        previous = set_clock(clock)
        try:
            with profiling() as profiler:
                with profile_zone("outer"):
                    clock.advance(1.0)
                    with profile_zone("inner"):
                        clock.advance(0.25)
                    with profile_zone("inner"):
                        clock.advance(0.25)
                with profile_zone("outer"):
                    clock.advance(0.5)
                return profiler.snapshot()
        finally:
            set_clock(previous)

    def test_zone_tree_is_exact_under_a_manual_clock(self):
        snapshot = self._run_zones()
        assert [stat.path for stat in snapshot.zones] == [
            ("outer",),
            ("outer", "inner"),
        ]
        outer = snapshot.zone("outer")
        inner = snapshot.zone("outer", "inner")
        assert outer.calls == 2
        assert inner.calls == 2
        assert outer.cumulative_seconds.sum == pytest.approx(2.0)
        assert outer.self_seconds.sum == pytest.approx(1.5)
        assert inner.cumulative_seconds.sum == pytest.approx(0.5)
        assert snapshot.total_seconds() == pytest.approx(2.0)

    def test_repeated_runs_produce_identical_trees(self):
        assert self._run_zones() == self._run_zones()

    def test_collapsed_stack_lines_are_flamegraph_shaped(self):
        lines = self._run_zones().collapsed_stack_lines()
        assert lines == ["outer 1500000", "outer;inner 500000"]
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames and int(weight) >= 0

    def test_zone_table_renders_the_tree(self):
        table = render_zone_table(self._run_zones())
        assert "outer" in table
        assert "  inner" in table
        assert "total (root zones)" in table
        assert render_zone_table(ProfileSnapshot.empty()) == "(no zones recorded)"

    def test_threads_merge_into_one_tree(self):
        clock = ManualClock()
        previous = set_clock(clock)
        try:
            profiler = ZoneProfiler()

            def worker():
                profiler.enter("worker")
                profiler.exit()

            threads = [threading.Thread(target=worker) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            snapshot = profiler.snapshot()
        finally:
            set_clock(previous)
        assert snapshot.zone("worker").calls == 3

    def test_absorb_nests_a_shipped_snapshot_under_a_prefix(self):
        shipped = self._run_zones()
        profiler = ZoneProfiler()
        profiler.absorb(shipped, prefix=("experiment",))
        snapshot = profiler.snapshot()
        assert snapshot.zone("experiment", "outer").calls == 2
        assert snapshot.zone("experiment", "outer", "inner").calls == 2

    def test_disabled_zones_are_inert(self):
        clock = ManualClock()
        previous = set_clock(clock)
        try:
            with profile_zone("nobody.listening"):
                clock.advance(1.0)
        finally:
            set_clock(previous)
        # No profiler installed: nothing recorded anywhere, no error.


class TestProfileSnapshot:
    def test_json_round_trip_is_exact(self):
        snapshot = TestZoneProfiler()._run_zones()
        assert ProfileSnapshot.from_json(snapshot.to_json()) == snapshot

    def test_merge_is_associative_and_order_independent(self):
        runs = [TestZoneProfiler()._run_zones() for _ in range(3)]
        forward = merge_profiles(runs)
        backward = merge_profiles(reversed(runs))
        assert forward == backward
        assert forward.zone("outer").calls == 6
        assert forward.total_seconds() == pytest.approx(6.0)

    def test_unsorted_zone_tuples_are_rejected(self):
        snapshot = TestZoneProfiler()._run_zones()
        with pytest.raises(ObsError, match="path-sorted"):
            ProfileSnapshot(zones=tuple(reversed(snapshot.zones)))


class TestProfiledSuiteRun:
    def test_profiling_a_suite_run_yields_the_engine_zones(self):
        with profiling() as profiler:
            run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], jobs=1)
            snapshot = profiler.snapshot()
        run_trials_stat = snapshot.zone("experiment", "run_trials")
        assert run_trials_stat is not None and run_trials_stat.calls > 0
        trial = snapshot.zone("experiment", "run_trials", "trial")
        assert trial is not None and trial.calls > 0
