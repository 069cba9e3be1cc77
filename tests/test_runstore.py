"""Tests for the persistent run archive (store, alignment, stats, reports)."""

import json

import pytest

from repro.errors import RunStoreError
from repro.experiments.runner import ExperimentResult, ExperimentScale
from repro.experiments.suite import run_all
from repro.experiments.tables import ResultTable
from repro.runstore import (
    RunRecord,
    RunStore,
    align_traces,
    bootstrap_ci,
    compare_stores,
    cost_bands,
    harmonic_slope_bands,
    store_report,
)
from repro.runstore.store import resolve_store_root, run_record_from_result
from repro.telemetry.trace import TraceRecorder, TraceSample


def _trace(costs, stride=1):
    recorder = TraceRecorder(every=stride)
    for index, cost in enumerate(costs):
        recorder.record(index, cost, cost // 2, cost)
    return recorder.as_trace()


def _record(seed=0, costs=(4, 2, 6), wall=None, **overrides):
    table = ResultTable(title="demo", columns=["n", "cost"], rows=[[8, sum(costs)]])
    defaults = dict(
        experiment_id="E2",
        title="demo run",
        scale="smoke",
        seed=seed,
        backend="python",
        jobs=1,
        wall_time_seconds=wall,
        tables=(table,),
        findings={"worst ratio": 1.5},
        trace_samples=(TraceSample(group="n=8", seed=0, trace=_trace(costs)),),
    )
    defaults.update(overrides)
    return RunRecord(**defaults)


class TestStoreRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path):
        store = RunStore(tmp_path / "store")
        record = _record(wall=1.25)
        run_id = store.append(record)
        loaded = store.get(run_id)
        assert loaded.experiment_id == record.experiment_id
        assert loaded.scale == record.scale
        assert loaded.seed == record.seed
        assert loaded.backend == record.backend
        assert loaded.jobs == record.jobs
        assert loaded.findings == record.findings
        # Tables round-trip cell-for-cell and traces dataclass-equal.
        assert [t.title for t in loaded.tables] == [t.title for t in record.tables]
        assert [list(t.columns) for t in loaded.tables] == [
            list(t.columns) for t in record.tables
        ]
        assert [t.rows for t in loaded.tables] == [t.rows for t in record.tables]
        assert loaded.trace_samples == tuple(record.trace_samples)
        assert loaded.timings == (1.25,)

    def test_reappend_is_idempotent_and_accumulates_timings(self, tmp_path):
        store = RunStore(tmp_path / "store")
        first = store.append(_record(wall=1.0))
        second = store.append(_record(wall=2.0))
        assert first == second
        assert store.run_ids() == [first]
        assert store.get(first).timings == (1.0, 2.0)
        assert store.get(first).mean_timing == pytest.approx(1.5)

    def test_different_content_gets_different_ids(self, tmp_path):
        store = RunStore(tmp_path / "store")
        a = store.append(_record(seed=0))
        b = store.append(_record(seed=1))
        assert a != b
        assert sorted(store.run_ids()) == sorted([a, b])

    def test_corrupted_content_fails_the_digest_check(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_id = store.append(_record())
        tables_path = store.runs_directory / run_id / "tables.json"
        payload = json.loads(tables_path.read_text())
        payload["tables"][0]["rows"][0][1] = 999_999
        tables_path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        with pytest.raises(RunStoreError, match="digest"):
            store.get(run_id)

    def test_unknown_run_and_missing_files_raise(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="unknown run"):
            store.get("doesnotexist")

    def test_gc_clears_staging_and_prunes_by_config(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(_record(seed=0, costs=(1, 2)))
        store.append(_record(seed=0, costs=(3, 4)))  # same config, new content
        (store.root / "tmp" / "leftover").mkdir(parents=True)
        removed = store.gc(keep=1)
        assert removed == {"staging": 1, "runs": 1}
        assert len(store.run_ids()) == 1

    def test_env_override_resolves_the_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUNSTORE", str(tmp_path / "envstore"))
        assert resolve_store_root() == tmp_path / "envstore"
        monkeypatch.setenv("REPRO_RUNSTORE", "  ")
        with pytest.raises(RunStoreError, match="REPRO_RUNSTORE"):
            resolve_store_root()


class TestAlignment:
    def test_stride_one_traces_align_on_their_own_axis(self):
        # _trace records (moving=c, rearranging=c//2): per-step totals of
        # [2, 3, 4] are 3, 4, 6 and of [1, 1, 1] are 1, 1, 1.
        aligned = align_traces([_trace([2, 3, 4]), _trace([1, 1, 1])])
        assert aligned.steps == (0, 1, 2)
        assert aligned.cumulative == ((3, 7, 13), (1, 2, 3))
        assert aligned.moving == ((2, 5, 9), (1, 2, 3))
        assert aligned.rearranging == ((1, 2, 4), (0, 0, 0))

    def test_downsampled_trace_is_forward_filled(self):
        full = _trace([2, 3, 4, 5])
        sparse = _trace([2, 3, 4, 5], stride=3)  # records steps 0 and 3
        aligned = align_traces([full, sparse])
        assert aligned.steps == (0, 1, 2, 3)
        assert aligned.cumulative[0] == (3, 7, 13, 20)
        # The sparse member holds its last known value between events.
        assert aligned.cumulative[1] == (3, 3, 3, 20)

    def test_alignment_is_deterministic_across_worker_counts(self):
        """The traces archived by jobs=1 and jobs=4 runs align identically."""
        sequential = run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], jobs=1)[0]
        parallel = run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], jobs=4)[0]
        assert tuple(sequential.traces) == tuple(parallel.traces)
        left = align_traces([sample.trace for sample in sequential.traces])
        right = align_traces([sample.trace for sample in parallel.traces])
        assert left == right
        assert cost_bands(left) == cost_bands(right)

    def test_empty_population_rejected(self):
        with pytest.raises(RunStoreError):
            align_traces([])


class TestStats:
    def test_cost_bands_cover_min_mean_max(self):
        # Per-step totals: _trace([2, 2]) pays 3 per step, _trace([4, 4]) 6.
        bands = cost_bands([_trace([2, 2]), _trace([4, 4])])
        band = bands["total"]
        assert band.minimum == (3.0, 6.0)
        assert band.maximum == (6.0, 12.0)
        assert band.mean == (4.5, 9.0)
        assert band.num_traces == 2
        assert bands["moving"].maximum == (4.0, 8.0)
        assert bands["rearranging"].maximum == (2.0, 4.0)

    def test_bootstrap_ci_is_reproducible_under_a_fixed_seed(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0, 9.0]
        first = bootstrap_ci(sample, num_resamples=500, seed=42)
        second = bootstrap_ci(sample, num_resamples=500, seed=42)
        assert first == second
        low, high = first
        assert low < high
        assert low <= sum(sample) / len(sample) <= high

    def test_bootstrap_ci_singleton_has_zero_width(self):
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_harmonic_slope_bands_generalize_the_single_trace_fit(self):
        traces = [_trace([3, 3, 3, 3]), _trace([5, 5, 5, 5]), _trace([4, 4, 4, 4])]
        bands = harmonic_slope_bands(traces, seed=0)
        assert bands.num_traces == 3
        assert bands.moving.minimum <= bands.moving.mean <= bands.moving.maximum
        assert bands.moving.ci_low <= bands.moving.mean <= bands.moving.ci_high
        again = harmonic_slope_bands(traces, seed=0)
        assert again == bands
        assert "harmonic-slope bands over 3 seeds" in bands.summary()


class TestSuiteIntegration:
    def test_run_all_archives_results_with_timings(self, tmp_path):
        store = RunStore(tmp_path / "store")
        results = run_all(ExperimentScale.SMOKE, seed=0, only=["E2", "E3"], store=store)
        assert len(store.run_ids()) == 2
        for result in results:
            assert len(result.traces) >= 3
        stored = store.list_runs("E2")[0]
        assert stored.trace_samples == tuple(results[0].traces)
        assert len(stored.timings) == 1 and stored.timings[0] > 0

    def test_records_name_the_python_inversion_counter(self):
        result = ExperimentResult(
            experiment_id="E2",
            title="demo run",
            paper_claim="",
            tables=(ResultTable(title="demo", columns=["n"], rows=[[8]]),),
        )
        record = run_record_from_result(result, scale="smoke", seed=0)
        assert record.backend == "python"
        assert record.config()["backend"] == "python"

    def test_store_report_renders_bands_once_enough_seeds(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], store=store)
        report = store_report(store)
        assert "variance bands" in report
        assert "harmonic-slope bands" in report
        assert "band over" in report
        sparse = RunStore(tmp_path / "sparse")
        sparse.append(_record())
        assert "no trace population reaches" in store_report(sparse)

    def test_trace_populations_merge_across_master_seeds(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], store=store)
        run_all(ExperimentScale.SMOKE, seed=1, only=["E2"], store=store)
        populations = store.trace_populations("E2")
        assert all(len(samples) == 6 for samples in populations.values())

    def test_identical_reruns_dedupe_in_populations(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], store=store, jobs=1)
        run_all(ExperimentScale.SMOKE, seed=0, only=["E2"], store=store, jobs=1)
        populations = store.trace_populations("E2")
        assert all(len(samples) == 3 for samples in populations.values())


class TestCompare:
    def test_synthetic_slowdown_is_flagged(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(costs=(4, 4, 4), wall=1.0))
        candidate.append(_record(costs=(8, 8, 8), wall=1.6))
        report = compare_stores(baseline, candidate, tolerance=0.1)
        assert report.has_regressions
        metrics = {finding.metric: finding for finding in report.findings}
        assert metrics["cost n=8"].status == "regression"
        assert metrics["cost n=8"].ratio == pytest.approx(2.0)
        assert metrics["wall time"].status == "regression"
        assert "regression" in report.to_text()

    def test_unchanged_runs_are_ok_and_speedups_are_improvements(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(costs=(4, 4, 4), wall=2.0))
        candidate.append(_record(costs=(4, 4, 4), wall=1.0))
        report = compare_stores(baseline, candidate, tolerance=0.1)
        assert not report.has_regressions
        metrics = {finding.metric: finding for finding in report.findings}
        assert metrics["cost n=8"].status == "ok"
        assert metrics["wall time"].status == "improvement"

    def test_disjoint_stores_raise(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(seed=0))
        candidate.append(_record(seed=1))
        with pytest.raises(RunStoreError, match="share no run configuration"):
            compare_stores(baseline, candidate)

    def test_unmatched_configs_are_reported(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(seed=0))
        baseline.append(_record(seed=1))
        candidate.append(_record(seed=0))
        report = compare_stores(baseline, candidate)
        assert any("seed=1" in entry for entry in report.unmatched_baseline)

    def test_multiple_runs_per_config_compare_newest_and_say_so(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        # Two archived results under one configuration: the comparison must
        # use the newest and flag the ambiguity instead of dropping entries.
        baseline.append(_record(costs=(2, 2, 2)))
        baseline.append(_record(costs=(4, 4, 4)))
        candidate.append(_record(costs=(4, 4, 4)))
        report = compare_stores(baseline, candidate, tolerance=0.1)
        assert not report.has_regressions  # newest baseline == candidate
        assert any("baseline holds 2 runs" in note for note in report.ambiguous_configs)
        assert "note: baseline holds 2 runs" in report.to_text()


class TestWorkAndProfiles:
    WORK = {"core.permutation.slides": 396, "core.cost.updates": 128}

    def _profile(self):
        from repro.obs.clock import ManualClock, set_clock
        from repro.obs.profile import profile_zone, profiling

        clock = ManualClock()
        previous = set_clock(clock)
        try:
            with profiling() as profiler:
                with profile_zone("experiment"):
                    clock.advance(0.5)
                return profiler.snapshot()
        finally:
            set_clock(previous)

    def test_work_round_trips_and_joins_the_digest(self, tmp_path):
        store = RunStore(tmp_path / "store")
        plain = store.append(_record())
        counted = store.append(_record(work=self.WORK))
        # Work is content: the same result with counters present (or with
        # different counts) is a different archived run.
        assert plain != counted
        drifted = store.append(
            _record(work={**self.WORK, "core.permutation.slides": 397})
        )
        assert drifted not in (plain, counted)
        assert store.get(plain).work == {}
        assert store.get(counted).work == self.WORK
        assert store.summary(counted).work == self.WORK

    def test_profiles_are_metadata_samples_like_timings(self, tmp_path):
        store = RunStore(tmp_path / "store")
        snapshot = self._profile()
        first = store.append(_record(work=self.WORK, profile=snapshot))
        # Same content re-archived: no new run id, one more profile sample.
        second = store.append(_record(work=self.WORK, profile=snapshot))
        assert first == second
        profiles = store.get(first).profiles
        assert len(profiles) == 2
        assert profiles[0] == snapshot
        assert profiles[0].zone("experiment").calls == 1

    def test_work_rejects_non_integer_and_negative_counts(self, tmp_path):
        store = RunStore(tmp_path / "store")
        with pytest.raises(RunStoreError, match="non-negative integer"):
            store.append(_record(work={"core.cost.updates": -1}))
        with pytest.raises(RunStoreError, match="non-negative integer"):
            store.append(_record(work={"core.cost.updates": 1.5}))

    def test_compare_gates_counter_drift_at_exactly_zero(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(wall=1.0, work=self.WORK))
        candidate.append(
            _record(
                wall=1.05,
                work={**self.WORK, "core.permutation.slides": 397},
            )
        )
        # A huge timing tolerance must not excuse a 1-count work drift:
        # counters are deterministic, so any difference is a regression.
        report = compare_stores(baseline, candidate, tolerance=10.0)
        assert report.has_regressions
        metrics = {finding.metric: finding for finding in report.findings}
        assert metrics["work core.permutation.slides"].status == "regression"
        assert metrics["wall time"].status == "ok"

    def test_compare_passes_timing_noise_when_counters_agree(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record(wall=1.0, work=self.WORK))
        candidate.append(_record(wall=1.3, work=self.WORK))
        report = compare_stores(baseline, candidate, tolerance=0.5)
        assert not report.has_regressions
        metrics = {finding.metric: finding for finding in report.findings}
        assert metrics["work counters"].status == "ok"

    def test_compare_notes_one_sided_work(self, tmp_path):
        baseline = RunStore(tmp_path / "baseline")
        candidate = RunStore(tmp_path / "candidate")
        baseline.append(_record())
        candidate.append(_record(work=self.WORK))
        report = compare_stores(baseline, candidate, tolerance=0.5)
        assert not report.has_regressions
        assert any("work counters" in note for note in report.ambiguous_configs)

    def test_report_surfaces_work_drift_across_archived_runs(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(_record(costs=(1, 2), work=self.WORK))
        store.append(
            _record(
                costs=(3, 4),
                work={**self.WORK, "core.permutation.slides": 400},
            )
        )
        report = store_report(store)
        assert "work counters" in report
        assert "DRIFT" in report
        assert "core.permutation.slides" in report

    def test_report_is_quiet_when_counters_agree(self, tmp_path):
        store = RunStore(tmp_path / "store")
        store.append(_record(costs=(1, 2), work=self.WORK))
        store.append(_record(costs=(3, 4), work=self.WORK))
        report = store_report(store)
        assert "all configurations agree exactly (no drift)" in report


class TestSummaries:
    def test_summaries_match_full_loads_without_payload_parsing(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_id = store.append(_record(wall=0.5))
        summary = store.summary(run_id)
        full = store.get(run_id)
        assert summary.run_id == full.run_id
        assert summary.num_trace_samples == full.num_trace_samples == 1
        assert summary.timings == full.timings == (0.5,)
        assert summary.findings == full.findings
        # The summary path never opens the payload files: corrupting them
        # breaks get() but not summary() — listings stay manifest-cheap.
        (store.runs_directory / run_id / "tables.json").write_text("{broken")
        assert store.summary(run_id).experiment_id == "E2"
        with pytest.raises(RunStoreError):
            store.get(run_id)

    def test_concurrent_style_timing_appends_all_land(self, tmp_path):
        store = RunStore(tmp_path / "store")
        run_id = store.append(_record(wall=1.0))
        for sample in (2.0, 3.0, 4.0):
            store.append_timing(run_id, sample)
        assert store.get(run_id).timings == (1.0, 2.0, 3.0, 4.0)
        with pytest.raises(RunStoreError):
            store.append_timing("missing", 1.0)
