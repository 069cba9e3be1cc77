"""Property tests for run-store round-trips.

:class:`~repro.runstore.RunStore` archives a run's deterministic content
(configuration, tables, trace samples, work counters) under an id derived
from its content digest, and keeps wall-clock timings and zone profiles as
append-only metadata beside it.  These tests hold, over generated runs, that
what goes in comes back out: ``get`` returns the appended content, the
loaded run digests to the same id, and timing and profile samples survive
re-opening the store root.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.tables import ResultTable
from repro.obs.clock import ManualClock, set_clock
from repro.obs.profile import profile_zone, profiling
from repro.runstore import RunRecord, RunStore
from repro.runstore.store import RUN_ID_LENGTH, content_digest
from repro.telemetry.trace import TraceRecorder, TraceSample

names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
cells = st.one_of(st.integers(), finite_floats, names)
costs = st.integers(min_value=0, max_value=10_000)


@st.composite
def tables(draw):
    columns = draw(st.lists(names, min_size=1, max_size=4))
    rows = draw(
        st.lists(
            st.lists(cells, min_size=len(columns), max_size=len(columns)),
            max_size=5,
        )
    )
    return ResultTable(title=draw(names), columns=columns, rows=rows)


@st.composite
def trace_samples(draw):
    recorder = TraceRecorder(every=draw(st.integers(min_value=1, max_value=4)))
    steps = draw(st.lists(st.tuples(costs, costs, costs), min_size=1, max_size=12))
    for index, (moving, rearranging, kendall_tau) in enumerate(steps):
        recorder.record(index, moving, rearranging, kendall_tau)
    return TraceSample(
        group=draw(names), seed=draw(st.integers()), trace=recorder.as_trace()
    )


records = st.builds(
    RunRecord,
    experiment_id=st.sampled_from([f"E{index}" for index in range(1, 16)]),
    title=names,
    scenario=st.one_of(st.none(), names),
    scale=st.sampled_from(["smoke", "bench", "full"]),
    seed=st.integers(),
    backend=st.sampled_from(["python", "numpy"]),
    jobs=st.integers(min_value=1, max_value=8),
    tables=st.lists(tables(), max_size=3).map(tuple),
    findings=st.dictionaries(names, finite_floats, max_size=4),
    trace_samples=st.lists(trace_samples(), max_size=3).map(tuple),
    work=st.dictionaries(names, st.integers(min_value=0, max_value=2**62), max_size=4),
)
timings = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
zone_runs = st.lists(
    st.tuples(st.sampled_from(["workloads", "serve", "verify"]), timings),
    min_size=1,
    max_size=6,
)


def _table_content(run):
    return [(table.title, list(table.columns), table.rows) for table in run.tables]


def _record_of(run):
    """The run record that would archive a loaded run again."""
    return RunRecord(
        experiment_id=run.experiment_id,
        title=run.title,
        scenario=run.scenario,
        scale=run.scale,
        seed=run.seed,
        backend=run.backend,
        jobs=run.jobs,
        tables=run.tables,
        findings=run.findings,
        trace_samples=run.trace_samples,
        work=run.work,
    )


def _profile(zones):
    clock = ManualClock()
    previous = set_clock(clock)
    try:
        with profiling() as profiler:
            for name, seconds in zones:
                with profile_zone(name):
                    clock.advance(seconds)
            return profiler.snapshot()
    finally:
        set_clock(previous)


class TestRunStoreRoundTrip:
    @given(records)
    @settings(max_examples=40, deadline=None)
    def test_get_returns_the_appended_content(self, tmp_path_factory, record):
        store = RunStore(tmp_path_factory.mktemp("store"))
        loaded = store.get(store.append(record))
        assert loaded.config() == record.config()
        assert loaded.title == record.title
        assert loaded.findings == record.findings
        assert _table_content(loaded) == _table_content(record)
        assert loaded.trace_samples == record.trace_samples
        assert loaded.work == record.work
        assert loaded.timings == () and loaded.profiles == ()

    @given(records)
    @settings(max_examples=40, deadline=None)
    def test_content_digest_is_stable_across_a_round_trip(
        self, tmp_path_factory, record
    ):
        root = tmp_path_factory.mktemp("store")
        store = RunStore(root)
        run_id = store.append(record)
        manifest = json.loads((store.runs_directory / run_id / "manifest.json").read_text())
        assert manifest["digest"][:RUN_ID_LENGTH] == run_id
        assert manifest["digest"] == content_digest(
            manifest["config"],
            json.loads((store.runs_directory / run_id / "tables.json").read_text()),
            json.loads((store.runs_directory / run_id / "traces.json").read_text()),
            record.work,
        )
        # Archiving the loaded run again, here or in a fresh store, mints
        # the same id and (here) no second run.
        again = _record_of(store.get(run_id))
        assert store.append(again) == run_id
        assert store.run_ids() == [run_id]
        assert RunStore(tmp_path_factory.mktemp("other")).append(again) == run_id

    @given(records, st.lists(timings, max_size=4), st.lists(zone_runs, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_timings_and_profiles_survive_reopening_the_root(
        self, tmp_path_factory, record, samples, profiles
    ):
        root = tmp_path_factory.mktemp("store")
        store = RunStore(root)
        run_id = store.append(record)
        snapshots = [_profile(zones) for zones in profiles]
        for seconds in samples:
            store.append_timing(run_id, seconds)
        for snapshot in snapshots:
            store.append_profile(run_id, snapshot)
        reopened = RunStore(root).get(run_id)
        assert reopened.timings == tuple(samples)
        assert reopened.profiles == tuple(snapshots)
        assert _table_content(reopened) == _table_content(record)
