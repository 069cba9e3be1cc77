"""Deterministic work counters and the opt-in hierarchical zone profiler.

Two observability surfaces for the offline engine, with opposite
determinism contracts:

**Work counters** are always-on integers counting *algorithmic* work —
slides and rewrites performed by :mod:`repro.core.permutation`, swaps
charged per :class:`~repro.core.cost.CostLedger` phase, elements pushed
through each :mod:`repro.telemetry.backends` inversion count, incremental-vs-full
checks in the MinLA verifier, hit/miss/evict in the vnet distance cache.
Work is semantics, not timing: for a fixed ``(experiment, scale, seed)``
the counters are **bit-identical** across ``--jobs``
and thread/process service fleets — a correctness surface gated exactly
like costs (``runs compare`` holds counter drift to zero while timings
keep a tolerance band).

The counting discipline mirrors :class:`~repro.service.observation.ShardMetrics`:
every thread writes into its *own* registry (single-writer, no locks on
the hot path), registries self-register under a lock on first touch, and
:func:`work_snapshot` merges them by exact integer addition — associative,
commutative, order-independent.  Worker *processes* cannot be merged in
place, so they ship :func:`work_delta` dicts home over their result
queues (pool workers are reused across tasks, which is why deltas — not
absolutes — cross the process boundary) and the parent folds them in with
:func:`add_work`.

**Zone timing** is opt-in and never bit-identical — it reads the clock
(only through the :mod:`repro.obs.clock` seam, so ``ManualClock`` makes
zone *trees* exactly reproducible in tests).  ``with profile_zone("verify")``
attributes self/cumulative seconds to the active zone *path* (parents are
whatever zones are open on the same thread), aggregating into the same
log-bucket histograms the serving stack uses — O(zones × buckets) memory,
mergeable across threads, workers, and runs.  When no profiler is
installed, :func:`profile_zone` is one module-global load and a ``None``
check returning a shared no-op context manager: zero clock reads, zero
allocation (the bench gate in ``benchmarks/bench_profile.py`` holds it
near-zero).

Zone names follow ``component.verb`` (``"trial"``, ``"simulate.process"``,
``"simulate.verify"``) and must be static strings — never interpolate run
ids or seeds into a name, or snapshots stop merging across runs.  See
DESIGN.md ("Engine observability") for the counter catalog and the full
naming convention.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import ContextManager, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ObsError
from repro.obs.clock import now as clock_now
from repro.obs.registry import (
    Counter,
    FixedBucketHistogram,
    HistogramSnapshot,
    MetricsRegistry,
    log_bucket_edges,
    merge_histograms,
)

#: Zone duration bucket layout: 1 µs to 100 s, five buckets per decade.
#: Wider than the latency layout (an experiment zone can run minutes) and
#: coarser (zone timing is for attribution, not SLO percentiles).
PROFILE_BUCKET_EDGES: Tuple[float, ...] = log_bucket_edges(1e-6, 100.0, 5)


# ---------------------------------------------------------------------------
# Work counters
# ---------------------------------------------------------------------------

_work_lock = threading.Lock()
#: Every thread's work registry, appended on first touch; merged (never
#: mutated) by readers.  Guarded by ``_work_lock``.
_work_registries: List[MetricsRegistry] = []


class _WorkLocal(threading.local):
    """Each thread's private registry, self-registered for merging.

    ``counters`` caches ``name -> Counter`` so the hot-path increment is a
    dict hit plus an integer add — no registry get-or-create per event.
    The cache stays valid across :func:`reset_work_counters` because
    resets zero the counter objects in place rather than replacing them.
    """

    def __init__(self) -> None:
        registry = MetricsRegistry()
        self.registry = registry
        self.counters: Dict[str, Counter] = {}
        with _work_lock:
            _work_registries.append(registry)


_work_local = _WorkLocal()


def work_counter(name: str) -> Counter:
    """Get-or-create the calling thread's counter for ``name``.

    The returned :class:`Counter` is thread-private — never share it across
    threads (single-writer is what makes the merge exact without locks).
    """
    return _work_local.registry.counter(name)


def count_work(name: str, amount: int = 1) -> None:
    """The hot-path increment: bump the calling thread's ``name`` counter.

    ``amount`` must be non-negative (work only accumulates); instrumented
    call sites pass pre-computed integers (a swap count, an element count)
    so the instrumentation itself never does per-element work.  The bench
    gate (``benchmarks/bench_profile.py``) holds this path within 5% of a
    stubbed no-op, which is why it is a cached dict hit and an add — the
    non-negativity contract is enforced at merge time, not per increment.
    """
    local = _work_local
    counter = local.counters.get(name)
    if counter is None:
        counter = local.registry.counter(name)
        local.counters[name] = counter
    counter.value += amount


def work_snapshot() -> Dict[str, int]:
    """Every work counter summed across threads, name-sorted.

    Exact integer merge of the per-thread registries — order-independent,
    so the result is bit-identical however threads interleaved.  Call at
    quiesce points (workers joined, or between runs): a mid-run read can
    see another thread's counter between increments, which is fine for
    live introspection but not for the determinism gate.
    """
    with _work_lock:
        registries = list(_work_registries)
    total: Dict[str, int] = {}
    for registry in registries:
        for name, value in sorted(registry.snapshot().items()):
            total[name] = total.get(name, 0) + int(value)
    return {name: total[name] for name in sorted(total)}


def work_delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """``after - before`` per counter, dropping zero entries, name-sorted.

    This is the unit that crosses process boundaries and lands in the run
    store: zero entries are dropped so the dict depends only on the work a
    run actually performed, never on which instrumented modules happen to
    be imported (keeping archived run digests stable as the catalog grows).
    """
    delta: Dict[str, int] = {}
    for name in sorted(after):
        changed = int(after[name]) - int(before.get(name, 0))
        if changed < 0:
            raise ObsError(
                f"work counter {name!r} moved backwards "
                f"({before.get(name, 0)} -> {after[name]})"
            )
        if changed:
            delta[name] = changed
    return delta


def add_work(delta: Mapping[str, int]) -> None:
    """Fold a shipped :func:`work_delta` into the calling thread's registry.

    Used by the parent process to absorb work performed in pool or shard
    worker processes, so ``--jobs 4`` and the process fleet report the
    same totals as the sequential path.
    """
    registry = _work_local.registry
    for name in sorted(delta):
        registry.counter(name).inc(delta[name])


def merge_work(parts: Iterable[Mapping[str, int]]) -> Dict[str, int]:
    """Sum work dicts (exact, order-independent), dropping zero totals."""
    total: Dict[str, int] = {}
    for part in parts:
        for name, value in sorted(part.items()):
            total[name] = total.get(name, 0) + int(value)
    return {name: total[name] for name in sorted(total) if total[name]}


def reset_work_counters() -> None:
    """Zero every registered work counter, in every thread's registry.

    Only safe when no other thread is counting (tests and bench baselines);
    the engine itself never resets — runs measure deltas instead.
    """
    with _work_lock:
        registries = list(_work_registries)
    for registry in registries:
        for name in registry.snapshot():
            registry.counter(name).value = 0


# ---------------------------------------------------------------------------
# Zone profiler
# ---------------------------------------------------------------------------


class _Frame:
    """One open zone on a thread's stack."""

    __slots__ = ("path", "started", "child_seconds")

    def __init__(self, path: Tuple[str, ...], started: float) -> None:
        self.path = path
        self.started = started
        self.child_seconds = 0.0


class _ZoneAggregate:
    """Mutable per-path aggregate (single-writer: the owning thread)."""

    __slots__ = ("calls", "self_histogram", "cumulative_histogram")

    def __init__(self) -> None:
        self.calls = 0
        self.self_histogram = FixedBucketHistogram(PROFILE_BUCKET_EDGES)
        self.cumulative_histogram = FixedBucketHistogram(PROFILE_BUCKET_EDGES)


class _ThreadProfile:
    """One thread's zone stack plus its private aggregates."""

    __slots__ = ("stack", "aggregates")

    def __init__(self) -> None:
        self.stack: List[_Frame] = []
        self.aggregates: Dict[Tuple[str, ...], _ZoneAggregate] = {}


def _histogram_from_json(payload: Mapping[str, object]) -> HistogramSnapshot:
    return HistogramSnapshot(
        edges=tuple(float(edge) for edge in payload["edges"]),
        counts=tuple(int(count) for count in payload["counts"]),
        sum=float(payload["sum"]),
        min=None if payload["min"] is None else float(payload["min"]),
        max=None if payload["max"] is None else float(payload["max"]),
    )


@dataclass(frozen=True)
class ZoneStat:
    """One zone path's aggregate: call count plus two duration histograms."""

    path: Tuple[str, ...]
    calls: int
    self_seconds: HistogramSnapshot
    """Time spent in this zone excluding enclosed child zones."""
    cumulative_seconds: HistogramSnapshot
    """Wall time from zone entry to exit (children included)."""

    @property
    def name(self) -> str:
        return self.path[-1]

    @property
    def depth(self) -> int:
        return len(self.path) - 1

    def merge(self, other: "ZoneStat") -> "ZoneStat":
        if other.path != self.path:
            raise ObsError(
                f"cannot merge zone {other.path!r} into {self.path!r}"
            )
        return ZoneStat(
            path=self.path,
            calls=self.calls + other.calls,
            self_seconds=merge_histograms(
                (self.self_seconds, other.self_seconds)
            ),
            cumulative_seconds=merge_histograms(
                (self.cumulative_seconds, other.cumulative_seconds)
            ),
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "path": list(self.path),
            "calls": self.calls,
            "self_seconds": self.self_seconds.to_json(),
            "cumulative_seconds": self.cumulative_seconds.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ZoneStat":
        return cls(
            path=tuple(str(part) for part in payload["path"]),
            calls=int(payload["calls"]),
            self_seconds=_histogram_from_json(payload["self_seconds"]),
            cumulative_seconds=_histogram_from_json(
                payload["cumulative_seconds"]
            ),
        )


@dataclass(frozen=True)
class ProfileSnapshot:
    """An immutable zone tree: path-sorted stats, mergeable and archivable.

    Lexicographic path order is also preorder (a parent's tuple is a
    strict prefix of its children's), so rendering the sorted stats with
    depth-indentation *is* the tree view.  Call counts and histogram
    bucket counts merge by exact integer addition — snapshots from any
    number of threads, workers, or runs combine into the same tree
    regardless of grouping or order.
    """

    zones: Tuple[ZoneStat, ...]

    def __post_init__(self) -> None:
        paths = [stat.path for stat in self.zones]
        if paths != sorted(paths):
            raise ObsError("profile snapshots must be path-sorted")

    @property
    def is_empty(self) -> bool:
        return not self.zones

    def total_seconds(self) -> float:
        """Summed cumulative time of the root zones (depth 0)."""
        return sum(
            stat.cumulative_seconds.sum
            for stat in self.zones
            if stat.depth == 0
        )

    def zone(self, *path: str) -> Optional[ZoneStat]:
        """The stat at exactly ``path`` (None when absent)."""
        wanted = tuple(path)
        for stat in self.zones:
            if stat.path == wanted:
                return stat
        return None

    def merge(self, other: "ProfileSnapshot") -> "ProfileSnapshot":
        return merge_profiles((self, other))

    def to_json(self) -> Dict[str, object]:
        return {"zones": [stat.to_json() for stat in self.zones]}

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ProfileSnapshot":
        return cls(
            zones=tuple(
                ZoneStat.from_json(entry) for entry in payload["zones"]
            )
        )

    @classmethod
    def empty(cls) -> "ProfileSnapshot":
        return cls(zones=())

    def collapsed_stack_lines(self) -> List[str]:
        """Brendan Gregg collapsed-stack lines: ``a;b;c <self-µs>``.

        Weights are integer self-time microseconds — the format flamegraph
        and speedscope both ingest.  Zones whose self time rounds to zero
        are kept (zero-weight frames are legal and preserve the tree).
        """
        return [
            ";".join(stat.path)
            + f" {int(round(stat.self_seconds.sum * 1_000_000))}"
            for stat in self.zones
        ]


def merge_profiles(snapshots: Iterable[ProfileSnapshot]) -> ProfileSnapshot:
    """Merge profile snapshots zone-by-zone (exact counts, any order)."""
    merged: Dict[Tuple[str, ...], ZoneStat] = {}
    for snapshot in snapshots:
        for stat in snapshot.zones:
            existing = merged.get(stat.path)
            merged[stat.path] = (
                stat if existing is None else existing.merge(stat)
            )
    return ProfileSnapshot(
        zones=tuple(merged[path] for path in sorted(merged))
    )


def render_zone_table(snapshot: ProfileSnapshot) -> str:
    """The human zone table: preorder tree with calls/cum/self columns."""
    if snapshot.is_empty:
        return "(no zones recorded)"
    total = snapshot.total_seconds()
    header = (
        f"{'zone':<40} {'calls':>9} {'cum(s)':>12} {'self(s)':>12} "
        f"{'self%':>7}"
    )
    lines = [header, "-" * len(header)]
    for stat in snapshot.zones:
        label = "  " * stat.depth + stat.name
        self_sum = stat.self_seconds.sum
        share = (self_sum / total * 100.0) if total > 0 else 0.0
        lines.append(
            f"{label:<40} {stat.calls:>9} "
            f"{stat.cumulative_seconds.sum:>12.6f} {self_sum:>12.6f} "
            f"{share:>6.1f}%"
        )
    lines.append(f"{'total (root zones)':<40} {'':>9} {total:>12.6f}")
    return "\n".join(lines)


class ZoneProfiler:
    """Aggregates zone timings per thread; snapshots merge the threads.

    Each thread that enters a zone gets its own stack and aggregate dict
    (registered under a lock on first touch — the enter/exit hot path is
    lock-free).  :meth:`snapshot` merges all threads' aggregates; take it
    after worker threads have joined for a complete tree.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._states: List[_ThreadProfile] = []
        self._local = threading.local()

    def _state(self) -> _ThreadProfile:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadProfile()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def current_path(self) -> Tuple[str, ...]:
        """The calling thread's open zone path (empty at top level)."""
        stack = self._state().stack
        return stack[-1].path if stack else ()

    def enter(self, name: str) -> None:
        state = self._state()
        parent = state.stack[-1].path if state.stack else ()
        state.stack.append(_Frame(parent + (name,), clock_now()))

    def exit(self) -> None:
        state = self._state()
        frame = state.stack.pop()
        cumulative = clock_now() - frame.started
        self_seconds = cumulative - frame.child_seconds
        if self_seconds < 0.0:  # float jitter between two seam reads
            self_seconds = 0.0
        aggregate = state.aggregates.get(frame.path)
        if aggregate is None:
            aggregate = _ZoneAggregate()
            state.aggregates[frame.path] = aggregate
        aggregate.calls += 1
        aggregate.cumulative_histogram.record(cumulative)
        aggregate.self_histogram.record(self_seconds)
        if state.stack:
            state.stack[-1].child_seconds += cumulative

    def absorb(
        self, snapshot: ProfileSnapshot, prefix: Tuple[str, ...] = ()
    ) -> None:
        """Fold a shipped snapshot in, nesting it under ``prefix``.

        The parent absorbs pool-worker snapshots with its current zone
        path as the prefix, so worker-side zones appear as children of
        the zone that dispatched them.  Absorbed time is *not* added to
        any open frame's child time: the dispatching zone's self time
        already covers the wall-clock wait, while absorbed zones account
        the workers' own (possibly overlapping) seconds.
        """
        state = self._state()
        for stat in snapshot.zones:
            path = tuple(prefix) + stat.path
            aggregate = state.aggregates.get(path)
            if aggregate is None:
                aggregate = _ZoneAggregate()
                state.aggregates[path] = aggregate
            aggregate.calls += stat.calls
            aggregate.self_histogram.update(stat.self_seconds)
            aggregate.cumulative_histogram.update(stat.cumulative_seconds)

    def snapshot(self) -> ProfileSnapshot:
        """Merge every thread's aggregates into one immutable tree."""
        with self._lock:
            states = list(self._states)
        merged: Dict[Tuple[str, ...], ZoneStat] = {}
        for state in states:
            for path, aggregate in sorted(state.aggregates.items()):
                stat = ZoneStat(
                    path=path,
                    calls=aggregate.calls,
                    self_seconds=aggregate.self_histogram.snapshot(),
                    cumulative_seconds=(
                        aggregate.cumulative_histogram.snapshot()
                    ),
                )
                existing = merged.get(path)
                merged[path] = stat if existing is None else existing.merge(stat)
        return ProfileSnapshot(
            zones=tuple(merged[path] for path in sorted(merged))
        )


class _NullZone:
    """The shared no-op context manager handed out while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullZone":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_ZONE = _NullZone()


class _ZoneContext:
    """The enabled-path context manager: enter/exit one named zone."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: ZoneProfiler, name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> "_ZoneContext":
        self._profiler.enter(self._name)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._profiler.exit()
        return False


_active_profiler: Optional[ZoneProfiler] = None


def profile_zone(name: str) -> "ContextManager[object]":
    """``with profile_zone("simulate.verify"): ...`` — time one zone.

    With no profiler installed this is one global load, a ``None`` check,
    and a shared no-op context manager: no clock read, no allocation —
    cheap enough to leave in the hottest engine loops unconditionally.
    """
    profiler = _active_profiler
    if profiler is None:
        return _NULL_ZONE
    return _ZoneContext(profiler, name)


def active_profiler() -> Optional[ZoneProfiler]:
    """The installed profiler, or None when zone timing is off."""
    return _active_profiler


def set_profiler(profiler: Optional[ZoneProfiler]) -> Optional[ZoneProfiler]:
    """Install (or, with None, remove) the process-wide zone profiler.

    Returns the previous profiler; restore it in a ``finally`` — like the
    clock it reads through, the active profiler is process-global state.
    """
    global _active_profiler
    if profiler is not None and not isinstance(profiler, ZoneProfiler):
        raise ObsError(
            f"set_profiler() needs a ZoneProfiler or None, "
            f"got {type(profiler).__name__}"
        )
    previous = _active_profiler
    _active_profiler = profiler
    return previous


class profiling:
    """``with profiling() as profiler:`` — enable zones for one block.

    Installs a fresh :class:`ZoneProfiler`, restores whatever was active
    before on exit; read ``profiler.snapshot()`` inside or after the block.
    """

    __slots__ = ("profiler", "_previous")

    def __init__(self) -> None:
        self.profiler = ZoneProfiler()
        self._previous: Optional[ZoneProfiler] = None

    def __enter__(self) -> ZoneProfiler:
        self._previous = set_profiler(self.profiler)
        return self.profiler

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_profiler(self._previous)
        return False
