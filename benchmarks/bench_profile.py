"""Benchmark the overhead of the engine observability surfaces.

Two gates, matching the two determinism contracts of
:mod:`repro.obs.profile`:

* **Work counters are always on**, so counting must be practically free.
  The same ``run_trials`` batch runs twice — once as shipped (counters
  live) and once with every instrumented module's ``count_work`` stubbed
  to a no-op — as interleaved pairs after an unmeasured warm-up, with
  the in-pair order alternating so neither side systematically enjoys a
  warmer CPU.  Each pair runs back to back, so its counted/stubbed ratio
  cancels whatever the machine was doing in that window; real counting
  overhead depresses *every* pair, so the best pair must keep at least
  95% of the stubbed throughput.

* **Zone timing is opt-in**, so the *disabled* path must be near-zero.
  With no profiler installed, ``profile_zone(...)`` must perform zero
  clock reads (asserted with a counting clock behind the seam — timing a
  no-op would be flaky, counting reads is exact) and cost well under the
  latency of the real clock read it avoids.
"""

import random
import time

import repro.core.cost
import repro.core.permutation
import repro.minla.characterizations
import repro.telemetry.backends
import repro.vnet.distance_cache
from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.simulator import run_trials
from repro.obs.clock import Clock, set_clock
from repro.obs.profile import active_profiler, profile_zone, work_snapshot
from repro.workloads.generation import random_clique_merge_sequence

#: The ISSUE's acceptance bound: always-on counting may cost at most 5%.
MIN_THROUGHPUT_RATIO = 0.95

#: Disabled zones do one global load and a ``None`` check; hold them an
#: order of magnitude under a microsecond-class clock read.
MAX_DISABLED_ZONE_SECONDS = 2e-6

REPEATS = 6
NUM_NODES = 14
NUM_TRIALS = 150

#: Every module that binds ``count_work`` on its hot path (the counter
#: catalog of DESIGN.md).  The baseline stubs the bound name in each so
#: the comparison isolates exactly the increments, nothing else.
INSTRUMENTED_MODULES = (
    repro.core.cost,
    repro.core.permutation,
    repro.minla.characterizations,
    repro.telemetry.backends,
    repro.vnet.distance_cache,
)


def _bench_instance():
    rng = random.Random(7)
    sequence = random_clique_merge_sequence(NUM_NODES, rng)
    return OnlineMinLAInstance.with_random_start(sequence, rng)


def _one_throughput(instance):
    """Trials per second for one sequential counted (or stubbed) batch."""
    started = time.perf_counter()
    results = run_trials(
        RandomizedCliqueLearner, instance, num_trials=NUM_TRIALS, seed=3, jobs=1
    )
    seconds = time.perf_counter() - started
    assert len(results) == NUM_TRIALS
    return NUM_TRIALS / seconds


def _stubbed_count_work(name, amount=1):
    """The baseline's no-op stand-in for ``count_work``."""


def _stubbed_throughput(instance):
    """One baseline batch with every instrumented ``count_work`` stubbed."""
    saved = [(module, module._count_work) for module in INSTRUMENTED_MODULES]
    try:
        for module, _ in saved:
            module._count_work = _stubbed_count_work
        return _one_throughput(instance)
    finally:
        for module, original in saved:
            module._count_work = original


def test_work_counters_within_five_percent_of_stubbed_baseline():
    instance = _bench_instance()
    _one_throughput(instance)
    _stubbed_throughput(instance)
    counted_runs, stubbed_runs = [], []
    for repeat in range(REPEATS):
        counted_first = repeat % 2 == 0
        if counted_first:
            before = work_snapshot()
            counted_runs.append(_one_throughput(instance))
            after = work_snapshot()
            stubbed_runs.append(_stubbed_throughput(instance))
        else:
            stubbed_runs.append(_stubbed_throughput(instance))
            before = work_snapshot()
            counted_runs.append(_one_throughput(instance))
            after = work_snapshot()
        assert (
            after.get("core.permutation.slides", 0)
            > before.get("core.permutation.slides", 0)
        ), "the counted side did not actually count"
    pair_ratios = [c / s for c, s in zip(counted_runs, stubbed_runs)]
    ratio = max(pair_ratios)
    print(
        f"\nstubbed : best {max(stubbed_runs):,.1f} trials/s (runs: "
        + ", ".join(f"{t:,.1f}" for t in stubbed_runs)
        + ")"
    )
    print(
        f"counted : best {max(counted_runs):,.1f} trials/s (runs: "
        + ", ".join(f"{t:,.1f}" for t in counted_runs)
        + ")"
    )
    print(
        "pairs   : "
        + ", ".join(f"x{r:.3f}" for r in pair_ratios)
        + f" -> best x{ratio:.3f}"
    )
    assert ratio >= MIN_THROUGHPUT_RATIO, (
        f"work counters exceeded the {1 - MIN_THROUGHPUT_RATIO:.0%} overhead "
        f"budget in every pair: best ratio x{ratio:.3f} "
        f"(pairs: {', '.join(f'x{r:.3f}' for r in pair_ratios)})"
    )


class _CountingClock(Clock):
    """Counts reads instead of reading anything — exact, never flaky."""

    def __init__(self):
        self.reads = 0

    def now(self):
        self.reads += 1
        return float(self.reads)


def test_disabled_zones_read_no_clock():
    assert active_profiler() is None, "a profiler leaked in from another test"
    counting = _CountingClock()
    previous = set_clock(counting)
    try:
        for _ in range(10_000):
            with profile_zone("bench.disabled"):
                pass
    finally:
        set_clock(previous)
    assert counting.reads == 0, (
        f"disabled zones read the clock {counting.reads} time(s); "
        "the off path must not touch the seam at all"
    )


def test_disabled_zones_cost_near_zero():
    assert active_profiler() is None, "a profiler leaked in from another test"
    iterations = 200_000
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for _ in range(iterations):
            with profile_zone("bench.disabled"):
                pass
        best = min(best, (time.perf_counter() - started) / iterations)
    print(f"\ndisabled zone: {best * 1e9:,.0f} ns per entry/exit (best of {REPEATS})")
    assert best < MAX_DISABLED_ZONE_SECONDS, (
        f"a disabled profile_zone() costs {best * 1e6:.2f} us per entry/exit; "
        f"budget is {MAX_DISABLED_ZONE_SECONDS * 1e6:.2f} us"
    )
