"""Self-tests of the benchmark's own arithmetic, run at the start of every run.

Under ``repro.obs.clock.ManualClock`` every duration is exact, so these
tests pin down self-time subtraction (nested spans, and spans on other
threads that must not be subtracted), due-time latency of the open-loop
driver, the per-step latency probe, and the nearest-rank percentile with its
ten-samples-beyond rule.  Run them alone with
``python3 perfbench/check_math.py`` from the root of a checkout.
"""

from __future__ import annotations

import io
import random
import sys
import threading
import unittest
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import simulator
from repro.core.auto import AutoRandomizedLearner as AutoLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.obs.clock import Clock, ManualClock, set_clock
from repro.workloads.registry import get_scenario

from layers import OnlineProbe
from serving import drive_open_loop
from tracer import Tracer, layer_totals, nearest_rank, patched


class _ClockTest(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = self.make_clock()
        self.previous = set_clock(self.clock)

    def tearDown(self) -> None:
        set_clock(self.previous)

    def make_clock(self) -> Clock:
        return ManualClock()


class SelfTimeTest(_ClockTest):
    def test_nested_spans_subtract_direct_children_only(self) -> None:
        tracer = Tracer()
        clock = self.clock

        def leaf():
            clock.advance(1.0)

        def middle():
            clock.advance(2.0)
            traced_leaf()
            clock.advance(3.0)

        traced_leaf = tracer.wrap("leaf", leaf)
        with tracer.span("outer"):
            clock.advance(0.5)
            tracer.wrap("middle", middle)()
            clock.advance(0.25)
        totals = layer_totals(tracer.spans)
        self.assertEqual(totals["leaf"], (1, 1.0))
        self.assertEqual(totals["middle"], (1, 5.0))
        self.assertEqual(totals["outer"], (1, 0.75))
        spans = {span[2]: span for span in tracer.spans}
        self.assertEqual(spans["outer"][5] - spans["outer"][4], 6.75)
        self.assertEqual(spans["leaf"][1], spans["middle"][0])
        self.assertEqual(spans["middle"][1], spans["outer"][0])
        self.assertEqual(spans["outer"][1], 0)

    def test_spans_on_other_threads_are_not_children(self) -> None:
        tracer = Tracer()
        clock = self.clock
        opened = threading.Event()
        release = threading.Event()

        def worker_body():
            opened.set()
            release.wait(5.0)

        worker = threading.Thread(target=tracer.wrap("worker", worker_body))
        with tracer.span("main"):
            worker.start()
            self.assertTrue(opened.wait(5.0))
            clock.advance(4.0)
            release.set()
            worker.join(5.0)
            self.assertFalse(worker.is_alive())
        totals = layer_totals(tracer.spans)
        self.assertEqual(totals["main"], (1, 4.0))
        self.assertEqual(totals["worker"], (1, 4.0))
        spans = {span[2]: span for span in tracer.spans}
        self.assertEqual(spans["worker"][1], 0)
        self.assertNotEqual(spans["worker"][3], spans["main"][3])

    def test_exception_closes_the_span(self) -> None:
        tracer = Tracer()

        def failing():
            self.clock.advance(2.0)
            raise KeyError("boom")

        with self.assertRaises(KeyError):
            tracer.wrap("failing", failing)()
        with tracer.span("after"):
            self.clock.advance(1.0)
        self.assertEqual(layer_totals(tracer.spans)["after"], (1, 1.0))
        self.assertEqual(tracer.spans[-1][1], 0)

    def test_patched_restores_on_error(self) -> None:
        class Owner:
            def method(self):
                return "original"

        with self.assertRaises(RuntimeError):
            with patched([(Owner, "method", lambda self: "patched")]):
                self.assertEqual(Owner().method(), "patched")
                raise RuntimeError
        self.assertEqual(Owner().method(), "original")


class OpenLoopTest(_ClockTest):
    def test_latency_counts_from_the_due_time(self) -> None:
        clock = self.clock
        stall = {1: 1.5}
        submitted = []

        def submit(request):
            submitted.append((request, clock.now()))
            clock.advance(stall.get(request, 0.0))

        due, sent = drive_open_loop(
            submit, [0, 1, 2, 3], [1.0, 2.0, 3.0, 4.0], sleep=clock.advance
        )
        self.assertEqual(due, [1.0, 2.0, 3.0, 4.0])
        # Request 1 stalls the generator for 1.5 s: request 2 goes out late.
        self.assertEqual(sent, [1.0, 2.0, 3.5, 4.0])
        completed = [1.25, 3.75, 3.75, 4.25]
        latency = [done - at for done, at in zip(completed, due)]
        self.assertEqual(latency, [0.25, 1.75, 0.75, 0.25])
        lag = [out - at for out, at in zip(sent, due)]
        self.assertEqual(max(lag), 0.5)
        self.assertEqual([request for request, _ in submitted], [0, 1, 2, 3])


class _TickClock(Clock):
    """Advances one second on every read."""

    def __init__(self) -> None:
        self.reads = 0

    def now(self) -> float:
        self.reads += 1
        return float(self.reads)


class StepProbeTest(_ClockTest):
    def make_clock(self) -> Clock:
        return _TickClock()

    def test_one_sample_per_step_between_process_entries(self) -> None:
        (sequence,) = get_scenario("uniform-cliques").reveal_sequences(6, 3)
        instance = OnlineMinLAInstance.with_random_start(sequence, random.Random(4))
        probe = OnlineProbe()
        with patched(probe.patches()):
            simulator.run_online(RandomizedCliqueLearner(), instance)
        # Reads: one per process() entry, one at the end of the run.
        self.assertEqual(probe.step_seconds, [1.0] * instance.num_steps)
        self.assertNotIn("process", vars(RandomizedCliqueLearner))

    def test_a_learner_that_overrides_process_is_timed_too(self) -> None:
        (sequence,) = get_scenario("uniform-lines").reveal_sequences(6, 3)
        instance = OnlineMinLAInstance.with_random_start(sequence, random.Random(4))
        learner = AutoLearner()
        probe = OnlineProbe()
        with patched(probe.patches()):
            simulator.run_online(learner, instance, rng=random.Random(5))
        self.assertEqual(probe.step_seconds, [1.0] * instance.num_steps)
        self.assertNotIn("process", vars(learner))


class NearestRankTest(unittest.TestCase):
    def test_ranks(self) -> None:
        values = list(range(100, 0, -1))
        self.assertEqual(nearest_rank(values, 0.5), 50)
        self.assertEqual(nearest_rank(values, 0.9), 90)
        self.assertEqual(nearest_rank(list(range(1, 21)), 0.5), 10)

    def test_needs_ten_samples_beyond(self) -> None:
        with self.assertRaises(ValueError):
            nearest_rank(list(range(1, 100)), 0.9)
        with self.assertRaises(ValueError):
            nearest_rank(list(range(1, 20)), 0.5)
        self.assertEqual(nearest_rank(list(range(1, 111)), 0.9), 99)


def run() -> str:
    """Run every self-test quietly; returns the failure report ('' if none)."""
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    stream = io.StringIO()
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    return "" if result.wasSuccessful() else stream.getvalue()


if __name__ == "__main__":
    report = run()
    print(report or "all self-tests passed")
    sys.exit(1 if report else 0)
