"""Host speed: a fixed reference loop timed next to a measurement.

The benchmark's host is a shared 2-vCPU cloud VM whose speed switches,
every few seconds to minutes, between levels up to 2x apart.  CPU time
equals wall time there: the process is not descheduled, each instruction
just takes longer.  :func:`probe` times a fixed pure-Python loop that
touches none of the program, and a piece of work timed between two probes
is reported *at reference speed*::

    scaled = raw * REFERENCE_S / mean(probe before, probe after)

the time the piece would take on a host where the loop takes
``REFERENCE_S``.  A change to the program moves the raw time and not the
loop, so it moves the scaled time by the same factor.

Every set-up, every repeat and the offline per-step latencies are scaled;
the serving fixed-rate latencies, timed against a schedule, are not.

A single repeat's scale is rough: the host's speed can change inside a
repeat, and some slow spells (``det-opt`` once ran 2.4-3.3 s while the
probe held at 5.2-5.8 ms) do not show in the probe.  The median over a
run's repeats absorbs that.  On one set of ten seeds per workload, the
spread of ``wall_s`` across seeds (IQR over median) was, for the fastest
raw repeat, the median raw repeat and the median scaled repeat:
``serve-thread`` 0.20 / 0.37 / 0.04, ``serve-process`` 0.23 / 0.03 / 0.05,
``det-opt`` 0.12 / 0.16 / 0.05 and ``rand-trials`` 0.10 / 0.17 / 0.07.
A thread-backend replay, with all its threads on one CPU, took
1.02-1.21 s while the probe read 5.0-5.4 ms and 1.63-1.94 s while it read
8.1-9.3 ms, the two alternating every few seconds.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.obs.clock import now

#: The reference loop's time on the host the scaled times are quoted for:
#: the midpoint of the two speed levels seen on a 2-vCPU cloud VM.
REFERENCE_S = 0.007

#: Loops per probe; the fastest counts, so one preemption does not.
PROBE_LOOPS = 3

_DATA = [random.Random(5).random() for _ in range(4000)]


def _reference_loop() -> float:
    """Sorting with a Python key, then dictionary updates in a Python loop."""
    totals: dict = {}
    for _ in range(6):
        for index, value in enumerate(sorted(_DATA, key=lambda x: -x)):
            slot = index % 977
            totals[slot] = totals.get(slot, 0.0) + value
    return totals[0]


def probe() -> float:
    """Seconds the reference loop takes now (fastest of ``PROBE_LOOPS``)."""
    best = float("inf")
    for _ in range(PROBE_LOOPS):
        started = now()
        _reference_loop()
        best = min(best, now() - started)
    return best


class Probes:
    """A chain of probes: one before the first piece and one after each piece.

    Piece ``k`` sits between probes ``k`` and ``k + 1``, so consecutive
    pieces share the probe between them.
    """

    def __init__(self) -> None:
        self.seconds: List[float] = [probe()]

    def close_piece(self) -> float:
        """Probe after a piece; returns that piece's scale."""
        self.seconds.append(probe())
        return REFERENCE_S / ((self.seconds[-2] + self.seconds[-1]) / 2.0)


def scaled(raw: Sequence[float], scales: Sequence[float]) -> List[float]:
    return [value * scale for value, scale in zip(raw, scales)]
