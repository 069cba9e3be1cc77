"""Unified cost-measurement subsystem.

Everything this library reports as "cost" flows through this package:

* :mod:`repro.telemetry.backends` — the one inversion counter behind every
  Kendall-tau distance (a closed form for few-run sequences, a pure-Python
  merge sort otherwise).
* :mod:`repro.telemetry.trace` — streaming per-step cost traces
  (:class:`TraceRecorder` / :class:`CostTrace`), the memory-bounded
  replacement for full-trajectory snapshots when only costs are analysed.

See the "Telemetry subsystem" section of ``DESIGN.md`` for the counter and
the trace schema.
"""

from repro.telemetry.backends import count_cross_inversions, count_inversions
from repro.telemetry.trace import (
    CostTrace,
    PhaseRegression,
    TraceEvent,
    TraceRecorder,
    downsample_events,
    regress_phases_against_harmonic,
)

__all__ = [
    "CostTrace",
    "PhaseRegression",
    "TraceEvent",
    "TraceRecorder",
    "count_cross_inversions",
    "count_inversions",
    "downsample_events",
    "regress_phases_against_harmonic",
]
