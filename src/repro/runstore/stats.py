"""Population statistics over aligned traces: bands and slope intervals.

This module generalizes the single-trace analytics of
:mod:`repro.telemetry.trace` to populations:

* :func:`cost_bands` turns an :class:`~repro.runstore.align.AlignedTraces`
  block into per-step mean/min/max :class:`Band`\\ s for each phase — the
  shaded variance band a chart draws around the mean trajectory,
* :func:`harmonic_slope_bands` runs
  :func:`~repro.telemetry.trace.regress_phases_against_harmonic` on every
  member and summarizes the fitted moving/rearranging slopes with
  mean/min/max plus a deterministic bootstrap confidence interval — the
  cross-seed statement of the paper's "cost per harmonic unit".

Bootstrap resampling uses :class:`random.Random` seeded from an explicit
``seed`` argument, so every CI is bit-reproducible: the same population and
seed always produce the same interval, whatever the machine or worker
count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.errors import RunStoreError
from repro.experiments.metrics import mean
from repro.runstore.align import AlignedTraces, align_traces
from repro.telemetry.trace import CostTrace, regress_phases_against_harmonic

#: Phases a band can describe, in reporting order.
PHASES = ("total", "moving", "rearranging")


@dataclass(frozen=True)
class Band:
    """Per-step mean/min/max of one phase across an aligned population."""

    phase: str
    steps: Tuple[int, ...]
    mean: Tuple[float, ...]
    minimum: Tuple[float, ...]
    maximum: Tuple[float, ...]
    num_traces: int


def cost_bands(
    aligned_or_traces: Union[AlignedTraces, Sequence[CostTrace]],
) -> Dict[str, Band]:
    """Mean/min/max bands per phase over an aligned trace population."""
    aligned = (
        aligned_or_traces
        if isinstance(aligned_or_traces, AlignedTraces)
        else align_traces(aligned_or_traces)
    )
    bands: Dict[str, Band] = {}
    for phase in PHASES:
        series = aligned.series(phase)
        columns = list(zip(*series))
        bands[phase] = Band(
            phase=phase,
            steps=aligned.steps,
            mean=tuple(mean(column) for column in columns),
            minimum=tuple(float(min(column)) for column in columns),
            maximum=tuple(float(max(column)) for column in columns),
            num_traces=aligned.num_traces,
        )
    return bands


def bootstrap_ci(
    values: Sequence[float],
    num_resamples: int = 1000,
    confidence: float = 0.95,
    seed: Union[int, str] = 0,
) -> Tuple[float, float]:
    """Percentile bootstrap CI of the mean, deterministic under a fixed seed.

    Resamples ``values`` with replacement ``num_resamples`` times using
    ``random.Random(f"{seed}|bootstrap")`` and returns the
    ``(1 - confidence) / 2`` and ``(1 + confidence) / 2`` percentiles of the
    resampled means.  A singleton sample has zero width by construction.
    """
    if not values:
        raise RunStoreError("bootstrap_ci() needs a non-empty sample")
    if num_resamples < 1:
        raise RunStoreError("bootstrap_ci() needs at least one resample")
    if not 0.0 < confidence < 1.0:
        raise RunStoreError(f"confidence must lie in (0, 1), got {confidence}")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    rng = random.Random(f"{seed}|bootstrap")
    size = len(values)
    means: List[float] = []
    for _ in range(num_resamples):
        resample_total = 0.0
        for _ in range(size):
            resample_total += values[rng.randrange(size)]
        means.append(resample_total / size)
    means.sort()
    low_rank = int((1.0 - confidence) / 2.0 * (num_resamples - 1))
    high_rank = int((1.0 + confidence) / 2.0 * (num_resamples - 1))
    return means[low_rank], means[high_rank]


@dataclass(frozen=True)
class PhaseSlopeBand:
    """Cross-seed summary of one phase's fitted harmonic slope."""

    phase: str
    mean: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    """Deterministic bootstrap CI of the mean slope."""

    def summary(self) -> str:
        """A compact rendering for captions and reports."""
        return (
            f"{self.phase} slope {self.mean:.1f} "
            f"[{self.ci_low:.1f}, {self.ci_high:.1f}] "
            f"(min {self.minimum:.1f}, max {self.maximum:.1f})"
        )


@dataclass(frozen=True)
class SlopeBands:
    """Variance bands on the harmonic-slope fits of a trace population."""

    num_traces: int
    moving: PhaseSlopeBand
    rearranging: PhaseSlopeBand

    def summary(self) -> str:
        """One line for chart captions: both phases with bootstrap CIs."""
        return (
            f"harmonic-slope bands over {self.num_traces} seeds: "
            f"{self.moving.summary()}; {self.rearranging.summary()} "
            "(95% bootstrap CI)"
        )


def _phase_band(
    phase: str,
    slopes: Sequence[float],
    num_resamples: int,
    seed: Union[int, str],
) -> PhaseSlopeBand:
    low, high = bootstrap_ci(
        slopes, num_resamples=num_resamples, seed=f"{seed}|{phase}"
    )
    return PhaseSlopeBand(
        phase=phase,
        mean=mean(slopes),
        minimum=min(slopes),
        maximum=max(slopes),
        ci_low=low,
        ci_high=high,
    )


def harmonic_slope_bands(
    traces: Sequence[CostTrace],
    num_resamples: int = 1000,
    seed: Union[int, str] = 0,
) -> SlopeBands:
    """Cross-seed variance bands on the fitted per-phase harmonic slopes.

    Generalizes :func:`~repro.telemetry.trace.regress_phases_against_harmonic`
    from one trace to a population: every member is regressed individually
    and the fitted moving/rearranging slopes are summarized with
    mean/min/max and a deterministic bootstrap CI of the mean.
    """
    if not traces:
        raise RunStoreError("harmonic_slope_bands() needs at least one trace")
    regressions = [regress_phases_against_harmonic(trace) for trace in traces]
    return SlopeBands(
        num_traces=len(traces),
        moving=_phase_band(
            "moving",
            [regression.moving_slope for regression in regressions],
            num_resamples,
            seed,
        ),
        rearranging=_phase_band(
            "rearranging",
            [regression.rearranging_slope for regression in regressions],
            num_resamples,
            seed,
        ),
    )
