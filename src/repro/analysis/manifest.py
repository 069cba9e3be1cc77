"""Scope manifests: which modules each invariant family applies to.

The determinism rules cannot apply everywhere — the CLI legitimately
iterates report dicts in display order, and the experiment suite
legitimately reads wall clocks for its timing columns.  These manifests
draw the boundary *explicitly* so that adding a module to a
determinism-sensitive subsystem is a reviewable one-line diff here, not an
unstated assumption.

``DETERMINISTIC_MODULES`` lists the dotted prefixes whose outputs feed the
bit-identity claims (E14 ``max deviation = 0``, ``jobs=1`` == ``jobs=4``
runs, batch-invariant reveal serving).  Any new module that computes or
transports costs must be added here — see ``CONTRIBUTING.md``.
"""

from __future__ import annotations

from typing import Tuple

#: Dotted module prefixes whose behaviour must be bit-identical across
#: runs, worker counts and host machines.  DET003 (unordered iteration)
#: applies only inside these prefixes.
DETERMINISTIC_MODULES: Tuple[str, ...] = (
    "repro.core",
    "repro.dynamic_minla",
    "repro.graphs",
    "repro.minla",
    "repro.obs",
    "repro.service",
    "repro.telemetry",
    "repro.vnet",
    "repro.workloads",
)

#: Dotted module prefixes that run worker threads or worker processes.
#: The thread-discipline rules (THR001 lock/manifest discipline, THR002
#: bounded queues — stdlib *and* multiprocessing variants) apply only
#: inside these prefixes.  The prefix match deliberately covers every
#: ``repro.service`` submodule, including the process backend
#: (``repro.service.procworker``), so new serving modules are under both
#: gates the moment they are created.
THREADED_MODULES: Tuple[str, ...] = ("repro.service",)

#: Dotted modules allowed to read the monotonic clock directly.  OBS001
#: flags ``time.monotonic()`` / ``time.perf_counter()`` (and their ``_ns``
#: variants) everywhere else: timing must flow through the
#: :mod:`repro.obs.clock` seam so tests can substitute a
#: :class:`~repro.obs.clock.ManualClock` and so every latency number in
#: the tree answers to one clock policy.  This is an exact-module list,
#: not a prefix list — the seam is deliberately one file wide.
CLOCK_SEAM_MODULES: Tuple[str, ...] = ("repro.obs.clock",)

#: Dotted module prefixes allowed to compute durations from manually
#: paired clock reads (``end - start``).  OBS002 flags the pattern
#: everywhere else: ad-hoc duration math belongs in a
#: ``profile_zone(...)`` block (:mod:`repro.obs.profile`), where it
#: aggregates into mergeable histograms and answers to the manual clock in
#: tests.  The observability layer itself and the experiment-timing
#: harness are the sanctioned exceptions — they *implement* the seam.
#: Per-request latency measurement in the serving layer carries per-line
#: ``# repro: allow[obs002]`` waivers instead, keeping each remaining
#: pairing a reviewed decision.
ZONE_TIMING_EXEMPT_MODULES: Tuple[str, ...] = (
    "repro.obs",
    "repro.experiments.parallel",
)


def module_matches(module: str, prefixes: Tuple[str, ...]) -> bool:
    """Whether ``module`` falls under any manifest prefix.

    A prefix matches itself and its submodules (``repro.core`` matches
    ``repro.core.simulator`` but not ``repro.core_extras``).
    """
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def is_deterministic_module(module: str) -> bool:
    """Whether the determinism rules apply to ``module``."""
    return module_matches(module, DETERMINISTIC_MODULES)


def is_threaded_module(module: str) -> bool:
    """Whether the thread-discipline rules apply to ``module``."""
    return module_matches(module, THREADED_MODULES)


def is_clock_seam_module(module: str) -> bool:
    """Whether ``module`` is the sanctioned monotonic-clock reader."""
    return module in CLOCK_SEAM_MODULES


def is_zone_timing_exempt_module(module: str) -> bool:
    """Whether OBS002 (paired clock reads for durations) skips ``module``."""
    return module_matches(module, ZONE_TIMING_EXEMPT_MODULES)
