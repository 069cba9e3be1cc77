"""Where the benchmark attaches to the program: one wrapper per layer.

Every wrapper is installed on a module or class attribute with
:func:`tracer.patched` and removed again afterwards, so the program's own
files stay untouched.  Span names double as the per-layer metric prefixes.

Per-request hot functions (``SlotDistanceCache.cost``, the inversion
counters) are deliberately not wrapped: a wrapper would cost more than the
work it times.  Their work shows through the program's own work counters
(``repro.obs.profile.work_snapshot``) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import det, opt, simulator
from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.minla.characterizations import IncrementalStepVerifier
from repro.obs import clock
from repro.service.broker import ArrangementService
from repro.service.engine import ShardEngine
from repro.vnet.distance_cache import SlotDistanceCache

from tracer import Tracer

Patch = Tuple[object, str, Callable]


@dataclass
class Repeat:
    """One measured pass over a workload's fixed job."""

    wall_s: float
    units: int
    """Requests completed: reveal steps offline, served requests when serving."""
    attempted: int
    failed: int
    fingerprint: tuple
    """Costs the job produced; must be identical on every repeat."""
    work: Dict[str, int]
    """Work-counter delta of the job (deterministic)."""
    latencies_s: Optional[List[float]] = None
    """Per-request latencies; ``None`` when the repeat had no latency phase."""
    problems: List[str] = field(default_factory=list)
    solver: Optional[SolverCounts] = None
    extra: Dict[str, object] = field(default_factory=dict)
    """Workload-specific observations feeding the per-layer metrics."""


class SolverCounts:
    """Closest-arrangement work seen from outside the solver.

    ``dp_states`` is the sum of ``2**m`` over calls that ran the exact subset
    DP on ``m`` blocks: the number of subset states that DP visits.
    """

    def __init__(self) -> None:
        self.exact_calls = 0
        self.dp_states = 0

    def observe(self, args: tuple, result) -> None:
        if result.method == "exact":
            self.exact_calls += 1
            self.dp_states += 1 << len(args[1])


def traced_layers(tracer: Tracer, solver: SolverCounts) -> List[Patch]:
    """Span wrappers for every layer the benchmark reports on."""

    def wrap(owner: object, attribute: str, name: str, after=None) -> Patch:
        original = vars(owner)[attribute]
        return owner, attribute, tracer.wrap(name, original, after)

    return [
        wrap(det, "closest_feasible_arrangement", "minla.closest", solver.observe),
        wrap(opt, "closest_feasible_arrangement", "minla.closest", solver.observe),
        wrap(opt, "offline_optimum_bounds", "core.opt"),
        wrap(simulator, "run_online", "core.simulator"),
        wrap(OnlineMinLAAlgorithm, "process", "core.learner"),
        wrap(IncrementalStepVerifier, "observe", "minla.verifier.observe"),
        wrap(IncrementalStepVerifier, "check_step", "minla.verifier.check_step"),
        wrap(ShardEngine, "serve_batch", "service.engine"),
        wrap(SlotDistanceCache, "rebind", "vnet.distance_cache.rebind"),
        wrap(ArrangementService, "submit", "service.broker.submit"),
    ]


class OnlineProbe:
    """Per-step timing of ``run_online``, cheap enough to leave on.

    One clock read per reveal step, at the entry of the learner's
    ``process``, and one at the end of the run.  A step's latency runs from
    its entry to the next step's entry (or to the end of the run), so it
    covers the learner's update, the simulator's verification and the loop
    around them: the time one reveal request takes to be answered and
    checked.

    The probe wraps ``process`` on the learner object each run is given, so
    a learner class that overrides ``process`` is timed the same way.
    """

    def __init__(self) -> None:
        self.step_seconds: List[float] = []

    def patches(self) -> List[Patch]:
        read = clock.now
        run_online = vars(simulator)["run_online"]
        step_seconds = self.step_seconds

        def run_probe(algorithm, *args, **kwargs):
            entries: List[float] = []
            process = algorithm.process

            def process_probe(step):
                entries.append(read())
                return process(step)

            algorithm.process = process_probe
            try:
                result = run_online(algorithm, *args, **kwargs)
            finally:
                del algorithm.process
            entries.append(read())
            step_seconds.extend(
                later - earlier for earlier, later in zip(entries, entries[1:])
            )
            return result

        return [(simulator, "run_online", run_probe)]
