"""The offline workloads: ``det-opt`` and ``rand-trials``.

``det-opt`` is the solver-heavy half of experiment E11: ``Det`` under
``run_online(verify=True)`` plus the OPT brackets of
``offline_optimum_bounds``, over five registry scenarios at node budgets 24
and 48.  The reveal patterns come from fixed pattern seeds, so every run
meets the same subset-DP sizes; ``--seed`` draws the initial arrangements.

``rand-trials`` is the paper's ``Rand`` on one uniform clique and one uniform
line of 512 nodes, 10 trials each, through ``run_trials(jobs=1)`` with the
verifier on.  Every request is a migration and the subset DP is never
reached; OPT for the ratio check is computed during set-up.

Both jobs are kept short (one to four seconds) so that a run repeats them
often and the host-speed probes around a repeat (``hostspeed.py``) bracket
it closely.  Their per-step latencies are computation, so they are scaled
to reference host speed like the job times."""

from __future__ import annotations

import random
from typing import List, Optional

from repro.core import opt, simulator
from repro.core.bounds import (
    det_competitive_bound,
    rand_cliques_ratio_bound,
    rand_lines_ratio_bound,
)
from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind
from repro.obs.clock import now
from repro.obs.profile import work_delta, work_snapshot
from repro.workloads.registry import get_scenario

from layers import OnlineProbe, Repeat, SolverCounts, traced_layers
from tracer import Tracer, maybe_span, patched

DET_SCENARIOS = (
    "uniform-cliques",
    "uniform-lines",
    "zipf-tenants",
    "bursty-pipelines",
    "tournament-merge",
)
DET_BUDGETS = (24, 48)
DET_PATTERN_SEEDS = (0, 1)

RAND_SCENARIOS = ("uniform-cliques", "uniform-lines")
RAND_NODES = 512
RAND_TRIALS = 10


def _instrument(tracer: Optional[Tracer]):
    """Patches for one repeat: span wrappers when traced, else the step probe."""
    if tracer is not None:
        solver = SolverCounts()
        return traced_layers(tracer, solver), None, solver
    probe = OnlineProbe()
    return probe.patches(), probe, None


class DetOpt:
    name = "det-opt"
    scaled_latency = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances: List[OnlineMinLAInstance] = []
        self.setup_solver = SolverCounts()

    def setup(self, tracer: Optional[Tracer]) -> None:
        with maybe_span(tracer, "workloads"):
            self.instances = self._generate()

    def _generate(self) -> List[OnlineMinLAInstance]:
        instances = []
        for scenario_name in DET_SCENARIOS:
            scenario = get_scenario(scenario_name)
            for budget in DET_BUDGETS:
                for pattern in DET_PATTERN_SEEDS:
                    sequences = scenario.reveal_sequences(budget, pattern)
                    for index, sequence in enumerate(sequences):
                        rng = random.Random(
                            f"{self.seed}|det-opt|{scenario_name}|{budget}|"
                            f"{pattern}|{index}"
                        )
                        instances.append(
                            OnlineMinLAInstance.with_random_start(sequence, rng)
                        )
        return instances

    def repeat(self, tracer: Optional[Tracer]) -> Repeat:
        patches, probe, solver = _instrument(tracer)
        fingerprint = []
        problems: List[str] = []
        failed = 0
        steps = 0
        work_before = work_snapshot()
        with patched(patches):
            started = now()
            for index, instance in enumerate(self.instances):
                try:
                    bounds = opt.offline_optimum_bounds(instance)
                    result = simulator.run_online(
                        DeterministicClosestLearner(), instance, verify=True
                    )
                except ReproError as error:
                    failed += 1
                    problems.append(f"instance {index}: {error!r}")
                    continue
                steps += instance.num_steps
                fingerprint.append((bounds.lower, bounds.upper, result.total_cost))
                if bounds.lower > bounds.upper:
                    problems.append(
                        f"instance {index}: OPT lower {bounds.lower} > upper "
                        f"{bounds.upper}"
                    )
                bound = det_competitive_bound(instance.num_nodes)
                if result.total_cost > bound * max(bounds.upper, 1):
                    problems.append(
                        f"instance {index}: Det cost {result.total_cost} exceeds "
                        f"(2n-2) x OPT upper {bounds.upper}"
                    )
            wall = now() - started
        return Repeat(
            wall_s=wall,
            units=steps,
            attempted=len(self.instances),
            failed=failed,
            fingerprint=tuple(fingerprint),
            work=work_delta(work_before, work_snapshot()),
            latencies_s=probe.step_seconds if probe is not None else [],
            problems=problems,
            solver=solver,
        )


class RandTrials:
    name = "rand-trials"
    scaled_latency = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.instances: List[OnlineMinLAInstance] = []
        self.opt_upper: List[int] = []
        self.problems: List[str] = []
        self.setup_solver = SolverCounts()

    def setup(self, tracer: Optional[Tracer]) -> None:
        with maybe_span(tracer, "workloads"):
            instances = []
            for scenario_name in RAND_SCENARIOS:
                (sequence,) = get_scenario(scenario_name).reveal_sequences(
                    RAND_NODES, self.seed
                )
                rng = random.Random(f"{self.seed}|rand-trials|{scenario_name}")
                instances.append(OnlineMinLAInstance.with_random_start(sequence, rng))
        self.instances = instances
        self.opt_upper = []
        self.problems = []
        self.setup_solver = SolverCounts()
        patches = [] if tracer is None else traced_layers(tracer, self.setup_solver)
        with patched(patches):
            for instance in instances:
                bounds = opt.offline_optimum_bounds(instance)
                if bounds.lower > bounds.upper:
                    self.problems.append(
                        f"{instance.kind.value}: OPT lower {bounds.lower} > "
                        f"upper {bounds.upper}"
                    )
                self.opt_upper.append(bounds.upper)

    def repeat(self, tracer: Optional[Tracer]) -> Repeat:
        patches, probe, solver = _instrument(tracer)
        fingerprint = []
        problems = list(self.problems)
        failed = 0
        steps = 0
        work_before = work_snapshot()
        with patched(patches):
            started = now()
            for instance, upper in zip(self.instances, self.opt_upper):
                cliques = instance.kind is GraphKind.CLIQUES
                factory = RandomizedCliqueLearner if cliques else RandomizedLineLearner
                try:
                    results = simulator.run_trials(
                        factory, instance, RAND_TRIALS, seed=self.seed, verify=True, jobs=1
                    )
                except ReproError as error:
                    failed += RAND_TRIALS
                    problems.append(f"{instance.kind.value}: {error!r}")
                    continue
                steps += RAND_TRIALS * instance.num_steps
                costs = tuple(result.total_cost for result in results)
                fingerprint.append(costs)
                bound = (
                    rand_cliques_ratio_bound(instance.num_nodes)
                    if cliques
                    else rand_lines_ratio_bound(instance.num_nodes)
                )
                ratio = sum(costs) / len(costs) / max(upper, 1)
                if ratio > bound:
                    problems.append(
                        f"{instance.kind.value}: Rand ratio {ratio:.3f} exceeds "
                        f"the paper's bound {bound:.3f}"
                    )
            wall = now() - started
        return Repeat(
            wall_s=wall,
            units=steps,
            attempted=RAND_TRIALS * len(self.instances),
            failed=failed,
            fingerprint=tuple(fingerprint),
            work=work_delta(work_before, work_snapshot()),
            latencies_s=probe.step_seconds if probe is not None else [],
            problems=problems,
            solver=solver,
        )
