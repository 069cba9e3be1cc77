"""repro — Learning Minimum Linear Arrangement of Cliques and Lines.

A from-scratch Python implementation of the online learning MinLA problem of
Dallot, Pacut, Bienkowski, Melnyk and Schmid (ICDCS 2024 / arXiv:2405.15963):
the paper's deterministic and randomized online algorithms, the offline MinLA
substrates they rest on, the lower-bound adversaries, a virtual network
embedding case study, and an experiment harness reproducing every theorem,
lemma and figure of the paper.

Quick start::

    import random
    from repro import (
        OnlineMinLAInstance, RandomizedCliqueLearner, run_online,
        random_clique_merge_sequence, offline_optimum_bounds,
    )

    rng = random.Random(0)
    sequence = random_clique_merge_sequence(32, rng)
    instance = OnlineMinLAInstance.with_random_start(sequence, rng)
    result = run_online(RandomizedCliqueLearner(), instance, rng=rng)
    opt = offline_optimum_bounds(instance)
    print(result.total_cost, opt.lower, opt.upper)

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for the paper-versus-measured record.
"""

from repro.analysis import (
    AnalysisReport,
    Finding,
    analyze_paths,
)
from repro.core import (
    Arrangement,
    CostLedger,
    MutableArrangement,
    DeterministicClosestLearner,
    GreedyClosestLearner,
    MoveSmallerCliqueLearner,
    MoveSmallerLineLearner,
    OnlineMinLAAlgorithm,
    OnlineMinLAInstance,
    OptBounds,
    RandomizedCliqueLearner,
    RandomizedLineLearner,
    SimulationResult,
    UnbiasedCoinCliqueLearner,
    UnbiasedCoinLineLearner,
    UpdateRecord,
    det_competitive_bound,
    exact_optimal_online_cost,
    expected_cost,
    harmonic_number,
    offline_optimum_bounds,
    rand_cliques_ratio_bound,
    rand_lines_ratio_bound,
    random_arrangement,
    randomized_lower_bound,
    run_online,
    run_trials,
)
from repro.errors import (
    AnalysisError,
    ArrangementError,
    EmbeddingError,
    ExperimentError,
    InfeasibleArrangementError,
    ReproError,
    RevealError,
    SolverError,
)
from repro.graphs import (
    CliqueForest,
    CliqueRevealSequence,
    DisjointSetForest,
    GraphKind,
    LineForest,
    LineRevealSequence,
    RevealSequence,
    RevealStep,
    balanced_clique_merge_sequence,
    growing_clique_sequence,
    pipeline_line_sequence,
    random_clique_merge_sequence,
    random_line_sequence,
    sequential_line_sequence,
    tenant_clique_sequence,
)
from repro.minla import (
    closest_feasible_arrangement,
    exact_minla_arrangement,
    exact_minla_value,
    heuristic_minla,
    is_minla_of_cliques,
    is_minla_of_lines,
    linear_arrangement_cost,
)
from repro.obs import (
    FixedBucketHistogram,
    HistogramSnapshot,
    SpanTrace,
)
from repro.runstore import RunRecord, RunStore
from repro.service import (
    ArrangementService,
    FleetSnapshot,
    ServiceSummary,
    build_reveal_service,
    build_traffic_service,
    run_scenario_loadgen,
    run_scenario_soak,
)
from repro.telemetry import CostTrace, TraceEvent, TraceRecorder
from repro.workloads import (
    RequestStream,
    Scenario,
    all_scenarios,
    get_scenario,
    scenario_names,
)

__version__ = "1.1.0"

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Arrangement",
    "ArrangementError",
    "CliqueForest",
    "CliqueRevealSequence",
    "CostLedger",
    "CostTrace",
    "DeterministicClosestLearner",
    "DisjointSetForest",
    "EmbeddingError",
    "ExperimentError",
    "Finding",
    "FixedBucketHistogram",
    "FleetSnapshot",
    "GraphKind",
    "HistogramSnapshot",
    "SpanTrace",
    "GreedyClosestLearner",
    "InfeasibleArrangementError",
    "LineForest",
    "LineRevealSequence",
    "MoveSmallerCliqueLearner",
    "MoveSmallerLineLearner",
    "MutableArrangement",
    "OnlineMinLAAlgorithm",
    "OnlineMinLAInstance",
    "OptBounds",
    "RandomizedCliqueLearner",
    "RandomizedLineLearner",
    "ReproError",
    "RequestStream",
    "RevealError",
    "RevealSequence",
    "RevealStep",
    "ArrangementService",
    "RunRecord",
    "RunStore",
    "Scenario",
    "ServiceSummary",
    "build_reveal_service",
    "build_traffic_service",
    "run_scenario_loadgen",
    "run_scenario_soak",
    "SimulationResult",
    "SolverError",
    "TraceEvent",
    "TraceRecorder",
    "UnbiasedCoinCliqueLearner",
    "UnbiasedCoinLineLearner",
    "UpdateRecord",
    "__version__",
    "all_scenarios",
    "analyze_paths",
    "balanced_clique_merge_sequence",
    "closest_feasible_arrangement",
    "det_competitive_bound",
    "exact_minla_arrangement",
    "exact_minla_value",
    "exact_optimal_online_cost",
    "expected_cost",
    "get_scenario",
    "growing_clique_sequence",
    "harmonic_number",
    "heuristic_minla",
    "is_minla_of_cliques",
    "is_minla_of_lines",
    "linear_arrangement_cost",
    "offline_optimum_bounds",
    "pipeline_line_sequence",
    "rand_cliques_ratio_bound",
    "rand_lines_ratio_bound",
    "random_arrangement",
    "random_clique_merge_sequence",
    "random_line_sequence",
    "randomized_lower_bound",
    "run_online",
    "run_trials",
    "scenario_names",
    "sequential_line_sequence",
    "tenant_clique_sequence",
]
