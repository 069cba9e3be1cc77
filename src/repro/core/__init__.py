"""Core of the reproduction: arrangements, the online framework and the paper's algorithms."""

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.bounds import (
    det_competitive_bound,
    harmonic_number,
    rand_cliques_ratio_bound,
    rand_lines_ratio_bound,
    randomized_lower_bound,
)
from repro.core.cost import CostLedger, SimulationResult, UpdateRecord
from repro.core.det import DeterministicClosestLearner, GreedyClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import OptBounds, exact_optimal_online_cost, offline_optimum_bounds
from repro.core.permutation import (
    Arrangement,
    MutableArrangement,
    random_arrangement,
)
from repro.core.rand_cliques import (
    MoveSmallerCliqueLearner,
    RandomizedCliqueLearner,
    UnbiasedCoinCliqueLearner,
)
from repro.core.rand_lines import (
    MoveSmallerLineLearner,
    RandomizedLineLearner,
    UnbiasedCoinLineLearner,
)
from repro.core.simulator import (
    expected_cost,
    run_online,
    run_trials,
    run_trials_sequential,
)

__all__ = [
    "Arrangement",
    "CostLedger",
    "MutableArrangement",
    "DeterministicClosestLearner",
    "GreedyClosestLearner",
    "MoveSmallerCliqueLearner",
    "MoveSmallerLineLearner",
    "OnlineMinLAAlgorithm",
    "OnlineMinLAInstance",
    "OptBounds",
    "RandomizedCliqueLearner",
    "RandomizedLineLearner",
    "SimulationResult",
    "UnbiasedCoinCliqueLearner",
    "UnbiasedCoinLineLearner",
    "UpdateRecord",
    "det_competitive_bound",
    "exact_optimal_online_cost",
    "expected_cost",
    "harmonic_number",
    "offline_optimum_bounds",
    "rand_cliques_ratio_bound",
    "rand_lines_ratio_bound",
    "random_arrangement",
    "randomized_lower_bound",
    "run_online",
    "run_trials",
    "run_trials_sequential",
]
