"""Golden regression tests: pinned outputs of deterministic computations.

The pinned values were produced by the reviewed initial implementation and
guard against silent behavioural changes during refactoring.  Every quantity
is deterministic: either the computation has no randomness (``Det``, exact
solvers, adversary constructions) or the randomness is fully determined by
the explicit seeds used below.
"""

import random

import networkx as nx

from repro.adversary.line_adversary import run_line_adversary
from repro.adversary.tree_adversary import tree_adversary_steps
from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import exact_optimal_online_cost, offline_optimum_bounds
from repro.core.permutation import Arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
from repro.minla.exact import exact_minla_value
from repro.obs.profile import work_delta, work_snapshot
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence
from repro.workloads.registry import get_scenario


class TestGoldenDeterministicValues:
    def test_kendall_tau_golden(self):
        first = Arrangement([0, 3, 1, 4, 2, 5])
        second = Arrangement([5, 4, 3, 2, 1, 0])
        assert first.kendall_tau(second) == 12

    def test_exact_minla_golden_values(self):
        assert exact_minla_value(nx.cycle_graph(6)) == 10
        assert exact_minla_value(nx.complete_bipartite_graph(2, 3)) == 10

    def test_tree_adversary_steps_golden_n8(self):
        steps = [step.as_tuple() for step in tree_adversary_steps(list(range(8)))]
        assert steps == [(0, 1), (2, 3), (4, 5), (6, 7), (1, 2), (5, 6), (3, 4)]

    def test_det_on_fixed_clique_instance(self):
        sequence = CliqueRevealSequence.from_pairs(
            range(6), [(0, 5), (1, 4), (2, 3), (0, 1), (2, 5)]
        )
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        bounds = offline_optimum_bounds(instance)
        exact = exact_optimal_online_cost(instance)
        assert result.total_cost == 12
        assert (bounds.lower, bounds.upper) == (6, 6)
        assert exact == 6

    def test_det_on_fixed_line_instance(self):
        sequence = LineRevealSequence.from_pairs(
            range(6), [(0, 5), (1, 4), (5, 1), (2, 3), (4, 2)]
        )
        instance = OnlineMinLAInstance.with_identity_start(sequence)
        result = run_online(DeterministicClosestLearner(), instance)
        bounds = offline_optimum_bounds(instance)
        assert bounds.exact
        assert (bounds.lower, bounds.upper) == (6, 6)
        assert result.total_cost == 18

    def test_line_adversary_golden_n11(self):
        result = run_line_adversary(DeterministicClosestLearner(), 11)
        assert result.total_cost == 45
        assert result.opt_bounds.upper == 5
        assert len(result.sequence) == 9

    def test_seeded_rand_cliques_golden(self):
        rng = random.Random(42)
        sequence = random_clique_merge_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedCliqueLearner(), instance, rng=random.Random(7))
        assert result.total_cost == 27
        bounds = offline_optimum_bounds(instance)
        assert bounds.lower == 11
        assert result.total_cost >= bounds.lower

    def test_seeded_rand_lines_golden(self):
        rng = random.Random(42)
        sequence = random_line_sequence(10, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(7))
        assert result.total_cost == 55
        assert result.ledger.total_moving_cost == 22
        assert result.ledger.total_rearranging_cost == 33


DET_OPT_SCENARIOS = (
    "uniform-cliques",
    "uniform-lines",
    "zipf-tenants",
    "bursty-pipelines",
    "tournament-merge",
)

# (OPT lower, OPT upper, Det cost) per (scenario, node budget, pattern seed),
# initial arrangements drawn as perfbench's det-opt workload draws them at
# seed 0.
DET_OPT_GOLDEN = {
    ("uniform-cliques", 24, 0): [(62, 86, 278)],
    ("uniform-cliques", 24, 1): [(101, 115, 746)],
    ("uniform-cliques", 48, 0): [(294, 413, 2166)],
    ("uniform-cliques", 48, 1): [(380, 444, 2260)],
    ("uniform-lines", 24, 0): [(112, 112, 314)],
    ("uniform-lines", 24, 1): [(134, 134, 450)],
    ("uniform-lines", 48, 0): [(547, 547, 2387)],
    ("uniform-lines", 48, 1): [(561, 561, 2811)],
    ("zipf-tenants", 24, 0): [(86, 88, 240)],
    ("zipf-tenants", 24, 1): [(58, 63, 166)],
    ("zipf-tenants", 48, 0): [(0, 313, 611)],
    ("zipf-tenants", 48, 1): [(0, 355, 795)],
    ("bursty-pipelines", 24, 0): [(78, 78, 210)],
    ("bursty-pipelines", 24, 1): [(81, 81, 191)],
    ("bursty-pipelines", 48, 0): [(339, 339, 821)],
    ("bursty-pipelines", 48, 1): [(0, 320, 548)],
    ("tournament-merge", 24, 0): [(93, 106, 376)],
    ("tournament-merge", 24, 1): [(75, 89, 398)],
    ("tournament-merge", 48, 0): [(351, 446, 2078)],
    ("tournament-merge", 48, 1): [(393, 426, 1824)],
}


class TestGoldenDetOpt:
    """Det and the OPT brackets on every det-opt benchmark shape at one seed.

    A change to the closest-arrangement solver that moves any result, or
    the subset DP's work, fails here.
    """

    def test_bounds_costs_and_dp_work(self):
        seed = 0
        before = work_snapshot()
        observed = {}
        for name in DET_OPT_SCENARIOS:
            scenario = get_scenario(name)
            for budget in (24, 48):
                for pattern in (0, 1):
                    rows = []
                    sequences = scenario.reveal_sequences(budget, pattern)
                    for index, sequence in enumerate(sequences):
                        rng = random.Random(
                            f"{seed}|det-opt|{name}|{budget}|{pattern}|{index}"
                        )
                        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
                        bounds = offline_optimum_bounds(instance)
                        result = run_online(
                            DeterministicClosestLearner(), instance, verify=True
                        )
                        rows.append((bounds.lower, bounds.upper, result.total_cost))
                    observed[(name, budget, pattern)] = rows
        work = work_delta(before, work_snapshot())
        assert observed == DET_OPT_GOLDEN
        assert work["minla.closest.dp_states"] == 3072
        assert work["minla.closest.dp_transitions"] == 5000
