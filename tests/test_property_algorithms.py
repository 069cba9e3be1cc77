"""Property-based tests for the online algorithms and the offline solvers.

These exercise the *invariants* rather than specific scenarios: every
algorithm must keep its arrangement a MinLA of the revealed graph on every
random workload, the closest-arrangement solver's reported distance must
always equal the true Kendall-tau distance of the arrangement it returns, and
the offline-optimum bracket must always contain the exact optimum on tiny
instances.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import exact_optimal_online_cost, offline_optimum_bounds
from repro.core.permutation import random_arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.minla.closest import blocks_from_forest, closest_feasible_arrangement
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


clique_instance_params = st.tuples(
    st.integers(min_value=2, max_value=12),  # number of nodes
    st.integers(min_value=0, max_value=10_000),  # workload seed
    st.integers(min_value=0, max_value=10_000),  # algorithm seed
)


class TestAlgorithmsStayFeasible:
    @given(clique_instance_params)
    @settings(max_examples=60, deadline=None)
    def test_rand_cliques_feasible_on_random_workloads(self, params):
        n, workload_seed, algorithm_seed = params
        rng = random.Random(workload_seed)
        sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        # run_online raises if any update breaks feasibility or under-reports cost.
        result = run_online(
            RandomizedCliqueLearner(), instance, rng=random.Random(algorithm_seed)
        )
        assert result.total_cost >= 0

    @given(clique_instance_params)
    @settings(max_examples=60, deadline=None)
    def test_rand_lines_feasible_on_random_workloads(self, params):
        n, workload_seed, algorithm_seed = params
        rng = random.Random(workload_seed)
        sequence = random_line_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(
            RandomizedLineLearner(), instance, rng=random.Random(algorithm_seed)
        )
        assert result.total_cost >= 0

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_det_feasible_and_never_further_from_pi0_than_opt(
        self, n, workload_seed, use_lines
    ):
        rng = random.Random(workload_seed)
        if use_lines:
            sequence = random_line_sequence(n, rng)
        else:
            sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        result = run_online(DeterministicClosestLearner(), instance, record_trajectory=True)
        bounds = offline_optimum_bounds(instance)
        assert result.arrangements is not None
        for arrangement in result.arrangements:
            assert instance.initial_arrangement.kendall_tau(arrangement) <= bounds.upper


class TestClosestSolverProperties:
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=5),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_reported_distance_matches_arrangement(self, n, seed, merges, use_lines):
        rng = random.Random(seed)
        if use_lines:
            sequence = random_line_sequence(n, rng)
        else:
            sequence = random_clique_merge_sequence(n, rng)
        prefix = sequence.prefix(min(merges, len(sequence)))
        forest = prefix.final_forest()
        pi0 = random_arrangement(range(n), rng)
        result = closest_feasible_arrangement(pi0, blocks_from_forest(forest))
        assert result.distance == pi0.kendall_tau(result.arrangement)
        for component in forest.components():
            assert result.arrangement.is_contiguous(component)

    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_never_below_trivial_lower_bound(self, n, seed):
        """The closest feasible arrangement can never be closer than 0 and never
        farther than reversing the whole permutation."""
        rng = random.Random(seed)
        sequence = random_clique_merge_sequence(n, rng)
        forest = sequence.final_forest()
        pi0 = random_arrangement(range(n), rng)
        result = closest_feasible_arrangement(pi0, blocks_from_forest(forest))
        assert 0 <= result.distance <= n * (n - 1) // 2


class TestOptBracketProperties:
    @given(
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_exact_optimum_lies_in_bracket(self, n, seed, use_lines):
        rng = random.Random(seed)
        if use_lines:
            sequence = random_line_sequence(n, rng)
        else:
            sequence = random_clique_merge_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        exact = exact_optimal_online_cost(instance)
        assert bounds.lower <= exact <= bounds.upper

    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_online_cost_at_least_opt_lower_bound(self, n, seed):
        rng = random.Random(seed)
        sequence = random_line_sequence(n, rng)
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        bounds = offline_optimum_bounds(instance)
        result = run_online(RandomizedLineLearner(), instance, rng=random.Random(seed + 1))
        # No online algorithm can beat the offline optimum.
        assert result.total_cost >= bounds.lower
