"""Property tests for the closest-arrangement solver and the OPT prefix walk.

:func:`repro.minla.closest._exact_order_dp` runs over subsets of the
multi-node blocks times the number of one-node blocks placed in ``π_0``
order, and keeps only the states that a greedy upper bound and a pairwise
lower bound leave open.  These tests hold it to the layered
``O(2^m · m²)`` push DP over all subsets, copied below as the reference:
on tie-heavy cost matrices with no singletons, where the tie-break decides
the order, and on real ``π_0`` instances with many singletons.  They also
hold it, independently of that reference, to a brute force over all block
orders that picks the optimum whose reversed block sequence is
lexicographically largest, pin its work counters on one fixed instance, and
hold the one-pass cross matrix of
:func:`repro.minla.closest._pairwise_inversions` to pairwise
:func:`repro.telemetry.backends.count_cross_inversions` counts.  The OPT
prefix walk, which skips exact solves its greedy distance shows cannot
raise the bound and takes its prefixes from one forward replay, is held to
solving every prefix exactly, each from a fresh forest.  The run-scoped
:class:`repro.minla.closest.ClosestSolver`, which carries per-block state
and the cross matrix from one solve to the next, is held at every step of
random runs to a fresh solve, for every strategy; its kept matrix is held
to a fresh :func:`repro.minla.closest._pairwise_inversions` after every
solve of Det, the OPT brackets, a repeated block list and a node tuple
re-solved as the other kind; and ``Det`` is held to a fresh learner after
a ``reset()`` onto another ``π_0``.  The cost that
:func:`repro.minla.closest._local_search` tracks through its swaps is held
to the quadratic sum over its order, kept below as the reference.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import (
    _exactly_solvable,
    _prefix_lower_bound,
    laminar_consistent_blocks,
    offline_optimum_bounds,
)
from repro.core.permutation import Arrangement
from repro.core.simulator import run_online
from repro.errors import SolverError
from repro.graphs.reveal import CliqueRevealSequence, GraphKind, LineRevealSequence
from repro.minla import closest
from repro.minla.closest import (
    Block,
    BlockKind,
    ClosestSolver,
    _exact_order_dp,
    _local_search,
    _pairwise_inversions,
    _singletons_in_pi0_order,
    blocks_from_forest,
    closest_feasible_arrangement,
)
from repro.obs.profile import work_delta, work_snapshot
from repro.telemetry.backends import count_cross_inversions
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


def _reference_order_dp(inv):
    """The push DP over popcount layers, with a strict ``<`` update."""
    m = len(inv)
    if m == 0:
        return [], 0
    full = (1 << m) - 1
    dp = [None] * (1 << m)
    choice = [-1] * (1 << m)
    dp[0] = 0
    masks_by_popcount = [[] for _ in range(m + 1)]
    for mask in range(1 << m):
        masks_by_popcount[bin(mask).count("1")].append(mask)
    for popcount in range(m):
        for mask in masks_by_popcount[popcount]:
            base = dp[mask]
            remaining = [j for j in range(m) if not mask & (1 << j)]
            for block in remaining:
                extra = 0
                for other in remaining:
                    if other != block:
                        extra += inv[block][other]
                new_mask = mask | (1 << block)
                candidate = base + extra
                if dp[new_mask] is None or candidate < dp[new_mask]:
                    dp[new_mask] = candidate
                    choice[new_mask] = block
    order_reversed = []
    mask = full
    while mask:
        block = choice[mask]
        order_reversed.append(block)
        mask ^= 1 << block
    order_reversed.reverse()
    return order_reversed, dp[full]


def _order_cost(order, inv):
    """Cross cost of a block order: the quadratic sum over every ordered pair."""
    cost = 0
    for left_pos in range(len(order)):
        for right_pos in range(left_pos + 1, len(order)):
            cost += inv[order[left_pos]][order[right_pos]]
    return cost


def _brute_force_order(inv):
    """The cheapest block order; among ties, the one whose reverse is largest."""
    orders = list(itertools.permutations(range(len(inv))))
    costs = [_order_cost(order, inv) for order in orders]
    best = min(costs)
    tied = [order for order, cost in zip(orders, costs) if cost == best]
    return list(max(tied, key=lambda order: order[::-1])), best


@st.composite
def tie_heavy_matrices(draw, max_blocks):
    """Cross matrices of blocks of 1–4 nodes, with many equal-cost orders.

    ``inv[i][j] + inv[j][i] = size_i · size_j`` as for real blocks; each
    ``inv[i][j]`` is 0, the whole product, half of it, or anything between.
    """
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=4), max_size=max_blocks)
    )
    m = len(sizes)
    inv = [[0] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        total = sizes[i] * sizes[j]
        inv[i][j] = draw(
            st.one_of(
                st.sampled_from([0, total, total // 2]),
                st.integers(min_value=0, max_value=total),
            )
        )
        inv[j][i] = total - inv[i][j]
    return inv


@st.composite
def partitioned_arrangements(draw, max_nodes=64):
    """A random ``π_0`` on ``n ≤ max_nodes`` nodes and a random partition into blocks."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    pi0 = Arrangement(draw(st.permutations(range(n))))
    members = draw(st.permutations(range(n)))
    cuts = sorted(
        draw(st.lists(st.integers(min_value=1, max_value=n - 1), unique=True))
        if n > 1
        else []
    )
    blocks = [
        Block(BlockKind.FREE, tuple(members[lo:hi]))
        for lo, hi in zip([0] + cuts, cuts + [n])
    ]
    return pi0, blocks


@st.composite
def singleton_heavy_blocks(draw, max_blocks):
    """A random ``π_0`` and a partition into mostly one-node blocks.

    Block sizes of 1–3 nodes keep many block orders equally cheap, so the
    tie-break between singletons and multi-node blocks decides the order.
    """
    sizes = draw(
        st.lists(st.sampled_from([1, 1, 1, 2, 2, 3]), max_size=max_blocks)
    )
    n = sum(sizes)
    pi0 = Arrangement(draw(st.permutations(range(n))))
    members = draw(st.permutations(range(n)))
    cuts = list(itertools.accumulate(sizes))
    blocks = [
        Block(BlockKind.FREE, tuple(members[lo:hi]))
        for lo, hi in zip([0] + cuts, cuts)
    ]
    return pi0, blocks


class TestExactOrderDP:
    @given(tie_heavy_matrices(max_blocks=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_dp(self, inv):
        assert _exact_order_dp(inv, ()) == _reference_order_dp(inv)

    @given(singleton_heavy_blocks(max_blocks=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_dp_with_singletons(self, case):
        pi0, blocks = case
        inv = _pairwise_inversions(pi0, blocks)
        singletons = _singletons_in_pi0_order(pi0, blocks)
        assert _exact_order_dp(inv, singletons) == _reference_order_dp(inv)


class TestTieBreakByBruteForce:
    """The returned order is the brute-force optimum with the largest reversed sequence."""

    @given(tie_heavy_matrices(max_blocks=7))
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_matrices(self, inv):
        assert _exact_order_dp(inv, ()) == _brute_force_order(inv)

    @given(singleton_heavy_blocks(max_blocks=7))
    @settings(max_examples=60, deadline=None)
    def test_pi0_instances_with_singletons(self, case):
        pi0, blocks = case
        inv = _pairwise_inversions(pi0, blocks)
        singletons = _singletons_in_pi0_order(pi0, blocks)
        assert _exact_order_dp(inv, singletons) == _brute_force_order(inv)


class TestLocalSearchCost:
    """The cost tracked through the adjacent swaps is the order's quadratic sum."""

    @given(tie_heavy_matrices(max_blocks=12), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_tracked_cost_equals_the_quadratic_sum(self, inv, rng):
        start = list(range(len(inv)))
        rng.shuffle(start)
        order, cost = _local_search(start, inv)
        assert sorted(order) == list(range(len(inv)))
        assert cost == _order_cost(order, inv)

    @given(partitioned_arrangements())
    @settings(max_examples=100, deadline=None)
    def test_greedy_distance_prices_its_order(self, case):
        pi0, blocks = case
        result = ClosestSolver(pi0).solve(blocks, method="greedy")
        block_of = {node: index for index, block in enumerate(blocks) for node in block.nodes}
        order = []
        for node in result.arrangement.order:
            if not order or order[-1] != block_of[node]:
                order.append(block_of[node])
        assert result.distance == _order_cost(order, _pairwise_inversions(pi0, blocks))


class TestBoundedSearchWork:
    def test_golden_counts_on_a_fixed_instance(self):
        # Four multi-node and four one-node blocks: the unbounded DP has
        # 2^4 · 5 = 80 states (79 past the empty one) and 224 candidates.
        pi0 = Arrangement([9, 1, 10, 5, 8, 2, 12, 11, 7, 4, 3, 0, 6])
        blocks = [
            Block(BlockKind.FREE, nodes)
            for nodes in [(0, 7, 8), (2, 4), (6, 10), (3, 5), (11,), (12,), (9,), (1,)]
        ]
        inv = _pairwise_inversions(pi0, blocks)
        before = work_snapshot()
        result = _exact_order_dp(inv, _singletons_in_pi0_order(pi0, blocks))
        work = work_delta(before, work_snapshot())
        assert result == ([6, 7, 3, 5, 4, 0, 1, 2], 22) == _brute_force_order(inv)
        assert work["minla.closest.dp_states"] == 29
        assert work["minla.closest.dp_transitions"] == 62


class TestPairwiseInversions:
    @given(partitioned_arrangements())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_cross_counts(self, case):
        pi0, blocks = case
        positions = [sorted(pi0.position(node) for node in block.nodes) for block in blocks]
        expected = [
            [
                0 if i == j else count_cross_inversions(positions[i], positions[j])
                for j in range(len(blocks))
            ]
            for i in range(len(blocks))
        ]
        assert _pairwise_inversions(pi0, blocks) == expected


def _unpruned_prefix_lower_bound(instance, max_exact_blocks, lower):
    """The prefix walk with every exactly solvable prefix solved exactly."""
    best = lower
    for step_count in range(instance.num_steps, 0, -1):
        blocks = blocks_from_forest(instance.sequence.forest_after(step_count))
        if not _exactly_solvable(blocks, max_exact_blocks):
            break
        result = closest_feasible_arrangement(
            instance.initial_arrangement, blocks, max_exact_blocks=max_exact_blocks
        )
        best = max(best, result.distance)
    return best


def _instance(kind, n, final_components, seed):
    rng = random.Random(seed)
    generate = random_line_sequence if kind == "lines" else random_clique_merge_sequence
    sequence = generate(n, rng, num_final_components=final_components)
    return OnlineMinLAInstance.with_random_start(sequence, rng)


class TestPrunedPrefixWalk:
    @given(
        st.sampled_from(["cliques", "lines"]),
        st.integers(min_value=2, max_value=14),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_solving_every_prefix(
        self, kind, n, final_components, seed, max_exact_blocks, lower
    ):
        instance = _instance(kind, n, min(final_components, n), seed)
        pi0 = instance.initial_arrangement
        expected = _unpruned_prefix_lower_bound(instance, max_exact_blocks, lower)
        fresh = ClosestSolver(pi0)
        assert (
            _prefix_lower_bound(fresh, instance.sequence, max_exact_blocks, lower)
            == expected
        )
        # A solver that already holds the final graph's blocks, as in
        # offline_optimum_bounds, and then walks a second time.
        used = ClosestSolver(pi0)
        final_forest = instance.sequence.final_forest()
        used.solve(used.blocks(final_forest), method="greedy")
        for _ in range(2):
            assert (
                _prefix_lower_bound(used, instance.sequence, max_exact_blocks, lower)
                == expected
            )

    def test_walk_stops_at_the_last_unsolvable_prefix(self):
        # Prefix 1 ({0, 1}; one multi-node block) is solvable, prefix 2
        # ({0, 1}, {2, 3}; six blocks, two multi-node) is not, prefix 3
        # ({0, 1, 2, 3}; five blocks) is.  The walk from the end stops at
        # prefix 2, so prefix 1's distance (1: π_0 splits 0 and 1) must not
        # count, while prefix 3 costs 0.
        sequence = CliqueRevealSequence.from_pairs(range(8), [(0, 1), (2, 3), (0, 2)])
        instance = OnlineMinLAInstance(sequence, Arrangement([0, 2, 1, 3, 4, 5, 6, 7]))
        solver = ClosestSolver(instance.initial_arrangement)
        assert _prefix_lower_bound(solver, sequence, 5, 0) == 0
        assert _unpruned_prefix_lower_bound(instance, 5, 0) == 0
        assert _unpruned_prefix_lower_bound(instance, 7, 0) == 1
        assert _prefix_lower_bound(solver, sequence, 7, 0) == 1

    @given(
        st.integers(min_value=10, max_value=16),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_lines_whose_final_solve_is_greedy(self, n, seed, max_exact_blocks):
        # Paths of two nodes each: more final components than the exact
        # limit and several multi-node ones, so the final solve is greedy.
        rng = random.Random(seed)
        nodes = list(range(n))
        rng.shuffle(nodes)
        sequence = LineRevealSequence.from_pairs(
            range(n), list(zip(nodes[0::2], nodes[1::2]))
        )
        instance = OnlineMinLAInstance.with_random_start(sequence, rng)
        final_blocks = blocks_from_forest(instance.sequence.final_forest())
        assert not _exactly_solvable(final_blocks, max_exact_blocks)
        bounds = offline_optimum_bounds(instance, max_exact_blocks=max_exact_blocks)
        assert not bounds.exact
        assert bounds.lower == _unpruned_prefix_lower_bound(
            instance, max_exact_blocks, 0
        )


METHODS = ("auto", "exact", "insertion", "greedy")


def _outcome(pi0, blocks, method, max_exact_blocks, solver=None):
    """A solve's ``(arrangement, distance, exact, method)``, or its error message."""
    try:
        result = closest_feasible_arrangement(
            pi0, blocks, method, max_exact_blocks, solver=solver
        )
    except SolverError as error:
        return "error", str(error)
    return result.arrangement, result.distance, result.exact, result.method


class TestRunScopedSolver:
    @given(
        st.sampled_from(["cliques", "lines"]),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_step_matches_a_fresh_solve(
        self, kind, n, final_components, seed, max_exact_blocks
    ):
        instance = _instance(kind, n, min(final_components, n), seed)
        pi0 = instance.initial_arrangement
        solver = ClosestSolver(pi0)
        for _, forest in instance.sequence.replay():
            fresh_blocks = blocks_from_forest(forest)
            cases = [(solver.blocks(forest), fresh_blocks)]
            if instance.kind is GraphKind.CLIQUES:
                # The laminar PATH blocks of OPT's upper bound share node
                # tuples with the FREE blocks above but not their orders.
                laminar, _ = laminar_consistent_blocks(forest, pi0)
                cases.append((laminar, laminar))
            for blocks, reference in cases:
                assert blocks == reference
                for method in METHODS:
                    shared = _outcome(pi0, blocks, method, max_exact_blocks, solver)
                    assert shared == _outcome(pi0, reference, method, max_exact_blocks)
                    if shared[0] != "error":
                        # State is kept for the latest solve's blocks only.
                        assert set(solver._known) == {block.nodes for block in blocks}

    @given(
        st.sampled_from(["cliques", "lines"]),
        st.integers(min_value=1, max_value=24),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=13),
    )
    @settings(max_examples=60, deadline=None)
    def test_the_kept_matrix_equals_a_fresh_one_after_every_solve(
        self, kind, n, final_components, seed, max_exact_blocks
    ):
        instance = _instance(kind, n, min(final_components, n), seed)
        pi0 = instance.initial_arrangement
        solved = []
        rebuilt = []
        original = ClosestSolver.solve

        def checked_solve(solver, blocks, *args, **kwargs):
            result = original(solver, blocks, *args, **kwargs)
            solved.append(blocks)
            assert solver._inv == _pairwise_inversions(pi0, blocks)
            slots = [solver._known[block.nodes][4] for block in blocks]
            assert slots == list(range(len(blocks)))
            return result

        def counted_rebuild(*args):
            rebuilt.append(args)
            return _pairwise_inversions(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClosestSolver, "solve", checked_solve)
            patch.setattr(closest, "_pairwise_inversions", counted_rebuild)
            # Det: every forward reveal merges two blocks, so only the
            # first solve builds the matrix.
            det = DeterministicClosestLearner(max_exact_blocks=max_exact_blocks)
            run_online(det, instance)
            assert len(rebuilt) <= 1
            # OPT: laminar PATH blocks, the final graph, and the backward
            # prefix walk, which splits blocks and solves some twice.
            offline_optimum_bounds(instance, max_exact_blocks=max_exact_blocks)
            # The same block list twice, then one node tuple as the other kind.
            solver = ClosestSolver(pi0)
            blocks = blocks_from_forest(instance.sequence.final_forest())
            for _ in range(2):
                solver.solve(blocks, method="greedy")
            other = BlockKind.PATH if kind == "cliques" else BlockKind.FREE
            swapped = [Block(other, block.nodes) for block in blocks]
            assert _outcome(pi0, swapped, "auto", max_exact_blocks, solver) == _outcome(
                pi0, swapped, "auto", max_exact_blocks
            )
        assert len(solved) >= instance.num_steps + 3

    def test_a_block_of_the_other_kind_is_not_reused(self):
        # PATH (0, 1, 2) must keep its path order or its reverse; FREE
        # (0, 1, 2) takes π_0's order.  Same nodes tuple, different answers.
        pi0 = Arrangement([2, 0, 1, 3])
        path = [Block(BlockKind.PATH, (0, 1, 2)), Block(BlockKind.FREE, (3,))]
        free = [Block(BlockKind.FREE, (0, 1, 2)), Block(BlockKind.FREE, (3,))]
        solver = ClosestSolver(pi0)
        for blocks in (path, free, path):
            assert _outcome(pi0, blocks, "auto", 13, solver) == _outcome(
                pi0, blocks, "auto", 13
            )
        assert solver.solve(free).distance == 0
        assert solver.solve(path).distance == 1

    def test_a_solver_is_bound_to_its_reference_permutation(self):
        solver = ClosestSolver(Arrangement([0, 1]))
        blocks = [Block(BlockKind.FREE, (0, 1))]
        with pytest.raises(SolverError, match="another reference permutation"):
            closest_feasible_arrangement(Arrangement([1, 0]), blocks, solver=solver)
        assert closest_feasible_arrangement(
            Arrangement([0, 1]), blocks, solver=solver
        ).distance == 0

    @given(
        st.sampled_from(["cliques", "lines"]),
        st.integers(min_value=2, max_value=24),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_reset_learner_reuses_no_state(self, kind, n, final_components, seed):
        first = _instance(kind, n, min(final_components, n), seed)
        rng = random.Random(seed + 1)
        second = OnlineMinLAInstance.with_random_start(first.sequence, rng)
        learner = DeterministicClosestLearner()
        run_online(learner, first)
        first_solver = learner._solver
        reused = run_online(learner, second, record_trajectory=True)
        fresh = run_online(DeterministicClosestLearner(), second, record_trajectory=True)
        assert learner._solver is not first_solver
        assert learner._solver.pi0 == second.initial_arrangement
        assert reused.arrangements == fresh.arrangements
        assert reused.total_cost == fresh.total_cost
