"""Property-based tests (hypothesis) for the arrangement / Kendall-tau substrate."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pairs import disagreement_pairs
from repro.core.permutation import Arrangement, MutableArrangement, count_inversions
from repro.core.rand_lines import forward_layout_cost


@st.composite
def permutation_pairs(draw, max_size=9):
    """Two arrangements over the same node set 0..n-1."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    seed_a = draw(st.integers(min_value=0, max_value=10_000))
    seed_b = draw(st.integers(min_value=0, max_value=10_000))
    first = list(range(n))
    second = list(range(n))
    random.Random(seed_a).shuffle(first)
    random.Random(seed_b).shuffle(second)
    return Arrangement(first), Arrangement(second)


@st.composite
def permutation_triples(draw, max_size=8):
    n = draw(st.integers(min_value=1, max_value=max_size))
    seeds = [draw(st.integers(min_value=0, max_value=10_000)) for _ in range(3)]
    arrangements = []
    for seed in seeds:
        order = list(range(n))
        random.Random(seed).shuffle(order)
        arrangements.append(Arrangement(order))
    return tuple(arrangements)


class TestKendallTauMetricProperties:
    @given(permutation_pairs())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_non_negativity(self, pair):
        first, second = pair
        distance = first.kendall_tau(second)
        assert distance >= 0
        assert distance == second.kendall_tau(first)

    @given(permutation_pairs())
    @settings(max_examples=150, deadline=None)
    def test_identity_of_indiscernibles(self, pair):
        first, second = pair
        assert (first.kendall_tau(second) == 0) == (first == second)

    @given(permutation_triples())
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert a.kendall_tau(c) <= a.kendall_tau(b) + b.kendall_tau(c)

    @given(permutation_pairs())
    @settings(max_examples=100, deadline=None)
    def test_distance_bounded_by_all_pairs(self, pair):
        first, second = pair
        n = len(first)
        assert first.kendall_tau(second) <= n * (n - 1) // 2

    @given(permutation_pairs())
    @settings(max_examples=100, deadline=None)
    def test_distance_equals_disagreement_pair_count(self, pair):
        first, second = pair
        assert first.kendall_tau(second) == len(disagreement_pairs(first, second))

    @given(permutation_pairs())
    @settings(max_examples=100, deadline=None)
    def test_distance_plus_reverse_distance_covers_all_pairs(self, pair):
        first, second = pair
        reversed_second = Arrangement(tuple(reversed(second.order)))
        n = len(first)
        assert first.kendall_tau(second) + first.kendall_tau(reversed_second) == n * (n - 1) // 2


class TestInversionCounting:
    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_quadratic_definition(self, values):
        quadratic = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i] > values[j]
        )
        assert count_inversions(values) == quadratic

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_sorted_input_has_zero_inversions(self, values):
        assert count_inversions(sorted(values)) == 0


class TestBlockOperationProperties:
    @given(
        st.integers(min_value=2, max_value=10),
        st.integers(min_value=0, max_value=10_000),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_slide_cost_equals_kendall_tau(self, n, seed, data):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        arrangement = Arrangement(order)
        # Pick two disjoint contiguous spans as block and target.
        block_start = data.draw(st.integers(min_value=0, max_value=n - 2))
        block_end = data.draw(st.integers(min_value=block_start, max_value=n - 2))
        target_start = data.draw(st.integers(min_value=block_end + 1, max_value=n - 1))
        target_end = data.draw(st.integers(min_value=target_start, max_value=n - 1))
        block = order[block_start : block_end + 1]
        target = order[target_start : target_end + 1]
        moved, cost = arrangement.slide_block_next_to(block, target)
        assert cost == arrangement.kendall_tau(moved)
        assert moved.is_contiguous(block)
        assert moved.is_contiguous(set(block) | set(target))

    @given(
        st.integers(min_value=2, max_value=9),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_block_rewrite_cost_equals_kendall_tau(
        self, n, seed, a_reversed, b_reversed, b_left, data
    ):
        # Rand's merged path: two adjacent parts, each laid out in path
        # order one way or the other, priced by the closed form.
        order = list(range(n))
        random.Random(seed).shuffle(order)
        arrangement = MutableArrangement(order)
        start = data.draw(st.integers(min_value=0, max_value=n - 2))
        end = data.draw(st.integers(min_value=start + 1, max_value=n - 1))
        cut = data.draw(st.integers(min_value=start + 1, max_value=end))
        left, right = order[start:cut], order[cut : end + 1]
        part_a, part_b = (right, left) if b_left else (left, right)
        path_a = part_a[::-1] if a_reversed else part_a
        path_b = part_b[::-1] if b_reversed else part_b
        merged = tuple(path_a + path_b)
        cost = forward_layout_cost(arrangement, merged, len(path_a))
        size = len(merged)
        backward = forward_layout_cost(arrangement, merged[::-1], len(path_b))
        assert cost + backward == size * (size - 1) // 2
        arrangement.set_block_order(merged)
        assert cost == Arrangement(order).kendall_tau(arrangement.snapshot())
        assert arrangement.snapshot().order == (
            tuple(order[:start]) + merged + tuple(order[end + 1 :])
        )
