"""Unit tests for arrangements, Kendall-tau distances and block operations."""

import pytest

from repro.core.permutation import (
    Arrangement,
    count_inversions,
    random_arrangement,
)
from repro.errors import ArrangementError
from repro.telemetry import count_cross_inversions


class TestCountInversions:
    def test_sorted_sequence_has_no_inversions(self):
        assert count_inversions([1, 2, 3, 4, 5]) == 0

    def test_reverse_sorted_sequence_has_all_inversions(self):
        assert count_inversions([5, 4, 3, 2, 1]) == 10

    def test_single_element_and_empty(self):
        assert count_inversions([]) == 0
        assert count_inversions([7]) == 0

    def test_small_example(self):
        assert count_inversions([2, 1, 3]) == 1
        assert count_inversions([3, 1, 2]) == 2

    def test_matches_quadratic_count(self):
        values = [5, 1, 4, 2, 8, 0, 3, 9, 7, 6]
        quadratic = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i] > values[j]
        )
        assert count_inversions(values) == quadratic

    def test_handles_duplicates(self):
        assert count_inversions([2, 2, 1]) == 2


class TestArrangementBasics:
    def test_construction_and_positions(self):
        arrangement = Arrangement(["a", "b", "c"])
        assert arrangement.position("a") == 0
        assert arrangement.position("c") == 2
        assert len(arrangement) == 3
        assert list(arrangement) == ["a", "b", "c"]
        assert arrangement[1] == "b"
        assert "b" in arrangement
        assert "z" not in arrangement

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ArrangementError):
            Arrangement(["a", "b", "a"])

    def test_identity_constructor(self):
        arrangement = Arrangement.identity(4)
        assert arrangement.order == (0, 1, 2, 3)

    def test_identity_negative_size_rejected(self):
        with pytest.raises(ArrangementError):
            Arrangement.identity(-1)

    def test_unknown_node_raises(self):
        arrangement = Arrangement(["a"])
        with pytest.raises(ArrangementError):
            arrangement.position("zzz")

    def test_equality_and_hash(self):
        first = Arrangement([1, 2, 3])
        second = Arrangement([1, 2, 3])
        third = Arrangement([3, 2, 1])
        assert first == second
        assert hash(first) == hash(second)
        assert first != third
        assert first != "not an arrangement"

    def test_left_of(self):
        arrangement = Arrangement(["a", "b", "c"])
        assert arrangement.left_of("a", "c")
        assert not arrangement.left_of("c", "a")

    def test_restricted_order(self):
        arrangement = Arrangement([3, 1, 4, 1.5, 9, 2])
        assert arrangement.restricted_order({9, 1, 2}) == (1, 9, 2)

    def test_restricted_order_unknown_node(self):
        arrangement = Arrangement([1, 2])
        with pytest.raises(ArrangementError):
            arrangement.restricted_order({5})

    def test_span_and_contiguity(self):
        arrangement = Arrangement(["a", "b", "c", "d"])
        assert arrangement.span({"b", "d"}) == (1, 3)
        assert arrangement.is_contiguous({"b", "c"})
        assert not arrangement.is_contiguous({"a", "c"})
        assert arrangement.is_contiguous({"c"})

    def test_span_of_empty_set_rejected(self):
        arrangement = Arrangement(["a"])
        with pytest.raises(ArrangementError):
            arrangement.span([])
        with pytest.raises(ArrangementError):
            arrangement.is_contiguous([])

    def test_positions_returns_copy(self):
        arrangement = Arrangement(["a", "b"])
        positions = arrangement.positions()
        positions["a"] = 99
        assert arrangement.position("a") == 0


class TestKendallTau:
    def test_identical_arrangements(self):
        arrangement = Arrangement([1, 2, 3, 4])
        assert arrangement.kendall_tau(arrangement) == 0

    def test_adjacent_swap_costs_one(self):
        first = Arrangement([1, 2, 3, 4])
        second = Arrangement([1, 3, 2, 4])
        assert first.kendall_tau(second) == 1

    def test_reversal_costs_all_pairs(self):
        first = Arrangement(list(range(6)))
        second = Arrangement(list(reversed(range(6))))
        assert first.kendall_tau(second) == 15

    def test_symmetry(self):
        first = Arrangement([3, 0, 2, 1, 4])
        second = Arrangement([4, 2, 0, 1, 3])
        assert first.kendall_tau(second) == second.kendall_tau(first)

    def test_different_node_sets_rejected(self):
        with pytest.raises(ArrangementError):
            Arrangement([1, 2]).kendall_tau(Arrangement([1, 3]))

    def test_cross_inversions_between_groups(self):
        arrangement = Arrangement(["a", "x", "b", "y", "c"])
        left = sorted(arrangement.positions_of(["a", "b", "c"]))
        right = sorted(arrangement.positions_of(["x", "y"]))
        # Pairs (l, r) with the left-group node l to the right of the
        # right-group node r: a contributes 0, b is after x (1), c is after
        # both x and y (2) -- three inverted pairs in total.
        assert count_cross_inversions(left, right) == 3
        # Placing the left group first costs exactly these swaps.
        grouped = Arrangement(["a", "b", "c", "x", "y"])
        assert arrangement.kendall_tau(grouped) == 3


class TestElementaryMoves:
    def test_adjacent_swap(self):
        arrangement = Arrangement([1, 2, 3])
        swapped = arrangement.adjacent_swap(0)
        assert swapped.order == (2, 1, 3)
        assert arrangement.order == (1, 2, 3)  # immutability

    def test_adjacent_swap_out_of_range(self):
        arrangement = Arrangement([1, 2, 3])
        with pytest.raises(ArrangementError):
            arrangement.adjacent_swap(2)
        with pytest.raises(ArrangementError):
            arrangement.adjacent_swap(-1)


class TestBlockOperations:
    def test_slide_block_right(self):
        arrangement = Arrangement(["x1", "x2", "f1", "f2", "f3", "z1"])
        moved, cost = arrangement.slide_block_next_to(["x1", "x2"], ["z1"])
        assert moved.order == ("f1", "f2", "f3", "x1", "x2", "z1")
        assert cost == 2 * 3
        assert arrangement.kendall_tau(moved) == cost

    def test_slide_block_left(self):
        arrangement = Arrangement(["z1", "f1", "f2", "x1", "x2"])
        moved, cost = arrangement.slide_block_next_to(["x1", "x2"], ["z1"])
        assert moved.order == ("z1", "x1", "x2", "f1", "f2")
        assert cost == 4
        assert arrangement.kendall_tau(moved) == cost

    def test_slide_block_already_adjacent(self):
        arrangement = Arrangement(["a", "b", "c"])
        moved, cost = arrangement.slide_block_next_to(["a"], ["b", "c"])
        assert moved == arrangement
        assert cost == 0

    def test_slide_block_requires_contiguous_block(self):
        arrangement = Arrangement(["a", "b", "c", "d"])
        with pytest.raises(ArrangementError):
            arrangement.slide_block_next_to(["a", "c"], ["d"])

    def test_slide_block_requires_disjoint_sets(self):
        arrangement = Arrangement(["a", "b", "c"])
        with pytest.raises(ArrangementError):
            arrangement.slide_block_next_to(["a", "b"], ["b", "c"])

    def test_slide_block_rejects_a_repeated_node(self):
        # ["a", "a"] spans one position; charging it as two nodes would
        # report 6 swaps for a move of Kendall-tau distance 3.
        arrangement = Arrangement("abcde")
        with pytest.raises(ArrangementError, match="duplicate node"):
            arrangement.slide_block_next_to(["a", "a"], ["e"])
        with pytest.raises(ArrangementError, match="duplicate node"):
            arrangement.slide_block_next_to(["a"], ["e", "e"])

    def test_empty_block_rejected(self):
        arrangement = Arrangement([0, 1, 2])
        with pytest.raises(ArrangementError):
            arrangement.slide_block_next_to([], [2])


class TestHelpers:
    def test_random_arrangement_is_permutation(self):
        import random

        rng = random.Random(7)
        arrangement = random_arrangement(range(20), rng)
        assert arrangement.nodes == frozenset(range(20))
        assert len(arrangement) == 20

    def test_random_arrangement_reproducible(self):
        import random

        first = random_arrangement(range(10), random.Random(3))
        second = random_arrangement(range(10), random.Random(3))
        assert first == second
