"""Property tests for the inversion counter and its few-run fast path.

:func:`repro.telemetry.backends.count_inversions` answers sequences made of
a few consecutive runs in closed form and all others with a merge sort;
:func:`~repro.telemetry.backends.count_cross_inversions` counts the
out-of-order pairs of two sorted groups with a two-pointer pass.  These
tests hold both to the quadratic pair count of their definitions: on the
shapes the fast path accepts, on shapes it must reject, and on arbitrary
integer lists with duplicates and negatives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import work_snapshot
from repro.telemetry.backends import (
    _few_run_inversions,
    count_cross_inversions,
    count_inversions,
)


def _pair_count(values):
    """Pairs ``i < j`` with ``values[i] > values[j]``, by checking every pair."""
    return sum(
        1
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


def _cross_pair_count(left, right):
    """Pairs ``(x, y) ∈ left × right`` with ``x > y``, by checking every pair."""
    return sum(1 for x in left for y in right if x > y)


@st.composite
def few_run_permutations(draw, max_parts=8):
    """``range(n)`` (shifted) cut into ≤ ``max_parts`` parts, some reversed, shuffled."""
    n = draw(st.integers(min_value=0, max_value=300))
    cuts = (
        sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=n - 1),
                    max_size=max_parts - 1,
                    unique=True,
                )
            )
        )
        if n > 1
        else []
    )
    offset = draw(st.integers(min_value=-5, max_value=5))
    values = list(range(offset, offset + n))
    parts = [values[lo:hi] for lo, hi in zip([0] + cuts, cuts + [n])]
    flips = draw(st.lists(st.booleans(), min_size=len(parts), max_size=len(parts)))
    parts = [part[::-1] if flip else part for part, flip in zip(parts, flips)]
    order = draw(st.permutations(range(len(parts))))
    return [value for index in order for value in parts[index]]


class TestCountInversionsMatchesPairCount:
    @given(few_run_permutations())
    @settings(max_examples=200, deadline=None)
    def test_few_run_permutations(self, values):
        # At most eight parts means at most eight maximal runs: the closed
        # form must answer, and agree with the pair count.
        assert _few_run_inversions(values) is not None
        assert count_inversions(values) == _pair_count(values)

    @given(few_run_permutations(max_parts=16))
    @settings(max_examples=100, deadline=None)
    def test_many_run_permutations(self, values):
        assert count_inversions(values) == _pair_count(values)

    @given(st.integers(min_value=0, max_value=300).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=100, deadline=None)
    def test_shuffled_permutations(self, values):
        assert count_inversions(values) == _pair_count(values)

    @given(st.lists(st.integers(min_value=-4, max_value=4), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_small_integers_with_duplicates_and_negatives(self, values):
        assert count_inversions(values) == _pair_count(values)

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_integer_lists(self, values):
        assert count_inversions(values) == _pair_count(values)

    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_tuples_count_like_lists(self, values):
        assert count_inversions(tuple(values)) == _pair_count(values)


class TestCountCrossInversionsMatchesPairCount:
    @given(
        st.lists(st.integers(min_value=-20, max_value=20), max_size=150),
        st.lists(st.integers(min_value=-20, max_value=20), max_size=150),
    )
    @settings(max_examples=200, deadline=None)
    def test_groups_with_shared_values(self, left, right):
        left, right = sorted(left), sorted(right)
        assert count_cross_inversions(left, right) == _cross_pair_count(left, right)

    @given(
        st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=150),
        st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=150),
    )
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_groups(self, left, right):
        left, right = sorted(left), sorted(right)
        assert count_cross_inversions(left, right) == _cross_pair_count(left, right)


class TestConcatenation:
    @given(
        st.lists(st.integers(min_value=-30, max_value=30), max_size=150),
        st.lists(st.integers(min_value=-30, max_value=30), max_size=150),
    )
    @settings(max_examples=100, deadline=None)
    def test_inversions_split_across_a_cut(self, left, right):
        # Every inverted pair of ``left + right`` lies inside ``left``, inside
        # ``right``, or straddles the cut; the straddling ones are exactly the
        # cross inversions of the two sorted halves.
        assert count_inversions(left + right) == (
            count_inversions(left)
            + count_inversions(right)
            + count_cross_inversions(sorted(left), sorted(right))
        )


#: ``(values, answered)``: whether the closed form must answer ``values``.
FEW_RUN_BOUNDARIES = {
    "empty": ([], True),
    "single": ([7], True),
    "eight_single_element_runs": ([14, 12, 10, 8, 0, 2, 4, 6], True),
    "nine_single_element_runs": ([16, 12, 8, 4, 0, 2, 6, 10, 14], False),
    "eight_pairs_in_descending_blocks": (
        [v for k in range(7, -1, -1) for v in (2 * k, 2 * k + 1)],
        True,
    ),
    "nine_pairs_in_descending_blocks": (
        [v for k in range(8, -1, -1) for v in (2 * k, 2 * k + 1)],
        False,
    ),
    "block_slid_right": ([3, 4, 5, 0, 1, 2, 6, 7], True),
    "block_slid_right_and_flipped": ([3, 4, 5, 2, 1, 0, 6, 7], True),
    "long_descending_run": (list(range(99, -1, -1)), True),
    "overlapping_ascending_runs": ([5, 6, 7, 0, 1, 2, 6, 7], False),
    "peak_shape": ([0, 1, 2, 3, 2, 1, 0], False),
    "repeated_value": ([1, 1, 0], False),
    "float_steps_end_runs": ([2.0, 1.0, 0.0], True),
}


class TestFewRunBoundaries:
    @pytest.mark.parametrize(
        "values, answered",
        list(FEW_RUN_BOUNDARIES.values()),
        ids=list(FEW_RUN_BOUNDARIES),
    )
    def test_closed_form_answers_or_falls_through(self, values, answered):
        few_run = _few_run_inversions(values)
        if answered:
            assert few_run == _pair_count(values)
        else:
            assert few_run is None
        assert count_inversions(values) == _pair_count(values)


class TestFastPathKeepsCounters:
    def test_dispatch_counters_count_fast_path_calls(self):
        values = list(range(10, 20)) + list(range(9, -1, -1))
        assert _few_run_inversions(values) is not None
        before = work_snapshot()
        assert count_inversions(values) == _pair_count(values)
        after = work_snapshot()
        assert after["telemetry.backends.calls"] - before.get("telemetry.backends.calls", 0) == 1
        assert (
            after["telemetry.backends.elements"]
            - before.get("telemetry.backends.elements", 0)
            == len(values)
        )

    def test_overlapping_or_too_many_runs_fall_through(self):
        # Two ascending runs whose value ranges overlap.
        assert _few_run_inversions([0, 1, 2, 1, 2, 3]) is None
        # Nine single-element runs.
        assert _few_run_inversions([16, 12, 8, 4, 0, 2, 6, 10, 14]) is None
        # Single-element runs are still runs: ≤ 8 of them are answered.
        assert _few_run_inversions([0, 2, 4, 1, 3]) == 3
