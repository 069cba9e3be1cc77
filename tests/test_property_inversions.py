"""Property tests for the inversion-count dispatch and its few-run fast path.

:func:`repro.telemetry.backends.count_inversions` answers sequences made of
a few consecutive runs in closed form before it reaches the active backend.
These tests hold the dispatch to the merge-sort reference (and to the numpy
backend when numpy is installed) on the shapes the fast path accepts, on
shapes it must reject, and on sequences with duplicates and negatives.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.profile import work_snapshot
from repro.telemetry.backends import (
    MergeSortBackend,
    NumpyBackend,
    _few_run_inversions,
    count_inversions,
    numpy_available,
)

REFERENCE = MergeSortBackend()


def _assert_matches_backends(values):
    expected = REFERENCE.count_inversions(values)
    assert count_inversions(values) == expected
    if numpy_available():
        assert NumpyBackend().count_inversions(values) == expected


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


class TestCountInversionsMatchesBackends:
    @given(few_run_permutations())
    @settings(max_examples=200, deadline=None)
    def test_few_run_permutations(self, values):
        # At most eight parts means at most eight maximal runs: the closed
        # form must answer, and agree with the backends.
        assert _few_run_inversions(values) is not None
        _assert_matches_backends(values)

    @given(few_run_permutations(max_parts=16))
    @settings(max_examples=100, deadline=None)
    def test_many_run_permutations(self, values):
        _assert_matches_backends(values)

    @given(st.integers(min_value=0, max_value=300).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=100, deadline=None)
    def test_shuffled_permutations(self, values):
        _assert_matches_backends(values)

    @given(st.lists(st.integers(min_value=-4, max_value=4), max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_small_integers_with_duplicates_and_negatives(self, values):
        _assert_matches_backends(values)


class TestFastPathKeepsCounters:
    def test_dispatch_counters_count_fast_path_calls(self):
        values = list(range(10, 20)) + list(range(9, -1, -1))
        assert _few_run_inversions(values) is not None
        before = work_snapshot()
        assert count_inversions(values) == REFERENCE.count_inversions(values)
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
