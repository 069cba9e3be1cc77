"""Property tests for :func:`repro.obs.registry.merge_histograms`.

Bucket counts are integers, so merging snapshots that share one edge
layout must give the same counts, ``min`` and ``max`` under any grouping
and any order of the parts, ``count`` must add up over the parts, and the
merge must equal one histogram that recorded every part's values.
Snapshots over different edges must refuse to merge.  The float ``sum`` is
exempt from bit-identity (its last ulp depends on the order of additions)
and is only held close to the exact total.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.registry import FixedBucketHistogram, merge_histograms

values = st.floats(min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False)

edge_layouts = (
    st.lists(
        st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=8,
        unique=True,
    )
    .map(sorted)
    .map(tuple)
)


@st.composite
def histogram_parts(draw):
    """One edge layout and 1–6 lists of recorded values, some possibly empty."""
    edges = draw(edge_layouts)
    parts = draw(st.lists(st.lists(values, max_size=20), min_size=1, max_size=6))
    return edges, parts


def _snapshot(edges, recorded):
    histogram = FixedBucketHistogram(edges)
    for value in recorded:
        histogram.record(value)
    return histogram.snapshot()


def _exact_fields(snapshot):
    return snapshot.counts, snapshot.min, snapshot.max


class TestMergeHistograms:
    @given(histogram_parts(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_order_does_not_matter(self, case, data):
        edges, parts = case
        snapshots = [_snapshot(edges, part) for part in parts]
        shuffled = data.draw(st.permutations(snapshots))
        assert _exact_fields(merge_histograms(shuffled)) == _exact_fields(
            merge_histograms(snapshots)
        )

    @given(histogram_parts(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_grouping_does_not_matter(self, case, data):
        edges, parts = case
        snapshots = [_snapshot(edges, part) for part in parts]
        count = len(snapshots)
        cuts = sorted(
            cut
            for cut in data.draw(st.sets(st.integers(min_value=1, max_value=max(count - 1, 1))))
            if cut < count
        )
        groups = [snapshots[lo:hi] for lo, hi in zip([0] + cuts, cuts + [count])]
        grouped = merge_histograms(merge_histograms(group) for group in groups)
        right_fold = snapshots[-1]
        for snapshot in reversed(snapshots[:-1]):
            right_fold = snapshot.merge(right_fold)
        reference = _exact_fields(merge_histograms(snapshots))
        assert _exact_fields(grouped) == reference
        assert _exact_fields(right_fold) == reference

    @given(histogram_parts())
    @settings(max_examples=100, deadline=None)
    def test_count_adds_up_and_matches_one_histogram(self, case):
        edges, parts = case
        snapshots = [_snapshot(edges, part) for part in parts]
        merged = merge_histograms(snapshots)
        everything = [value for part in parts for value in part]
        assert merged.count == sum(snapshot.count for snapshot in snapshots)
        assert merged.count == len(everything)
        assert _exact_fields(merged) == _exact_fields(_snapshot(edges, everything))
        assert math.isclose(merged.sum, math.fsum(everything), rel_tol=1e-9, abs_tol=1e-9)

    @given(histogram_parts(), edge_layouts, st.lists(values, max_size=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mismatched_edges_raise(self, case, other_edges, other_values, data):
        edges, parts = case
        assume(other_edges != edges)
        snapshots = [_snapshot(edges, part) for part in parts]
        position = data.draw(st.integers(min_value=0, max_value=len(snapshots)))
        snapshots.insert(position, _snapshot(other_edges, other_values))
        with pytest.raises(ObsError, match="different bucket edges"):
            merge_histograms(snapshots)
