"""Property tests: the serve path's batch helpers equal their per-item loops.

The serving hot path pays once per batch where the result cannot tell the
difference.  Each helper here is held to the per-item loop it replaces:

* :meth:`FixedBucketHistogram.record_many` against ``record`` per value on
  a twin histogram — counts, ``min``, ``max`` and the float ``sum`` bit for
  bit, and, for a batch holding a negative, NaN or infinite value, the same
  :class:`~repro.errors.ObsError` after the same prefix;
* :meth:`SlotDistanceCache.costs` against ``cost`` per pair — values, cache
  contents and the hit/miss/eviction work counters, across rebinds;
* :meth:`DisjointSetForest.connected` (with its same-root fast path)
  against ``find(u) == find(v)`` over random union sequences.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permutation import random_arrangement
from repro.errors import ObsError, ReproError
from repro.graphs.components import DisjointSetForest
from repro.obs.profile import work_delta, work_snapshot
from repro.obs.registry import FixedBucketHistogram
from repro.vnet.distance_cache import SlotDistanceCache
from repro.vnet.embedding import Embedding
from repro.vnet.topology import LinearDatacenter

EDGES = (0.001, 0.01, 0.1, 1.0, 10.0)

good_values = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.integers(min_value=0, max_value=50),
    st.sampled_from([0.0, -0.0, 0.001, 10.0, 1e308]),
)
bad_values = st.sampled_from([-1.0, -1e-300, math.nan, math.inf, -math.inf])
batches = st.lists(
    st.lists(st.one_of(good_values, good_values, good_values, bad_values), max_size=12),
    max_size=6,
)


def _state(histogram):
    return (
        histogram._counts,
        histogram._sum.hex(),
        None if histogram._min is None else histogram._min.hex(),
        None if histogram._max is None else histogram._max.hex(),
    )


def _absorb(record, batch):
    """Apply one batch; the error message, or None."""
    try:
        record(batch)
    except ObsError as error:
        return str(error)
    return None


class TestRecordMany:
    @given(batches)
    @settings(max_examples=300, deadline=None)
    def test_equals_a_record_loop(self, case):
        batched = FixedBucketHistogram(EDGES)
        looped = FixedBucketHistogram(EDGES)

        def record_loop(batch):
            for value in batch:
                looped.record(value)

        for batch in case:
            assert _absorb(batched.record_many, batch) == _absorb(record_loop, batch)
            assert _state(batched) == _state(looped)

    @given(st.lists(good_values, max_size=12), bad_values, st.lists(good_values, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_a_bad_value_raises_after_its_prefix(self, head, bad, tail):
        batched = FixedBucketHistogram(EDGES)
        looped = FixedBucketHistogram(EDGES)
        for value in head:
            looped.record(value)
        with pytest.raises(ObsError, match="finite non-negative"):
            batched.record_many(head + [bad] + tail)
        assert _state(batched) == _state(looped)

    def test_an_overflowing_sum_is_recorded_as_record_would(self):
        batched = FixedBucketHistogram(EDGES)
        looped = FixedBucketHistogram(EDGES)
        values = [1e308, 1e308, 0.5]
        batched.record_many(values)
        for value in values:
            looped.record(value)
        assert batched._sum == math.inf
        assert _state(batched) == _state(looped)


@st.composite
def cache_cases(draw):
    """A node universe and a sequence of pair batches and rebinds."""
    size = draw(st.integers(min_value=2, max_value=9))
    nodes = list(range(size))
    pair = st.tuples(st.sampled_from(nodes), st.sampled_from(nodes))
    steps = draw(
        st.lists(
            st.one_of(
                st.lists(pair, max_size=10).map(lambda pairs: ("batch", pairs)),
                st.integers(min_value=0, max_value=2**16).map(lambda seed: ("rebind", seed)),
            ),
            max_size=8,
        )
    )
    return nodes, steps


class TestDistanceCacheCosts:
    @given(cache_cases())
    @settings(max_examples=150, deadline=None)
    def test_equals_a_cost_loop(self, case):
        nodes, steps = case
        datacenter = LinearDatacenter(len(nodes), communication_cost_per_hop=1.0 / 3.0)
        initial = Embedding(datacenter, random_arrangement(nodes, random.Random(0)))
        batched = SlotDistanceCache(initial)
        looped = SlotDistanceCache(initial)

        def run(cache, batch_call):
            before = work_snapshot()
            values = []
            for kind, payload in steps:
                if kind == "batch":
                    values.append(batch_call(cache, payload))
                else:
                    arrangement = random_arrangement(nodes, random.Random(payload))
                    values.append(cache.rebind(cache.embedding.with_arrangement(arrangement)))
            return values, work_delta(before, work_snapshot())

        batched_values, batched_work = run(batched, lambda cache, pairs: cache.costs(pairs))
        looped_values, looped_work = run(
            looped, lambda cache, pairs: [cache.cost(u, v) for u, v in pairs]
        )
        assert batched_values == looped_values
        assert list(batched._pair_cost.items()) == list(looped._pair_cost.items())
        assert batched._slot_of_node == looped._slot_of_node
        assert batched._pairs_by_node == looped._pairs_by_node
        assert batched_work == looped_work


class TestConnectedFastPath:
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(
                    st.tuples(
                        st.booleans(),
                        st.integers(min_value=0, max_value=size - 1),
                        st.integers(min_value=0, max_value=size - 1),
                    ),
                    max_size=40,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_find_equality(self, case):
        size, operations = case
        queried = DisjointSetForest(range(size))
        oracle = DisjointSetForest(range(size))
        for is_union, u, v in operations:
            expected = oracle.find(u) == oracle.find(v)
            assert queried.connected(u, v) == expected
            if is_union and not expected:
                queried.union(u, v)
                oracle.union(u, v)

    def test_unknown_nodes_raise_the_forest_error(self):
        forest = DisjointSetForest([0, 1])
        for pair in ((0, 7), (7, 0), (7, 8)):
            with pytest.raises(ReproError, match="not part of the forest"):
                forest.connected(*pair)
