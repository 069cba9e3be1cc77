"""Property tests for the head-sampling decision of span tracing.

:class:`~repro.obs.spans.SpanSampler` decides per request index whether to
trace it, as a pure function of ``(seed, index)``, but caches one 64-index
block of decisions at a time.  These tests hold the cached sampler to that
pure function: the decisions do not depend on which indices were asked
before, the skip-ahead scan agrees with one-by-one queries, a clone decides
the same, and the rates 0 and 1 behave as documented.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObsError
from repro.obs.spans import SpanSampler

seeds = st.one_of(st.integers(min_value=-(2**31), max_value=2**31), st.text(max_size=6))
rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_rates = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
indices = st.lists(st.integers(min_value=0, max_value=5_000), min_size=1, max_size=60)


def _uncached(seed, rate, index):
    """The decision for ``index`` from a sampler that has seen nothing else."""
    return SpanSampler(seed, rate).sampled(index)


class TestSpanSampler:
    @given(seeds, rates, indices, st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_decisions_do_not_depend_on_query_order(self, seed, rate, queries, rng):
        in_order = SpanSampler(seed, rate)
        decisions = {index: in_order.sampled(index) for index in queries}
        shuffled = list(queries)
        rng.shuffle(shuffled)
        other = SpanSampler(seed, rate)
        assert {index: other.sampled(index) for index in shuffled} == decisions
        for index in queries[:10]:
            assert decisions[index] == _uncached(seed, rate, index)

    @given(seeds, positive_rates, st.integers(min_value=0, max_value=5_000), indices)
    @settings(max_examples=80, deadline=None)
    def test_next_sampled_is_the_first_sampled_index_at_or_after_start(
        self, seed, rate, start, warm_up
    ):
        sampler = SpanSampler(seed, rate)
        for index in warm_up:
            sampler.sampled(index)
        found = sampler.next_sampled(start)
        fresh = SpanSampler(seed, rate)
        assert found >= start
        assert fresh.sampled(found)
        assert not any(fresh.sampled(index) for index in range(start, found))

    @given(seeds, rates, indices, indices)
    @settings(max_examples=60, deadline=None)
    def test_clone_makes_the_same_decisions(self, seed, rate, warm_up, queries):
        sampler = SpanSampler(seed, rate)
        for index in warm_up:
            sampler.sampled(index)
        clone = sampler.clone()
        assert clone.rate == sampler.rate
        assert [clone.sampled(i) for i in queries] == [sampler.sampled(i) for i in queries]
        if rate > 0.0:
            start = min(queries)
            assert clone.next_sampled(start) == SpanSampler(seed, rate).next_sampled(start)

    @given(seeds, indices)
    @settings(max_examples=40, deadline=None)
    def test_rates_zero_and_one(self, seed, queries):
        never = SpanSampler(seed, 0.0)
        always = SpanSampler(seed, 1.0)
        assert not any(never.sampled(index) for index in queries)
        assert all(always.sampled(index) for index in queries)
        assert [always.next_sampled(index) for index in queries] == queries
        with pytest.raises(ObsError):
            never.next_sampled(queries[0])

    @pytest.mark.parametrize("rate", [-0.01, 1.01, float("inf")])
    def test_rates_outside_the_unit_interval_are_rejected(self, rate):
        with pytest.raises(ObsError):
            SpanSampler(0, rate)

    def test_a_rate_samples_about_that_share(self):
        rng = random.Random(0)
        for rate in (0.1, 0.5, 0.9):
            sampler = SpanSampler(rng.random(), rate)
            share = sum(sampler.sampled(index) for index in range(20_000)) / 20_000
            assert abs(share - rate) < 0.02
