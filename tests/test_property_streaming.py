"""Property tests pinning the tenant-traffic draws to the stdlib calls.

:func:`~repro.workloads.streaming.iter_tenant_requests` makes the draws of
``rng.choices(groups, cum_weights=...)[0]`` and ``rng.sample(group, 2)``
directly: one ``bisect`` over the cumulative weights, then the
``_randbelow`` draws of ``sample``'s pool-swap branch (groups of at most
:data:`~repro.workloads.streaming.SAMPLE_POOL_MAX` members) or of its
rejection-set branch (larger groups).  These tests keep the stdlib loop as
the oracle and require the same requests and the same generator state
afterwards, over seeds, both weightings and group sizes on both sides of the
branch boundary.  They run on every Python the project supports, so a
change to CPython's ``random`` shows here first.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic_minla import requests_from_clique_pattern
from repro.errors import ReproError
from repro.workloads.streaming import (
    SAMPLE_POOL_MAX,
    iter_tenant_requests,
    pair_count_weights,
    split_groups,
    zipf_weights,
)

seeds = st.one_of(st.integers(min_value=-(2**63), max_value=2**63), st.text(max_size=8))
# Every list holds a pool-swap size and a rejection-set size, in any order.
group_sizes = (
    st.tuples(
        st.integers(min_value=2, max_value=SAMPLE_POOL_MAX),
        st.integers(min_value=SAMPLE_POOL_MAX + 1, max_value=40),
        st.lists(st.integers(min_value=2, max_value=40), max_size=6),
    )
    .map(lambda drawn: [drawn[0], drawn[1], *drawn[2]])
    .flatmap(st.permutations)
)
weightings = st.sampled_from(["pairs", "zipf"])
exponents = st.floats(min_value=0.2, max_value=3.0, allow_nan=False)


def _weights(groups, weighting, exponent):
    if weighting == "pairs":
        return pair_count_weights(groups)
    return zipf_weights(len(groups), exponent)


def _stdlib_requests(groups, weights, num_requests, rng):
    """The tenant-traffic loop as written against the stdlib calls."""
    cumulative = list(itertools.accumulate(weights))
    requests = []
    for _ in range(num_requests):
        group = rng.choices(groups, cum_weights=cumulative)[0]
        u, v = rng.sample(group, 2)
        requests.append((u, v))
    return requests


def _assert_same_draws(groups, weights, num_requests, seed):
    oracle_rng = random.Random(seed)
    expected = _stdlib_requests(groups, weights, num_requests, oracle_rng)
    rng = random.Random(seed)
    assert list(iter_tenant_requests(groups, weights, num_requests, rng)) == expected
    assert rng.getstate() == oracle_rng.getstate()


class TestTenantDraws:
    @given(seeds, group_sizes, weightings, exponents, st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_matches_choices_and_sample(
        self, seed, sizes, weighting, exponent, num_requests
    ):
        groups = split_groups(sizes)
        _assert_same_draws(
            groups, _weights(groups, weighting, exponent), num_requests, seed
        )

    @pytest.mark.parametrize(
        "size", [2, 3, SAMPLE_POOL_MAX - 1, SAMPLE_POOL_MAX, SAMPLE_POOL_MAX + 1, 40]
    )
    @pytest.mark.parametrize("seed", range(8))
    def test_single_group_at_the_branch_boundary(self, size, seed):
        groups = split_groups([size])
        _assert_same_draws(groups, pair_count_weights(groups), 2_000, seed)

    @given(seeds, group_sizes, st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_dynamic_requests_match_choices_by_weights(self, seed, sizes, num_requests):
        # requests_from_clique_pattern once called rng.choices(groups,
        # weights=...), which accumulates the same cumulative list.
        oracle_rng = random.Random(seed)
        groups = split_groups(sizes)
        weights = pair_count_weights(groups)
        expected = []
        for _ in range(num_requests):
            group = oracle_rng.choices(groups, weights=weights)[0]
            expected.append(tuple(oracle_rng.sample(group, 2)))
        rng = random.Random(seed)
        nodes, requests = requests_from_clique_pattern(sizes, num_requests, rng)
        assert nodes == list(range(sum(sizes)))
        assert [(request.u, request.v) for request in requests] == expected
        assert rng.getstate() == oracle_rng.getstate()


class TestTenantDrawErrors:
    @pytest.mark.parametrize(
        "weights",
        [[0, 0], [1, -1], [1.0, math.inf], [1.0, math.nan], [1, 2, 3]],
    )
    def test_invalid_weights_raise_what_choices_raises(self, weights):
        groups = split_groups([3, 4])
        with pytest.raises(ValueError) as expected:
            random.Random(0).choices(groups, cum_weights=list(itertools.accumulate(weights)))
        with pytest.raises(ValueError) as raised:
            next(iter_tenant_requests(groups, weights, 5, random.Random(0)))
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("groups", [[[0, 1], [2]], [[0, 1], []]])
    def test_a_group_too_small_for_a_pair_raises(self, groups):
        with pytest.raises(ReproError, match="at least two"):
            next(iter_tenant_requests(groups, [1, 1], 5, random.Random(0)))
