"""Property tests for the closest-arrangement solver's ordering DP.

:func:`repro.minla.closest._exact_order_dp` pulls each subset state from its
predecessors in ``O(2^m · m)``.  These tests hold it to the layered
``O(2^m · m²)`` push DP it replaced, copied below as the reference, on
tie-heavy cost matrices where the tie-break decides the order; to a
brute-force minimum over all block orders; and hold the one-pass cross
matrix of :func:`repro.minla.closest._pairwise_inversions` to pairwise
:func:`repro.telemetry.backends.count_cross_inversions` counts.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.permutation import Arrangement
from repro.minla.closest import (
    Block,
    BlockKind,
    _exact_order_dp,
    _order_cost,
    _pairwise_inversions,
)
from repro.telemetry.backends import count_cross_inversions


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


class TestExactOrderDP:
    @given(tie_heavy_matrices(max_blocks=9))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_dp(self, inv):
        assert _exact_order_dp(inv) == _reference_order_dp(inv)

    @given(tie_heavy_matrices(max_blocks=7))
    @settings(max_examples=60, deadline=None)
    def test_cost_is_the_brute_force_minimum(self, inv):
        order, cost = _exact_order_dp(inv)
        assert sorted(order) == list(range(len(inv)))
        assert _order_cost(order, inv) == cost
        assert cost == min(
            _order_cost(candidate, inv)
            for candidate in itertools.permutations(range(len(inv)))
        )


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
