"""Unit tests for the union-find substrate."""

import random

import pytest

from repro.errors import ReproError
from repro.graphs.components import DisjointSetForest


class TestDisjointSetForest:
    def test_initial_singletons(self):
        forest = DisjointSetForest(["a", "b", "c"])
        assert forest.num_components == 3
        assert forest.component_of("a") == frozenset({"a"})
        assert len(forest) == 3
        assert forest.nodes == frozenset({"a", "b", "c"})

    def test_union_merges_components(self):
        forest = DisjointSetForest(range(5))
        forest.union(0, 1)
        forest.union(2, 3)
        assert forest.num_components == 3
        assert forest.connected(0, 1)
        assert not forest.connected(0, 2)
        forest.union(1, 3)
        assert forest.connected(0, 2)
        assert forest.component_of(3) == frozenset({0, 1, 2, 3})
        assert forest.component_size(0) == 4

    def test_union_same_component_rejected(self):
        forest = DisjointSetForest([1, 2])
        forest.union(1, 2)
        with pytest.raises(ReproError):
            forest.union(1, 2)

    def test_find_unknown_node_rejected(self):
        forest = DisjointSetForest([1])
        with pytest.raises(ReproError):
            forest.find(99)

    def test_add_is_idempotent(self):
        forest = DisjointSetForest()
        forest.add("x")
        forest.add("x")
        assert forest.num_components == 1
        assert "x" in forest
        assert "y" not in forest

    def test_components_listing(self):
        forest = DisjointSetForest(range(4))
        forest.union(0, 1)
        components = sorted(tuple(sorted(c)) for c in forest.components())
        assert components == [(0, 1), (2,), (3,)]

    def test_copy_is_independent(self):
        forest = DisjointSetForest(range(4))
        forest.union(0, 1)
        clone = forest.copy()
        clone.union(2, 3)
        assert clone.num_components == 2
        assert forest.num_components == 3

    def test_union_by_size_keeps_all_members(self):
        forest = DisjointSetForest(range(10))
        for i in range(1, 10):
            forest.union(0, i)
        assert forest.component_of(5) == frozenset(range(10))
        assert forest.num_components == 1


def _random_unions(seed, n=24):
    """A seeded list of unions that joins ``n`` nodes into one component."""
    rng = random.Random(seed)
    forest = DisjointSetForest(range(n))
    unions = []
    while forest.num_components > 1:
        first, second = rng.sample(range(n), 2)
        if not forest.connected(first, second):
            forest.union(first, second)
            unions.append((first, second))
    return unions


class TestComponentOrder:
    @pytest.mark.parametrize("seed", range(5))
    def test_a_union_replaces_exactly_the_merged_component(self, seed):
        forest = DisjointSetForest(range(24))
        for first, second in _random_unions(seed):
            before = forest.components()
            part_a = forest.component_of(first)
            part_b = forest.component_of(second)
            survivor = forest.union(first, second)
            kept = forest.component_of(survivor)
            slot = before.index(part_a if survivor in part_a else part_b)
            dead = before.index(part_b if survivor in part_a else part_a)
            expected = list(before)
            expected[slot] = kept
            del expected[dead]
            assert forest.components() == expected
            assert kept == part_a | part_b

    @pytest.mark.parametrize("seed", range(5))
    def test_order_equals_a_freshly_built_forest_after_every_union(self, seed):
        unions = _random_unions(seed)
        forest = DisjointSetForest(range(24))
        for count, (first, second) in enumerate(unions, start=1):
            forest.union(first, second)
            fresh = DisjointSetForest(range(24))
            for pair in unions[:count]:
                fresh.union(*pair)
            assert forest.components() == fresh.components()

    def test_copy_stays_independent_both_ways(self):
        forest = DisjointSetForest(range(6))
        forest.union(0, 1)
        clone = forest.copy()
        clone.union(2, 3)
        forest.union(4, 5)
        assert forest.components() == [
            frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({4, 5})
        ]
        assert clone.components() == [
            frozenset({0, 1}), frozenset({2, 3}), frozenset({4}), frozenset({5})
        ]
