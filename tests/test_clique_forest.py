"""Unit tests for the incremental clique-collection model."""

import random

import networkx as nx
import pytest

from repro.errors import RevealError
from repro.graphs.clique_forest import CliqueForest
from repro.workloads.generation import random_clique_merge_sequence


def merge_tree_orders(forest):
    """For every final clique, one node order keeping all historical sub-cliques contiguous.

    Concatenates, for every merge in reveal order, the orders already built
    for its two parts; laying out each final clique this way makes every
    clique of every prefix contiguous.  The oracle for the merge history.
    """
    orders = {frozenset([node]): (node,) for node in forest.nodes}
    for record in forest.history:
        orders[record.merged] = orders[record.first] + orders[record.second]
    return {component: orders[component] for component in forest.components()}


class TestCliqueForest:
    def test_initial_state(self):
        forest = CliqueForest(range(4))
        assert forest.num_components == 4
        assert forest.num_edges == 0
        assert forest.nodes == frozenset(range(4))
        assert forest.edges() == []

    def test_duplicate_universe_rejected(self):
        with pytest.raises(RevealError):
            CliqueForest([1, 1, 2])

    def test_merge_updates_components_and_edges(self):
        forest = CliqueForest(range(4))
        record = forest.merge(0, 1)
        assert record.merged == frozenset({0, 1})
        assert forest.num_components == 3
        assert forest.num_edges == 1
        forest.merge(0, 2)
        assert forest.component_of(2) == frozenset({0, 1, 2})
        assert forest.num_edges == 3
        assert forest.same_component(1, 2)

    def test_merge_within_component_rejected(self):
        forest = CliqueForest(range(3))
        forest.merge(0, 1)
        with pytest.raises(RevealError):
            forest.merge(0, 1)
        with pytest.raises(RevealError):
            forest.peek_merge(1, 0)

    def test_peek_merge_does_not_mutate(self):
        forest = CliqueForest(range(3))
        first, second = forest.peek_merge(0, 2)
        assert first == frozenset({0}) and second == frozenset({2})
        assert forest.num_components == 3

    def test_history_records_every_merge(self):
        forest = CliqueForest(range(4))
        forest.merge(0, 1)
        forest.merge(2, 3)
        forest.merge(0, 3)
        assert [record.merged for record in forest.history] == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({0, 1, 2, 3}),
        ]

    def test_to_networkx_is_clique_union(self):
        forest = CliqueForest(range(5))
        forest.merge(0, 1)
        forest.merge(1, 2)
        graph = forest.to_networkx()
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 3
        assert nx.is_isomorphic(
            graph.subgraph({0, 1, 2}), nx.complete_graph(3)
        )

    def test_copy_is_independent(self):
        forest = CliqueForest(range(3))
        forest.merge(0, 1)
        clone = forest.copy()
        clone.merge(0, 2)
        assert forest.num_components == 2
        assert clone.num_components == 1
        assert len(forest.history) == 1
        assert len(clone.history) == 2


class TestMergeTreeOrders:
    def test_orders_keep_historical_cliques_contiguous(self):
        forest = CliqueForest(range(6))
        forest.merge(0, 1)
        forest.merge(2, 3)
        forest.merge(0, 2)
        forest.merge(4, 5)
        orders = merge_tree_orders(forest)
        assert set(orders) == {frozenset({0, 1, 2, 3}), frozenset({4, 5})}
        big_order = orders[frozenset({0, 1, 2, 3})]
        # Every historical clique occupies consecutive positions in the order.
        for historical in (frozenset({0, 1}), frozenset({2, 3})):
            positions = sorted(big_order.index(node) for node in historical)
            assert positions[-1] - positions[0] + 1 == len(historical)

    def test_singleton_components(self):
        forest = CliqueForest(["a", "b"])
        orders = merge_tree_orders(forest)
        assert orders == {frozenset({"a"}): ("a",), frozenset({"b"}): ("b",)}


def _merge_steps(seed, n=24, final_components=3):
    """A seeded clique-merge reveal sequence's ``(u, v)`` pairs."""
    sequence = random_clique_merge_sequence(
        n, random.Random(seed), num_final_components=final_components
    )
    return [(step.u, step.v) for step in sequence.steps]


class TestComponentObjects:
    """Merges keep every unchanged clique's object and the union-find's order."""

    @pytest.mark.parametrize("seed", range(5))
    def test_a_merge_replaces_exactly_the_merged_clique(self, seed):
        forest = CliqueForest(range(24))
        for first, second in _merge_steps(seed):
            before = forest.components()
            part_a, part_b = forest.peek_merge(first, second)
            record = forest.merge(first, second)
            after = forest.components()
            assert (record.first, record.second) == (part_a, part_b)
            # The merged clique takes one part's slot; the other's is gone.
            layouts = [
                [record.merged if old is keep else old for old in before if old is not drop]
                for keep, drop in ((part_a, part_b), (part_b, part_a))
            ]
            assert after in layouts
            layout = layouts[layouts.index(after)]
            slot = after.index(record.merged)
            for index, (old, new) in enumerate(zip(layout, after)):
                if index != slot:
                    assert new is old
            assert forest.component_of(first) is after[slot]

    @pytest.mark.parametrize("seed", range(5))
    def test_order_equals_the_union_find_and_a_fresh_forest(self, seed):
        steps = _merge_steps(seed)
        forest = CliqueForest(range(24))
        for count, (first, second) in enumerate(steps, start=1):
            forest.merge(first, second)
            fresh = CliqueForest(range(24))
            for pair in steps[:count]:
                fresh.merge(*pair)
            assert forest.components() == fresh.components()
            assert forest.components() == forest._dsf.components()

    def test_copy_stays_independent_both_ways(self):
        forest = CliqueForest(range(6))
        forest.merge(0, 1)
        clone = forest.copy()
        clone.merge(2, 3)
        forest.merge(4, 5)
        assert forest.components() == [
            frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset({4, 5})
        ]
        assert clone.components() == [
            frozenset({0, 1}), frozenset({2, 3}), frozenset({4}), frozenset({5})
        ]
        assert forest.component_of(2) == frozenset({2})
        assert clone.component_of(4) == frozenset({4})
