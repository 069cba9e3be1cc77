"""Unit tests for the incremental clique-collection model."""

import networkx as nx
import pytest

from repro.errors import RevealError
from repro.graphs.clique_forest import CliqueForest


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
