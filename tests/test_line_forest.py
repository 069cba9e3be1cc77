"""Unit tests for the incremental line-collection (path) model."""

import pytest

from repro.errors import RevealError
from repro.graphs.line_forest import LineForest


class TestLineForest:
    def test_initial_state(self):
        forest = LineForest(range(3))
        assert forest.num_components == 3
        assert forest.num_edges == 0
        assert forest.paths() == [(0,), (1,), (2,)] or len(forest.paths()) == 3
        assert all(forest.is_endpoint(node) for node in range(3))

    def test_duplicate_universe_rejected(self):
        with pytest.raises(RevealError):
            LineForest([1, 1])

    def test_add_edge_builds_paths_in_order(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        forest.add_edge(2, 1)
        assert forest.path_of(0) in ((0, 1, 2), (2, 1, 0))
        forest.add_edge(3, 0)
        path = forest.path_of(1)
        assert path in ((3, 0, 1, 2), (2, 1, 0, 3))
        assert forest.num_edges == 3
        assert forest.num_components == 1

    def test_add_edge_same_component_rejected(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        with pytest.raises(RevealError):
            forest.add_edge(1, 0)

    def test_add_edge_to_path_interior_rejected(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        # Node 1 is now in the interior of the path 0-1-2.
        with pytest.raises(RevealError):
            forest.add_edge(3, 1)

    def test_add_edge_unknown_node_rejected(self):
        forest = LineForest(range(2))
        with pytest.raises(RevealError):
            forest.add_edge(0, 99)

    def test_peek_edge_does_not_mutate(self):
        forest = LineForest(range(3))
        first, second = forest.peek_edge(0, 2)
        assert first == (0,) and second == (2,)
        assert forest.num_edges == 0

    def test_merge_record_contents(self):
        forest = LineForest(range(4))
        forest.add_edge(0, 1)
        record = forest.add_edge(2, 0)
        assert record.endpoint_first == 2
        assert record.endpoint_second == 0
        assert record.first == (2,)
        assert set(record.second) == {0, 1}
        assert record.merged in ((2, 0, 1), (1, 0, 2))

    def test_edges_and_networkx(self):
        forest = LineForest(range(5))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        forest.add_edge(3, 4)
        graph = forest.to_networkx()
        assert graph.number_of_edges() == 3
        degrees = sorted(dict(graph.degree()).values())
        assert degrees == [1, 1, 1, 1, 2]

    def test_is_endpoint(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        forest.add_edge(1, 2)
        assert forest.is_endpoint(0)
        assert forest.is_endpoint(2)
        assert not forest.is_endpoint(1)

    def test_copy_is_independent(self):
        forest = LineForest(range(3))
        forest.add_edge(0, 1)
        clone = forest.copy()
        clone.add_edge(1, 2)
        assert forest.num_edges == 1
        assert clone.num_edges == 2
