"""Tests for the general-graph MinLA heuristics."""

import networkx as nx
import pytest

from repro.errors import SolverError
from repro.minla import heuristics
from repro.minla.cost import linear_arrangement_cost
from repro.minla.exact import exact_minla_value
from repro.minla.heuristics import (
    greedy_insertion_arrangement,
    heuristic_minla,
    local_search_refinement,
    spectral_arrangement,
)

needs_numpy = pytest.mark.skipif(
    heuristics._numpy() is None, reason="the spectral ordering requires numpy"
)


@needs_numpy
class TestSpectralArrangement:
    def test_path_graph_is_recovered(self):
        graph = nx.path_graph(8)
        arrangement = spectral_arrangement(graph)
        cost = linear_arrangement_cost(arrangement, graph)
        assert cost == 7  # the spectral order of a path is the path itself

    def test_covers_all_nodes(self):
        graph = nx.random_regular_graph(3, 10, seed=1)
        arrangement = spectral_arrangement(graph)
        assert arrangement.nodes == frozenset(graph.nodes())

    def test_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        graph.add_node(4)
        arrangement = spectral_arrangement(graph)
        assert len(arrangement) == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(SolverError):
            spectral_arrangement(nx.Graph())


class TestGreedyInsertion:
    def test_covers_all_nodes(self):
        graph = nx.complete_bipartite_graph(3, 4)
        arrangement = greedy_insertion_arrangement(graph)
        assert arrangement.nodes == frozenset(graph.nodes())

    def test_single_node_graph(self):
        graph = nx.Graph()
        graph.add_node("solo")
        arrangement = greedy_insertion_arrangement(graph)
        assert arrangement.order == ("solo",)

    def test_empty_graph_rejected(self):
        with pytest.raises(SolverError):
            greedy_insertion_arrangement(nx.Graph())


class TestLocalSearchAndDriver:
    def test_local_search_never_worsens(self):
        graph = nx.cycle_graph(8)
        start = greedy_insertion_arrangement(graph)
        refined = local_search_refinement(graph, start)
        assert linear_arrangement_cost(refined, graph) <= linear_arrangement_cost(
            start, graph
        )

    def test_heuristic_exact_on_paths_and_cliques(self):
        for graph in (nx.path_graph(7), nx.complete_graph(6)):
            _, cost = heuristic_minla(graph)
            assert cost == exact_minla_value(graph)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_heuristic_close_to_optimum_on_small_random_graphs(self, seed):
        graph = nx.gnp_random_graph(8, 0.4, seed=seed)
        if graph.number_of_edges() == 0:
            graph.add_edge(0, 1)
        arrangement, cost = heuristic_minla(graph)
        optimum = exact_minla_value(graph)
        assert cost == linear_arrangement_cost(arrangement, graph)
        assert cost <= 2 * max(optimum, 1)

    def test_heuristic_without_refinement(self):
        graph = nx.path_graph(6)
        _, cost = heuristic_minla(graph, refine=False)
        assert cost >= exact_minla_value(graph)
