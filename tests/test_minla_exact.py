"""Tests for the brute-force offline MinLA solver."""

import networkx as nx
import pytest

from repro.errors import SolverError
from repro.minla.cost import (
    linear_arrangement_cost,
    optimal_clique_collection_cost,
    optimal_clique_cost,
    optimal_line_collection_cost,
    optimal_path_cost,
)
from repro.minla.exact import (
    all_minla_arrangements,
    exact_minla_arrangement,
    exact_minla_value,
)


class TestExactValue:
    def test_path_graph(self):
        assert exact_minla_value(nx.path_graph(6)) == optimal_path_cost(6)

    def test_complete_graph(self):
        assert exact_minla_value(nx.complete_graph(5)) == optimal_clique_cost(5)

    def test_cycle_graph(self):
        # The optimal arrangement of a cycle C_n costs 2(n-1).
        assert exact_minla_value(nx.cycle_graph(5)) == 8

    def test_star_graph(self):
        # Star with centre + 4 leaves: centre in the middle gives 1+1+2+2 = 6.
        assert exact_minla_value(nx.star_graph(4)) == 6

    def test_empty_and_tiny_graphs(self):
        assert exact_minla_value([], nodes=[1, 2, 3]) == 0
        assert exact_minla_value([], nodes=[1]) == 0

    def test_edge_list_input(self):
        assert exact_minla_value([(0, 1), (1, 2)], nodes=[0, 1, 2]) == 2

    def test_too_many_nodes_rejected(self):
        with pytest.raises(SolverError):
            exact_minla_value(nx.path_graph(12))


class TestExactArrangement:
    def test_returned_arrangement_achieves_value(self):
        graph = nx.path_graph(6)
        arrangement, value = exact_minla_arrangement(graph)
        assert linear_arrangement_cost(arrangement, graph) == value
        assert value == exact_minla_value(graph)

    def test_disconnected_graph(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(5))
        graph.add_edges_from([(0, 1), (3, 4)])
        arrangement, value = exact_minla_arrangement(graph)
        assert value == 2
        assert linear_arrangement_cost(arrangement, graph) == 2

    def test_size_guard(self):
        with pytest.raises(SolverError):
            exact_minla_arrangement(nx.complete_graph(11))


class TestAllMinLAArrangements:
    def test_path_optimal_layouts_are_the_two_orientations(self):
        graph = nx.path_graph(4)
        optimal = all_minla_arrangements(graph)
        orders = {arrangement.order for arrangement in optimal}
        assert orders == {(0, 1, 2, 3), (3, 2, 1, 0)}

    def test_clique_every_permutation_is_optimal(self):
        graph = nx.complete_graph(3)
        assert len(all_minla_arrangements(graph)) == 6

    def test_empty_graph(self):
        assert all_minla_arrangements([], nodes=[]) == []

    def test_size_guard(self):
        with pytest.raises(SolverError):
            all_minla_arrangements(nx.path_graph(9))


def _disjoint_union(make, sizes):
    return nx.disjoint_union_all([make(size) for size in sizes])


class TestClosedFormAgreement:
    """The brute-force oracle against the paper's closed forms and itself."""

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 3), (3, 3), (2, 2, 2), (4, 3)])
    def test_disjoint_cliques_match_closed_form(self, sizes):
        graph = _disjoint_union(nx.complete_graph, sizes)
        assert exact_minla_value(graph) == optimal_clique_collection_cost(sizes)

    @pytest.mark.parametrize("sizes", [(2, 3), (1, 2, 3), (4, 3), (2, 2, 2), (5,)])
    def test_disjoint_lines_match_closed_form(self, sizes):
        graph = _disjoint_union(nx.path_graph, sizes)
        assert exact_minla_value(graph) == optimal_line_collection_cost(sizes)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mirror_shortcut_matches_full_search(self, seed):
        # exact_minla_value skips mirrored permutations; the arrangement
        # search enumerates them all, so both must find the same optimum.
        graph = nx.gnp_random_graph(7, 0.4, seed=seed)
        arrangement, value = exact_minla_arrangement(graph)
        assert exact_minla_value(graph) == value
        assert linear_arrangement_cost(arrangement, graph) == value

    def test_optimal_set_is_closed_under_mirroring(self):
        graph = nx.Graph([(0, 1), (1, 2), (1, 3), (3, 4)])
        optimal = all_minla_arrangements(graph)
        orders = {arrangement.order for arrangement in optimal}
        value = exact_minla_value(graph)
        assert orders
        assert all(order[::-1] in orders for order in orders)
        assert all(linear_arrangement_cost(a, graph) == value for a in optimal)

    def test_lowered_node_limit_is_enforced(self):
        with pytest.raises(SolverError):
            exact_minla_value(nx.path_graph(5), max_nodes=4)
        with pytest.raises(SolverError):
            exact_minla_arrangement(nx.path_graph(5), max_nodes=4)
        with pytest.raises(SolverError):
            all_minla_arrangements(nx.path_graph(4), max_nodes=3)
        assert exact_minla_value(nx.path_graph(4), max_nodes=4) == 3
