"""Exact (brute-force) offline MinLA solver for small graphs.

Offline MinLA is NP-hard in general, but for graphs with at most a dozen
nodes the optimum can be found by enumerating permutations.  The solver here
is used as ground truth:

* the MinLA characterizations for cliques and lines
  (:mod:`repro.minla.characterizations`) are validated against it,
* the exact offline optimum of the *online* problem for tiny instances
  (:func:`repro.core.opt.exact_optimal_online_cost`) enumerates MinLA
  permutations produced by this module.

The search fixes the first node to break the left-right mirror symmetry when
only the optimal *value* is needed, and enumerates all permutations when the
caller asks for every optimal arrangement.
"""

from __future__ import annotations

from itertools import permutations
from typing import Hashable, Iterable, List, TYPE_CHECKING, Tuple, Union

from repro.core.permutation import Arrangement
from repro.errors import SolverError
from repro.minla.cost import linear_arrangement_cost

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where a graph is built
    import networkx as nx

Node = Hashable
Edge = Tuple[Node, Node]

#: Largest node count accepted by the brute-force routines.  12! is about
#: 479 million — far too much — so the practical limit is lower; the default
#: guard is deliberately conservative to keep the test suite fast.
MAX_EXACT_NODES = 10


def _normalize(graph_or_edges: Union[nx.Graph, Iterable[Edge]], nodes: Iterable[Node] = ()) -> nx.Graph:
    import networkx as nx

    if isinstance(graph_or_edges, nx.Graph):
        return graph_or_edges
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(graph_or_edges)
    return graph


def exact_minla_value(
    graph_or_edges: Union[nx.Graph, Iterable[Edge]],
    nodes: Iterable[Node] = (),
    max_nodes: int = MAX_EXACT_NODES,
) -> int:
    """The optimal MinLA objective value of a small graph (brute force)."""
    graph = _normalize(graph_or_edges, nodes)
    node_list = list(graph.nodes())
    if len(node_list) > max_nodes:
        raise SolverError(
            f"exact MinLA is limited to {max_nodes} nodes; got {len(node_list)}"
        )
    if len(node_list) <= 1:
        return 0
    best = None
    # Fix the last element's relative side via symmetry: for every arrangement
    # its mirror has the same cost, so we only enumerate arrangements where the
    # first node of ``node_list`` appears in the left half.
    for perm in permutations(node_list):
        if perm.index(node_list[0]) > (len(node_list) - 1) // 2:
            continue
        cost = linear_arrangement_cost(Arrangement(perm), graph)
        if best is None or cost < best:
            best = cost
    return int(best)


def exact_minla_arrangement(
    graph_or_edges: Union[nx.Graph, Iterable[Edge]],
    nodes: Iterable[Node] = (),
    max_nodes: int = MAX_EXACT_NODES,
) -> Tuple[Arrangement, int]:
    """One optimal arrangement of a small graph together with its value."""
    graph = _normalize(graph_or_edges, nodes)
    node_list = list(graph.nodes())
    if len(node_list) > max_nodes:
        raise SolverError(
            f"exact MinLA is limited to {max_nodes} nodes; got {len(node_list)}"
        )
    if len(node_list) <= 1:
        return Arrangement(node_list), 0
    best_arrangement = None
    best_cost = None
    for perm in permutations(node_list):
        arrangement = Arrangement(perm)
        cost = linear_arrangement_cost(arrangement, graph)
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_arrangement = arrangement
    return best_arrangement, int(best_cost)


def all_minla_arrangements(
    graph_or_edges: Union[nx.Graph, Iterable[Edge]],
    nodes: Iterable[Node] = (),
    max_nodes: int = 8,
) -> List[Arrangement]:
    """Every optimal arrangement of a small graph.

    Intended for validating the clique/line characterizations and for the
    exact offline-optimum search of the online problem; the node limit is
    lower than for :func:`exact_minla_value` because the result is a list of
    up to ``n!`` arrangements.
    """
    graph = _normalize(graph_or_edges, nodes)
    node_list = list(graph.nodes())
    if len(node_list) > max_nodes:
        raise SolverError(
            f"enumerating all MinLA arrangements is limited to {max_nodes} nodes; "
            f"got {len(node_list)}"
        )
    if len(node_list) == 0:
        return []
    candidates = [Arrangement(perm) for perm in permutations(node_list)]
    costs = [linear_arrangement_cost(candidate, graph) for candidate in candidates]
    best = min(costs)
    return [candidate for candidate, cost in zip(candidates, costs) if cost == best]
