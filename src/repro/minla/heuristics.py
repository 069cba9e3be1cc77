"""General-graph MinLA heuristics (supporting substrate).

The paper's algorithms only need MinLA for cliques and lines, where the
optimum has a closed form.  The virtual-network-embedding case study and the
examples, however, occasionally deal with *general* communication graphs (for
instance when a traffic matrix is not a perfect collection of cliques), and a
reasonable static baseline there is "solve offline MinLA heuristically and
embed once".  This module provides the standard toolbox:

* spectral ordering by the Fiedler vector of the graph Laplacian — the classic
  continuous relaxation of MinLA,
* a greedy insertion heuristic that appends the node with the largest number
  of already-placed neighbours at the cheaper end,
* local-search refinement by adjacent swaps,
* a combined :func:`heuristic_minla` driver.

These heuristics are validated against the brute-force solver on small graphs
in the test suite (they must be within a constant factor there and exact on
paths/cliques), but they make no optimality claims in general.

numpy is an optional dependency here, imported only when the spectral
ordering runs (it powers only its eigendecomposition): without it
:func:`spectral_arrangement` raises a clear
:class:`~repro.errors.SolverError` and :func:`heuristic_minla` falls back
to the greedy candidate alone.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, TYPE_CHECKING, Tuple

from repro.core.permutation import Arrangement
from repro.errors import SolverError
from repro.minla.cost import linear_arrangement_cost

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where a graph is built
    import networkx as nx

Node = Hashable


def _numpy():
    """numpy, imported on first use, or ``None`` when it is not installed.

    Only the spectral ordering needs numpy, so importing this module (and
    with it every ``repro.minla`` import) does not load it.
    """
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised via the CI matrix leg
        return None
    return numpy


def spectral_arrangement(graph: nx.Graph) -> Arrangement:
    """Order nodes by the Fiedler vector (second-smallest Laplacian eigenvector).

    Disconnected graphs are handled per connected component (components are
    concatenated in an arbitrary but deterministic order); isolated nodes go
    last.  Ties in the eigenvector are broken by node representation to keep
    the result deterministic.  Requires the optional numpy dependency.
    """
    np = _numpy()
    if np is None:
        raise SolverError(
            "spectral_arrangement() requires numpy, which is not installed; "
            "use greedy_insertion_arrangement() or install numpy"
        )
    import networkx as nx

    if graph.number_of_nodes() == 0:
        raise SolverError("spectral_arrangement() needs a non-empty graph")
    order: List[Node] = []
    components = sorted(nx.connected_components(graph), key=lambda c: sorted(map(repr, c)))
    for component in components:
        nodes = sorted(component, key=repr)
        if len(nodes) == 1:
            order.extend(nodes)
            continue
        subgraph = graph.subgraph(nodes)
        laplacian = nx.laplacian_matrix(subgraph, nodelist=nodes).toarray().astype(float)
        eigenvalues, eigenvectors = np.linalg.eigh(laplacian)
        fiedler = eigenvectors[:, 1] if len(nodes) > 1 else eigenvectors[:, 0]
        ranked = sorted(zip(fiedler, map(repr, nodes), nodes), key=lambda item: (item[0], item[1]))
        order.extend(node for _, _, node in ranked)
    return Arrangement(order)


def greedy_insertion_arrangement(graph: nx.Graph) -> Arrangement:
    """Greedy MinLA heuristic: repeatedly append the most-connected unplaced node.

    Starting from a highest-degree node, the node with the most edges towards
    already placed nodes is appended at whichever end (left or right) yields
    the smaller incremental arrangement cost.
    """
    if graph.number_of_nodes() == 0:
        raise SolverError("greedy_insertion_arrangement() needs a non-empty graph")
    nodes = sorted(graph.nodes(), key=repr)
    placed: List[Node] = []
    remaining = set(nodes)
    start = max(nodes, key=lambda node: (graph.degree(node), repr(node)))
    placed.append(start)
    remaining.remove(start)
    while remaining:
        candidate = max(
            remaining,
            key=lambda node: (sum(1 for nb in graph.neighbors(node) if nb in set(placed)), repr(node)),
        )
        placed_set = set(placed)
        # Incremental cost of appending on the left vs on the right.
        left_cost = sum(
            placed.index(neighbor) + 1
            for neighbor in graph.neighbors(candidate)
            if neighbor in placed_set
        )
        right_cost = sum(
            len(placed) - placed.index(neighbor)
            for neighbor in graph.neighbors(candidate)
            if neighbor in placed_set
        )
        if left_cost <= right_cost:
            placed.insert(0, candidate)
        else:
            placed.append(candidate)
        remaining.remove(candidate)
    return Arrangement(placed)


def local_search_refinement(
    graph: nx.Graph, arrangement: Arrangement, max_passes: int = 20
) -> Arrangement:
    """Improve an arrangement by adjacent swaps until a local optimum (or pass limit)."""
    current = arrangement
    current_cost = linear_arrangement_cost(current, graph)
    for _ in range(max_passes):
        improved = False
        for position in range(len(current) - 1):
            candidate = current.adjacent_swap(position)
            candidate_cost = linear_arrangement_cost(candidate, graph)
            if candidate_cost < current_cost:
                current, current_cost = candidate, candidate_cost
                improved = True
        if not improved:
            break
    return current


def heuristic_minla(
    graph: nx.Graph, refine: bool = True, max_passes: int = 20
) -> Tuple[Arrangement, int]:
    """Best of the spectral and greedy heuristics, optionally refined by local search.

    Without numpy the spectral candidate is skipped and the greedy insertion
    heuristic (refined by local search) competes alone.
    """
    candidates = [greedy_insertion_arrangement(graph)]
    if _numpy() is not None:
        candidates.insert(0, spectral_arrangement(graph))
    if refine:
        candidates = [
            local_search_refinement(graph, candidate, max_passes=max_passes)
            for candidate in candidates
        ]
    best: Optional[Arrangement] = None
    best_cost: Optional[int] = None
    for candidate in candidates:
        cost = linear_arrangement_cost(candidate, graph)
        if best_cost is None or cost < best_cost:
            best, best_cost = candidate, cost
    assert best is not None and best_cost is not None
    return best, best_cost
