"""Linear-arrangement cost functions.

The (offline) Minimum Linear Arrangement objective of a graph ``G = (V, E)``
under a permutation ``π`` is ``Σ_{(x,y)∈E} |π(x) − π(y)|``.  This module
evaluates that objective for arbitrary edge sets and provides the closed-form
optimal values for the two graph families of the paper — disjoint cliques and
disjoint lines — which the feasibility checkers and the exact solver are
validated against.
"""

from __future__ import annotations

import sys
from typing import Hashable, Iterable, TYPE_CHECKING, Tuple, Union

from repro.core.permutation import Arrangement

if TYPE_CHECKING:  # pragma: no cover - networkx is imported where a graph is built
    import networkx as nx

Node = Hashable
Edge = Tuple[Node, Node]


def linear_arrangement_cost(
    arrangement: Arrangement, edges: Union[nx.Graph, Iterable[Edge]]
) -> int:
    """The MinLA objective ``Σ_{(x,y)∈E} |π(x) − π(y)|`` of ``arrangement``.

    ``edges`` may be a :class:`networkx.Graph` or any iterable of node pairs.
    """
    # Nothing can be a networkx graph before networkx is imported, so the
    # edge-list path never pays for importing it.
    networkx = sys.modules.get("networkx")
    if networkx is not None and isinstance(edges, networkx.Graph):
        edge_iter: Iterable[Edge] = edges.edges()
    else:
        edge_iter = edges
    return sum(
        abs(arrangement.position(u) - arrangement.position(v)) for u, v in edge_iter
    )


def optimal_clique_cost(size: int) -> int:
    """The optimal linear-arrangement cost of a single clique of ``size`` nodes.

    Placing the clique contiguously, the cost is
    ``Σ_{1 ≤ d ≤ size-1} d · (size − d) = (size³ − size) / 6``; no
    non-contiguous placement does better.
    """
    if size < 0:
        raise ValueError("clique size must be non-negative")
    return (size**3 - size) // 6


def optimal_path_cost(size: int) -> int:
    """The optimal linear-arrangement cost of a single path of ``size`` nodes.

    A path has ``size − 1`` edges and each edge costs at least 1; laying the
    path out in path order achieves exactly that.
    """
    if size < 0:
        raise ValueError("path size must be non-negative")
    return max(size - 1, 0)


def optimal_clique_collection_cost(component_sizes: Iterable[int]) -> int:
    """Optimal MinLA value of a disjoint union of cliques with the given sizes."""
    return sum(optimal_clique_cost(size) for size in component_sizes)


def optimal_line_collection_cost(component_sizes: Iterable[int]) -> int:
    """Optimal MinLA value of a disjoint union of paths with the given sizes."""
    return sum(optimal_path_cost(size) for size in component_sizes)
