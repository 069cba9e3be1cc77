"""Streamed request generation for datacenter-scale virtual-network traffic.

The request generators here are the single implementation behind
:mod:`repro.vnet.traffic` (now a thin adapter) **and** the scenario
registry's streams.  They are plain generators: requests are produced one at
a time, so a trace of millions of requests over thousands of tenants is
consumed in memory bounded by the consumer's batch size — nothing ever
materializes the full request list.

Two weighting schemes select which component a request lands in:

* ``"pairs"`` — probability proportional to the component's number of node
  pairs (the historical :func:`repro.vnet.traffic.tenant_traffic`
  behaviour; for pipelines this degenerates to a uniform edge choice),
* ``"zipf"`` — Zipf-skewed component popularity (component ``i`` has weight
  ``(i+1)^-s``), the realistic skewed-tenant shape of experiment E12.

The generator bodies reproduce the exact :class:`random.Random` call
sequence of the pre-subsystem traffic module, so the adapters stay
bit-identical for every seed (guarded by golden fingerprint tests).
:func:`iter_tenant_requests` makes that loop's draws directly instead of
through ``rng.choices(groups, cum_weights=...)[0]`` and
``rng.sample(group, 2)``.  It copies what CPython 3.10–3.12 evaluates for
those calls: the group is ``groups[bisect(cumulative, rng.random() * total,
0, len(groups) - 1)]`` with ``total = cumulative[-1] + 0.0``, and the pair
comes from ``sample``'s two ``rng._randbelow`` branches — the pool swap
(``i = below(n)``, ``j = below(n - 1)``, slot ``i`` refilled from the last
member) for groups of at most :data:`SAMPLE_POOL_MAX` members, and the
rejection set (``j = below(n)`` redrawn until ``j != i``) above that.
Each ``below(n)`` is inlined as the loop of ``random.Random._randbelow``
(CPython's ``_randbelow_with_getrandbits``): ``rng.getrandbits(k)`` with
``k = n.bit_length()``, redrawn until it is below ``n``.
``tests/test_property_streaming.py`` pins the result against the stdlib
calls on every supported Python.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.graphs.components import DisjointSetForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep
from repro.workloads.base import Node, Request, RequestStream

if TYPE_CHECKING:  # import would cycle through repro.vnet at runtime
    from repro.vnet.traffic import TrafficTrace

WEIGHTINGS = ("pairs", "zipf")

#: Largest population that ``random.Random.sample`` draws ``k <= 5`` members
#: from by swapping inside a pool list; above it, it redraws rejected indices
#: against a set.  CPython's ``setsize = 21`` ("size of a small set minus
#: size of an empty list"), unchanged from 3.10 through 3.12.
SAMPLE_POOL_MAX = 21


def split_groups(group_sizes: Sequence[int]) -> List[List[Node]]:
    """Assign nodes ``0 … n-1`` to components of the given sizes, in order."""
    if not group_sizes or any(size < 2 for size in group_sizes):
        raise ReproError("every traffic component needs at least two virtual nodes")
    nodes: List[Node] = list(range(sum(group_sizes)))
    groups: List[List[Node]] = []
    offset = 0
    for size in group_sizes:
        groups.append(nodes[offset : offset + size])
        offset += size
    return groups


def pair_count_weights(groups: Sequence[Sequence[Node]]) -> List[int]:
    """Component weight = number of node pairs inside the component."""
    return [len(group) * (len(group) - 1) // 2 for group in groups]


def zipf_weights(num_groups: int, exponent: float = 1.1) -> List[float]:
    """Zipf popularity weights: component ``i`` gets ``(i+1)^-exponent``."""
    if exponent <= 0:
        raise ReproError("the Zipf exponent must be positive")
    return [(index + 1) ** -exponent for index in range(num_groups)]


def _resolve_weights(
    groups: Sequence[Sequence[Node]],
    weighting: str,
    zipf_exponent: float,
    edge_counts: bool = False,
) -> Sequence[float]:
    if weighting == "pairs":
        if edge_counts:
            return [len(group) - 1 for group in groups]
        return pair_count_weights(groups)
    if weighting == "zipf":
        return zipf_weights(len(groups), zipf_exponent)
    raise ReproError(
        f"unknown traffic weighting {weighting!r}; choose one of {list(WEIGHTINGS)}"
    )


# ----------------------------------------------------------------------
# Request generators (lazy)
# ----------------------------------------------------------------------
def iter_tenant_requests(
    groups: Sequence[Sequence[Node]],
    weights: Sequence[float],
    num_requests: int,
    rng: random.Random,
) -> Iterator[Request]:
    """Lazily draw intra-tenant (clique) requests, one group pick per request.

    Makes the draws of the historical ``tenant_traffic`` loop —
    ``rng.choices(groups, cum_weights=cumulative)[0]``, then
    ``rng.sample(group, 2)`` — directly (see the module docstring): one
    ``bisect`` and two ``_randbelow`` rejection loops per request, plus a
    redraw when a large group's second index repeats the first.  Invalid
    weights raise the ``ValueError`` that ``random.choices`` raises.  A group
    with fewer than two members is rejected up front: ``sample`` would raise
    when it is picked, while ``_randbelow(0)`` never returns.
    """
    cumulative = list(itertools.accumulate(weights))
    if len(cumulative) != len(groups):
        raise ValueError("The number of weights does not match the population")
    total = cumulative[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not math.isfinite(total):
        raise ValueError("Total of weights must be finite")
    if any(len(group) < 2 for group in groups):
        raise ReproError("every traffic component needs at least two virtual nodes")
    # Per group: its members, its size and the bit widths of ``n`` and
    # ``n - 1`` that ``_randbelow(n)`` and ``_randbelow(n - 1)`` draw with.
    shapes = [
        (group, len(group), len(group).bit_length(), (len(group) - 1).bit_length())
        for group in groups
    ]
    hi = len(cumulative) - 1
    rand = rng.random
    getrandbits = rng.getrandbits
    for _ in range(num_requests):
        group, n, k, k_last = shapes[bisect(cumulative, rand() * total, 0, hi)]
        i = getrandbits(k)
        while i >= n:
            i = getrandbits(k)
        if n <= SAMPLE_POOL_MAX:
            last = n - 1
            j = getrandbits(k_last)
            while j >= last:
                j = getrandbits(k_last)
            yield (group[i], group[last] if j == i else group[j])
        else:
            j = getrandbits(k)
            while j >= n or j == i:
                j = getrandbits(k)
            yield (group[i], group[j])


def iter_pipeline_requests(
    edges: Sequence[Request],
    num_requests: int,
    rng: random.Random,
) -> Iterator[Request]:
    """Lazily draw pipeline (line-edge) requests, uniform over ``edges``.

    Identical draw order to the historical ``pipeline_traffic`` loop.
    """
    for _ in range(num_requests):
        yield rng.choice(edges)


def iter_weighted_pipeline_requests(
    edges_by_group: Sequence[Sequence[Request]],
    weights: Sequence[float],
    num_requests: int,
    rng: random.Random,
) -> Iterator[Request]:
    """Lazily draw pipeline requests with per-pipeline popularity weights."""
    cumulative = list(itertools.accumulate(weights))
    for _ in range(num_requests):
        group = rng.choices(edges_by_group, cum_weights=cumulative)[0]
        yield rng.choice(group)


def pipeline_edges(groups: Sequence[Sequence[Node]]) -> List[Request]:
    """The hidden pipeline edges (consecutive members of each group)."""
    edges: List[Request] = []
    for members in groups:
        edges.extend(zip(members, members[1:]))
    return edges


# ----------------------------------------------------------------------
# Stream constructors
# ----------------------------------------------------------------------
def tenant_request_stream(
    group_sizes: Sequence[int],
    num_requests: int,
    seed: object,
    weighting: str = "pairs",
    zipf_exponent: float = 1.1,
) -> RequestStream:
    """A re-iterable stream of tenant-clique traffic over ``group_sizes``."""
    if num_requests < 1:
        raise ReproError("num_requests must be positive")
    groups = split_groups(group_sizes)
    weights = _resolve_weights(groups, weighting, zipf_exponent)

    def factory() -> Iterator[Request]:
        rng = random.Random(f"{seed}|tenant-traffic")
        return iter_tenant_requests(groups, weights, num_requests, rng)

    return RequestStream(
        virtual_nodes=tuple(range(sum(group_sizes))),
        num_requests=num_requests,
        kind=GraphKind.CLIQUES,
        factory=factory,
    )


def pipeline_request_stream(
    pipeline_sizes: Sequence[int],
    num_requests: int,
    seed: object,
    weighting: str = "pairs",
    zipf_exponent: float = 1.1,
) -> RequestStream:
    """A re-iterable stream of pipeline traffic over ``pipeline_sizes``."""
    if num_requests < 1:
        raise ReproError("num_requests must be positive")
    groups = split_groups(pipeline_sizes)
    edges_by_group = [list(zip(members, members[1:])) for members in groups]
    weights = _resolve_weights(groups, weighting, zipf_exponent, edge_counts=True)

    def factory() -> Iterator[Request]:
        rng = random.Random(f"{seed}|pipeline-traffic")
        if weighting == "pairs":
            # Uniform over all hidden edges — the historical behaviour.
            return iter_pipeline_requests(
                [edge for group in edges_by_group for edge in group],
                num_requests,
                rng,
            )
        return iter_weighted_pipeline_requests(
            edges_by_group, weights, num_requests, rng
        )

    return RequestStream(
        virtual_nodes=tuple(range(sum(pipeline_sizes))),
        num_requests=num_requests,
        kind=GraphKind.LINES,
        factory=factory,
    )


def mixed_request_stream(
    clique_sizes: Sequence[int],
    pipeline_sizes: Sequence[int],
    num_requests: int,
    seed: object,
    weighting: str = "pairs",
    zipf_exponent: float = 1.1,
) -> RequestStream:
    """A stream mixing tenant-clique and pipeline traffic in one fleet.

    Clique components occupy nodes ``0 … c-1``, pipelines the rest.  Each
    request first picks a component (over the whole fleet, weighted) and
    then a pair / edge inside it.  Mixed streams have ``kind=None``: they
    drive request-level consumers (controllers, statistics) but cannot be
    materialized into a single kind-pure reveal sequence.
    """
    if num_requests < 1:
        raise ReproError("num_requests must be positive")
    clique_groups = split_groups(clique_sizes) if clique_sizes else []
    offset = sum(clique_sizes)
    pipeline_groups = [
        [node + offset for node in group] for group in split_groups(pipeline_sizes)
    ] if pipeline_sizes else []
    if not clique_groups and not pipeline_groups:
        raise ReproError("a mixed stream needs at least one component")
    components: List[Tuple[str, Sequence[Node], Sequence[Request]]] = [
        ("clique", group, ()) for group in clique_groups
    ] + [
        ("line", group, tuple(zip(group, group[1:]))) for group in pipeline_groups
    ]
    all_groups = [group for _, group, _ in components]
    if weighting == "pairs":
        weights: Sequence[float] = [
            len(group) * (len(group) - 1) // 2 if kind == "clique" else len(group) - 1
            for kind, group, _ in components
        ]
    else:
        weights = _resolve_weights(all_groups, weighting, zipf_exponent)
    num_nodes = sum(clique_sizes) + sum(pipeline_sizes)

    cumulative = list(itertools.accumulate(weights))

    def factory() -> Iterator[Request]:
        rng = random.Random(f"{seed}|mixed-traffic")
        for _ in range(num_requests):
            kind, group, edges = rng.choices(components, cum_weights=cumulative)[0]
            if kind == "clique":
                u, v = rng.sample(list(group), 2)
                yield (u, v)
            else:
                yield rng.choice(edges)

    return RequestStream(
        virtual_nodes=tuple(range(num_nodes)),
        num_requests=num_requests,
        kind=None,
        factory=factory,
    )


# ----------------------------------------------------------------------
# Induced reveals and materialization
# ----------------------------------------------------------------------
def iter_induced_reveals(
    stream: RequestStream,
) -> Iterator[Tuple[Request, Optional[RevealStep]]]:
    """Replay a kind-pure stream, tagging each request that reveals the pattern.

    Yields ``(request, reveal-step-or-None)`` pairs: a request joining two
    previously separate components of the hidden pattern carries the
    :class:`~repro.graphs.reveal.RevealStep` it induces.  Memory is ``O(n)``
    (one union-find / line forest over the virtual nodes), independent of
    the stream length.
    """
    if stream.kind is None:
        raise ReproError("a mixed stream induces no single kind-pure reveal sequence")
    if stream.kind is GraphKind.CLIQUES:
        components = DisjointSetForest(stream.virtual_nodes)
        for u, v in stream:
            if not components.connected(u, v):
                components.union(u, v)
                yield (u, v), RevealStep(u, v)
            else:
                yield (u, v), None
    else:
        revealed = LineForest(stream.virtual_nodes)
        for u, v in stream:
            if not revealed.same_component(u, v):
                revealed.add_edge(u, v)
                yield (u, v), RevealStep(u, v)
            else:
                yield (u, v), None


def stream_statistics(
    stream: RequestStream, batch_size: int = 1024
) -> Tuple[int, Optional[int]]:
    """Consume a stream in batches and return ``(requests, induced reveals)``.

    The reveal count is ``None`` for mixed streams (no single kind-pure
    hidden pattern).  Peak memory is bounded by ``batch_size`` plus the
    ``O(n)`` pattern-tracking state — this is the memory-bounded way to
    summarize a datacenter-scale stream, used by ``scenarios run``.
    """
    if stream.kind is None:
        tracker = None
    elif stream.kind is GraphKind.CLIQUES:
        tracker = DisjointSetForest(stream.virtual_nodes)
    else:
        tracker = LineForest(stream.virtual_nodes)
    num_requests = 0
    reveals: Optional[int] = None if tracker is None else 0
    for batch in stream.batches(batch_size):
        num_requests += len(batch)
        if tracker is None:
            continue
        for u, v in batch:
            if stream.kind is GraphKind.CLIQUES:
                if not tracker.connected(u, v):
                    tracker.union(u, v)
                    reveals += 1
            elif not tracker.same_component(u, v):
                tracker.add_edge(u, v)
                reveals += 1
    return num_requests, reveals


def materialize_trace(stream: RequestStream) -> "TrafficTrace":
    """Materialize a kind-pure stream into a full TrafficTrace.

    Intended for small workloads and equivalence tests; datacenter-scale
    consumers should iterate the stream directly.
    """
    from repro.graphs.reveal import CliqueRevealSequence, LineRevealSequence
    from repro.vnet.traffic import TrafficTrace

    requests: List[Request] = []
    reveal_steps: List[RevealStep] = []
    for request, reveal in iter_induced_reveals(stream):
        requests.append(request)
        if reveal is not None:
            reveal_steps.append(reveal)
    if stream.kind is GraphKind.CLIQUES:
        sequence = CliqueRevealSequence(stream.virtual_nodes, reveal_steps)
    else:
        sequence = LineRevealSequence(stream.virtual_nodes, reveal_steps)
    return TrafficTrace(
        kind=stream.kind,
        virtual_nodes=stream.virtual_nodes,
        requests=tuple(requests),
        sequence=sequence,
    )
