"""Reveal-sequence generation: the single implementation behind every workload.

This module owns the reveal-sequence generators (``repro`` re-exports
them) and the composable fleet builder the scenario registry is built on.
The generators are **behaviour-identical** to their pre-subsystem versions —
same signatures, same order of :class:`random.Random` draws — so every
seeded workload of experiments E1–E10 is bit-identical to what it was before
the workloads subsystem existed (guarded by golden fingerprint tests).

Composable pieces (used by :mod:`repro.workloads.registry`):

* :func:`clique_component_steps` / :func:`line_component_steps` — the reveal
  steps of one component of a fleet,
* :func:`composed_sequences` — assemble a mixed fleet of clique and line
  components into per-kind reveal sequences under a
  :class:`~repro.workloads.orders.MergeOrderPolicy`.
"""

from __future__ import annotations

import random
from typing import Hashable, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ReproError
from repro.graphs.reveal import (
    CliqueRevealSequence,
    GraphKind,
    LineRevealSequence,
    RevealSequence,
    RevealStep,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.workloads.orders import MergeOrderPolicy

Node = Hashable


def check_counts(num_nodes: int, num_final_components: int) -> None:
    """Validate a node budget / final-component-count pair."""
    if num_nodes < 1:
        raise ReproError("generators need at least one node")
    if num_final_components < 1 or num_final_components > num_nodes:
        raise ReproError(
            f"cannot split {num_nodes} nodes into {num_final_components} components"
        )


# ----------------------------------------------------------------------
# Clique-merge workloads
# ----------------------------------------------------------------------
def random_clique_merge_sequence(
    num_nodes: int,
    rng: random.Random,
    num_final_components: int = 1,
    size_biased: bool = False,
    nodes: Optional[Sequence[Node]] = None,
) -> CliqueRevealSequence:
    """A random clique-merge reveal sequence.

    Starting from ``num_nodes`` singletons, repeatedly merge two distinct
    components chosen at random until ``num_final_components`` remain.  With
    ``size_biased=True`` the two components are chosen with probability
    proportional to their sizes (each merge picks two random *nodes* in
    distinct components), which produces more skewed merge trees.
    """
    check_counts(num_nodes, num_final_components)
    universe: List[Node] = list(nodes) if nodes is not None else list(range(num_nodes))
    if len(universe) != num_nodes:
        raise ReproError("explicit node list must have num_nodes entries")
    components: List[List[Node]] = [[node] for node in universe]
    steps: List[RevealStep] = []
    while len(components) > num_final_components:
        if size_biased:
            weights = [len(c) for c in components]
            first_index = rng.choices(range(len(components)), weights=weights)[0]
            remaining = [i for i in range(len(components)) if i != first_index]
            rem_weights = [len(components[i]) for i in remaining]
            second_index = rng.choices(remaining, weights=rem_weights)[0]
        else:
            first_index, second_index = rng.sample(range(len(components)), 2)
        first, second = components[first_index], components[second_index]
        steps.append(RevealStep(rng.choice(first), rng.choice(second)))
        # Drop both (higher index first, so the lower one stays put) and
        # append the merge: the list the next draw indexes into is the same
        # as rebuilding it without the two.
        del components[max(first_index, second_index)]
        del components[min(first_index, second_index)]
        components.append(first + second)
    return CliqueRevealSequence(universe, steps)


def balanced_clique_merge_sequence(
    num_nodes: int,
    rng: Optional[random.Random] = None,
    nodes: Optional[Sequence[Node]] = None,
) -> CliqueRevealSequence:
    """A tournament-style merge schedule (pairs, then pairs of pairs, …).

    When ``num_nodes`` is a power of two this produces a perfectly balanced
    merge tree; otherwise the last component of a round may stay unmatched for
    one round.  If ``rng`` is given, the pairing within each round is
    shuffled.
    """
    check_counts(num_nodes, 1)
    universe: List[Node] = list(nodes) if nodes is not None else list(range(num_nodes))
    components: List[List[Node]] = [[node] for node in universe]
    steps: List[RevealStep] = []
    while len(components) > 1:
        if rng is not None:
            rng.shuffle(components)
        next_round: List[List[Node]] = []
        for index in range(0, len(components) - 1, 2):
            first, second = components[index], components[index + 1]
            steps.append(RevealStep(first[0], second[0]))
            next_round.append(first + second)
        if len(components) % 2 == 1:
            next_round.append(components[-1])
        components = next_round
    return CliqueRevealSequence(universe, steps)


def growing_clique_sequence(
    num_nodes: int, nodes: Optional[Sequence[Node]] = None
) -> CliqueRevealSequence:
    """One clique that absorbs the remaining singletons one at a time.

    This is the most skewed merge tree; it maximizes the number of requests
    (``n - 1``) touching the same growing component and is the workload on
    which the harmonic-sum argument of Lemma 5 is tight.
    """
    check_counts(num_nodes, 1)
    universe: List[Node] = list(nodes) if nodes is not None else list(range(num_nodes))
    steps = [RevealStep(universe[0], universe[i]) for i in range(1, num_nodes)]
    return CliqueRevealSequence(universe, steps)


def tenant_clique_sequence(
    group_sizes: Sequence[int],
    rng: random.Random,
    interleave: bool = True,
) -> CliqueRevealSequence:
    """Several independent cliques ("tenants") revealed concurrently.

    ``group_sizes`` gives the final clique sizes.  Each tenant's internal
    merges follow a random uniform merge process; with ``interleave=True`` the
    steps of different tenants are interleaved at random (the realistic
    datacenter scenario), otherwise tenants are revealed one after another.
    """
    if not group_sizes or any(size < 1 for size in group_sizes):
        raise ReproError("group sizes must be positive")
    universe: List[Node] = list(range(sum(group_sizes)))
    offset = 0
    per_tenant_steps: List[List[RevealStep]] = []
    for size in group_sizes:
        members = universe[offset : offset + size]
        offset += size
        if size == 1:
            per_tenant_steps.append([])
            continue
        tenant = random_clique_merge_sequence(size, rng, nodes=members)
        per_tenant_steps.append(list(tenant.steps))
    if interleave:
        steps = random_interleave(per_tenant_steps, rng)
    else:
        steps = [step for tenant in per_tenant_steps for step in tenant]
    return CliqueRevealSequence(universe, steps)


# ----------------------------------------------------------------------
# Line-growth workloads
# ----------------------------------------------------------------------
def random_line_sequence(
    num_nodes: int,
    rng: random.Random,
    num_final_components: int = 1,
    sequential: bool = False,
    nodes: Optional[Sequence[Node]] = None,
) -> LineRevealSequence:
    """A random line-growth reveal sequence.

    The final graph is a disjoint union of ``num_final_components`` paths over
    a random permutation of the nodes; the edges are revealed in random order
    (every order is valid: each edge always joins two path endpoints), or in
    path order if ``sequential=True``.
    """
    check_counts(num_nodes, num_final_components)
    universe: List[Node] = list(nodes) if nodes is not None else list(range(num_nodes))
    if len(universe) != num_nodes:
        raise ReproError("explicit node list must have num_nodes entries")
    shuffled = list(universe)
    rng.shuffle(shuffled)
    paths = split_into_paths(shuffled, num_final_components, rng)
    edges: List[Tuple[Node, Node]] = []
    for path in paths:
        edges.extend(zip(path, path[1:]))
    if not sequential:
        rng.shuffle(edges)
    return LineRevealSequence.from_pairs(universe, edges)


def sequential_line_sequence(
    num_nodes: int, nodes: Optional[Sequence[Node]] = None
) -> LineRevealSequence:
    """A single path over the given nodes, revealed left to right."""
    check_counts(num_nodes, 1)
    universe: List[Node] = list(nodes) if nodes is not None else list(range(num_nodes))
    edges = list(zip(universe, universe[1:]))
    return LineRevealSequence.from_pairs(universe, edges)


def pipeline_line_sequence(
    pipeline_sizes: Sequence[int],
    rng: random.Random,
    interleave: bool = True,
) -> LineRevealSequence:
    """Several independent pipelines (paths) revealed concurrently.

    Mirrors :func:`tenant_clique_sequence` for the line topology: each
    pipeline's edges are revealed in random order and the pipelines are
    interleaved at random unless ``interleave=False``.
    """
    if not pipeline_sizes or any(size < 1 for size in pipeline_sizes):
        raise ReproError("pipeline sizes must be positive")
    universe: List[Node] = list(range(sum(pipeline_sizes)))
    offset = 0
    per_pipeline_steps: List[List[RevealStep]] = []
    for size in pipeline_sizes:
        members = universe[offset : offset + size]
        offset += size
        if size == 1:
            per_pipeline_steps.append([])
            continue
        per_pipeline_steps.append(line_component_steps(members, rng))
    if interleave:
        steps = random_interleave(per_pipeline_steps, rng)
    else:
        steps = [step for pipeline in per_pipeline_steps for step in pipeline]
    return LineRevealSequence(universe, steps)


# ----------------------------------------------------------------------
# Composable fleet pieces
# ----------------------------------------------------------------------
def clique_component_steps(
    members: Sequence[Node], rng: random.Random
) -> List[RevealStep]:
    """The reveal steps of one tenant clique (uniform random merge process)."""
    if len(members) < 2:
        return []
    return list(random_clique_merge_sequence(len(members), rng, nodes=members).steps)


def line_component_steps(
    members: Sequence[Node], rng: random.Random
) -> List[RevealStep]:
    """The reveal steps of one pipeline: a random path, edges in random order."""
    if len(members) < 2:
        return []
    order = list(members)
    rng.shuffle(order)
    edges = list(zip(order, order[1:]))
    rng.shuffle(edges)
    return [RevealStep(u, v) for u, v in edges]


def composed_sequences(
    fleet: Sequence[Tuple[GraphKind, int]],
    order: "MergeOrderPolicy",
    rng: random.Random,
) -> List[RevealSequence]:
    """Assemble a fleet of clique and line components into reveal sequences.

    ``fleet`` lists ``(kind, size)`` per component; nodes ``0 … n-1`` are
    assigned to components in fleet order.  Because the paper's request
    model requires each chain of graphs to be all-cliques or all-lines, the
    fleet is grouped by kind: the result has one
    :class:`~repro.graphs.reveal.CliqueRevealSequence` over the clique
    components' nodes and/or one
    :class:`~repro.graphs.reveal.LineRevealSequence` over the line
    components' nodes, each internally interleaved by ``order``.
    """
    if not fleet:
        raise ReproError("a fleet needs at least one component")
    if any(size < 1 for size in (size for _, size in fleet)):
        raise ReproError("fleet component sizes must be positive")
    offset = 0
    per_kind_nodes = {GraphKind.CLIQUES: [], GraphKind.LINES: []}
    per_kind_groups = {GraphKind.CLIQUES: [], GraphKind.LINES: []}
    for kind, size in fleet:
        members = list(range(offset, offset + size))
        offset += size
        per_kind_nodes[kind].extend(members)
        if kind is GraphKind.CLIQUES:
            per_kind_groups[kind].append(clique_component_steps(members, rng))
        else:
            per_kind_groups[kind].append(line_component_steps(members, rng))
    sequences: List[RevealSequence] = []
    for kind, sequence_type in (
        (GraphKind.CLIQUES, CliqueRevealSequence),
        (GraphKind.LINES, LineRevealSequence),
    ):
        if not per_kind_nodes[kind]:
            continue
        steps = order.interleave(per_kind_groups[kind], rng)
        sequences.append(sequence_type(per_kind_nodes[kind], steps))
    return sequences


# ----------------------------------------------------------------------
# Interleaving helpers
# ----------------------------------------------------------------------
def split_into_paths(
    shuffled: Sequence[Node], num_paths: int, rng: random.Random
) -> List[List[Node]]:
    """Split a node sequence into ``num_paths`` non-empty consecutive chunks."""
    n = len(shuffled)
    if num_paths == 1:
        return [list(shuffled)]
    cut_points = sorted(rng.sample(range(1, n), num_paths - 1))
    paths: List[List[Node]] = []
    previous = 0
    for cut in cut_points + [n]:
        paths.append(list(shuffled[previous:cut]))
        previous = cut
    return paths


def weighted_interleave(
    groups: Sequence[Sequence[RevealStep]],
    rng: random.Random,
    weight_of,
    burst_length: int = 1,
) -> List[RevealStep]:
    """Interleave step lists under a pluggable component-weight function.

    ``weight_of(index, remaining)`` gives the selection weight of component
    ``index`` with ``remaining`` pending steps; each pick emits up to
    ``burst_length`` consecutive steps of the chosen component.  Every
    merge-order policy (uniform, Zipf, bursty) is this loop with a different
    weight function, so the reveal view and the traffic view can never
    diverge on the interleaving mechanics.
    """
    indices = [0] * len(groups)
    remaining = [len(group) for group in groups]
    steps: List[RevealStep] = []
    while sum(remaining) > 0:
        candidates = [i for i, count in enumerate(remaining) if count > 0]
        choice = rng.choices(
            candidates, weights=[weight_of(i, remaining[i]) for i in candidates]
        )[0]
        burst = min(burst_length, remaining[choice])
        for _ in range(burst):
            steps.append(groups[choice][indices[choice]])
            indices[choice] += 1
            remaining[choice] -= 1
    return steps


def random_interleave(
    groups: Sequence[Sequence[RevealStep]], rng: random.Random
) -> List[RevealStep]:
    """Interleave several step lists, preserving the order within each list."""
    return weighted_interleave(
        groups, rng, lambda index, remaining: remaining
    )
