"""Reveal sequences: the request model of online learning MinLA.

The paper's input is a chain of graphs ``G_0 ⊆ G_1 ⊆ … ⊆ G_k`` where ``G_0``
is the empty graph on ``n`` nodes and every ``G_i`` is either a collection of
disjoint cliques or a collection of disjoint lines.  Because two consecutive
graphs differ by the merge of exactly two components, the whole chain is
determined by the node universe plus a sequence of *reveal steps*:

* for cliques, a step names two nodes in distinct cliques and reveals all
  edges between their cliques (the two cliques merge),
* for lines, a step names a new edge whose endpoints are path endpoints of
  two distinct paths.

:class:`RevealSequence` (and its two concrete subclasses) captures this
request model, validates it eagerly, and offers replay utilities used by the
simulator, the offline optimum and the experiment harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Hashable, Iterator, List, Sequence, Tuple, Union

from repro.errors import RevealError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest

Node = Hashable


class GraphKind(str, enum.Enum):
    """The two graph classes handled by the paper."""

    CLIQUES = "cliques"
    LINES = "lines"


@dataclass(frozen=True)
class RevealStep:
    """A single reveal: the pair of nodes naming the components to join.

    For clique sequences the step merges the cliques containing ``u`` and
    ``v``; for line sequences the step reveals the edge ``(u, v)``.
    """

    u: Node
    v: Node

    def as_tuple(self) -> Tuple[Node, Node]:
        """The step as a plain ``(u, v)`` tuple."""
        return (self.u, self.v)


Forest = Union[CliqueForest, LineForest]


class RevealSequence:
    """A validated online learning MinLA request sequence.

    Instances are immutable once constructed; construction replays all steps
    against a fresh forest and raises :class:`~repro.errors.RevealError` if
    any step violates the model.

    Use the concrete subclasses :class:`CliqueRevealSequence` and
    :class:`LineRevealSequence` (or their ``from_pairs`` constructors).
    """

    kind: GraphKind

    def __init__(self, nodes: Sequence[Node], steps: Sequence[RevealStep]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise RevealError("node universe contains duplicates")
        if not nodes:
            raise RevealError("a reveal sequence needs at least one node")
        self._nodes: Tuple[Node, ...] = nodes
        self._steps: Tuple[RevealStep, ...] = tuple(
            step if isinstance(step, RevealStep) else RevealStep(*step) for step in steps
        )
        # Eager validation: replay everything once.
        self._replay_all()

    # ------------------------------------------------------------------
    # Forest replay
    # ------------------------------------------------------------------
    def new_forest(self) -> Forest:
        """A fresh (empty-graph) forest of the right kind over the node universe."""
        raise NotImplementedError

    @staticmethod
    def _apply(forest: Forest, step: RevealStep) -> None:
        """Apply a single step to a forest of the matching kind."""
        if isinstance(forest, CliqueForest):
            forest.merge(step.u, step.v)
        else:
            forest.add_edge(step.u, step.v)

    def _replay_all(self) -> Forest:
        forest = self.new_forest()
        for step in self._steps:
            self._apply(forest, step)
        return forest

    def replay(self) -> Iterator[Tuple[RevealStep, Forest]]:
        """Yield ``(step, forest-after-step)`` pairs, sharing one forest object.

        The yielded forest is the same object every time (mutated in place);
        callers that need snapshots should use :meth:`forest_after`.
        """
        forest = self.new_forest()
        for step in self._steps:
            self._apply(forest, step)
            yield step, forest

    def forest_after(self, step_count: int) -> Forest:
        """The forest describing ``G_{step_count}`` (a fresh object)."""
        if step_count < 0 or step_count > len(self._steps):
            raise RevealError(f"step count {step_count} out of range 0..{len(self._steps)}")
        forest = self.new_forest()
        for step in self._steps[:step_count]:
            self._apply(forest, step)
        return forest

    def final_forest(self) -> Forest:
        """The forest describing the fully revealed graph ``G_k``."""
        return self._replay_all()

    # ------------------------------------------------------------------
    # Plain queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The node universe, in construction order."""
        return self._nodes

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return len(self._nodes)

    @property
    def steps(self) -> Tuple[RevealStep, ...]:
        """The reveal steps in order."""
        return self._steps

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[RevealStep]:
        return iter(self._steps)

    def prefix(self, step_count: int) -> "RevealSequence":
        """A new sequence consisting of the first ``step_count`` steps."""
        if step_count < 0 or step_count > len(self._steps):
            raise RevealError(f"step count {step_count} out of range 0..{len(self._steps)}")
        return type(self)(self._nodes, self._steps[:step_count])

    def components_after(self, step_count: int) -> List[FrozenSet[Node]]:
        """The components of ``G_{step_count}`` as node sets."""
        return self.forest_after(step_count).components()

    def final_components(self) -> List[FrozenSet[Node]]:
        """The components of the fully revealed graph."""
        return self.final_forest().components()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"{type(self).__name__}(n={self.num_nodes}, steps={len(self._steps)})"
        )


class CliqueRevealSequence(RevealSequence):
    """A reveal sequence whose graphs are collections of disjoint cliques."""

    kind = GraphKind.CLIQUES

    def new_forest(self) -> CliqueForest:
        return CliqueForest(self._nodes)

    @classmethod
    def from_pairs(
        cls, nodes: Sequence[Node], pairs: Sequence[Tuple[Node, Node]]
    ) -> "CliqueRevealSequence":
        """Build a sequence from plain ``(u, v)`` merge pairs."""
        return cls(nodes, [RevealStep(u, v) for u, v in pairs])


class LineRevealSequence(RevealSequence):
    """A reveal sequence whose graphs are collections of disjoint lines."""

    kind = GraphKind.LINES

    def new_forest(self) -> LineForest:
        return LineForest(self._nodes)

    @classmethod
    def from_pairs(
        cls, nodes: Sequence[Node], pairs: Sequence[Tuple[Node, Node]]
    ) -> "LineRevealSequence":
        """Build a sequence from plain ``(u, v)`` edge pairs."""
        return cls(nodes, [RevealStep(u, v) for u, v in pairs])

    def final_paths(self) -> List[Tuple[Node, ...]]:
        """The fully revealed paths in path order."""
        return self.final_forest().paths()
