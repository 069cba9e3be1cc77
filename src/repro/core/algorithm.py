"""The online algorithm interface.

Every algorithm studied by the paper (and every baseline added by this
reproduction) follows the same request/response protocol:

1. :meth:`OnlineMinLAAlgorithm.reset` hands the algorithm the instance's node
   universe, graph kind and initial permutation ``π_0`` (plus a random number
   generator for randomized algorithms);
2. for every reveal step the simulator calls
   :meth:`OnlineMinLAAlgorithm.process`, after which
   :attr:`OnlineMinLAAlgorithm.current_arrangement` must be a MinLA of the
   revealed subgraph; the method returns an :class:`~repro.core.cost.UpdateRecord`
   describing how many adjacent swaps the update used.

Algorithms maintain their own view of the revealed graph (a
:class:`~repro.graphs.clique_forest.CliqueForest` or a
:class:`~repro.graphs.line_forest.LineForest`); the simulator keeps an
independent copy to verify feasibility, so a bookkeeping bug in an algorithm
cannot silently corrupt an experiment.

Subclasses implement one update, :meth:`_handle_step_fast`, which mutates an
array-backed :class:`~repro.core.permutation.MutableArrangement` in place and
returns ``(moving_cost, rearranging_cost, kendall_tau)``.  Because the
paper's block operations are swap-exact (each reported swap is one adjacent
transposition, and the moving and rearranging phases flip disjoint node
pairs), the returned ``kendall_tau`` is the exact distance between
consecutive permutations; the simulator's verifier measures it independently.
Immutable snapshots are materialized lazily, only when
:attr:`current_arrangement` is read.
"""

from __future__ import annotations

import abc
import random
from typing import Hashable, Optional, Sequence, Tuple, Union

from repro.core.cost import UpdateRecord
from repro.core.permutation import Arrangement, MutableArrangement
from repro.errors import ReproError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, RevealStep

Node = Hashable
Forest = Union[CliqueForest, LineForest]

#: Read-only positional view of an arrangement: either an immutable
#: :class:`Arrangement` or a live :class:`MutableArrangement` (do not mutate).
ArrangementView = Union[Arrangement, MutableArrangement]


class OnlineMinLAAlgorithm(abc.ABC):
    """Abstract base class of all online learning MinLA algorithms.

    Subclasses implement :meth:`_handle_step_fast` and may override
    :meth:`supports` to restrict themselves to one graph kind (for example,
    the randomized clique learner refuses line instances).
    """

    #: Human-readable identifier used in result tables.
    name: str = "online-minla-algorithm"

    def __init__(self) -> None:
        self._arrangement: Optional[Arrangement] = None
        self._mutable: Optional[MutableArrangement] = None
        self._initial_arrangement: Optional[Arrangement] = None
        self._forest: Optional[Forest] = None
        self._kind: Optional[GraphKind] = None
        self._rng: random.Random = random.Random(0)
        self._step_index = 0

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, kind: GraphKind) -> bool:
        """Whether the algorithm can handle instances of the given graph kind."""
        return True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(
        self,
        nodes: Sequence[Node],
        kind: GraphKind,
        initial_arrangement: Arrangement,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Prepare the algorithm for a fresh run.

        Parameters
        ----------
        nodes:
            The node universe of the instance.
        kind:
            Whether reveals describe clique merges or line edges.
        initial_arrangement:
            The starting permutation ``π_0``.
        rng:
            Source of randomness for randomized algorithms; deterministic
            algorithms ignore it.  Defaults to ``random.Random(0)``.
        """
        if not self.supports(kind):
            raise ReproError(f"{self.name} does not support {kind.value} instances")
        if initial_arrangement.nodes != frozenset(nodes):
            raise ReproError("initial arrangement does not match the node universe")
        self._kind = kind
        self._initial_arrangement = initial_arrangement
        self._arrangement = initial_arrangement
        self._mutable = MutableArrangement.from_arrangement(initial_arrangement)
        self._rng = rng if rng is not None else random.Random(0)
        self._forest = (
            CliqueForest(nodes) if kind is GraphKind.CLIQUES else LineForest(nodes)
        )
        self._step_index = 0
        self._after_reset()

    def _after_reset(self) -> None:
        """Hook for subclasses that keep extra per-run state."""

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    @property
    def current_arrangement(self) -> Arrangement:
        """The permutation currently maintained by the algorithm.

        This materializes (and caches) an immutable snapshot of the in-place
        state; the cache is invalidated by every update.
        """
        if self._mutable is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        if self._arrangement is None:
            self._arrangement = self._mutable.snapshot()
        return self._arrangement

    def arrangement_view(self) -> ArrangementView:
        """A read-only positional view of the current arrangement.

        Returns the live :class:`MutableArrangement` (callers must not mutate
        it).  Use this instead of :attr:`current_arrangement` in per-step
        verification loops to avoid materializing a snapshot on every step.
        """
        if self._mutable is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        return self._mutable

    @property
    def initial_arrangement(self) -> Arrangement:
        """The starting permutation ``π_0`` of the current run."""
        if self._initial_arrangement is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        return self._initial_arrangement

    @property
    def forest(self) -> Forest:
        """The algorithm's view of the revealed graph."""
        if self._forest is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        return self._forest

    @property
    def kind(self) -> GraphKind:
        """The graph kind of the current run."""
        if self._kind is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        return self._kind

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    def process(self, step: RevealStep) -> UpdateRecord:
        """Handle one reveal step and return the cost record of the update."""
        if self._mutable is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        moving_cost, rearranging_cost, kendall_tau = self._handle_step_fast(
            step, self._mutable
        )
        self._arrangement = None  # invalidate the snapshot cache
        record = UpdateRecord(
            step_index=self._step_index,
            step=step,
            moving_cost=moving_cost,
            rearranging_cost=rearranging_cost,
            kendall_tau=kendall_tau,
        )
        self._step_index += 1
        return record

    @abc.abstractmethod
    def _handle_step_fast(
        self, step: RevealStep, arrangement: MutableArrangement
    ) -> Tuple[int, int, int]:
        """Apply one reveal step in place on ``arrangement``.

        Implementations must update their forest view, mutate ``arrangement``
        and return ``(moving_cost, rearranging_cost, kendall_tau)`` where the
        two costs count the adjacent swaps spent in the respective phase and
        ``kendall_tau`` is the exact Kendall-tau distance between the
        arrangement before and after the update.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(name={self.name!r})"
