"""Kind-dispatching wrappers around the paper's algorithms.

Applications such as the virtual-network-embedding controller often do not
want to hard-code whether the traffic pattern is a collection of cliques or a
collection of lines — they just want "the paper's randomized algorithm" for
whatever instance shows up.  The factories below defer the choice to
:meth:`reset`, when the instance's :class:`~repro.graphs.reveal.GraphKind`
is known, and then delegate every call to the appropriate concrete learner.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple, Type

from repro.core.algorithm import Forest, Node, OnlineMinLAAlgorithm
from repro.core.cost import UpdateRecord
from repro.core.permutation import Arrangement, MutableArrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind, RevealStep


class KindDispatchingLearner(OnlineMinLAAlgorithm):
    """Delegate to a per-kind concrete algorithm chosen at reset time.

    Subclasses (or direct instantiations) provide one algorithm class per
    graph kind; the wrapper instantiates the right one when it learns the
    instance's kind and forwards all processing to it, so the wrapper can be
    used anywhere an :class:`OnlineMinLAAlgorithm` is expected.
    """

    name = "kind-dispatching-learner"

    def __init__(self, implementations: Dict[GraphKind, Type[OnlineMinLAAlgorithm]]):
        super().__init__()
        if set(implementations) != {GraphKind.CLIQUES, GraphKind.LINES}:
            raise ReproError(
                "a kind-dispatching learner needs one implementation per graph kind"
            )
        self._implementations = dict(implementations)
        self._delegate: Optional[OnlineMinLAAlgorithm] = None

    def reset(
        self,
        nodes: Sequence[Node],
        kind: GraphKind,
        initial_arrangement: Arrangement,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().reset(nodes, kind, initial_arrangement, rng)
        self._delegate = self._implementations[kind]()
        self._delegate.reset(nodes, kind, initial_arrangement, rng)

    def process(self, step: RevealStep) -> UpdateRecord:
        if self._delegate is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        record = self._delegate.process(step)
        # The wrapper's own arrangement properties delegate lazily, so no
        # per-step snapshot is materialized here.
        self._step_index += 1
        return record

    @property
    def current_arrangement(self) -> Arrangement:
        if self._delegate is not None:
            return self._delegate.current_arrangement
        return super().current_arrangement

    def arrangement_view(self):
        if self._delegate is not None:
            return self._delegate.arrangement_view()
        return super().arrangement_view()

    @property
    def forest(self) -> Forest:
        if self._delegate is not None:
            return self._delegate.forest
        return super().forest

    @property
    def delegate(self) -> OnlineMinLAAlgorithm:
        """The concrete algorithm chosen for the current run."""
        if self._delegate is None:
            raise ReproError("the algorithm has not been reset with an instance yet")
        return self._delegate

    def _handle_step_fast(
        self, step: RevealStep, arrangement: MutableArrangement
    ) -> Tuple[int, int, int]:
        raise AssertionError("process() is fully delegated to the delegate")


class AutoRandomizedLearner(KindDispatchingLearner):
    """The paper's randomized algorithm for whichever kind the instance has."""

    name = "rand-auto"

    def __init__(self) -> None:
        super().__init__(
            {
                GraphKind.CLIQUES: RandomizedCliqueLearner,
                GraphKind.LINES: RandomizedLineLearner,
            }
        )

