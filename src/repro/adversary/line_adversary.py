"""The adaptive line adversary of Theorem 16 (deterministic lower bound).

Theorem 16 shows that every deterministic algorithm of the ``Det`` family
("always move to a feasible permutation closest to ``π_0``") has competitive
ratio ``Ω(n)``.  The adversary works on a line instance and is *adaptive*: it
watches the algorithm's current permutation and always grows the revealed
path on the side where the algorithm parked the special middle node ``x``.

Construction (with ``π_0 = v_1 … v_n``, ``n`` odd, ``x`` the middle node):

1. request the edge between ``x``'s two ``π_0``-neighbours — the revealed
   path ``Y`` now "surrounds" ``x`` in ``π_0`` but excludes it, so the
   algorithm must park ``x`` on one side of ``Y``;
2. repeatedly: look where the algorithm put ``x``; take the nearest
   still-isolated ``π_0``-neighbour of the revealed segment **on that side**
   and attach it to the corresponding endpoint of ``Y``.  Growing ``Y`` on
   ``x``'s side eventually flips which side of ``Y`` is closer to ``π_0``
   for ``x``, forcing the algorithm to drag ``x`` across the whole component
   — a ``Θ(|Y|)`` cost — every couple of requests.

The revealed graph is always the ``π_0``-segment around ``x`` (excluding
``x``) in ``π_0`` order, so an offline algorithm can serve everything by
moving ``x`` to one end once, at cost ``O(n)``; the online algorithm pays
``Ω(n²)``.

Because the adversary is adaptive it cannot be captured by a static
:class:`~repro.graphs.reveal.LineRevealSequence` up front; instead,
:func:`run_line_adversary` drives an algorithm interactively and returns the
realized sequence (which *is* a valid static sequence in hindsight) together
with the cost ledger and offline bounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.cost import CostLedger
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import OptBounds, offline_optimum_bounds
from repro.core.permutation import Arrangement
from repro.errors import InfeasibleArrangementError, ReproError
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import GraphKind, LineRevealSequence, RevealStep
from repro.minla.characterizations import is_minla_of_lines


@dataclass(frozen=True)
class LineAdversaryResult:
    """Outcome of driving one algorithm against the Theorem 16 adversary."""

    algorithm_name: str
    num_nodes: int
    ledger: CostLedger
    sequence: LineRevealSequence
    instance: OnlineMinLAInstance
    opt_bounds: OptBounds

    @property
    def total_cost(self) -> int:
        """Total adjacent swaps paid by the online algorithm."""
        return self.ledger.total_cost

    @property
    def ratio_lower_estimate(self) -> float:
        """Cost divided by the offline *upper* bound (a conservative ratio estimate)."""
        denominator = max(self.opt_bounds.upper, 1)
        return self.total_cost / denominator


def middle_node_index(num_nodes: int) -> int:
    """Position of the special middle node ``x`` (requires an odd node count)."""
    if num_nodes < 5 or num_nodes % 2 == 0:
        raise ReproError("the line adversary needs an odd number of nodes, at least 5")
    return num_nodes // 2


def run_line_adversary(
    algorithm: OnlineMinLAAlgorithm,
    num_nodes: int,
    rng: Optional[random.Random] = None,
    initial_arrangement: Optional[Arrangement] = None,
    verify: bool = True,
) -> LineAdversaryResult:
    """Drive ``algorithm`` against the adaptive adversary of Theorem 16.

    Parameters
    ----------
    algorithm:
        Any online learning MinLA algorithm supporting line instances.  The
        theorem targets the ``Det`` family, but running the randomized
        algorithm through the same adversary is the comparison experiment E5
        reports.
    num_nodes:
        Odd number of nodes (at least 5).
    rng:
        Randomness source handed to the algorithm (the adversary itself is
        deterministic given the algorithm's responses).
    initial_arrangement:
        Starting permutation ``π_0``; defaults to the identity ``0 … n-1``.
    verify:
        Check after every step that the algorithm's arrangement is a MinLA of
        the revealed graph.
    """
    x_index = middle_node_index(num_nodes)
    nodes: List[int] = list(range(num_nodes))
    if initial_arrangement is None:
        initial_arrangement = Arrangement(nodes)
    if initial_arrangement.nodes != frozenset(nodes):
        raise ReproError("the initial arrangement must cover nodes 0 … n-1")

    # The special node and the π0-ordered nodes on its two sides, nearest first.
    pi0_order = list(initial_arrangement.order)
    x_node = pi0_order[x_index]
    left_side = list(reversed(pi0_order[:x_index]))
    right_side = pi0_order[x_index + 1 :]

    algorithm.reset(
        nodes=nodes,
        kind=GraphKind.LINES,
        initial_arrangement=initial_arrangement,
        rng=rng if rng is not None else random.Random(0),
    )

    ledger = CostLedger()
    steps: List[RevealStep] = []
    verification_forest = LineForest(nodes)

    def issue(u: int, v: int) -> None:
        step = RevealStep(u, v)
        record = algorithm.process(step)
        ledger.add(record)
        steps.append(step)
        verification_forest.add_edge(u, v)
        if verify and not is_minla_of_lines(
            algorithm.current_arrangement, verification_forest.paths()
        ):
            raise InfeasibleArrangementError(
                f"{algorithm.name} violated feasibility against the line adversary"
            )

    # First request: the two π0-neighbours of x.
    left_endpoint = left_side[0]
    right_endpoint = right_side[0]
    issue(left_endpoint, right_endpoint)
    consumed_left, consumed_right = 1, 1

    while consumed_left + consumed_right < num_nodes - 1:
        arrangement = algorithm.current_arrangement
        component = verification_forest.component_of(left_endpoint)
        lo, hi = arrangement.span(component)
        x_position = arrangement.position(x_node)
        x_is_left = x_position < lo
        # Grow the revealed segment on the side where the algorithm parked x
        # (falling back to the other side once one side is exhausted).
        grow_left = x_is_left
        if grow_left and consumed_left >= len(left_side):
            grow_left = False
        if not grow_left and consumed_right >= len(right_side):
            grow_left = True
        if grow_left:
            new_node = left_side[consumed_left]
            issue(new_node, left_endpoint)
            left_endpoint = new_node
            consumed_left += 1
        else:
            new_node = right_side[consumed_right]
            issue(new_node, right_endpoint)
            right_endpoint = new_node
            consumed_right += 1

    sequence = LineRevealSequence(nodes, steps)
    instance = OnlineMinLAInstance(sequence, initial_arrangement)
    opt_bounds = offline_optimum_bounds(instance)
    return LineAdversaryResult(
        algorithm_name=algorithm.name,
        num_nodes=num_nodes,
        ledger=ledger,
        sequence=sequence,
        instance=instance,
        opt_bounds=opt_bounds,
    )


def offline_cost_upper_bound(num_nodes: int) -> int:
    """Theorem 16's bound on the offline cost of the constructed sequence (``≤ n``).

    The revealed path keeps the ``π_0`` internal order, so moving ``x`` to one
    end of the line once serves every request.
    """
    middle_node_index(num_nodes)
    return num_nodes


def online_cost_lower_bound(num_nodes: int) -> float:
    """The ``Ω(n²)`` online cost the theorem forces on the ``Det`` family.

    The constant is not made explicit in the paper; the experiment compares
    the measured cost against ``n² / 16``, which the proof's argument
    (a Θ(|Y|) crossing every other request) comfortably guarantees.
    """
    middle_node_index(num_nodes)
    return num_nodes * num_nodes / 16.0
