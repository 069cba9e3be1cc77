"""Structural characterizations of MinLA for disjoint cliques and lines.

The correctness of the whole online framework rests on two classic facts,
stated in Section 1 of DESIGN.md and verified against the brute-force solver
in the test suite:

* **Cliques.**  A permutation is a MinLA of a disjoint union of cliques if
  and only if every clique occupies contiguous positions.  The internal order
  of a clique is irrelevant (all pairs are edges, and the sum of pairwise
  distances of a contiguous block does not depend on the internal order).
* **Lines.**  A permutation is a MinLA of a disjoint union of paths if and
  only if every path occupies contiguous positions *and* its nodes appear in
  path order (in one of the two orientations).  Each of the ``size − 1``
  edges then has stretch exactly 1, which is optimal.

These predicates are what the simulator uses to verify, after every update of
an online algorithm, that the maintained permutation really is a MinLA of the
revealed subgraph — the hard feasibility requirement of the learning model.

All predicates are duck-typed over *arrangement views*: anything exposing
``position``/``span``/``is_contiguous``/``__getitem__``/``__len__``, plus
``__iter__``/``positions_of`` for :class:`IncrementalStepVerifier` (both
:class:`~repro.core.permutation.Arrangement` and
:class:`~repro.core.permutation.MutableArrangement` qualify), so per-step
verification can run against an algorithm's live mutable state without
materializing immutable snapshots.

:class:`IncrementalStepVerifier` is the high-throughput form of the check: it
exploits that each reveal step merges exactly two components, so when the
algorithm only moved the merged component (the case for the paper's
randomized algorithms), re-validating that single component — plus two
structural guards that look no further than the step's window of moved
positions — is equivalent to re-validating the whole forest.  Steps
that rearranged anything else fall back to the full characterization check,
so exactly the same violations are detected either way.
"""

from __future__ import annotations

from itertools import filterfalse
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.core.permutation import Arrangement, MutableArrangement
from repro.obs.profile import count_work as _count_work
from repro.telemetry.backends import _FEW_RUNS, count_inversions, runs_inversions
from repro.errors import ArrangementError
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.line_forest import LineForest
from repro.graphs.reveal import RevealStep
from repro.minla.cost import optimal_clique_cost, optimal_path_cost

Node = Hashable
Forest = Union[CliqueForest, LineForest]

#: Slice widths, widest first, of the verifier's search for the ends of a
#: step's mismatch window; single positions are compared after the last.
_SCAN_CHUNKS = (64, 8)


def is_minla_of_cliques(
    arrangement: Arrangement, components: Iterable[Iterable[Node]]
) -> bool:
    """``True`` iff every clique occupies contiguous positions in ``arrangement``."""
    return all(arrangement.is_contiguous(component) for component in components)


def is_path_ordered(arrangement: Arrangement, path: Sequence[Node]) -> bool:
    """``True`` iff ``path`` is contiguous and laid out in path order (either direction)."""
    path = list(path)
    if not arrangement.is_contiguous(path):
        return False
    if len(path) <= 1:
        return True
    lo, _ = arrangement.span(path)
    laid_out = tuple(arrangement[lo + offset] for offset in range(len(path)))
    return laid_out == tuple(path) or laid_out == tuple(reversed(path))


def is_minla_of_lines(arrangement: Arrangement, paths: Iterable[Sequence[Node]]) -> bool:
    """``True`` iff every path is contiguous and in path order in ``arrangement``."""
    return all(is_path_ordered(arrangement, path) for path in paths)


def is_minla_of_forest(arrangement: Arrangement, forest: Forest) -> bool:
    """Dispatch the feasibility check on the forest kind."""
    if isinstance(forest, CliqueForest):
        return is_minla_of_cliques(arrangement, forest.components())
    return is_minla_of_lines(arrangement, forest.paths())


def optimal_value_of_forest(forest: Forest) -> int:
    """The optimal MinLA objective value of the forest's current graph."""
    sizes = [len(component) for component in forest.components()]
    if isinstance(forest, CliqueForest):
        return sum(optimal_clique_cost(size) for size in sizes)
    return sum(optimal_path_cost(size) for size in sizes)


class IncrementalStepVerifier:
    """Re-validate only the component(s) touched by each reveal step.

    The verifier owns an independent forest replica (mutated via
    :meth:`observe`) plus a copy of the previous arrangement order, and checks
    after every step that the arrangement is still a MinLA of the revealed
    graph.  The check is split into:

    1. the merged component satisfies its characterization (contiguous for
       cliques, contiguous *and* path-ordered for lines) — ``O(|component|)``;
    2. the relative order of all untouched nodes is unchanged —
       ``O(|window|)``, compared inside the step's mismatch window only:
       nodes outside it kept their exact positions, so the untouched nodes'
       full orders agree iff their filtered windows do;
    3. the merged component's block does not sit strictly inside another
       component's span — ``O(1)`` via the two block-boundary neighbours.

    Given that the previous arrangement was feasible, (1)–(3) imply the full
    characterization.  When (2) or (3) fails — e.g. ``Det`` rearranged other
    components wholesale — the verifier falls back to the full
    :func:`is_minla_of_forest` check, so the outcome is always identical to
    re-validating the entire forest; only the cost of reaching it differs.

    **Index lists.**  The verifier interns ``initial_order`` into dense int
    indices and keeps every order as a list of them.  A
    :class:`~repro.core.permutation.MutableArrangement` interned in the same
    label order (equal :attr:`~repro.core.permutation.MutableArrangement.labels`,
    compared once per run and by identity after that) hands over a copy of
    its own index list; every other view is mapped label by label through
    the verifier's own table, and a label outside it raises
    :class:`~repro.errors.ArrangementError`.  Either way the verifier holds
    its own copy of the previous order and compares whole orders, so it
    trusts neither the algorithm nor the arrangement's bookkeeping.

    **Guard 2 in slices.**  Guard 1 proves that the merged block fills
    exactly ``[lo, hi]``, so the untouched nodes of the new window are the
    window minus that interval: at most two slices.  Only the previous
    window is filtered against the merged node set.

    **Guard 2 on a rotation.**  The dominant update shape, a block slide,
    turns the previous window ``X+Y`` into ``Y+X`` (see
    :meth:`_kendall_tau_from_previous`).  Write ``uX``/``uY`` for the
    untouched nodes of ``X``/``Y`` in order; guard 2 then asks whether
    ``uX+uY == uY+uX``.  If ``uX`` or ``uY`` is empty both sides are the
    same list.  If both are non-empty, the left side starts with a node of
    ``X`` and the right side with a node of ``Y``; ``X`` and ``Y`` are
    disjoint, so the lists differ.  Hence guard 2 holds iff ``X`` or ``Y``
    consists of merged nodes only — at most ``O(|merged|)`` membership
    tests, because a subset test stops at the first untouched node.

    **Kendall tau from segments.**  The verifier also measures each step's
    true Kendall-tau distance from its own copy of the previous order (see
    :meth:`_kendall_tau_from_previous`), giving the simulator a cost
    cross-check that is independent of whatever swap counts the algorithm
    reports.  A rotated window costs ``|X|·|Y|``.  Any other window is first
    split into at most eight segments that each sit in the previous window
    as one forward or reversed stretch (:meth:`_segment_inversions`) and
    priced in closed form; only a window of more segments, such as the
    scattered windows of ``Det``'s wholesale rewrites, reaches the
    inversion counter.  The segments are read off the two orders, so this
    too trusts nothing the algorithm claims.
    """

    def __init__(self, forest: Forest, initial_order: Iterable[Node]):
        self._forest = forest
        labels = tuple(initial_order)
        self._labels: Tuple[Node, ...] = labels
        self._index_of: Dict[Node, int] = dict(zip(labels, range(len(labels))))
        if len(self._index_of) != len(labels):
            raise ArrangementError("duplicate node in the initial order")
        self._previous_order: List[int] = list(range(len(labels)))
        # The label tuple of a MutableArrangement already proven equal to
        # ``_labels``: its index lists can be compared with ours directly.
        self._shared_labels: Optional[Tuple[Node, ...]] = None

    @property
    def forest(self) -> Forest:
        """The verifier's independent replica of the revealed graph."""
        return self._forest

    def observe(self, step: RevealStep) -> Union[Iterable[Node], Sequence[Node]]:
        """Apply ``step`` to the replica; returns the merged component.

        For cliques the merged clique is returned as a node set, for lines the
        merged path in path order.
        """
        if isinstance(self._forest, CliqueForest):
            return self._forest.merge(step.u, step.v).merged
        return self._forest.add_edge(step.u, step.v).merged

    def check_step(self, arrangement, merged) -> Tuple[bool, int]:
        """Validate ``arrangement`` against the forest after :meth:`observe`.

        ``merged`` is the component returned by the matching :meth:`observe`
        call.  Returns ``(feasible, kendall_tau)`` where ``kendall_tau`` is
        the verifier's *independent* measurement of the distance between the
        previous and the current arrangement — computed from its own stored
        copy of the previous order, never from algorithm-reported costs.
        Updates the stored previous order when (and only when) the
        arrangement is feasible, so one verifier instance tracks one run.
        """
        order = self._index_order(arrangement)
        kendall_tau, w_lo, w_hi, x_len = self._kendall_tau_from_previous(order)
        positions = arrangement.positions_of(merged)
        lo, hi = min(positions), max(positions)
        contiguous = hi - lo + 1 == len(positions)
        merged_indices = list(map(self._index_of.__getitem__, merged))
        if isinstance(self._forest, CliqueForest):
            merged_ok = contiguous
        else:
            # A path must additionally be laid out in path order, in one of
            # its two orientations.
            block = order[lo : hi + 1]
            merged_ok = contiguous and (
                block == merged_indices or block == merged_indices[::-1]
            )
        if not merged_ok:
            return False, kendall_tau
        feasible = self._step_left_rest_untouched(
            order, set(merged_indices), lo, hi, w_lo, w_hi, x_len
        )
        if feasible:
            _count_work("minla.verifier.incremental_checks")
        else:
            # The step rearranged something beyond the merged component;
            # fall back to re-validating the whole forest.
            _count_work("minla.verifier.full_checks")
            feasible = is_minla_of_forest(arrangement, self._forest)
        if feasible:
            self._previous_order = order
        return feasible, kendall_tau

    def _index_order(self, arrangement) -> List[int]:
        """``arrangement``'s order as a fresh list of the verifier's indices."""
        if isinstance(arrangement, MutableArrangement):
            labels = arrangement.labels
            if labels is self._shared_labels:
                return arrangement.index_order()
            if labels == self._labels:
                self._shared_labels = labels
                return arrangement.index_order()
        try:
            return list(map(self._index_of.__getitem__, arrangement))
        except KeyError:
            raise ArrangementError("the node universe changed during an update") from None

    def _kendall_tau_from_previous(self, order: List[int]) -> Tuple[int, int, int, int]:
        """Kendall-tau distance between the stored previous order and ``order``.

        Returns ``(distance, w_lo, w_hi, x_len)``, where ``[w_lo, w_hi]`` is
        the minimal window of mismatching positions (``w_lo > w_hi`` when the
        orders are equal).  Every node outside the window kept its exact
        position, so no pair involving such a node changed relative order;
        the distance therefore equals the inversion count inside the window
        — ``O(w log w)`` for a window of size ``w`` instead of
        ``O(n log n)`` for the whole arrangement.  The dominant update shape,
        a block slide, rotates its window (``X+Y`` becomes ``Y+X`` with both
        parts order-preserved, flipping exactly ``|X|·|Y|`` pairs); that case
        is recognized with two slice comparisons, costs no inversion count
        at all, and reports ``x_len = |X|`` (``-1`` for any other shape).
        Other windows of at most eight forward or reversed segments, such as
        a slide with one half flipped, are priced by
        :meth:`_segment_inversions`; the rest are counted.  The window's ends
        are found with slice comparisons that narrow in steps of 64, 8 and
        1, so the unchanged prefix and suffix cost C-level work only.
        """
        previous = self._previous_order
        n = len(previous)
        if len(order) != n:
            raise ArrangementError("the node universe changed during an update")
        if order == previous:
            return 0, 0, -1, -1
        lo = 0
        for chunk in _SCAN_CHUNKS:
            while previous[lo : lo + chunk] == order[lo : lo + chunk]:
                lo += chunk
        while previous[lo] == order[lo]:
            lo += 1
        hi = n
        for chunk in _SCAN_CHUNKS:
            while True:
                start = max(hi - chunk, lo)
                if previous[start:hi] != order[start:hi]:
                    break
                hi = start
        hi -= 1
        while previous[hi] == order[hi]:
            hi -= 1
        width = hi - lo + 1
        try:
            split = order.index(previous[lo], lo, hi + 1) - lo
        except ValueError:
            raise ArrangementError("the node universe changed during an update") from None
        x_len = width - split
        if (
            order[lo + split : hi + 1] == previous[lo : lo + x_len]
            and order[lo : lo + split] == previous[lo + x_len : hi + 1]
        ):
            return x_len * split, lo, hi, x_len
        distance = self._segment_inversions(order, lo, hi)
        if distance is not None:
            return distance, lo, hi, -1
        window_position = dict(zip(order[lo : hi + 1], range(width)))
        try:
            sequence = list(map(window_position.__getitem__, previous[lo : hi + 1]))
        except KeyError:
            raise ArrangementError("the node universe changed during an update") from None
        return count_inversions(sequence), lo, hi, -1

    def _segment_inversions(self, order: List[int], lo: int, hi: int) -> Optional[int]:
        """Kendall-tau distance of the window ``[lo, hi]`` from its segments, or ``None``.

        Splits the new window, left to right, into maximal segments that
        appear in the previous window as one contiguous stretch, forward or
        reversed.  Each segment starts where ``list.index`` finds its first
        node in the previous window and grows by galloping slice
        comparisons between the two orders, so ``L`` nodes cost
        ``O(log L)`` C-level comparisons.  The segments are priced by the
        closed form :func:`~repro.telemetry.backends.runs_inversions` over
        their previous positions.  Returns ``None`` after
        :data:`~repro.telemetry.backends._FEW_RUNS` segments, so a scattered
        window (such as ``Det``'s) falls back to the inversion counter early.
        """
        previous = self._previous_order
        end = hi + 1
        runs: List[Tuple[int, int, int, bool]] = []
        start = lo
        while start < end:
            if len(runs) == _FEW_RUNS:
                return None
            try:
                first = previous.index(order[start], lo, end)
            except ValueError:
                raise ArrangementError("the node universe changed during an update") from None
            following = order[start + 1] if start + 1 < end else None
            if first + 1 < end and following == previous[first + 1]:
                forward, limit = True, min(end - start, end - first)
            elif first > lo and following == previous[first - 1]:
                forward, limit = False, min(end - start, first - lo + 1)
            else:
                runs.append((first, first, 1, False))
                start += 1
                continue
            # Two nodes match; double the probe while the stretch goes on,
            # then halve it down to the stretch's exact end.
            length, width, growing = 2, 2, True
            while width and length < limit:
                stop = min(length + width, limit)
                if forward:
                    fits = order[start + length : start + stop] == previous[
                        first + length : first + stop
                    ]
                else:
                    fits = order[start + length : start + stop] == previous[
                        first - stop + 1 : first - length + 1
                    ][::-1]
                if fits:
                    length = stop
                    width = width * 2 if growing else width // 2
                else:
                    growing = False
                    width //= 2
            low = first if forward else first - length + 1
            runs.append((low, low + length - 1, length, not forward))
            start += length
        return runs_inversions(runs)

    def _step_left_rest_untouched(
        self,
        order: List[int],
        touched: Set[int],
        lo: int,
        hi: int,
        w_lo: int,
        w_hi: int,
        x_len: int,
    ) -> bool:
        """Sufficient condition: only the merged component moved this step.

        ``lo``/``hi`` bound the merged component's (contiguous) span,
        ``[w_lo, w_hi]`` is the step's mismatch window and ``x_len`` the
        length of its first half when the step rotated it (``-1``
        otherwise).  Checks guards (2) and (3) of the class docstring.  A
        ``False`` return is not a violation — merely a signal to run the
        full check.
        """
        # Guard 3: the merged block must not split another component.  The
        # merged component is contiguous (guard 1 passed), so the only way an
        # untouched component can lose contiguity while keeping its internal
        # order is having the merged block land strictly inside its span —
        # in which case both block neighbours belong to that component.
        if lo > 0 and hi + 1 < len(order):
            labels = self._labels
            if self._forest.same_component(labels[order[lo - 1]], labels[order[hi + 1]]):
                return False
        # Guard 2: untouched nodes must appear in the same relative order as
        # before the step.  Nodes outside the mismatch window kept their
        # exact positions, so the filtered full orders agree iff the filtered
        # windows do; an empty window passes.  A rotated window passes iff
        # one of its halves is all merged nodes (class docstring); otherwise
        # the new window's untouched nodes are the parts left and right of
        # the merged block, which fills exactly ``[lo, hi]`` (guard 1).
        previous = self._previous_order
        if x_len >= 0:
            split = w_lo + x_len
            return touched.issuperset(previous[w_lo:split]) or touched.issuperset(
                previous[split : w_hi + 1]
            )
        untouched_now = (
            order[w_lo : min(lo, w_hi + 1)] + order[max(hi + 1, w_lo) : w_hi + 1]
        )
        return untouched_now == list(
            filterfalse(touched.__contains__, previous[w_lo : w_hi + 1])
        )


def violated_components(
    arrangement: Arrangement, forest: Forest
) -> Tuple[Tuple[Node, ...], ...]:
    """The components violating the MinLA characterization (for error messages)."""
    violations = []
    if isinstance(forest, CliqueForest):
        for component in forest.components():
            if not arrangement.is_contiguous(component):
                violations.append(tuple(sorted(component, key=repr)))
    else:
        for path in forest.paths():
            if not is_path_ordered(arrangement, path):
                violations.append(tuple(path))
    return tuple(violations)
