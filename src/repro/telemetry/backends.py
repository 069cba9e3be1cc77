"""The one inversion counter behind every cost this library reports.

Every cost number this library reports is, at bottom, an inversion count:
the Kendall-tau distance between two arrangements is the number of node
pairs they order differently, and the block operations, the offline-optimum
brackets and the incremental verifier all reduce their accounting to "count
the inversions of this integer sequence".  This module is that primitive,
in pure Python with no dependencies:

* :func:`count_inversions` answers a sequence of a few consecutive runs
  (the shapes a block slide plus an orientation flip produces) in closed
  form, and any other sequence with an ``O(n log n)`` merge sort;
* :func:`runs_inversions` is that closed form on its own, for callers that
  already know the runs (the incremental verifier's window segments);
* :func:`count_cross_inversions` counts the pairs of two sorted groups that
  are out of order with a two-pointer pass.

The two counters bump the ``telemetry.backends.calls`` / ``.elements``
work counters once per call; :func:`runs_inversions` counts no work.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs.profile import count_work as _count_work


#: Most maximal runs :func:`_few_run_inversions` handles before it gives up.
_FEW_RUNS = 8


def _run_end(values: List[int], start: int, step: int) -> int:
    """End (exclusive) of the maximal run from ``start`` stepping by ``step``.

    Gallops: the probe doubles while ``values`` keeps matching the run's
    arithmetic progression, then halves down to the exact end, so a run of
    length ``L`` costs ``O(log L)`` C-level slice comparisons.
    """
    n = len(values)
    first = values[start]
    end, width, growing = start + 1, 1, True
    while width and end < n:
        stop = min(end + width, n)
        expected = first + step * (end - start)
        if values[end:stop] == list(range(expected, expected + step * (stop - end), step)):
            end = stop
            if growing:
                width *= 2
        else:
            growing = False
            width //= 2
    return end


def runs_inversions(runs: Sequence[Tuple[int, int, int, bool]]) -> Optional[int]:
    """Inversions of a concatenation of monotone runs, or ``None``.

    Each run is ``(low, high, length, descending)``: ``length`` consecutive
    values covering ``low..high`` in ascending or descending order.  A
    descending run holds ``length·(length-1)/2`` inversions, and a pair of
    runs adds the product of their lengths when the later run's range lies
    below the earlier one's.  Two runs whose ranges overlap return ``None``.
    """
    inversions = 0
    for index, (low, high, length, descending) in enumerate(runs):
        if descending:
            inversions += length * (length - 1) // 2
        for later_low, later_high, later_length, _ in runs[index + 1 :]:
            if later_high < low:
                inversions += length * later_length
            elif later_low <= high:
                return None
    return inversions


def _few_run_inversions(values: List[int]) -> Optional[int]:
    """Exact inversion count of a few-run sequence, or ``None``.

    Handles sequences that split into at most :data:`_FEW_RUNS` maximal runs
    of ``+1`` or ``-1`` steps whose value ranges are pairwise disjoint — the
    shapes a block slide plus an orientation flip produces — and prices them
    with :func:`runs_inversions`.  Anything else returns ``None`` once it
    has seen more than :data:`_FEW_RUNS` runs or two overlapping ones.
    """
    runs: List[Tuple[int, int, int, bool]] = []
    n = len(values)
    start = 0
    while start < n:
        if len(runs) == _FEW_RUNS:
            return None
        end = start + 1
        if end < n:
            step = values[end] - values[start]
            # ``range`` needs ints: a step of any other type ends the run here.
            if type(step) is int and (step == 1 or step == -1):
                end = _run_end(values, start, step)
        first, last = values[start], values[end - 1]
        descending = last < first
        low, high = (last, first) if descending else (first, last)
        runs.append((low, high, end - start, descending))
        start = end
    return runs_inversions(runs)


def _merge_sort_count(values: List[int]) -> Tuple[List[int], int]:
    """Return ``(sorted(values), inversion count)`` using merge sort."""
    n = len(values)
    if n <= 1:
        return values, 0
    mid = n // 2
    left, inv_left = _merge_sort_count(values[:mid])
    right, inv_right = _merge_sort_count(values[mid:])
    merged: List[int] = []
    inversions = inv_left + inv_right
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
            inversions += len(left) - i
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged, inversions


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs ``i < j`` with ``values[i] > values[j]``.

    The count equals the Kendall-tau distance between the sequence and its
    sorted version.

    >>> count_inversions([0, 1, 2, 3])
    0
    >>> count_inversions([3, 2, 1, 0])
    6
    """
    _count_work("telemetry.backends.calls")
    _count_work("telemetry.backends.elements", len(values))
    values = values if type(values) is list else list(values)
    few_run = _few_run_inversions(values)
    if few_run is not None:
        return few_run
    return _merge_sort_count(values)[1]


def count_cross_inversions(
    left_sorted: Sequence[int], right_sorted: Sequence[int]
) -> int:
    """Pairs ``(x, y) ∈ left × right`` with ``x > y``, both inputs sorted.

    This is the "cross cost" of the closest-arrangement solver and the
    laminar layout DP: the number of adjacent swaps attributable to placing
    the ``left`` group entirely before the ``right`` group.
    """
    _count_work("telemetry.backends.calls")
    _count_work(
        "telemetry.backends.elements", len(left_sorted) + len(right_sorted)
    )
    count = 0
    pointer = 0
    length = len(right_sorted)
    for left_value in left_sorted:
        while pointer < length and right_sorted[pointer] < left_value:
            pointer += 1
        count += pointer
    return count
