"""Pluggable inversion-counting backends.

Every cost number this library reports is, at bottom, an inversion count:
the Kendall-tau distance between two arrangements is the number of node
pairs they order differently, and the block operations, the offline-optimum
brackets and the incremental verifier all reduce their accounting to "count
the inversions of this integer sequence".  This module makes that single
primitive pluggable:

* :class:`MergeSortBackend` — the portable pure-Python merge sort,
  ``O(n log n)``, no dependencies; the reference implementation.
* :class:`NumpyBackend` — a vectorized bottom-up merge sort (optional
  dependency).  Small inputs are delegated to the merge sort (numpy's
  per-call overhead dominates below :data:`NumpyBackend.min_vector_length`
  elements); large inputs run 3–8× faster.  Counts are exact integers, so
  the two backends are bit-identical on every input.

Backend selection
-----------------
The active backend is resolved once, lazily, in this order:

1. an explicit :func:`set_backend` call,
2. the ``REPRO_METRIC_BACKEND`` environment variable (``auto`` / ``python``
   / ``numpy``),
3. ``auto``: numpy when importable, the merge sort otherwise.

Requesting ``numpy`` when numpy is not installed (or an unknown name) raises
:class:`~repro.errors.ReproError` — a mis-spelt override must never silently
change which code measured an experiment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.envconfig import read_env_choice
from repro.errors import ReproError
from repro.obs.profile import count_work as _count_work

#: Environment variable overriding the backend choice (``auto``/``python``/``numpy``).
BACKEND_ENV_VAR = "REPRO_METRIC_BACKEND"

try:  # pragma: no cover - exercised via the CI matrix leg without numpy
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised via the CI matrix leg
    _numpy = None


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


def _few_run_inversions(values: List[int]) -> Optional[int]:
    """Exact inversion count of a few-run sequence, or ``None``.

    Handles sequences that split into at most :data:`_FEW_RUNS` maximal runs
    of ``+1`` or ``-1`` steps whose value ranges are pairwise disjoint — the
    shapes a block slide plus an orientation flip produces.  A descending
    run of length ``L`` holds ``L(L-1)/2`` inversions, and a pair of runs
    adds the product of their lengths when the later run's range is lower.
    Anything else returns ``None`` once it has seen more than
    :data:`_FEW_RUNS` runs or two overlapping ones.
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
            # ``range`` needs ints: float or numpy steps end the run here.
            if type(step) is int and (step == 1 or step == -1):
                end = _run_end(values, start, step)
        first, last = values[start], values[end - 1]
        descending = last < first
        low, high = (last, first) if descending else (first, last)
        runs.append((low, high, end - start, descending))
        start = end
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


class InversionBackend:
    """Interface of an inversion-counting backend.

    A backend provides the two counting primitives the library measures
    costs with; both must return exact integer counts, identical across
    backends for every input.
    """

    #: Registry name of the backend (``python``, ``numpy``).
    name: str = "abstract"

    def count_inversions(self, values: Sequence[int]) -> int:
        """Number of pairs ``i < j`` with ``values[i] > values[j]``."""
        raise NotImplementedError

    def count_cross_inversions(
        self, left_sorted: Sequence[int], right_sorted: Sequence[int]
    ) -> int:
        """Pairs ``(x, y) ∈ left × right`` with ``x > y``, both inputs sorted.

        This is the "cross cost" primitive of the closest-arrangement solver
        and the laminar layout DP: the number of adjacent swaps attributable
        to placing the ``left`` group entirely before the ``right`` group.
        """
        raise NotImplementedError

    def count_inversions_batch(
        self, sequences: Sequence[Sequence[int]]
    ) -> List[int]:
        """Inversion counts of many sequences in one call.

        The default implementation loops :meth:`count_inversions`; the numpy
        backend overrides it with a single vectorized pass over the whole
        batch, which is where the speedup lives when a run produces *many
        small* counts (per-step Kendall-tau distances of a whole trial
        batch).  Counts are exact integers, bit-identical across backends
        and to the one-at-a-time path.
        """
        return [self.count_inversions(sequence) for sequence in sequences]


class MergeSortBackend(InversionBackend):
    """The portable pure-Python merge-sort backend (always available)."""

    name = "python"

    def count_inversions(self, values: Sequence[int]) -> int:
        values = list(values)
        if len(values) < 2:
            return 0
        _, inversions = _merge_sort_count(values)
        return inversions

    def count_cross_inversions(
        self, left_sorted: Sequence[int], right_sorted: Sequence[int]
    ) -> int:
        count = 0
        pointer = 0
        length = len(right_sorted)
        for left_value in left_sorted:
            while pointer < length and right_sorted[pointer] < left_value:
                pointer += 1
            count += pointer
        return count


class NumpyBackend(InversionBackend):
    """Vectorized bottom-up merge-sort counting (requires numpy).

    The input is padded to a power-of-two length with a sentinel ≥ every
    value (pads form a suffix, so they never create inversions), base runs
    of :data:`base_width` elements are counted with one broadcast
    comparison, and each doubling level merges all run pairs at once with a
    stable ``argsort`` over the ``(runs, 2·width)`` matrix: an element
    arriving from the right half of its run is inverted with exactly the
    left-half elements placed after it.
    """

    name = "numpy"

    #: Width of the broadcast-counted base runs (profiled crossover).
    base_width = 64

    #: Base-run width of the batched path.  Batch rows are short (the whole
    #: point of batching is many *small* counts), so the ``O(width²)``
    #: broadcast triangle is kept narrow and the argsort merge levels do the
    #: rest; profiled at 3–10× over the merge-sort loop for rows of 24–64.
    batch_base_width = 16

    #: Below this length the merge sort wins on per-call overhead.
    min_vector_length = 128

    def __init__(self) -> None:
        if _numpy is None:
            raise ReproError(
                "the numpy metric backend requires numpy, which is not installed; "
                "install numpy or select REPRO_METRIC_BACKEND=python"
            )
        self._fallback = MergeSortBackend()

    def count_inversions(self, values: Sequence[int]) -> int:
        np = _numpy
        n = len(values)
        if n < self.min_vector_length:
            return self._fallback.count_inversions(values)
        a = np.asarray(values, dtype=np.int64)
        padded = 1 << (n - 1).bit_length()
        if padded != n:
            a = np.concatenate(
                (a, np.full(padded - n, np.iinfo(np.int64).max, dtype=np.int64))
            )
        width = min(self.base_width, padded)
        runs = a.reshape(-1, width)
        upper_triangle = np.triu(np.ones((width, width), dtype=bool), 1)
        inversions = int(
            ((runs[:, :, None] > runs[:, None, :]) & upper_triangle).sum()
        )
        a = np.sort(runs, axis=1).reshape(-1)
        while width < padded:
            runs = a.reshape(-1, 2 * width)
            order = np.argsort(runs, axis=1, kind="stable")
            from_right = order >= width
            left_seen = np.cumsum(~from_right, axis=1)
            inversions += int((from_right * (width - left_seen)).sum())
            a = np.take_along_axis(runs, order, axis=1).reshape(-1)
            width *= 2
        return inversions

    def count_cross_inversions(
        self, left_sorted: Sequence[int], right_sorted: Sequence[int]
    ) -> int:
        np = _numpy
        if len(left_sorted) * len(right_sorted) == 0:
            return 0
        if len(left_sorted) + len(right_sorted) < self.min_vector_length:
            return self._fallback.count_cross_inversions(left_sorted, right_sorted)
        right = np.asarray(right_sorted, dtype=np.int64)
        left = np.asarray(left_sorted, dtype=np.int64)
        return int(np.searchsorted(right, left, side="left").sum())

    def count_inversions_batch(
        self, sequences: Sequence[Sequence[int]]
    ) -> List[int]:
        """One vectorized pass over a whole batch of (small) sequences.

        All sequences are padded with a maximal sentinel to one shared
        power-of-two length and stacked into a ``(batch, padded)`` matrix;
        the bottom-up merge-sort counting of :meth:`count_inversions` then
        runs on the whole matrix at once, attributing counts per row.  Pads
        form a suffix of every row, so they never create inversions.  The
        per-call overhead of numpy is paid once per *batch* instead of once
        per sequence, which is exactly the regime (many small counts) where
        the one-at-a-time vectorized path loses to the merge sort.
        """
        np = _numpy
        rows = [list(sequence) for sequence in sequences]
        if not rows:
            return []
        max_len = max(len(row) for row in rows)
        total = sum(len(row) for row in rows)
        if max_len < 2 or total < self.min_vector_length:
            return [self._fallback.count_inversions(row) for row in rows]
        padded = 1 << (max_len - 1).bit_length()
        sentinel = np.iinfo(np.int64).max
        matrix = np.full((len(rows), padded), sentinel, dtype=np.int64)
        for index, row in enumerate(rows):
            matrix[index, : len(row)] = row
        width = min(self.batch_base_width, padded)
        runs = matrix.reshape(len(rows), -1, width)
        upper_triangle = np.triu(np.ones((width, width), dtype=bool), 1)
        counts = (
            ((runs[:, :, :, None] > runs[:, :, None, :]) & upper_triangle)
            .sum(axis=(1, 2, 3))
            .astype(np.int64)
        )
        matrix = np.sort(runs, axis=2).reshape(len(rows), padded)
        while width < padded:
            runs = matrix.reshape(len(rows), -1, 2 * width)
            order = np.argsort(runs, axis=2, kind="stable")
            from_right = order >= width
            left_seen = np.cumsum(~from_right, axis=2)
            counts += (from_right * (width - left_seen)).sum(axis=(1, 2))
            matrix = np.take_along_axis(runs, order, axis=2).reshape(len(rows), padded)
            width *= 2
        return [int(count) for count in counts]


def numpy_available() -> bool:
    """Whether the numpy backend can be constructed in this environment."""
    return _numpy is not None


_BACKEND_FACTORIES = {
    MergeSortBackend.name: MergeSortBackend,
    NumpyBackend.name: NumpyBackend,
}


def available_backends() -> Dict[str, bool]:
    """Registry-name → availability map of every known backend."""
    return {
        MergeSortBackend.name: True,
        NumpyBackend.name: numpy_available(),
    }


#: The lazily resolved active backend (``None`` until first use / after reset).
_active: Optional[InversionBackend] = None


def _resolve(name: str) -> InversionBackend:
    if name == "auto":
        return NumpyBackend() if numpy_available() else MergeSortBackend()
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise ReproError(
            f"unknown metric backend {name!r}; choose one of "
            f"{sorted(_BACKEND_FACTORIES)} or 'auto'"
        ) from None
    return factory()


def get_backend() -> InversionBackend:
    """The active inversion backend (resolving it on first use).

    The ``REPRO_METRIC_BACKEND`` override is validated through the shared
    :mod:`repro.envconfig` helper: an unknown name raises a clear
    :class:`~repro.errors.ReproError` instead of silently changing which
    code measures an experiment.
    """
    global _active
    if _active is None:
        name = read_env_choice(
            BACKEND_ENV_VAR,
            sorted(_BACKEND_FACTORIES) + ["auto"],
            default="auto",
        )
        _active = _resolve(name)
    return _active


def set_backend(name: Optional[str] = None) -> InversionBackend:
    """Select the active backend by name; ``None``/``"auto"`` re-resolves.

    Returns the backend now active, so callers can assert what they got.
    Passing ``None`` drops any previous override and re-reads the
    ``REPRO_METRIC_BACKEND`` environment variable.
    """
    global _active
    if name is None:
        _active = None
        return get_backend()
    _active = _resolve(name)
    return _active


def count_inversions(values: Sequence[int]) -> int:
    """Count inversions of an integer sequence with the active backend.

    An inversion is a pair of indices ``i < j`` with
    ``values[i] > values[j]``; the count equals the Kendall-tau distance
    between the sequence and its sorted version.

    >>> count_inversions([0, 1, 2, 3])
    0
    >>> count_inversions([3, 2, 1, 0])
    6
    """
    # Work is counted at the dispatch layer — never inside a backend — so
    # the counters stay bit-identical when numpy delegates small inputs to
    # its merge-sort fallback internally.
    _count_work("telemetry.backends.calls")
    _count_work("telemetry.backends.elements", len(values))
    # Slides and orientation flips produce a handful of consecutive runs,
    # whose count is closed-form; it is exact, so every backend agrees.
    few_run = _few_run_inversions(values if type(values) is list else list(values))
    if few_run is not None:
        return few_run
    return get_backend().count_inversions(values)


def count_cross_inversions(
    left_sorted: Sequence[int], right_sorted: Sequence[int]
) -> int:
    """Pairs ``(x, y) ∈ left × right`` with ``x > y`` (sorted inputs)."""
    _count_work("telemetry.backends.calls")
    _count_work(
        "telemetry.backends.elements", len(left_sorted) + len(right_sorted)
    )
    return get_backend().count_cross_inversions(left_sorted, right_sorted)


def count_inversions_batch(sequences: Sequence[Sequence[int]]) -> List[int]:
    """Inversion counts of many sequences in one backend call.

    Semantically equal to ``[count_inversions(s) for s in sequences]`` for
    every backend; the numpy backend turns the whole batch into a single
    vectorized pass, amortizing its per-call overhead across the batch —
    the speedup regime is *many small* sequences, where looping the
    vectorized single-sequence path would fall back to the merge sort.

    >>> count_inversions_batch([[0, 1, 2], [2, 1, 0], []])
    [0, 3, 0]
    """
    _count_work("telemetry.backends.calls")
    _count_work(
        "telemetry.backends.elements",
        sum(len(sequence) for sequence in sequences),
    )
    return get_backend().count_inversions_batch(sequences)
