"""Timing primitives of the benchmark: spans, self time, percentiles.

Everything here reads time through ``repro.obs.clock.now``, the program's
single clock seam, so the self-tests in ``check_math.py`` can drive it with
``repro.obs.clock.ManualClock`` and check every subtraction exactly.

* :class:`Tracer` records spans around calls into the program's layers.  It
  keeps one span stack per thread: a span's self time is its duration minus
  the durations of the spans opened directly inside it on the same thread.
  Spans are held in memory and written out once, at the end of a run.
* :func:`patched` installs wrappers on module or class attributes and puts
  the originals back on exit, so the benchmark times layers without any
  change to the program itself.
* :func:`nearest_rank` is the percentile every reported latency uses.  It
  refuses a percentile with fewer than ten samples beyond it.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import math
import threading
from fractions import Fraction
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.obs import clock

#: Minimum number of samples a reported percentile needs above its rank.
MIN_SAMPLES_BEYOND = 10

#: Field order of a span tuple.
SPAN_FIELDS = ("id", "parent", "name", "thread", "start", "end", "self_s")


class Tracer:
    """Collects spans from any number of threads into one in-memory list.

    A span is the tuple ``(id, parent, name, thread, start, end, self_s)``;
    ``parent`` is the id of the span open on the same thread when this one
    began (0 at a thread's root).
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _open(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # frame = [span id, parent id, time covered by child spans, stack]
        frame = [next(self._ids), stack[-1][0] if stack else 0, 0.0, stack]
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, start: float, end: float) -> None:
        stack = frame[3]
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        self.spans.append(
            (
                frame[0],
                frame[1],
                name,
                threading.get_ident(),
                start,
                end,
                duration - frame[2],
            )
        )

    def wrap(
        self,
        name: str,
        function: Callable,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``function`` timed as span ``name``; ``after(args, result)`` runs outside it."""
        open_frame = self._open
        close_frame = self._close
        read = clock.now

        def traced(*args, **kwargs):
            frame = open_frame()
            start = read()
            try:
                result = function(*args, **kwargs)
            finally:
                close_frame(frame, name, start, read())
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = function
        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code as span ``name``."""
        frame = self._open()
        start = clock.now()
        try:
            yield
        finally:
            self._close(frame, name, start, clock.now())

    def mark(self) -> int:
        """A position in the span list, for :meth:`since`."""
        return len(self.spans)

    def since(self, mark: int) -> List[tuple]:
        """Spans finished after ``mark``."""
        return self.spans[mark:]

    def write(self, path: str) -> int:
        """Write every span as gzipped JSON lines; returns the span count."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": SPAN_FIELDS}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        return len(self.spans)


def layer_totals(spans: Sequence[tuple]) -> Dict[str, Tuple[int, float]]:
    """``name -> (calls, total self seconds)`` over ``spans``."""
    totals: Dict[str, Tuple[int, float]] = {}
    for span in spans:
        calls, self_s = totals.get(span[2], (0, 0.0))
        totals[span[2]] = (calls + 1, self_s + span[6])
    return totals


def maybe_span(tracer: Optional[Tracer], name: str) -> ContextManager[None]:
    """``tracer.span(name)``, or a no-op when there is no tracer."""
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


@contextlib.contextmanager
def patched(replacements: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attribute = value`` for each triple; restore all on exit."""
    originals = [
        (owner, attribute, vars(owner)[attribute])
        for owner, attribute, _ in replacements
    ]
    try:
        for owner, attribute, value in replacements:
            setattr(owner, attribute, value)
        yield
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` percentile (``0 < q < 1``) of ``values``.

    The value at 1-based rank ``ceil(q * n)`` of the sorted sample.  Raises
    ``ValueError`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples lie
    above that rank, because such a percentile is one outlier away from a
    different answer.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must lie strictly between 0 and 1, got {q}")
    count = len(values)
    # Exact rational arithmetic: 0.9 * 100 is 90.00000000000001 in floats.
    rank = max(1, math.ceil(Fraction(str(q)) * count))
    if count - rank < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {count} samples has {count - rank} beyond it; "
            f"at least {MIN_SAMPLES_BEYOND} are needed"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """The plain median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0
