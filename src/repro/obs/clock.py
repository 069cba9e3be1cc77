"""The monotonic-clock seam: every timing read in the tree goes through here.

Timing is observability, never semantics — served cost totals must be a
pure function of ``(scenario, seed, shards, batch)`` regardless of what any
clock says.  To keep that boundary auditable, this module is the *single*
sanctioned reader of the process's monotonic clock: everything else calls
:func:`now` (or holds a :class:`Clock`), and the OBS001 analysis rule flags
any direct ``time.monotonic()`` / ``time.perf_counter()`` call outside this
file.

The seam is also what makes timing mockable: tests install a
:class:`ManualClock` with :func:`set_clock` and advance it explicitly, so
latency bookkeeping can be exercised with exact, deterministic durations.
The active clock is a module-level object, inherited across ``fork()`` —
worker processes of the process backend see whatever clock the parent had
installed at fork time.
"""

from __future__ import annotations

# The one sanctioned monotonic read in the tree (see module docstring and
# the OBS001 rule in repro.analysis.rules_obs).
from time import perf_counter as _read_monotonic

from repro.errors import ObsError


class Clock:
    """Something that answers "how many seconds have passed" monotonically."""

    def now(self) -> float:
        """The current monotonic reading, in seconds."""
        raise NotImplementedError


class MonotonicClock(Clock):
    """The real clock: ``time.perf_counter`` behind the seam.

    ``now`` is the builtin itself, so a bound ``get_clock().now`` — what the
    broker holds from ``start()`` — costs one C call per reading.
    """

    now = staticmethod(_read_monotonic)


class ManualClock(Clock):
    """A test clock that only moves when told to.

    ``advance()`` is the only mutator, so a test controls every measured
    duration exactly::

        clock = ManualClock()
        set_clock(clock)
        ...               # code under test reads now() == 0.0
        clock.advance(1.5)
        ...               # now() == 1.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward; returns the new reading."""
        if not seconds >= 0.0:
            raise ObsError(
                f"a monotonic clock cannot move backwards (advance {seconds})"
            )
        self._now += float(seconds)
        return self._now


_active: Clock = MonotonicClock()


def get_clock() -> Clock:
    """The currently installed clock."""
    return _active


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` as the process-wide clock; returns the previous one.

    Tests should restore the previous clock in a ``finally`` block — the
    installed clock is global state, like the real clock it stands in for.
    """
    global _active
    if not isinstance(clock, Clock):
        raise ObsError(f"set_clock() needs a Clock, got {type(clock).__name__}")
    previous = _active
    _active = clock
    return previous


def now() -> float:
    """The active clock's current monotonic reading, in seconds."""
    return _active.now()
