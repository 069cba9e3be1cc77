"""Shared validation of ``REPRO_*`` environment overrides.

The library honours a small family of environment variables —
``REPRO_JOBS`` (worker-process fan-out), ``REPRO_SCENARIO`` (default
workload scenario), ``REPRO_SERVICE_BACKEND`` (thread- or process-backed
shard workers) and ``REPRO_RUNSTORE`` (run-archive location) — and every
one of them changes *which code measured an experiment* or *where its
record lands*.  A mis-spelt override must therefore never fall back
silently: this module is the single place where those variables are read,
so each consumer gets the same behaviour (unset → caller's default,
invalid → a clear :class:`~repro.errors.ReproError` naming the variable,
the offending value and the accepted ones).
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Type

from repro.errors import ReproError


def read_env_choice(
    variable: str,
    allowed: Iterable[str],
    default: Optional[str] = None,
    error: Type[ReproError] = ReproError,
) -> Optional[str]:
    """Read an enumerated environment override, validated against ``allowed``.

    Returns ``default`` when the variable is unset, the value when it is one
    of ``allowed``, and raises ``error`` (a :class:`ReproError` subclass)
    naming the variable, the bad value and the accepted choices otherwise.
    """
    raw = os.environ.get(variable)
    if raw is None:
        return default
    choices = sorted(set(allowed))
    if raw not in choices:
        raise error(
            f"invalid {variable}={raw!r}: expected one of {choices}"
        )
    return raw


def read_env_positive_int(
    variable: str,
    default: Optional[int] = None,
    error: Type[ReproError] = ReproError,
) -> Optional[int]:
    """Read a positive-integer environment override.

    Returns ``default`` when the variable is unset; raises ``error`` when
    the value is not an integer or not positive — a typo in e.g.
    ``REPRO_JOBS`` must never silently serialize a run that was meant to be
    parallel.
    """
    raw = os.environ.get(variable)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise error(
            f"invalid {variable}={raw!r}: expected a positive integer"
        ) from None
    if value < 1:
        raise error(
            f"invalid {variable}={raw!r}: expected a positive integer"
        )
    return value


def read_env_path(
    variable: str,
    default: Optional[str] = None,
    error: Type[ReproError] = ReproError,
) -> Optional[str]:
    """Read a filesystem-path environment override.

    Returns ``default`` when the variable is unset.  Any non-empty string is
    a valid path; an empty (or whitespace-only) value raises ``error`` —
    ``REPRO_RUNSTORE=""`` silently archiving runs into the current directory
    would be exactly the kind of quiet fallback this module exists to
    prevent.
    """
    raw = os.environ.get(variable)
    if raw is None:
        return default
    if not raw.strip():
        raise error(
            f"invalid {variable}={raw!r}: expected a non-empty directory path"
        )
    return raw
