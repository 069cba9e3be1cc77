"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch library-level failures with a single
``except`` clause while programming errors (``TypeError`` and friends) still
propagate unchanged.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ArrangementError(ReproError):
    """An arrangement operation received inconsistent or invalid arguments.

    Raised, for example, when a block operation is applied to a set of nodes
    that is not contiguous in the arrangement, or when two arrangements over
    different node sets are compared.
    """


class RevealError(ReproError):
    """A reveal sequence violates the online learning MinLA model.

    The model of the paper requires every revealed graph to be a collection of
    disjoint cliques or a collection of disjoint lines, and every revealed
    graph to be a supergraph of its predecessor.  Any step breaking these
    invariants raises this error.
    """


class InfeasibleArrangementError(ReproError):
    """An online algorithm produced a permutation that is not a MinLA.

    The online learning MinLA model *requires* the maintained permutation to
    be a minimum linear arrangement of the revealed subgraph after every
    update; the simulator raises this error when an algorithm violates the
    requirement.
    """


class SolverError(ReproError):
    """An offline solver was invoked outside its supported regime."""


class ExperimentError(ReproError):
    """An experiment or benchmark harness was configured inconsistently."""


class RunStoreError(ReproError):
    """A run-archive operation failed or the archive is inconsistent.

    Raised by :mod:`repro.runstore` when a stored run's content does not
    match its recorded digest, when a payload is malformed, or when a
    comparison is asked of stores that share no configurations.
    """


class EmbeddingError(ReproError):
    """A virtual network embedding operation is invalid.

    Raised by :mod:`repro.vnet` when a virtual node is mapped twice, when a
    request references an unknown virtual node, or when the physical topology
    cannot host the requested virtual network.
    """


class AnalysisError(ReproError):
    """A static-analysis invocation was configured inconsistently.

    Raised by :mod:`repro.analysis` when an unknown rule id is requested,
    when a baseline snapshot is malformed, or when a target path cannot be
    parsed as Python source.
    """


class ObsError(ReproError):
    """An observability primitive was mis-configured or misused.

    Raised by :mod:`repro.obs` when histogram bucket edges are not strictly
    increasing, when histograms over different edge sets are merged, when a
    recorded value is not a finite non-negative number, or when a sampler
    rate lies outside ``[0, 1]``.
    """


class ServiceError(ReproError):
    """An online serving operation failed or was mis-configured.

    Raised by :mod:`repro.service` when a request names nodes of two
    different shards, when a bounded shard queue rejects a submission
    (explicit backpressure), when a worker thread or worker *process* died
    mid-run (the error names the dead shard instead of letting submitters
    hang), when a process shard's arrangement is read before the drain
    shipped it home, or when a load generator is configured
    inconsistently.
    """
