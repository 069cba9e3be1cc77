"""The content-addressed on-disk run archive.

Layout (one directory per run under the store root)::

    <root>/
      runs/<run_id>/manifest.json   # config, digest, findings, sample counts
      runs/<run_id>/tables.json     # the run's result tables (CSV rows)
      runs/<run_id>/traces.json     # seeded cost-trace samples (repro.io)
      runs/<run_id>/work.json       # deterministic work counters (when any)
      runs/<run_id>/timings.jsonl   # one wall-clock sample per line
      runs/<run_id>/profile.jsonl   # one zone-profile snapshot per line
      tmp/                          # staging area for atomic appends

``run_id`` is a prefix of the SHA-256 digest of the run's *deterministic*
content: the configuration (experiment id, scenario, scale, seed, inversion
counter, jobs) plus the canonical JSON of its tables and traces.  Appending
the same run twice therefore lands on the same directory — the second
append is detected and only contributes a new wall-clock *timing sample* to
the manifest, which is exactly what longitudinal perf tracking wants:
deterministic results dedupe, timings accumulate.

Writes are atomic: a run is staged under ``tmp/`` and published with a
single :func:`os.replace`-style rename, so a crashed or concurrent append
can never leave a half-written run visible.  Timing samples live in their
own append-only ``timings.jsonl`` (one small ``O_APPEND`` write per
sample), so two invocations deduping onto the same run concurrently both
land their samples — there is no read-modify-write of shared state
anywhere on the append path.  Loading re-validates: the content digest is
recomputed from the payload on every :meth:`RunStore.get` and a mismatch
raises :class:`~repro.errors.RunStoreError` instead of feeding corrupted
numbers into a comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.envconfig import read_env_path
from repro.errors import RunStoreError
from repro.experiments.tables import ResultTable
from repro.io import table_from_dict, table_to_dict, trace_from_dict, trace_to_dict
from repro.obs.profile import ProfileSnapshot
from repro.telemetry.trace import TraceSample

if TYPE_CHECKING:  # import would cycle through repro.experiments at runtime
    from repro.experiments.runner import ExperimentResult

PathLike = Union[str, Path]

#: Environment variable overriding the archive location.
RUNSTORE_ENV_VAR = "REPRO_RUNSTORE"

#: Default archive directory (relative to the current working directory).
DEFAULT_STORE_DIR = ".repro-runs"

#: Hex digits of the content digest used as the run directory name.
RUN_ID_LENGTH = 16


def resolve_store_root(root: Optional[PathLike] = None) -> Path:
    """Resolve the archive root: explicit argument, else ``REPRO_RUNSTORE``, else default."""
    if root is not None:
        return Path(root)
    return Path(
        read_env_path(RUNSTORE_ENV_VAR, default=DEFAULT_STORE_DIR, error=RunStoreError)
    )


@dataclass(frozen=True)
class RunRecord:
    """One run to archive: configuration, tables, traces and wall time.

    Everything except ``wall_time_seconds`` and ``profile`` is deterministic
    content and enters the content digest; the wall time becomes the run's
    first timing sample and the profile its first profile sample (both are
    *metadata* — re-measuring an identical run must not mint a new archive
    entry).  ``work`` — the run's deterministic work counters — *is*
    content: counter drift mints a new run id, which is what lets
    ``runs compare`` gate it at exactly zero.  For compatibility with
    archives written before counters existed, an empty ``work`` dict is
    digested exactly like the old three-part payload.
    """

    experiment_id: str
    title: str = ""
    scenario: Optional[str] = None
    scale: str = "bench"
    seed: int = 0
    #: The inversion counter that measured the run.  Only ``"python"`` is
    #: left; the field stays because archived manifests carry it.
    backend: str = "python"
    jobs: int = 1
    wall_time_seconds: Optional[float] = None
    tables: Sequence[ResultTable] = ()
    findings: Dict[str, float] = field(default_factory=dict)
    trace_samples: Sequence[TraceSample] = ()
    work: Dict[str, int] = field(default_factory=dict)
    profile: Optional[ProfileSnapshot] = None

    def config(self) -> Dict[str, Any]:
        """The deterministic configuration key of this run."""
        return {
            "experiment_id": self.experiment_id,
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
            "jobs": self.jobs,
        }


@dataclass(frozen=True)
class StoredRun:
    """A run loaded back from the archive (digest-verified)."""

    run_id: str
    experiment_id: str
    title: str
    scenario: Optional[str]
    scale: str
    seed: int
    backend: str
    jobs: int
    created_at: float
    timings: Tuple[float, ...]
    findings: Dict[str, float]
    tables: Tuple[ResultTable, ...]
    trace_samples: Tuple[TraceSample, ...]
    work: Dict[str, int] = field(default_factory=dict)
    profiles: Tuple[ProfileSnapshot, ...] = ()

    def config(self) -> Dict[str, Any]:
        """The deterministic configuration key of this run."""
        return {
            "experiment_id": self.experiment_id,
            "scenario": self.scenario,
            "scale": self.scale,
            "seed": self.seed,
            "backend": self.backend,
            "jobs": self.jobs,
        }

    def config_key(self) -> Tuple:
        """A hashable, totally ordered form of :meth:`config`.

        Values are rendered with :func:`repr` so keys sort even when a field
        mixes ``None`` and strings across runs (the ``scenario`` slot); used
        to match runs across stores and to group them for ``gc --keep``.
        """
        return tuple(
            (key, repr(value)) for key, value in sorted(self.config().items())
        )

    @property
    def num_trace_samples(self) -> int:
        """How many seeded trace samples this run archived."""
        return len(self.trace_samples)

    @property
    def mean_timing(self) -> Optional[float]:
        """Mean of the accumulated wall-clock samples (``None`` when untimed)."""
        if not self.timings:
            return None
        return sum(self.timings) / len(self.timings)


@dataclass(frozen=True)
class RunSummary:
    """Manifest-level view of a stored run (no tables/traces loaded).

    Everything a listing needs — configuration, timing samples, findings
    and the archived trace-sample count — without parsing or
    digest-verifying the payload files.  :func:`~repro.runstore.report.describe_run`
    accepts either this or a fully loaded :class:`StoredRun`.
    """

    run_id: str
    experiment_id: str
    scenario: Optional[str]
    scale: str
    seed: int
    backend: str
    jobs: int
    created_at: float
    timings: Tuple[float, ...]
    findings: Dict[str, float]
    num_trace_samples: int
    work: Dict[str, int] = field(default_factory=dict)

    @property
    def mean_timing(self) -> Optional[float]:
        """Mean of the accumulated wall-clock samples (``None`` when untimed)."""
        if not self.timings:
            return None
        return sum(self.timings) / len(self.timings)


def run_record_from_result(
    result: "ExperimentResult",
    scale: str,
    seed: int,
    jobs: int = 1,
    wall_time_seconds: Optional[float] = None,
    scenario: Optional[str] = None,
    work: Optional[Dict[str, int]] = None,
    profile: Optional[ProfileSnapshot] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from an :class:`~repro.experiments.runner.ExperimentResult`."""
    return RunRecord(
        experiment_id=result.experiment_id,
        title=result.title,
        scenario=scenario,
        scale=scale,
        seed=seed,
        jobs=jobs,
        wall_time_seconds=wall_time_seconds,
        tables=tuple(result.tables),
        findings=dict(result.findings),
        trace_samples=tuple(getattr(result, "traces", ()) or ()),
        work=dict(work) if work else {},
        profile=profile,
    )


# ----------------------------------------------------------------------
# Payload construction and digesting
# ----------------------------------------------------------------------
def _tables_payload(tables: Sequence[ResultTable]) -> Dict[str, Any]:
    return {"tables": [table_to_dict(table) for table in tables]}


def _traces_payload(samples: Sequence[TraceSample]) -> Dict[str, Any]:
    return {
        "samples": [
            {
                "group": sample.group,
                "seed": sample.seed,
                "trace": trace_to_dict(sample.trace),
            }
            for sample in samples
        ]
    }


def _canonical(payload: Any) -> str:
    """Canonical JSON used for both digesting and writing content files."""
    return json.dumps(payload, indent=2, sort_keys=True)


def _work_payload(work: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Normalized work-counter mapping (exact integers, validated)."""
    if not work:
        return {}
    normalized: Dict[str, int] = {}
    for name, value in work.items():
        count = int(value)
        if count != value or count < 0:
            raise RunStoreError(
                f"work counter {name!r} must be a non-negative integer, "
                f"got {value!r}"
            )
        normalized[str(name)] = count
    return normalized


def content_digest(
    config: Dict[str, Any],
    tables_payload: Dict[str, Any],
    traces_payload: Dict[str, Any],
    work: Optional[Dict[str, int]] = None,
) -> str:
    """SHA-256 over the canonical JSON of a run's deterministic content.

    ``work`` (the run's deterministic work counters) joins the digested blob
    only when non-empty, so archives written before counters existed keep
    verifying unchanged — while any counter drift on instrumented runs mints
    a different run id.
    """
    blob_payload: Dict[str, Any] = {
        "config": config,
        "tables": tables_payload,
        "traces": traces_payload,
    }
    if work:
        blob_payload["work"] = work
    blob = _canonical(blob_payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RunStore:
    """The on-disk archive: append, load, list, time, garbage-collect."""

    def __init__(self, root: Optional[PathLike] = None) -> None:
        self.root = resolve_store_root(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    @property
    def runs_directory(self) -> Path:
        return self.root / "runs"

    @property
    def _staging_directory(self) -> Path:
        return self.root / "tmp"

    def _run_directory(self, run_id: str) -> Path:
        return self.runs_directory / run_id

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, record: RunRecord) -> str:
        """Archive one run and return its id.

        Content-addressed and idempotent: a record whose deterministic
        content is already stored only appends its wall-clock time as a new
        timing sample.  The write is atomic — the run is staged in a
        temporary directory and published with a single rename.
        """
        config = record.config()
        tables_payload = _tables_payload(record.tables)
        traces_payload = _traces_payload(record.trace_samples)
        work = _work_payload(record.work)
        digest = content_digest(config, tables_payload, traces_payload, work)
        run_id = digest[:RUN_ID_LENGTH]
        target = self._run_directory(run_id)
        if target.exists():
            if record.wall_time_seconds is not None:
                self.append_timing(run_id, record.wall_time_seconds)
            if record.profile is not None and not record.profile.is_empty:
                self.append_profile(run_id, record.profile)
            return run_id

        manifest = {
            "run_id": run_id,
            "digest": digest,
            "config": config,
            "title": record.title,
            "created_at": time.time(),
            "findings": dict(record.findings),
            "num_tables": len(record.tables),
            "num_trace_samples": len(record.trace_samples),
        }
        self._staging_directory.mkdir(parents=True, exist_ok=True)
        staging = self._staging_directory / f"{run_id}-{uuid.uuid4().hex}"
        staging.mkdir()
        try:
            (staging / "tables.json").write_text(_canonical(tables_payload))
            (staging / "traces.json").write_text(_canonical(traces_payload))
            if work:
                (staging / "work.json").write_text(_canonical(work))
            (staging / "manifest.json").write_text(_canonical(manifest))
            self.runs_directory.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, target)
            except OSError:
                # A concurrent append published the same run first; the
                # content is identical by construction, so theirs wins.
                shutil.rmtree(staging, ignore_errors=True)
                if not target.exists():
                    raise
        except Exception:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        if record.wall_time_seconds is not None:
            self.append_timing(run_id, record.wall_time_seconds)
        if record.profile is not None and not record.profile.is_empty:
            self.append_profile(run_id, record.profile)
        return run_id

    def append_timing(self, run_id: str, seconds: float) -> None:
        """Add one wall-clock sample to an existing run.

        One small ``O_APPEND`` write to the run's ``timings.jsonl`` — no
        read-modify-write, so concurrent appenders deduping onto the same
        run cannot lose each other's samples.
        """
        if seconds < 0:
            raise RunStoreError(f"a timing sample cannot be negative: {seconds}")
        directory = self._run_directory(run_id)
        if not directory.exists():
            raise RunStoreError(
                f"unknown run {run_id!r}; the store at {self.root} holds "
                f"{self.run_ids()}"
            )
        with (directory / "timings.jsonl").open("a") as handle:
            handle.write(json.dumps(seconds) + "\n")

    def _read_timings(self, run_id: str) -> Tuple[float, ...]:
        path = self._run_directory(run_id) / "timings.jsonl"
        if not path.exists():
            return ()
        samples = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                samples.append(float(json.loads(line)))
            except (json.JSONDecodeError, TypeError, ValueError) as exc:
                raise RunStoreError(
                    f"corrupt timing sample for run {run_id!r}: {line!r}"
                ) from exc
        return tuple(samples)

    def append_profile(self, run_id: str, snapshot: ProfileSnapshot) -> None:
        """Add one zone-profile sample to an existing run.

        Profiles are timing-shaped data — nondeterministic across machines
        and loads — so like wall-clock samples they live outside the content
        digest, in their own append-only ``profile.jsonl`` (one compact JSON
        snapshot per line).
        """
        if not isinstance(snapshot, ProfileSnapshot):
            raise RunStoreError(
                f"append_profile() takes a ProfileSnapshot, got {type(snapshot).__name__}"
            )
        directory = self._run_directory(run_id)
        if not directory.exists():
            raise RunStoreError(
                f"unknown run {run_id!r}; the store at {self.root} holds "
                f"{self.run_ids()}"
            )
        line = json.dumps(snapshot.to_json(), sort_keys=True)
        with (directory / "profile.jsonl").open("a") as handle:
            handle.write(line + "\n")

    def _read_profiles(self, run_id: str) -> Tuple[ProfileSnapshot, ...]:
        path = self._run_directory(run_id) / "profile.jsonl"
        if not path.exists():
            return ()
        snapshots = []
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                snapshots.append(ProfileSnapshot.from_json(json.loads(line)))
            except Exception as exc:
                raise RunStoreError(
                    f"corrupt profile sample for run {run_id!r}: {line!r}"
                ) from exc
        return tuple(snapshots)

    def _read_work(self, run_id: str) -> Dict[str, int]:
        path = self._run_directory(run_id) / "work.json"
        if not path.exists():
            return {}
        payload = self._read_json(path)
        try:
            return _work_payload(payload)
        except (RunStoreError, TypeError, ValueError) as exc:
            raise RunStoreError(
                f"corrupt work counters for run {run_id!r}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def _read_json(self, path: Path) -> Dict[str, Any]:
        if not path.exists():
            raise RunStoreError(f"no such run-store file: {path}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"corrupt run-store file {path}: {exc}") from exc

    def run_ids(self) -> List[str]:
        """Every published run id, sorted."""
        if not self.runs_directory.exists():
            return []
        return sorted(
            entry.name for entry in self.runs_directory.iterdir() if entry.is_dir()
        )

    def get(self, run_id: str) -> StoredRun:
        """Load one run, re-verifying its content digest."""
        directory = self._run_directory(run_id)
        if not directory.exists():
            raise RunStoreError(
                f"unknown run {run_id!r}; the store at {self.root} holds "
                f"{self.run_ids()}"
            )
        manifest = self._read_json(directory / "manifest.json")
        tables_payload = self._read_json(directory / "tables.json")
        traces_payload = self._read_json(directory / "traces.json")
        work = self._read_work(run_id)
        try:
            config = manifest["config"]
            digest = manifest["digest"]
        except KeyError as exc:
            raise RunStoreError(f"malformed manifest for run {run_id!r}: {exc}") from exc
        recomputed = content_digest(config, tables_payload, traces_payload, work)
        if recomputed != digest:
            raise RunStoreError(
                f"run {run_id!r} failed its digest check: the stored content "
                "does not match the manifest (corrupt or hand-edited archive)"
            )
        try:
            tables = tuple(
                table_from_dict(entry) for entry in tables_payload["tables"]
            )
            samples = tuple(
                TraceSample(
                    group=entry["group"],
                    seed=entry["seed"],
                    trace=trace_from_dict(entry["trace"]),
                )
                for entry in traces_payload["samples"]
            )
            return StoredRun(
                run_id=run_id,
                experiment_id=config["experiment_id"],
                title=manifest.get("title", ""),
                scenario=config.get("scenario"),
                scale=config["scale"],
                seed=config["seed"],
                backend=config["backend"],
                jobs=config["jobs"],
                created_at=manifest.get("created_at", 0.0),
                timings=self._read_timings(run_id),
                findings=dict(manifest.get("findings", {})),
                tables=tables,
                trace_samples=samples,
                work=work,
                profiles=self._read_profiles(run_id),
            )
        except (KeyError, TypeError) as exc:
            raise RunStoreError(
                f"malformed payload for run {run_id!r}: {exc}"
            ) from exc

    def summary(self, run_id: str) -> "RunSummary":
        """Manifest-level view of one run (no payload parsing, no digest work).

        For listings: reads only ``manifest.json`` and ``timings.jsonl``, so
        the cost does not grow with the archived trace bytes.  Use
        :meth:`get` when the tables/traces themselves are needed — that path
        re-verifies the content digest.
        """
        directory = self._run_directory(run_id)
        if not directory.exists():
            raise RunStoreError(
                f"unknown run {run_id!r}; the store at {self.root} holds "
                f"{self.run_ids()}"
            )
        manifest = self._read_json(directory / "manifest.json")
        try:
            config = manifest["config"]
            return RunSummary(
                run_id=run_id,
                experiment_id=config["experiment_id"],
                scenario=config.get("scenario"),
                scale=config["scale"],
                seed=config["seed"],
                backend=config["backend"],
                jobs=config["jobs"],
                created_at=manifest.get("created_at", 0.0),
                timings=self._read_timings(run_id),
                findings=dict(manifest.get("findings", {})),
                num_trace_samples=manifest.get("num_trace_samples", 0),
                work=self._read_work(run_id),
            )
        except (KeyError, TypeError) as exc:
            raise RunStoreError(
                f"malformed manifest for run {run_id!r}: {exc}"
            ) from exc

    def summaries(
        self, experiment_id: Optional[str] = None
    ) -> "List[RunSummary]":
        """Manifest-level views of every stored run, oldest first."""
        entries = [self.summary(run_id) for run_id in self.run_ids()]
        if experiment_id is not None:
            entries = [
                entry for entry in entries if entry.experiment_id == experiment_id
            ]
        return sorted(entries, key=lambda entry: (entry.created_at, entry.run_id))

    def list_runs(
        self, experiment_id: Optional[str] = None
    ) -> List[StoredRun]:
        """Every stored run (optionally one experiment's), oldest first."""
        runs = [self.get(run_id) for run_id in self.run_ids()]
        if experiment_id is not None:
            runs = [run for run in runs if run.experiment_id == experiment_id]
        return sorted(runs, key=lambda run: (run.created_at, run.run_id))

    def trace_populations(
        self, experiment_id: Optional[str] = None
    ) -> Dict[Tuple[str, str], List[TraceSample]]:
        """All stored trace samples grouped by ``(experiment_id, group)``.

        Samples from different archive entries (different master seeds, jobs
        or backends) land in the same population when they describe the same
        workload group — that is the cross-run alignment the single-run
        analytics cannot do.  Duplicate ``(experiment, group, seed)``
        members (e.g. the same run archived at two worker counts) are
        deduplicated so variance is never computed over identical copies.
        """
        populations: Dict[Tuple[str, str], List[TraceSample]] = {}
        seen: Dict[Tuple[str, str], set] = {}
        for run in self.list_runs(experiment_id):
            for sample in run.trace_samples:
                key = (run.experiment_id, sample.group)
                member = (run.seed, sample.seed)
                if member in seen.setdefault(key, set()):
                    continue
                seen[key].add(member)
                populations.setdefault(key, []).append(sample)
        return populations

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, keep: Optional[int] = None) -> Dict[str, int]:
        """Clean the archive: drop staging leftovers, optionally prune runs.

        ``keep`` (when given) retains only the newest ``keep`` runs per
        configuration key and deletes the rest.  Returns counts of what was
        removed.
        """
        removed_staging = 0
        if self._staging_directory.exists():
            for entry in list(self._staging_directory.iterdir()):
                shutil.rmtree(entry, ignore_errors=True)
                removed_staging += 1
        removed_runs = 0
        if keep is not None:
            if keep < 1:
                raise RunStoreError(f"gc keep must be a positive integer, got {keep}")
            by_config: Dict[Tuple, List[StoredRun]] = {}
            for run in self.list_runs():
                by_config.setdefault(run.config_key(), []).append(run)
            for runs in by_config.values():
                for run in runs[:-keep]:
                    shutil.rmtree(self._run_directory(run.run_id), ignore_errors=True)
                    removed_runs += 1
        return {"staging": removed_staging, "runs": removed_runs}
