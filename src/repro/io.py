"""JSON serialization of workloads, instances and run results.

Reproducibility is easier when the exact workload an experiment used can be
archived next to its results.  This module serializes the library's core
objects to plain JSON-compatible dictionaries (and back):

* reveal sequences (node universe, kind, steps),
* scenario workloads (registry name + seed + the generated sequences; the
  loader re-generates from the recipe and verifies bit-identity, so registry
  drift fails loudly),
* full instances (sequence + initial permutation),
* simulation results (algorithm name, per-step cost records with their
  moving/rearranging phase attribution, the streamed cost trace when one
  was recorded, and the final arrangement).

Deserialization re-validates what it loads: per-record phase costs must be
non-negative, the phase totals stored in the payload must match the records,
and a trace's totals must match its ledger — a hand-edited or corrupted
results file fails loudly instead of skewing a comparison.

Node labels must themselves be JSON-representable (integers or strings); the
generators in :mod:`repro.workloads.generation` use integers, and the virtual
network case study uses integers or short strings, so this covers every
object the library creates.  Round-tripping is validated in the test suite.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.cost import CostLedger, SimulationResult, UpdateRecord
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.errors import ReproError
from repro.telemetry.trace import CostTrace, TraceEvent
from repro.graphs.reveal import (
    CliqueRevealSequence,
    GraphKind,
    LineRevealSequence,
    RevealSequence,
    RevealStep,
)

PathLike = Union[str, Path]


# ----------------------------------------------------------------------
# Reveal sequences
# ----------------------------------------------------------------------
def sequence_to_dict(sequence: RevealSequence) -> Dict[str, Any]:
    """A JSON-compatible description of a reveal sequence."""
    return {
        "kind": sequence.kind.value,
        "nodes": list(sequence.nodes),
        "steps": [[step.u, step.v] for step in sequence.steps],
    }


def sequence_from_dict(data: Dict[str, Any]) -> RevealSequence:
    """Rebuild (and re-validate) a reveal sequence from its dictionary form."""
    try:
        kind = GraphKind(data["kind"])
        nodes = data["nodes"]
        steps = [RevealStep(u, v) for u, v in data["steps"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed reveal sequence payload: {exc}") from exc
    if kind is GraphKind.CLIQUES:
        return CliqueRevealSequence(nodes, steps)
    return LineRevealSequence(nodes, steps)


# ----------------------------------------------------------------------
# Scenario workloads
# ----------------------------------------------------------------------
def workload_to_dict(
    scenario_name: str, num_nodes: int, seed: Any
) -> Dict[str, Any]:
    """Archive a registry scenario's reveal view next to experiment results.

    The payload stores the generation *recipe* (scenario name, node budget,
    seed) **and** the generated sequences, so a results directory remains
    self-describing even if the registry evolves — and the loader can verify
    the recipe still reproduces the archived workload bit-for-bit.
    """
    from repro.workloads.registry import get_scenario

    scenario = get_scenario(scenario_name)
    sequences = scenario.reveal_sequences(num_nodes, seed)
    return {
        "scenario": scenario.name,
        "num_nodes": num_nodes,
        "seed": seed,
        "sequences": [sequence_to_dict(sequence) for sequence in sequences],
    }


def workload_from_dict(data: Dict[str, Any]) -> "List[RevealSequence]":
    """Rebuild (and re-verify) an archived scenario workload.

    Three layers of validation: the payload's sequences must re-validate
    against the reveal model, the scenario must still be registered, and
    regenerating it from the stored ``(num_nodes, seed)`` must reproduce the
    archived steps exactly — a registry drift that silently changed a
    scenario's output fails loudly here instead of skewing a comparison.
    """
    from repro.workloads.registry import get_scenario

    try:
        scenario = get_scenario(data["scenario"])
        num_nodes = data["num_nodes"]
        seed = data["seed"]
        sequences = [sequence_from_dict(entry) for entry in data["sequences"]]
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed workload payload: {exc}") from exc
    regenerated = scenario.reveal_sequences(num_nodes, seed)
    if len(regenerated) != len(sequences) or any(
        fresh.kind is not stored.kind
        or fresh.nodes != stored.nodes
        or fresh.steps != stored.steps
        for fresh, stored in zip(regenerated, sequences)
    ):
        raise ReproError(
            f"workload payload is inconsistent: scenario "
            f"{scenario.name!r} no longer reproduces the archived sequences "
            f"for num_nodes={num_nodes}, seed={seed!r}"
        )
    return sequences


def save_workload(scenario_name: str, num_nodes: int, seed: Any, path: PathLike) -> Path:
    """Serialize a scenario workload (recipe + sequences) to a JSON file."""
    return save_json(workload_to_dict(scenario_name, num_nodes, seed), path)


def load_workload(path: PathLike) -> "List[RevealSequence]":
    """Load and re-verify a workload previously saved with :func:`save_workload`."""
    return workload_from_dict(load_json(path))


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: OnlineMinLAInstance) -> Dict[str, Any]:
    """A JSON-compatible description of an instance (sequence + π0)."""
    return {
        "sequence": sequence_to_dict(instance.sequence),
        "initial_arrangement": list(instance.initial_arrangement.order),
    }


def instance_from_dict(data: Dict[str, Any]) -> OnlineMinLAInstance:
    """Rebuild an instance from its dictionary form."""
    try:
        sequence = sequence_from_dict(data["sequence"])
        initial = Arrangement(data["initial_arrangement"])
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed instance payload: {exc}") from exc
    return OnlineMinLAInstance(sequence, initial)


# ----------------------------------------------------------------------
# Cost traces
# ----------------------------------------------------------------------
def trace_to_dict(trace: CostTrace) -> Dict[str, Any]:
    """A JSON-compatible description of a streamed cost trace."""
    return {
        "every": trace.every,
        "num_steps": trace.num_steps,
        "total_moving_cost": trace.total_moving_cost,
        "total_rearranging_cost": trace.total_rearranging_cost,
        "total_kendall_tau": trace.total_kendall_tau,
        "events": [
            [
                event.step_index,
                event.moving_cost,
                event.rearranging_cost,
                event.kendall_tau,
                event.cumulative_cost,
            ]
            for event in trace.events
        ],
    }


def trace_from_dict(data: Dict[str, Any]) -> CostTrace:
    """Rebuild (and re-validate) a streamed cost trace from its dictionary form."""
    try:
        trace = CostTrace(
            events=tuple(
                TraceEvent(
                    step_index=step_index,
                    moving_cost=moving,
                    rearranging_cost=rearranging,
                    kendall_tau=kendall_tau,
                    cumulative_cost=cumulative,
                )
                for step_index, moving, rearranging, kendall_tau, cumulative in data[
                    "events"
                ]
            ),
            num_steps=data["num_steps"],
            every=data["every"],
            total_moving_cost=data["total_moving_cost"],
            total_rearranging_cost=data["total_rearranging_cost"],
            total_kendall_tau=data["total_kendall_tau"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"malformed trace payload: {exc}") from exc
    for event in trace.events:
        if (
            event.moving_cost < 0
            or event.rearranging_cost < 0
            or event.kendall_tau < 0
            or event.cumulative_cost < 0
        ):
            raise ReproError(
                f"trace payload is inconsistent: negative cost at step "
                f"{event.step_index}"
            )
    if trace.events:
        if trace.events[-1].cumulative_cost != trace.total_cost:
            raise ReproError(
                "trace payload is inconsistent: the final cumulative cost does "
                "not match the trace totals"
            )
    elif trace.total_cost != 0 or trace.total_kendall_tau != 0:
        raise ReproError(
            "trace payload is inconsistent: an event-less trace cannot have "
            "nonzero totals"
        )
    return trace


# ----------------------------------------------------------------------
# Result tables
# ----------------------------------------------------------------------
def table_to_dict(table) -> Dict[str, Any]:
    """A JSON-compatible description of a result table (title, columns, rows)."""
    return {
        "title": table.title,
        "columns": list(table.columns),
        "rows": [list(row) for row in table.rows],
    }


def table_from_dict(data: Dict[str, Any]):
    """Rebuild (and re-validate) a result table from its dictionary form.

    Row shape is validated by :meth:`~repro.experiments.tables.ResultTable.add_row`
    itself, so a payload whose rows drifted from its column list fails loudly
    instead of silently mis-aligning a comparison.
    """
    from repro.experiments.tables import ResultTable

    try:
        table = ResultTable(title=data["title"], columns=list(data["columns"]))
        for row in data["rows"]:
            table.add_row(*row)
    except (KeyError, TypeError) as exc:
        raise ReproError(f"malformed table payload: {exc}") from exc
    return table


# ----------------------------------------------------------------------
# Simulation results
# ----------------------------------------------------------------------
def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    """A JSON-compatible summary of a simulation result.

    The full trajectory (if recorded) is intentionally not serialized — it
    can be regenerated from the instance, the algorithm and the seed; the
    per-step cost records (with their moving/rearranging phase split), the
    streamed trace (if recorded) and the final arrangement are kept.
    """
    payload = {
        "algorithm": result.algorithm_name,
        "final_arrangement": list(result.final_arrangement.order),
        "records": [
            {
                "step_index": record.step_index,
                "step": [record.step.u, record.step.v],
                "moving_cost": record.moving_cost,
                "rearranging_cost": record.rearranging_cost,
                "kendall_tau": record.kendall_tau,
            }
            for record in result.ledger
        ],
        "total_cost": result.total_cost,
        "total_moving_cost": result.ledger.total_moving_cost,
        "total_rearranging_cost": result.ledger.total_rearranging_cost,
    }
    if result.trace is not None:
        payload["trace"] = trace_to_dict(result.trace)
    return payload


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    """Rebuild a simulation-result summary from its dictionary form.

    Phase attribution is first-class: every record's moving/rearranging
    split is restored exactly, and the phase totals stored in the payload
    are cross-checked against the records so a payload whose split was
    mangled (not just its grand total) is rejected.
    """
    try:
        ledger = CostLedger()
        for entry in data["records"]:
            record = UpdateRecord(
                step_index=entry["step_index"],
                step=RevealStep(entry["step"][0], entry["step"][1]),
                moving_cost=entry["moving_cost"],
                rearranging_cost=entry["rearranging_cost"],
                kendall_tau=entry["kendall_tau"],
            )
            if record.moving_cost < 0 or record.rearranging_cost < 0:
                raise ReproError(
                    f"result payload is inconsistent: negative phase cost at "
                    f"step {record.step_index}"
                )
            ledger.add(record)
        trace = trace_from_dict(data["trace"]) if "trace" in data else None
        result = SimulationResult(
            algorithm_name=data["algorithm"],
            ledger=ledger,
            final_arrangement=Arrangement(data["final_arrangement"]),
            trace=trace,
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ReproError(f"malformed result payload: {exc}") from exc
    if result.total_cost != data.get("total_cost", result.total_cost):
        raise ReproError("result payload is inconsistent: total_cost does not match records")
    for phase, total in (
        ("total_moving_cost", ledger.total_moving_cost),
        ("total_rearranging_cost", ledger.total_rearranging_cost),
    ):
        if data.get(phase, total) != total:
            raise ReproError(
                f"result payload is inconsistent: {phase} does not match the "
                "records' phase attribution"
            )
    if trace is not None and (
        trace.total_moving_cost != ledger.total_moving_cost
        or trace.total_rearranging_cost != ledger.total_rearranging_cost
    ):
        raise ReproError(
            "result payload is inconsistent: trace totals do not match the ledger"
        )
    return result


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
def save_json(payload: Dict[str, Any], path: PathLike) -> Path:
    """Write a JSON payload to ``path`` (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_json(path: PathLike) -> Dict[str, Any]:
    """Read a JSON payload from ``path``."""
    path = Path(path)
    if not path.exists():
        raise ReproError(f"no such file: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"file {path} does not contain valid JSON: {exc}") from exc


def save_instance(instance: OnlineMinLAInstance, path: PathLike) -> Path:
    """Serialize an instance to a JSON file."""
    return save_json(instance_to_dict(instance), path)


def load_instance(path: PathLike) -> OnlineMinLAInstance:
    """Load an instance previously saved with :func:`save_instance`."""
    return instance_from_dict(load_json(path))


def save_result(result: SimulationResult, path: PathLike) -> Path:
    """Serialize a simulation result summary to a JSON file."""
    return save_json(result_to_dict(result), path)


def load_result(path: PathLike) -> SimulationResult:
    """Load a simulation result summary previously saved with :func:`save_result`."""
    return result_from_dict(load_json(path))
