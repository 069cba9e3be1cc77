"""Run analysis tools: the quantities the paper's proofs reason about.

The competitive analysis of Sections 3 and 4 revolves around a handful of
measurable quantities:

* the *disagreement potential* ``|L_{π0} \\ L_{π_i}|`` — how far the current
  arrangement has drifted from the initial permutation, which both ``Det``'s
  analysis (Theorem 1) and the OPT lower bound (Observation 7) are phrased in
  terms of;
* the *merge profile* ``s_1, s_2, …`` — the sizes of the components a fixed
  node successively merges with, which is exactly the series fed into the
  harmonic-sum Lemmas 5 and 13;
* the induced *harmonic certificates* — the numeric values of the Lemma 5 /
  Lemma 13 left-hand sides for a concrete reveal sequence, i.e. how much of
  the ``4 H_n`` / ``8 H_n`` budget a workload can actually consume;
* the distribution of total cost over randomized trials.

These tools turn simulation results into the same vocabulary, which makes the
experiments (and debugging sessions) read like the proofs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence

from repro.core.bounds import (
    harmonic_number,
    lemma5_left_side,
    lemma13_product_left_side,
    lemma13_square_left_side,
)
from repro.core.cost import SimulationResult
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement
from repro.errors import ReproError
from repro.experiments.metrics import SampleSummary, summarize
from repro.graphs.clique_forest import CliqueForest
from repro.graphs.reveal import GraphKind, RevealSequence

Node = Hashable


# ----------------------------------------------------------------------
# Disagreement potential
# ----------------------------------------------------------------------
def disagreement_trajectory(
    result: SimulationResult, reference: Arrangement
) -> List[int]:
    """``|L_ref \\ L_{π_i}|`` (= Kendall-tau distance to ``reference``) per step.

    Requires the simulation to have been run with ``record_trajectory=True``.
    The first entry corresponds to ``π_0`` and the last to the final
    arrangement.
    """
    if result.arrangements is None:
        raise ReproError(
            "disagreement_trajectory() needs a result recorded with record_trajectory=True"
        )
    return [reference.kendall_tau(arrangement) for arrangement in result.arrangements]


# ----------------------------------------------------------------------
# Merge profiles and harmonic certificates
# ----------------------------------------------------------------------
def merge_profile(sequence: RevealSequence, node: Node) -> List[int]:
    """The sizes of the components that successively merge with ``node``'s component.

    This is the series ``|Y_1|, |Y_2|, …`` of the proof of Theorem 6 (and of
    Theorem 14 for lines): whenever the component containing ``node`` takes
    part in a merge, the *other* component's size is appended.
    """
    if node not in sequence.nodes:
        raise ReproError(f"node {node!r} is not part of the reveal sequence")
    profile: List[int] = []
    forest = sequence.new_forest()
    for step in sequence.steps:
        component_u = forest.component_of(step.u)
        component_v = forest.component_of(step.v)
        if node in component_u:
            profile.append(len(component_v))
        elif node in component_v:
            profile.append(len(component_u))
        if isinstance(forest, CliqueForest):
            forest.merge(step.u, step.v)
        else:
            forest.add_edge(step.u, step.v)
    return profile


@dataclass(frozen=True)
class HarmonicCertificate:
    """The Lemma 5 / Lemma 13 sums realized by one node's merge profile."""

    node: Node
    profile: Sequence[int]
    lemma5_value: float
    lemma13_square_value: float
    lemma13_product_value: float
    harmonic_budget: float
    """``H_n`` — the budget the lemmas compare the sums against."""

    @property
    def lemma5_utilization(self) -> float:
        """Fraction of the ``H_n`` budget consumed by the Lemma 5 sum."""
        return self.lemma5_value / self.harmonic_budget if self.harmonic_budget else 0.0


def harmonic_certificate(sequence: RevealSequence, node: Node) -> HarmonicCertificate:
    """Evaluate the harmonic-sum lemmas on a concrete node's merge profile.

    The per-pair cost coefficients that the proofs of Theorems 6 and 14 charge
    to a node are exactly the Lemma 5 (moving) and Lemma 13 (rearranging)
    sums over this profile; the certificate reports how close a workload
    drives them to the ``H_n`` / ``2 H_n`` budgets.
    """
    profile = merge_profile(sequence, node)
    num_nodes = sequence.num_nodes
    budget = harmonic_number(num_nodes)
    # Lemma 5/13 are stated over the cumulative component sizes including the
    # node's own starting component of size 1, so prepend it.
    padded = [1] + list(profile)
    lemma5_value = lemma5_left_side(padded) - 1.0  # the first term s_1/s_1 = 1 is the node itself
    lemma13_square = lemma13_square_left_side(padded)
    lemma13_product = lemma13_product_left_side(padded)
    return HarmonicCertificate(
        node=node,
        profile=tuple(profile),
        lemma5_value=lemma5_value,
        lemma13_square_value=lemma13_square,
        lemma13_product_value=lemma13_product,
        harmonic_budget=budget,
    )


def worst_harmonic_certificate(sequence: RevealSequence) -> HarmonicCertificate:
    """The node whose merge profile consumes the largest share of the Lemma 5 budget."""
    best: HarmonicCertificate = None  # type: ignore[assignment]
    for node in sequence.nodes:
        certificate = harmonic_certificate(sequence, node)
        if best is None or certificate.lemma5_value > best.lemma5_value:
            best = certificate
    return best


# ----------------------------------------------------------------------
# Cost distributions over randomized trials
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CostDistribution:
    """Summary of total / moving / rearranging cost over a batch of trials."""

    total: SampleSummary
    moving: SampleSummary
    rearranging: SampleSummary


def cost_distribution(results: Sequence[SimulationResult]) -> CostDistribution:
    """Summarize a batch of simulation results (e.g. from :func:`run_trials`)."""
    if not results:
        raise ReproError("cost_distribution() needs at least one result")
    return CostDistribution(
        total=summarize([float(result.total_cost) for result in results]),
        moving=summarize([float(result.ledger.total_moving_cost) for result in results]),
        rearranging=summarize(
            [float(result.ledger.total_rearranging_cost) for result in results]
        ),
    )


def per_step_cost_matrix(results: Sequence[SimulationResult]) -> List[List[int]]:
    """Per-trial, per-step cost matrix (trials × steps) for heat-map style analysis."""
    if not results:
        raise ReproError("per_step_cost_matrix() needs at least one result")
    lengths = {len(result.ledger) for result in results}
    if len(lengths) != 1:
        raise ReproError("all results must come from the same instance (equal step counts)")
    return [result.ledger.per_step_costs() for result in results]


def expected_per_step_costs(results: Sequence[SimulationResult]) -> List[float]:
    """Mean cost of each reveal step over a batch of trials."""
    matrix = per_step_cost_matrix(results)
    steps = len(matrix[0])
    return [sum(row[index] for row in matrix) / len(matrix) for index in range(steps)]


# ----------------------------------------------------------------------
# Instance profiling
# ----------------------------------------------------------------------
def instance_profile(instance: OnlineMinLAInstance) -> Dict[str, float]:
    """A small numeric profile of an instance, used in experiment metadata.

    Returns the number of nodes and steps, the final number of components,
    the largest component size and the worst-node Lemma 5 utilization — a
    rough indicator of how adversarial the merge structure is.
    """
    certificate = worst_harmonic_certificate(instance.sequence)
    final_components = instance.sequence.final_components()
    return {
        "num_nodes": float(instance.num_nodes),
        "num_steps": float(instance.num_steps),
        "num_final_components": float(len(final_components)),
        "largest_component": float(max(len(c) for c in final_components)),
        "is_lines": 1.0 if instance.kind is GraphKind.LINES else 0.0,
        "worst_lemma5_utilization": certificate.lemma5_utilization,
    }
