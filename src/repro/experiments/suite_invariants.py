"""Experiments E6–E8: the probabilistic invariants behind the analysis.

The competitive analysis of ``Rand`` rests on two exact distributional
invariants (Lemma 3 for the relative order of components, Lemma 10 for the
orientation of components) and on the action probabilities prescribed by
Figures 1 and 2.  These experiments verify all three by Monte-Carlo
simulation of the actual implementation:

* **E6** — for every step of a clique workload and every pair of alive
  components, the empirical frequency of "X lies left of Y" is compared with
  Lemma 3's formula ``|X×Y ∩ L_{π0}| / (|X||Y|)``.
* **E7** — for every step of a line workload and every alive component of
  size ≥ 2, the empirical frequency of the component's stored orientation is
  compared with Lemma 10's formula ``|L_{→X} ∩ L_{π0}| / C(|X|,2)``.
* **E8** — a single, hand-built merge is repeated many times and the
  frequency of each of the algorithm's possible actions is compared with the
  probabilities printed in Figures 1 and 2.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.bounds import lemma3_left_probability, lemma10_orientation_probability
from repro.core.instance import OnlineMinLAInstance
from repro.core.permutation import Arrangement, random_arrangement
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.core.simulator import run_online
from repro.experiments.metrics import mean
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentScale,
    scale_pick,
    seeded_rng,
)
from repro.experiments.tables import ResultTable
from repro.graphs.reveal import (
    CliqueRevealSequence,
    LineRevealSequence,
    RevealStep,
)
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


# ----------------------------------------------------------------------
# E6 — Lemma 3: relative order of components
# ----------------------------------------------------------------------
def run_e6_lemma3_probability(
    scale: ExperimentScale = ExperimentScale.BENCH, seed: int = 0
) -> ExperimentResult:
    """Monte-Carlo check of Lemma 3 on a random clique workload."""
    num_nodes: int = scale_pick(scale, 6, 8, 10)
    trials: int = scale_pick(scale, 300, 1500, 6000)

    rng = seeded_rng(seed, "e6", "instance")
    sequence = random_clique_merge_sequence(num_nodes, rng)
    pi0 = random_arrangement(range(num_nodes), rng)
    instance = OnlineMinLAInstance(sequence, pi0)

    # Pre-compute the component structure after every step.
    components_per_step: List[List[frozenset]] = [
        instance.sequence.components_after(step_count)
        for step_count in range(1, instance.num_steps + 1)
    ]

    # Counters keyed by (step, component X, component Y) for ordered pairs.
    left_counts: Dict[Tuple[int, frozenset, frozenset], int] = {}
    for trial in range(trials):
        trial_rng = seeded_rng(seed, "e6", "trial", trial)
        result = run_online(
            RandomizedCliqueLearner(),
            instance,
            rng=trial_rng,
            verify=False,
            record_trajectory=True,
        )
        assert result.arrangements is not None
        for step_count, components in enumerate(components_per_step, start=1):
            arrangement = result.arrangements[step_count]
            spans = {component: arrangement.span(component) for component in components}
            for x in components:
                for y in components:
                    if x is y:
                        continue
                    key = (step_count, x, y)
                    if spans[x][1] < spans[y][0]:
                        left_counts[key] = left_counts.get(key, 0) + 1
                    else:
                        left_counts.setdefault(key, 0)

    deviations: List[float] = []
    worst_key = None
    worst_dev = 0.0
    for (step_count, x, y), count in left_counts.items():
        empirical = count / trials
        theoretical = lemma3_left_probability(x, y, pi0)
        deviation = abs(empirical - theoretical)
        deviations.append(deviation)
        if deviation > worst_dev:
            worst_dev = deviation
            worst_key = (step_count, tuple(sorted(x)), tuple(sorted(y)))

    table = ResultTable(
        title="E6 — Lemma 3: P[X left of Y] vs |X×Y ∩ L_pi0| / (|X||Y|)",
        columns=["n", "trials", "component pairs checked", "mean |deviation|", "max |deviation|"],
    )
    table.add_row(num_nodes, trials, len(left_counts), mean(deviations), worst_dev)
    return ExperimentResult(
        experiment_id="E6",
        title="Relative-order invariant (Lemma 3)",
        paper_claim="At any point of Rand's execution the probability that "
        "component X lies left of component Y equals |X×Y ∩ L_pi0| / (|X||Y|), "
        "independently of the reveal order.",
        tables=[table],
        findings={"max deviation": worst_dev, "mean deviation": mean(deviations)},
        notes=[f"worst deviating triple (step, X, Y): {worst_key}"],
    )


# ----------------------------------------------------------------------
# E7 — Lemma 10: orientation of components
# ----------------------------------------------------------------------
def run_e7_lemma10_probability(
    scale: ExperimentScale = ExperimentScale.BENCH, seed: int = 0
) -> ExperimentResult:
    """Monte-Carlo check of Lemma 10 on a random line workload."""
    num_nodes: int = scale_pick(scale, 6, 8, 10)
    trials: int = scale_pick(scale, 300, 1500, 6000)

    rng = seeded_rng(seed, "e7", "instance")
    sequence = random_line_sequence(num_nodes, rng)
    pi0 = random_arrangement(range(num_nodes), rng)
    instance = OnlineMinLAInstance(sequence, pi0)

    paths_per_step: List[List[Tuple]] = [
        instance.sequence.forest_after(step_count).paths()
        for step_count in range(1, instance.num_steps + 1)
    ]

    forward_counts: Dict[Tuple[int, Tuple], int] = {}
    for trial in range(trials):
        trial_rng = seeded_rng(seed, "e7", "trial", trial)
        result = run_online(
            RandomizedLineLearner(),
            instance,
            rng=trial_rng,
            verify=False,
            record_trajectory=True,
        )
        assert result.arrangements is not None
        for step_count, paths in enumerate(paths_per_step, start=1):
            arrangement = result.arrangements[step_count]
            for path in paths:
                if len(path) < 2:
                    continue
                key = (step_count, tuple(path))
                lo, _ = arrangement.span(path)
                laid_out = tuple(arrangement[lo + offset] for offset in range(len(path)))
                if laid_out == tuple(path):
                    forward_counts[key] = forward_counts.get(key, 0) + 1
                else:
                    forward_counts.setdefault(key, 0)

    deviations: List[float] = []
    worst_dev = 0.0
    worst_key = None
    for (step_count, path), count in forward_counts.items():
        empirical = count / trials
        theoretical = lemma10_orientation_probability(path, pi0)
        deviation = abs(empirical - theoretical)
        deviations.append(deviation)
        if deviation > worst_dev:
            worst_dev = deviation
            worst_key = (step_count, path)

    table = ResultTable(
        title="E7 — Lemma 10: P[→X] vs |L_→X ∩ L_pi0| / C(|X|,2)",
        columns=["n", "trials", "component states checked", "mean |deviation|", "max |deviation|"],
    )
    table.add_row(num_nodes, trials, len(forward_counts), mean(deviations), worst_dev)
    return ExperimentResult(
        experiment_id="E7",
        title="Orientation invariant (Lemma 10)",
        paper_claim="At any point of Rand's execution (line case) the probability "
        "that component X has a given orientation equals "
        "|L_→X ∩ L_pi0| / C(|X|,2).",
        tables=[table],
        findings={"max deviation": worst_dev, "mean deviation": mean(deviations)},
        notes=[f"worst deviating state (step, path): {worst_key}"],
    )


# ----------------------------------------------------------------------
# E8 — Figures 1 & 2: action probabilities of a single update
# ----------------------------------------------------------------------
def _clique_action_sequence(size_x: int, gap: int, size_z: int):
    """Nodes, reveal steps and π0 for the Figure 1 scenario.

    ``π_0`` lays out the ``X`` nodes, then ``gap`` filler singletons, then the
    ``Z`` nodes; the intra-``X`` and intra-``Z`` merges touch adjacent blocks
    only (zero cost, no randomness), so the final merge of ``X`` with ``Z`` is
    the only random action.
    """
    x_nodes = [f"x{i}" for i in range(size_x)]
    fillers = [f"f{i}" for i in range(gap)]
    z_nodes = [f"z{i}" for i in range(size_z)]
    nodes = x_nodes + fillers + z_nodes
    steps: List[RevealStep] = []
    for i in range(1, size_x):
        steps.append(RevealStep(x_nodes[0], x_nodes[i]))
    for i in range(1, size_z):
        steps.append(RevealStep(z_nodes[0], z_nodes[i]))
    steps.append(RevealStep(x_nodes[0], z_nodes[0]))
    return nodes, steps, x_nodes, fillers, z_nodes


def _line_action_sequence(size_x: int, size_z: int):
    """Nodes, reveal steps and π0 for the Figure 2 scenario.

    ``X`` and ``Z`` are built as paths laid out in ``π_0`` order (deterministic,
    zero-cost reveals); the final edge joins ``x_0`` (left end of ``X``) with
    ``z_0`` (left end of ``Z``), producing exactly the two rearranging options
    of Figure 2: reverse ``X`` in place, or swap the blocks and reverse ``Z``.
    """
    x_nodes = [f"x{i}" for i in range(size_x)]
    z_nodes = [f"z{i}" for i in range(size_z)]
    nodes = x_nodes + z_nodes
    steps: List[RevealStep] = []
    for i in range(size_x - 1):
        steps.append(RevealStep(x_nodes[i], x_nodes[i + 1]))
    for i in range(size_z - 1):
        steps.append(RevealStep(z_nodes[i], z_nodes[i + 1]))
    steps.append(RevealStep(x_nodes[0], z_nodes[0]))
    return nodes, steps, x_nodes, z_nodes


def run_e8_action_probabilities(
    scale: ExperimentScale = ExperimentScale.BENCH, seed: int = 0
) -> ExperimentResult:
    """Check the implementation's action probabilities against Figures 1 and 2."""
    trials: int = scale_pick(scale, 400, 2000, 10000)
    size_x, gap, size_z = 3, 4, 2

    # --- Figure 1: which clique moves -------------------------------------
    nodes, steps, x_nodes, _, _ = _clique_action_sequence(size_x, gap, size_z)
    sequence = CliqueRevealSequence(nodes, steps)
    instance = OnlineMinLAInstance.with_identity_start(sequence)
    moved_x = 0
    for trial in range(trials):
        rng = seeded_rng(seed, "e8-cliques", trial)
        result = run_online(RandomizedCliqueLearner(), instance, rng=rng, verify=False)
        # If X moved, its nodes end up to the right of the filler nodes.
        if result.final_arrangement.position(x_nodes[0]) > gap - 1:
            moved_x += 1
    empirical_move_x = moved_x / trials
    theoretical_move_x = size_z / (size_x + size_z)

    # --- Figure 2: which orientation the merged path takes ----------------
    nodes, steps, x_nodes, z_nodes = _line_action_sequence(size_x, size_z)
    line_sequence = LineRevealSequence(nodes, steps)
    line_instance = OnlineMinLAInstance.with_identity_start(line_sequence)
    reversed_x = 0
    for trial in range(trials):
        rng = seeded_rng(seed, "e8-lines", trial)
        result = run_online(RandomizedLineLearner(), line_instance, rng=rng, verify=False)
        # Option "reverse X in place": X stays left of Z.
        if result.final_arrangement.position(x_nodes[0]) < result.final_arrangement.position(
            z_nodes[0]
        ):
            reversed_x += 1
    empirical_reverse_x = reversed_x / trials
    pairs_x = size_x * (size_x - 1) // 2
    pairs_z = size_z * (size_z - 1) // 2
    pairs_total = (size_x + size_z) * (size_x + size_z - 1) // 2
    theoretical_reverse_x = (size_x * size_z + pairs_z) / pairs_total

    table = ResultTable(
        title="E8 — single-update action probabilities (Figures 1 and 2)",
        columns=["figure", "action", "empirical", "theoretical", "|deviation|"],
    )
    table.add_row(
        "Figure 1",
        f"move X (|X|={size_x}, |Z|={size_z})",
        empirical_move_x,
        theoretical_move_x,
        abs(empirical_move_x - theoretical_move_x),
    )
    table.add_row(
        "Figure 2",
        f"reverse X in place (|X|={size_x}, |Z|={size_z})",
        empirical_reverse_x,
        theoretical_reverse_x,
        abs(empirical_reverse_x - theoretical_reverse_x),
    )
    max_dev = max(
        abs(empirical_move_x - theoretical_move_x),
        abs(empirical_reverse_x - theoretical_reverse_x),
    )
    return ExperimentResult(
        experiment_id="E8",
        title="Action probabilities (Figures 1 and 2)",
        paper_claim="Figure 1: X moves with probability |Z|/(|X|+|Z|).  "
        "Figure 2: each rearranging option is chosen with probability equal to "
        "the other option's cost divided by C(|X|+|Z|, 2).",
        tables=[table],
        findings={"max deviation": max_dev},
        notes=[
            f"Clique scenario uses |X|={size_x}, gap={gap}, |Z|={size_z}; the "
            f"line scenario joins the two left path endpoints so the options are "
            f"'reverse X' (cost C({size_x},2)={pairs_x}) and 'swap and reverse Z' "
            f"(cost |X||Z|+C({size_z},2)={size_x * size_z + pairs_z})."
        ],
    )
