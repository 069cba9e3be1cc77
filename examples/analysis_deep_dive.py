"""Deep dive: watching the analysis of the paper happen on a concrete run.

The proofs of Theorems 6 and 14 charge the algorithm's expected cost to pairs
of nodes via harmonic sums over each node's *merge profile* — the sizes of
the components its own component successively merges with.  This example
makes those objects visible on a concrete workload:

* the merge profile and Lemma 5 / Lemma 13 sums of the worst node (how much
  of the ``H_n`` budget this particular workload can consume),
* the drift ``|L_{π0} \\ L_{π_i}|`` of the arrangement over time for ``Rand``
  and for ``Det``,
* the per-step expected cost of ``Rand`` over many trials, and
* the resulting cost distribution, compared with the ``4 H_n · OPT`` budget.

Run with::

    python examples/analysis_deep_dive.py [n] [seed]
"""

from __future__ import annotations

import random
import sys

from repro.core.analysis import (
    cost_distribution,
    disagreement_trajectory,
    expected_per_step_costs,
    worst_harmonic_certificate,
)
from repro.core.bounds import rand_cliques_cost_bound
from repro.core.det import DeterministicClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import offline_optimum_bounds
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.simulator import run_online, run_trials
from repro.experiments.charts import horizontal_bar_chart, sparkline
from repro.workloads.generation import random_clique_merge_sequence


def main(num_nodes: int = 24, seed: int = 0) -> None:
    rng = random.Random(seed)
    sequence = random_clique_merge_sequence(num_nodes, rng, size_biased=True)
    instance = OnlineMinLAInstance.with_random_start(sequence, rng)
    opt = offline_optimum_bounds(instance)

    print(f"workload: {num_nodes} nodes, {len(sequence)} merges, OPT in [{opt.lower}, {opt.upper}]")
    print()

    # --- 1. The harmonic certificate of the worst node --------------------
    certificate = worst_harmonic_certificate(sequence)
    print("harmonic certificate of the worst node")
    print(f"  node                    : {certificate.node}")
    print(f"  merge profile           : {list(certificate.profile)}")
    print(f"  Lemma 5 sum (moving)    : {certificate.lemma5_value:.3f}")
    print(f"  Lemma 13 sums (rearr.)  : {certificate.lemma13_square_value:.3f} / "
          f"{certificate.lemma13_product_value:.3f}")
    print(f"  harmonic budget H_n     : {certificate.harmonic_budget:.3f} "
          f"(utilization {certificate.lemma5_utilization:.0%})")
    print()

    # --- 2. Drift from pi0 over time --------------------------------------
    rand_run = run_online(
        RandomizedCliqueLearner(), instance, rng=random.Random(seed + 1), record_trajectory=True
    )
    det_run = run_online(DeterministicClosestLearner(), instance, record_trajectory=True)
    rand_drift = disagreement_trajectory(rand_run, instance.initial_arrangement)
    det_drift = disagreement_trajectory(det_run, instance.initial_arrangement)
    print("drift |L_pi0 \\ L_pi_i| over the run (sparklines, left = start)")
    print(f"  Rand : {sparkline(rand_drift)}  (peak {max(rand_drift)})")
    print(f"  Det  : {sparkline(det_drift)}  (peak {max(det_drift)}, never exceeds OPT ub {opt.upper})")
    print()

    # --- 3. Per-step expected cost of Rand ---------------------------------
    trials = run_trials(RandomizedCliqueLearner, instance, num_trials=30, seed=seed)
    per_step = expected_per_step_costs(trials)
    print("expected cost of each reveal step (Rand, 30 trials)")
    print(f"  {sparkline(per_step)}")
    print(
        f"  cheapest step averages {min(per_step):.1f} swaps, the most expensive "
        f"{max(per_step):.1f} — expensive steps are the merges of two already-large components"
    )
    print()

    # --- 4. Cost distribution vs the theoretical budget --------------------
    distribution = cost_distribution(trials)
    budget = rand_cliques_cost_bound(num_nodes, max(opt.upper, 1))
    print("total cost over 30 trials vs the Theorem 6 budget")
    print(
        horizontal_bar_chart(
            ["mean cost", "worst trial", "4·H_n·OPT budget"],
            [distribution.total.mean, distribution.total.maximum, budget],
        )
    )
    print()
    print(f"mean ± std : {distribution.total.mean:.1f} ± {distribution.total.std:.1f}")
    print(f"95% CI     : [{distribution.total.ci_low:.1f}, {distribution.total.ci_high:.1f}]")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 24
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    main(n, seed)
