"""Randomized stress workloads ("worst-of-k" adversaries).

The constructions of Theorems 15 and 16 are tailored adversaries.  In
practice it is also useful to stress an algorithm with *search-based*
adversaries: draw many random reveal sequences (and/or initial permutations),
evaluate the algorithm on each, and keep the one with the worst empirical
competitive ratio.  This module provides that machinery; experiment E1 uses
plain random draws, while the ablation studies and the test suite use the
worst-of-k search to probe how far random search can push the ratio compared
with the analytical lower bounds.

Candidates are independent, so :func:`worst_of_k_search` shards them over
the parallel experiment runner (``jobs=`` argument, ``REPRO_JOBS``
environment variable, or ``python -m repro adversary --construction random
--jobs N``).  Every candidate derives its entire randomness from
``(base seed, candidate index)`` and the worst certificate is selected by
``(ratio, lowest index)``, so the search result is bit-identical for every
worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import offline_optimum_bounds
from repro.core.simulator import run_trials
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence


@dataclass(frozen=True)
class AdversarialSearchResult:
    """The worst instance found by random search, with its statistics."""

    instance: OnlineMinLAInstance
    mean_cost: float
    opt_lower: int
    opt_upper: int
    ratio: float
    candidates_evaluated: int

    @property
    def kind(self) -> GraphKind:
        """Graph kind of the worst-case instance found."""
        return self.instance.kind


def random_instance(
    kind: GraphKind,
    num_nodes: int,
    rng: random.Random,
    num_final_components: int = 1,
) -> OnlineMinLAInstance:
    """One random instance (workload + random initial permutation) of the given kind."""
    if kind is GraphKind.CLIQUES:
        sequence = random_clique_merge_sequence(
            num_nodes, rng, num_final_components=num_final_components
        )
    else:
        sequence = random_line_sequence(
            num_nodes, rng, num_final_components=num_final_components
        )
    return OnlineMinLAInstance.with_random_start(sequence, rng)


def _evaluate_candidate(
    algorithm_factory: Callable[[], OnlineMinLAAlgorithm],
    kind: GraphKind,
    num_nodes: int,
    num_final_components: int,
    base_seed: int,
    candidate_index: int,
    trials_per_candidate: int,
    trial_jobs: int = 1,
) -> AdversarialSearchResult:
    """Draw and evaluate one candidate instance, fully determined by its index.

    All randomness (the instance, the initial permutation and the trial
    seeds) derives from ``(base_seed, candidate_index)`` only — never from
    evaluation order or worker identity — which is what makes the sharded
    search bit-identical to the sequential one.  ``trial_jobs`` fans the
    candidate's trials out (``run_trials`` is bit-identical for every worker
    count); the candidate-sharded path keeps it at 1 so only one fan-out
    level is active at a time.
    """
    candidate_rng = random.Random(f"{base_seed}|candidate-{candidate_index}")
    instance = random_instance(
        kind, num_nodes, candidate_rng, num_final_components=num_final_components
    )
    bounds = offline_optimum_bounds(instance)
    results = run_trials(
        algorithm_factory,
        instance,
        num_trials=trials_per_candidate,
        seed=candidate_rng.randrange(2**31),
        jobs=trial_jobs,
    )
    mean_cost = sum(result.total_cost for result in results) / len(results)
    denominator = max(bounds.upper, 1)
    return AdversarialSearchResult(
        instance=instance,
        mean_cost=mean_cost,
        opt_lower=bounds.lower,
        opt_upper=bounds.upper,
        ratio=mean_cost / denominator,
        candidates_evaluated=candidate_index + 1,
    )


def _candidate_worker(
    algorithm_factory: Callable[[], OnlineMinLAAlgorithm],
    kind: GraphKind,
    num_nodes: int,
    num_final_components: int,
    base_seed: int,
    candidate_index: int,
    trials_per_candidate: int,
) -> AdversarialSearchResult:
    """Evaluate one candidate inside a worker process."""
    from repro.experiments.parallel import _disable_nested_fan_out

    _disable_nested_fan_out()
    return _evaluate_candidate(
        algorithm_factory,
        kind,
        num_nodes,
        num_final_components,
        base_seed,
        candidate_index,
        trials_per_candidate,
    )


def worst_of_k_search(
    algorithm_factory: Callable[[], OnlineMinLAAlgorithm],
    kind: GraphKind,
    num_nodes: int,
    num_candidates: int,
    rng: random.Random,
    trials_per_candidate: int = 5,
    num_final_components: int = 1,
    jobs: Optional[int] = None,
) -> AdversarialSearchResult:
    """Search over random instances for the one maximizing the empirical ratio.

    Parameters
    ----------
    algorithm_factory:
        Builds a fresh algorithm per trial (randomized algorithms are averaged
        over ``trials_per_candidate`` runs per candidate instance).
    kind, num_nodes, num_final_components:
        Shape of the candidate instances.
    num_candidates:
        How many random instances to draw and evaluate.
    rng:
        Randomness source for the search.  Only one base seed is drawn from
        it; every candidate then derives its own stream from
        ``(base seed, candidate index)``, so the result does not depend on
        how candidates are scheduled.
    jobs:
        Number of worker processes to shard candidates over.  ``None``
        (default) reads the ``REPRO_JOBS`` environment variable (falling
        back to 1); results are bit-identical for every value.  Parallel
        execution ships ``algorithm_factory`` to workers, so it must be
        picklable; an unpicklable factory runs sequentially when the worker
        count came from the environment, and raises a clear error when
        ``jobs`` was explicit.

    Returns
    -------
    AdversarialSearchResult
        The candidate with the largest ``mean cost / OPT upper bound``
        ratio (the lowest candidate index wins ties), i.e. the worst
        certificate aggregated over all shards.
    """
    if num_candidates < 1:
        raise ReproError("the search needs at least one candidate instance")
    if trials_per_candidate < 1:
        raise ReproError("the search needs at least one trial per candidate")
    from repro.experiments.parallel import _run_in_pool, is_picklable, resolve_jobs

    base_seed = rng.randrange(2**63)
    resolved = resolve_jobs(jobs)
    picklable = resolved > 1 and is_picklable(algorithm_factory)
    use_workers = resolved > 1 and num_candidates > 1
    if use_workers and not picklable:
        if jobs is not None:
            raise ReproError(
                "a sharded worst-of-k search requires a picklable "
                "algorithm_factory (a module-level class or function, not a "
                f"lambda or closure); got {algorithm_factory!r}"
            )
        # Opportunistic env-driven parallelism must not break callers that
        # were valid before REPRO_JOBS applied here.
        use_workers = False
    if use_workers:
        candidates = _run_in_pool(
            resolved,
            _candidate_worker,
            [
                (
                    algorithm_factory,
                    kind,
                    num_nodes,
                    num_final_components,
                    base_seed,
                    index,
                    trials_per_candidate,
                )
                for index in range(num_candidates)
            ],
        )
    else:
        # One candidate (or one worker): spend the worker budget on the
        # trial level instead — run_trials is bit-identical for every count.
        # An explicit jobs value is passed through so run_trials raises its
        # clear error if the factory cannot be shipped to workers.
        trial_jobs = resolved if (picklable or jobs is not None) else 1
        candidates = [
            _evaluate_candidate(
                algorithm_factory,
                kind,
                num_nodes,
                num_final_components,
                base_seed,
                index,
                trials_per_candidate,
                trial_jobs=trial_jobs,
            )
            for index in range(num_candidates)
        ]
    worst = candidates[0]
    for candidate in candidates[1:]:
        if candidate.ratio > worst.ratio:
            worst = candidate
    return AdversarialSearchResult(
        instance=worst.instance,
        mean_cost=worst.mean_cost,
        opt_lower=worst.opt_lower,
        opt_upper=worst.opt_upper,
        ratio=worst.ratio,
        candidates_evaluated=num_candidates,
    )

