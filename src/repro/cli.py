"""Command-line interface of the :mod:`repro` library.

The CLI makes the common workflows available without writing Python:

``python -m repro simulate``
    Generate a random clique or line workload, run one of the online
    algorithms on it (optionally averaged over trials) and report the cost
    against the certified offline-optimum bracket and the paper's bound.

``python -m repro adversary``
    Run one of the Section 5 lower-bound constructions (the adaptive line
    adversary of Theorem 16 or the binary-tree distribution of Theorem 15)
    against a chosen algorithm, or a worst-of-k random search
    (``--construction random``), optionally sharded over worker processes
    with ``--jobs N``.

``python -m repro profile``
    Print the structural profile of a generated workload: merge profile of
    the worst node, harmonic-budget utilization, component statistics.

``python -m repro experiments``
    Run the E1–E15 suite and regenerate ``EXPERIMENTS.md`` (thin wrapper
    around :mod:`repro.experiments.suite`).

``python -m repro scenarios``
    Browse and exercise the workload registry: ``scenarios list`` prints
    the catalog, ``scenarios run`` generates one scenario (or ``--all``) at
    a chosen scale, replays the reveal view through the matching learner
    and consumes the request stream in batches.  The ``REPRO_SCENARIO``
    environment variable pre-selects a scenario (validated against the
    registry).

``python -m repro serve``
    Boot the arrangement-serving subsystem (:mod:`repro.service`)
    in-process for one registered scenario and replay its full request
    stream through the sharded workers at maximum speed, printing the
    throughput/latency/cost summary — the quickest way to see a deployment
    configuration serve.

``python -m repro loadgen``
    Drive a freshly booted service with generated load: open-loop Poisson
    arrivals (``--mode open --rate R``), a closed-loop concurrency window
    (``--mode closed --concurrency C``) or a full-speed replay (the
    default).  Reports throughput and p50/p95/p99 latency and archives the
    summary in the run store (``--no-store`` to opt out).  By default the
    percentiles come from the fleet's fixed-bucket histograms at O(1)
    memory; ``--retain-requests`` keeps every result for exact
    percentiles.  ``--soak --duration S`` (or ``--max-requests N``)
    streams the scenario in cycles indefinitely, checkpointing RSS and
    tail latency.  Both serve and loadgen accept ``--stats-interval N``
    (live one-line fleet snapshots), ``--trace-sample-rate``/
    ``--trace-out`` (sampled span traces as JSONL) and ``--metrics-out``/
    ``--metrics-jsonl`` (Prometheus-text / JSONL metrics exports).

``python -m repro perf``
    The perf trajectory workflow (:mod:`repro.obs.profile`): ``perf run``
    executes one experiment (or replays one scenario) under the
    hierarchical zone profiler and prints the zone table plus the run's
    deterministic work counters (``--format json`` for machines,
    ``--flame PATH`` for a collapsed-stack flamegraph/speedscope export);
    experiment runs archive their counters and profile snapshot in the run
    store.  ``perf diff`` compares two archived runs: work counters are
    gated at exactly zero drift (non-zero exit code), wall time is
    reported as a ratio.

``python -m repro runs``
    Work with the persistent run archive (:mod:`repro.runstore`):
    ``runs list`` and ``runs show`` inspect stored runs, ``runs report``
    renders cross-run variance bands on costs and harmonic slopes,
    ``runs export-bands`` writes the same per-phase bands as CSV files
    under ``results/``, ``runs compare`` diffs two store snapshots and
    flags cost/wall-time regressions beyond a tolerance (non-zero exit
    code on regressions, so CI can gate on it), and ``runs gc`` prunes the
    archive.  The archive location defaults to ``.repro-runs`` and is
    overridden by ``REPRO_RUNSTORE`` or ``--store``.

``python -m repro analyze``
    Run the static determinism/thread-safety checker
    (:mod:`repro.analysis`) over a source tree (the installed ``repro``
    package by default): seeded-randomness, wall-clock-taint, ordered
    iteration, lock-discipline, bounded-queue and public-annotation rules,
    with per-line ``# repro: allow[rule] — reason`` suppressions and a
    ``--baseline`` ratchet.  Exits non-zero on unsuppressed findings, so
    CI gates on it.

Scenario recipes in a ``.repro-scenarios.toml`` file in the working
directory are discovered at startup and registered next to the built-ins,
so they appear in ``scenarios list`` and are swept by E11.
"""

from __future__ import annotations

import argparse
import random
from typing import Callable, Dict, List, Optional

from repro.adversary.line_adversary import run_line_adversary
from repro.analysis.cli import add_analyze_arguments, command_analyze
from repro.adversary.random_adversary import worst_of_k_search
from repro.adversary.tree_adversary import tree_adversary_instance
from repro.core.algorithm import OnlineMinLAAlgorithm
from repro.core.analysis import instance_profile, worst_harmonic_certificate
from repro.core.bounds import (
    det_competitive_bound,
    rand_cliques_ratio_bound,
    rand_lines_ratio_bound,
)
from repro.core.det import DeterministicClosestLearner, GreedyClosestLearner
from repro.core.instance import OnlineMinLAInstance
from repro.core.opt import offline_optimum_bounds
from repro.core.rand_cliques import (
    MoveSmallerCliqueLearner,
    RandomizedCliqueLearner,
    UnbiasedCoinCliqueLearner,
)
from repro.core.rand_lines import (
    MoveSmallerLineLearner,
    RandomizedLineLearner,
    UnbiasedCoinLineLearner,
)
from repro.core.simulator import run_trials
from repro.errors import ReproError
from repro.experiments import suite as experiments_suite
from repro.graphs.reveal import GraphKind
from repro.workloads.generation import random_clique_merge_sequence, random_line_sequence

AlgorithmFactory = Callable[[], OnlineMinLAAlgorithm]

_ALGORITHMS: Dict[GraphKind, Dict[str, AlgorithmFactory]] = {
    GraphKind.CLIQUES: {
        "rand": RandomizedCliqueLearner,
        "unbiased": UnbiasedCoinCliqueLearner,
        "move-smaller": MoveSmallerCliqueLearner,
        "det": DeterministicClosestLearner,
        "det-greedy": GreedyClosestLearner,
    },
    GraphKind.LINES: {
        "rand": RandomizedLineLearner,
        "unbiased": UnbiasedCoinLineLearner,
        "move-smaller": MoveSmallerLineLearner,
        "det": DeterministicClosestLearner,
        "det-greedy": GreedyClosestLearner,
    },
}


def algorithm_factory(kind: GraphKind, name: str) -> AlgorithmFactory:
    """Resolve an algorithm name for the given graph kind."""
    try:
        return _ALGORITHMS[kind][name]
    except KeyError as exc:
        raise ReproError(
            f"unknown algorithm {name!r} for {kind.value}; "
            f"choose one of {sorted(_ALGORITHMS[kind])}"
        ) from exc


def _ratio_bound(kind: GraphKind, name: str, num_nodes: int) -> float:
    if name in ("det", "det-greedy"):
        return det_competitive_bound(num_nodes)
    if kind is GraphKind.CLIQUES:
        return rand_cliques_ratio_bound(num_nodes)
    return rand_lines_ratio_bound(num_nodes)


# ----------------------------------------------------------------------
# Sub-commands
# ----------------------------------------------------------------------
def command_simulate(arguments: argparse.Namespace) -> int:
    """The ``simulate`` sub-command."""
    kind = GraphKind(arguments.kind)
    rng = random.Random(arguments.seed)
    if kind is GraphKind.CLIQUES:
        sequence = random_clique_merge_sequence(
            arguments.nodes, rng, num_final_components=arguments.final_components
        )
    else:
        sequence = random_line_sequence(
            arguments.nodes, rng, num_final_components=arguments.final_components
        )
    instance = OnlineMinLAInstance.with_random_start(sequence, rng)
    opt = offline_optimum_bounds(instance)
    factory = algorithm_factory(kind, arguments.algorithm)
    results = run_trials(factory, instance, num_trials=arguments.trials, seed=arguments.seed)
    mean_cost = sum(result.total_cost for result in results) / len(results)
    denominator = max(opt.upper, 1)
    print(f"workload        : {kind.value}, n={arguments.nodes}, steps={instance.num_steps}")
    print(f"algorithm       : {arguments.algorithm} ({results[0].algorithm_name})")
    print(f"trials          : {arguments.trials}")
    print(f"mean cost       : {mean_cost:.1f} adjacent swaps")
    print(f"offline optimum : between {opt.lower} and {opt.upper}")
    print(f"empirical ratio : {mean_cost / denominator:.2f}")
    print(f"paper bound     : {_ratio_bound(kind, arguments.algorithm, arguments.nodes):.2f}")
    return 0


def command_adversary(arguments: argparse.Namespace) -> int:
    """The ``adversary`` sub-command."""
    if arguments.construction == "line":
        kind = GraphKind.LINES
        factory = algorithm_factory(kind, arguments.algorithm)
        result = run_line_adversary(
            factory(), arguments.nodes, rng=random.Random(arguments.seed)
        )
        print(f"Theorem 16 adversary, n={arguments.nodes}")
        print(f"algorithm       : {result.algorithm_name}")
        print(f"online cost     : {result.total_cost}")
        print(f"offline optimum : {result.opt_bounds.upper}")
        print(f"ratio           : {result.ratio_lower_estimate:.2f}")
        print(f"bound 2n-2      : {det_competitive_bound(arguments.nodes):.0f}")
        return 0
    if arguments.construction == "random":
        # Worst-of-k random search, sharded over worker processes.
        kind = GraphKind(arguments.kind)
        factory = algorithm_factory(kind, arguments.algorithm)
        result = worst_of_k_search(
            factory,
            kind,
            num_nodes=arguments.nodes,
            num_candidates=arguments.candidates,
            rng=random.Random(arguments.seed),
            trials_per_candidate=arguments.trials,
            jobs=arguments.jobs,
        )
        print(f"worst-of-{arguments.candidates} random search, {kind.value}, n={arguments.nodes}")
        print(f"algorithm       : {arguments.algorithm}")
        print(f"candidates      : {result.candidates_evaluated}")
        print(f"worst mean cost : {result.mean_cost:.1f}")
        print(f"offline optimum : between {result.opt_lower} and {result.opt_upper}")
        print(f"worst ratio     : {result.ratio:.2f}")
        print(f"paper bound     : {_ratio_bound(kind, arguments.algorithm, arguments.nodes):.2f}")
        return 0
    # Binary-tree distribution (Theorem 15).
    kind = GraphKind.LINES
    factory = algorithm_factory(kind, arguments.algorithm)
    rng = random.Random(arguments.seed)
    instance, _ = tree_adversary_instance(arguments.nodes, rng)
    opt = offline_optimum_bounds(instance)
    results = run_trials(
        factory,
        instance,
        num_trials=arguments.trials,
        seed=arguments.seed,
        jobs=arguments.jobs,
    )
    mean_cost = sum(result.total_cost for result in results) / len(results)
    print(f"Theorem 15 distribution, n={arguments.nodes}")
    print(f"algorithm       : {results[0].algorithm_name}")
    print(f"mean cost       : {mean_cost:.1f}")
    print(f"offline optimum : {opt.upper}")
    print(f"ratio           : {mean_cost / max(opt.upper, 1):.2f}")
    return 0


def command_profile(arguments: argparse.Namespace) -> int:
    """The ``profile`` sub-command."""
    kind = GraphKind(arguments.kind)
    rng = random.Random(arguments.seed)
    if kind is GraphKind.CLIQUES:
        sequence = random_clique_merge_sequence(
            arguments.nodes, rng, num_final_components=arguments.final_components
        )
    else:
        sequence = random_line_sequence(
            arguments.nodes, rng, num_final_components=arguments.final_components
        )
    instance = OnlineMinLAInstance.with_random_start(sequence, rng)
    profile = instance_profile(instance)
    certificate = worst_harmonic_certificate(sequence)
    print(f"workload profile ({kind.value}, n={arguments.nodes}, seed={arguments.seed})")
    for key, value in profile.items():
        print(f"  {key:<26} {value:.3f}")
    print(f"  worst node                 {certificate.node!r}")
    print(f"  its merge profile          {list(certificate.profile)}")
    print(f"  Lemma 5 sum                {certificate.lemma5_value:.3f}")
    print(f"  Lemma 13 sums              {certificate.lemma13_square_value:.3f} / "
          f"{certificate.lemma13_product_value:.3f}")
    print(f"  harmonic budget H_n        {certificate.harmonic_budget:.3f}")
    return 0


def command_scenarios(arguments: argparse.Namespace) -> int:
    """The ``scenarios`` sub-command (workload registry catalog and runner)."""
    from repro.core.simulator import run_online
    from repro.workloads import (
        all_scenarios,
        default_scenario_name,
        get_scenario,
        stream_statistics,
    )

    if arguments.action == "list":
        scenarios = all_scenarios()
        name_width = max(len(scenario.name) for scenario in scenarios)
        print(f"{len(scenarios)} registered scenarios:")
        for scenario in scenarios:
            print(
                f"  {scenario.name:<{name_width}}  {scenario.kind_label:<8}"
                f"{scenario.description}"
            )
        return 0

    # scenarios run
    if arguments.all:
        selected = all_scenarios()
    else:
        name = arguments.scenario or default_scenario_name()
        if name is None:
            raise ReproError(
                "scenarios run needs --scenario NAME, --all, or the "
                "REPRO_SCENARIO environment variable"
            )
        selected = [get_scenario(name)]
    for scenario in selected:
        params = scenario.default_params(arguments.scale)
        num_nodes = arguments.nodes if arguments.nodes is not None else params.num_nodes
        num_requests = (
            arguments.requests if arguments.requests is not None else params.num_requests
        )
        sequences = scenario.reveal_sequences(num_nodes, arguments.seed)
        print(f"{scenario.name} ({scenario.kind_label}): {scenario.description}")
        for sequence in sequences:
            instance = OnlineMinLAInstance.with_random_start(
                sequence, random.Random(f"{arguments.seed}|{scenario.name}|start")
            )
            factory = _ALGORITHMS[sequence.kind]["rand"]
            result = run_online(
                factory(),
                instance,
                rng=random.Random(f"{arguments.seed}|{scenario.name}|run"),
            )
            components = len(sequence.final_components())
            print(
                f"  reveal view : {sequence.kind.value}, n={sequence.num_nodes}, "
                f"steps={len(sequence)}, final components={components}, "
                f"rand cost={result.total_cost} swaps"
            )
        stream = scenario.request_stream(num_nodes, num_requests, arguments.seed)
        batch_size = min(arguments.batch, stream.num_requests)
        request_count, reveal_count = stream_statistics(stream, batch_size)
        reveal_note = "" if reveal_count is None else f", induced reveals={reveal_count}"
        print(
            f"  traffic view: n={stream.num_nodes}, requests={request_count} "
            f"(streamed in batches of {batch_size}{reveal_note})"
        )
    return 0


def _resolve_serving_workload(arguments: argparse.Namespace):
    """The (scenario, nodes, requests) triple of a serve/loadgen invocation."""
    from repro.workloads import default_scenario_name, get_scenario

    name = arguments.scenario or default_scenario_name()
    if name is None:
        raise ReproError(
            f"{arguments.command} needs --scenario NAME or the REPRO_SCENARIO "
            "environment variable"
        )
    scenario = get_scenario(name)
    params = scenario.default_params(arguments.scale)
    num_nodes = arguments.nodes if arguments.nodes is not None else params.num_nodes
    num_requests = (
        arguments.requests if arguments.requests is not None else params.num_requests
    )
    return scenario, num_nodes, num_requests


def _write_observability_exports(arguments, snapshot, worker_stats, span_traces) -> None:
    """Write the ``--metrics-out``/``--metrics-jsonl``/``--trace-out`` files."""
    from repro.obs import write_metrics_jsonl, write_prometheus_text, write_spans_jsonl
    from repro.service.observation import fleet_metrics

    metrics = fleet_metrics(snapshot, worker_stats)
    if arguments.metrics_out is not None:
        write_prometheus_text(arguments.metrics_out, metrics)
        print(f"wrote Prometheus-text metrics to {arguments.metrics_out}")
    if arguments.metrics_jsonl is not None:
        write_metrics_jsonl(arguments.metrics_jsonl, metrics)
        print(f"wrote metrics JSONL to {arguments.metrics_jsonl}")
    if arguments.trace_out is not None:
        write_spans_jsonl(arguments.trace_out, span_traces)
        print(
            f"wrote {len(span_traces)} sampled span trace(s) to "
            f"{arguments.trace_out}"
        )


def _drive_scenario(arguments: argparse.Namespace, mode: str):
    """Boot a deployment for the CLI arguments and drive it in ``mode``."""
    from repro.service import run_scenario_loadgen

    scenario, num_nodes, num_requests = _resolve_serving_workload(arguments)
    batch_timeout = (
        arguments.batch_timeout_ms / 1_000.0
        if arguments.batch_timeout_ms is not None
        else None
    )
    report = run_scenario_loadgen(
        scenario,
        num_nodes=num_nodes,
        num_requests=num_requests,
        seed=arguments.seed,
        num_shards=arguments.shards,
        learner=arguments.algorithm,
        batch_size=arguments.batch,
        batch_timeout=batch_timeout,
        queue_capacity=arguments.queue_capacity,
        mode=mode,
        rate=getattr(arguments, "rate", None),
        concurrency=getattr(arguments, "concurrency", 32),
        backend=arguments.backend,
        retain_requests=arguments.retain_requests,
        span_rate=arguments.trace_sample_rate,
        stats_interval=arguments.stats_interval,
    )
    print(
        f"{scenario.name} ({scenario.kind_label}): n={num_nodes}, "
        f"requests={num_requests}, shards={arguments.shards} "
        f"(effective {report.summary.num_shards}), batch={arguments.batch}, "
        f"mode={mode}, backend={report.backend}"
    )
    print(report.summary.to_text())
    balance = ", ".join(
        f"shard {shard}: {count}" for shard, count in report.shard_requests.items()
    )
    print(f"shard balance: {balance}")
    _write_observability_exports(
        arguments, report.snapshot, report.summary.shard_stats, report.span_traces
    )
    return report


def command_serve(arguments: argparse.Namespace) -> int:
    """The ``serve`` sub-command: boot a deployment and replay its scenario."""
    _drive_scenario(arguments, mode="replay")
    return 0


def _summary_tables(summary, title: str):
    """The run-store tables of one serving summary (histogram included)."""
    tables = [summary.to_table(title)]
    histogram_table = summary.latency_histogram_table(f"{title}: latency histogram")
    if histogram_table is not None:
        tables.append(histogram_table)
    return tuple(tables)


def _archive_serving_run(arguments, experiment_id: str, title: str, scenario: str,
                         summary, extra_findings=None) -> None:
    """Append one serving/soak summary to the persistent run store."""
    from repro.runstore import RunRecord, RunStore

    findings = dict(summary.findings())
    findings.update(extra_findings or {})
    store = RunStore(arguments.store)
    run_id = store.append(
        RunRecord(
            experiment_id=experiment_id,
            title=title,
            scenario=scenario,
            scale=arguments.scale,
            seed=arguments.seed,
            jobs=arguments.shards,
            wall_time_seconds=summary.wall_seconds,
            tables=_summary_tables(summary, title),
            findings=findings,
        )
    )
    print(
        f"archived run {run_id} in {store.root} "
        "(inspect with python -m repro runs list)"
    )


def _run_soak(arguments: argparse.Namespace) -> int:
    """The ``loadgen --soak`` path: stream in cycles at O(1) memory."""
    from repro.service.loadgen import run_scenario_soak

    scenario, num_nodes, num_requests = _resolve_serving_workload(arguments)
    batch_timeout = (
        arguments.batch_timeout_ms / 1_000.0
        if arguments.batch_timeout_ms is not None
        else None
    )
    soak = run_scenario_soak(
        scenario,
        num_nodes=num_nodes,
        num_requests=num_requests,
        seed=arguments.seed,
        num_shards=arguments.shards,
        learner=arguments.algorithm,
        batch_size=arguments.batch,
        batch_timeout=batch_timeout,
        queue_capacity=arguments.queue_capacity,
        backend=arguments.backend,
        duration_seconds=arguments.duration,
        max_requests=arguments.max_requests,
        span_rate=arguments.trace_sample_rate,
        stats_interval=arguments.stats_interval,
    )
    print(soak.to_text())
    _write_observability_exports(
        arguments, soak.snapshot, soak.summary.shard_stats, soak.span_traces
    )
    if not arguments.no_store:
        extra = {"soak requests": float(soak.num_requests)}
        growth = soak.rss_growth()
        if growth is not None:
            extra["rss growth factor"] = growth
        _archive_serving_run(
            arguments,
            experiment_id="SOAK",
            title=f"soak {soak.scenario} ({soak.backend})",
            scenario=soak.scenario,
            summary=soak.summary,
            extra_findings=extra,
        )
    return 0


def command_loadgen(arguments: argparse.Namespace) -> int:
    """The ``loadgen`` sub-command: paced load against a fresh deployment."""
    if arguments.soak:
        return _run_soak(arguments)
    if arguments.duration is not None or arguments.max_requests is not None:
        raise ReproError(
            "--duration/--max-requests are soak horizons; add --soak"
        )
    report = _drive_scenario(arguments, mode=arguments.mode)
    if not arguments.no_store:
        _archive_serving_run(
            arguments,
            experiment_id="SERVE",
            title=f"loadgen {report.scenario} ({report.mode})",
            scenario=report.scenario,
            summary=report.summary,
        )
    return 0


def command_experiments(arguments: argparse.Namespace) -> int:
    """The ``experiments`` sub-command (delegates to the experiment suite CLI)."""
    forwarded: List[str] = ["--scale", arguments.scale, "--seed", str(arguments.seed)]
    if arguments.jobs is not None:
        forwarded += ["--jobs", str(arguments.jobs)]
    if arguments.only:
        forwarded += ["--only", *arguments.only]
    if arguments.output:
        forwarded += ["--output", arguments.output]
    if arguments.csv_dir:
        forwarded += ["--csv-dir", arguments.csv_dir]
    if arguments.store:
        forwarded += ["--store", arguments.store]
    if arguments.no_store:
        forwarded += ["--no-store"]
    return experiments_suite.main(forwarded)


def _perf_payload(label, arguments, snapshot, work, run_ids):
    """The machine-readable ``perf run --format json`` document."""
    return {
        "target": label,
        "scale": arguments.scale,
        "seed": arguments.seed,
        "jobs": arguments.jobs,
        "wall_seconds": snapshot.total_seconds(),
        "work": dict(sorted(work.items())),
        "zones": snapshot.to_json(),
        "archived_runs": list(run_ids),
    }


def _perf_run(arguments: argparse.Namespace) -> int:
    """The ``perf run`` action: profile one experiment or scenario."""
    import json as json_module

    from repro.experiments.runner import ExperimentScale
    from repro.experiments.suite import ALL_EXPERIMENTS
    from repro.obs.profile import (
        profile_zone,
        profiling,
        render_zone_table,
        work_delta,
        work_snapshot,
    )

    if not arguments.target:
        raise ReproError("perf run needs an experiment id or scenario name")
    experiment_id = (
        arguments.target.upper()
        if arguments.target.upper() in ALL_EXPERIMENTS
        else None
    )
    run_ids: List[str] = []
    before = work_snapshot()
    with profiling() as session:
        if experiment_id is not None:
            from repro.experiments.suite import run_all
            from repro.runstore import RunStore

            store = None if arguments.no_store else RunStore(arguments.store)
            preexisting = set(store.run_ids()) if store is not None else set()
            run_all(
                ExperimentScale(arguments.scale),
                seed=arguments.seed,
                only=[experiment_id],
                jobs=arguments.jobs,
                store=store,
            )
            if store is not None:
                run_ids = sorted(set(store.run_ids()) - preexisting)
            label = experiment_id
        else:
            from repro.service import run_scenario_loadgen
            from repro.workloads import get_scenario

            scenario = get_scenario(arguments.target)
            params = scenario.default_params(arguments.scale)
            with profile_zone("serve.replay"):
                run_scenario_loadgen(
                    scenario,
                    num_nodes=params.num_nodes,
                    num_requests=params.num_requests,
                    seed=arguments.seed,
                    num_shards=arguments.jobs or 1,
                    batch_size=8,
                    queue_capacity=params.num_requests,
                )
            label = scenario.name
    work = work_delta(before, work_snapshot())
    snapshot = session.snapshot()

    if arguments.flame is not None:
        lines = snapshot.collapsed_stack_lines()
        with open(arguments.flame, "w") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))

    if arguments.format == "json":
        print(
            json_module.dumps(
                _perf_payload(label, arguments, snapshot, work, run_ids),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(
            f"perf run {label}: scale={arguments.scale} seed={arguments.seed} "
            f"jobs={arguments.jobs or 1}"
        )
        print()
        print(render_zone_table(snapshot))
        print()
        print("work counters (deterministic):")
        for name in sorted(work):
            print(f"  {name:<40} {work[name]}")
        if run_ids:
            print()
            print(
                f"archived {len(run_ids)} run(s) with counters and profile "
                "(inspect with python -m repro runs list, python -m repro perf diff)"
            )
    if arguments.flame is not None and arguments.format != "json":
        print(f"wrote collapsed-stack flame data to {arguments.flame}")
    return 0


def _perf_diff(arguments: argparse.Namespace) -> int:
    """The ``perf diff`` action: exact counter gate between two stored runs."""
    from repro.obs.profile import merge_profiles
    from repro.runstore import RunStore
    from repro.runstore.report import describe_run

    if not arguments.target or not arguments.run_b:
        raise ReproError("perf diff needs two run ids (see runs list)")
    store = RunStore(arguments.store)
    run_a = store.get(arguments.target)
    run_b = store.get(arguments.run_b)
    print(f"A: {describe_run(run_a)}")
    print(f"B: {describe_run(run_b)}")

    drifted: List[str] = []
    if run_a.work or run_b.work:
        print()
        print("work counters (deterministic; any difference is drift):")
        for name in sorted(set(run_a.work) | set(run_b.work)):
            a_value = run_a.work.get(name, 0)
            b_value = run_b.work.get(name, 0)
            marker = ""
            if a_value != b_value:
                drifted.append(name)
                marker = f"  DRIFT ({b_value - a_value:+d})"
            print(f"  {name:<40} {a_value:>12} {b_value:>12}{marker}")
    else:
        print("neither run archived work counters")

    if run_a.mean_timing is not None and run_b.mean_timing is not None:
        ratio = (
            run_b.mean_timing / run_a.mean_timing
            if run_a.mean_timing > 0
            else float("inf")
        )
        print()
        print(
            f"wall time: {run_a.mean_timing:.3f}s -> {run_b.mean_timing:.3f}s "
            f"(x{ratio:.3f}; timing is banded, not gated)"
        )

    if run_a.profiles and run_b.profiles:
        profile_a = merge_profiles(run_a.profiles)
        profile_b = merge_profiles(run_b.profiles)
        paths = sorted(
            {zone.path for zone in profile_a.zones}
            | {zone.path for zone in profile_b.zones}
        )
        print()
        print("zone cumulative seconds (mean over archived snapshots):")
        for path in paths:
            zone_a = profile_a.zone(*path)
            zone_b = profile_b.zone(*path)
            a_seconds = zone_a.cumulative_seconds.sum if zone_a else 0.0
            b_seconds = zone_b.cumulative_seconds.sum if zone_b else 0.0
            indent = "  " * len(path)
            print(f"  {indent}{path[-1]:<30} {a_seconds:>10.4f} {b_seconds:>10.4f}")

    if drifted:
        print()
        print(f"counter drift on {len(drifted)} counter(s): {', '.join(drifted)}")
        return 1
    return 0


def command_perf(arguments: argparse.Namespace) -> int:
    """The ``perf`` sub-command (work counters + zone profiler workflow)."""
    if arguments.action == "run":
        return _perf_run(arguments)
    return _perf_diff(arguments)


def command_runs(arguments: argparse.Namespace) -> int:
    """The ``runs`` sub-command (persistent run archive)."""
    from pathlib import Path

    from repro.experiments.charts import cost_trajectory_chart
    from repro.runstore import (
        RunStore,
        compare_stores,
        export_band_csvs,
        store_report,
    )
    from repro.runstore.report import describe_run

    store = RunStore(arguments.store)

    if arguments.action == "list":
        # Manifest-level summaries: listing cost stays proportional to the
        # run count, not to the archived trace bytes.
        runs = store.summaries(arguments.experiment)
        print(f"run store at {store.root}: {len(runs)} stored run(s)")
        for run in runs:
            print(f"  {describe_run(run)}")
        return 0

    if arguments.action == "show":
        if not arguments.run_id:
            raise ReproError("runs show needs a RUN_ID (see runs list)")
        run = store.get(arguments.run_id)
        print(describe_run(run))
        if run.findings:
            print("findings:")
            for key, value in run.findings.items():
                print(f"  {key}: {value:.3f}")
        for table in run.tables:
            print()
            print(table.to_ascii())
        if run.trace_samples:
            print()
            print("trace samples:")
            for sample in run.trace_samples:
                print(
                    f"  {sample.group} seed={sample.seed}: "
                    f"{cost_trajectory_chart(sample.trace)}"
                )
        return 0

    if arguments.action == "report":
        print(
            store_report(
                store,
                experiment_id=arguments.experiment,
                min_seeds=arguments.min_seeds,
            )
        )
        return 0

    if arguments.action == "export-bands":
        written = export_band_csvs(
            store,
            directory=Path(arguments.out),
            experiment_id=arguments.experiment,
            min_seeds=arguments.min_seeds,
        )
        if not written:
            print(
                f"no trace population reaches {arguments.min_seeds} seeds yet - "
                "archive more runs (e.g. python -m repro experiments) first"
            )
            return 0
        print(f"wrote {len(written)} band CSV file(s):")
        for path in written:
            print(f"  {path.as_posix()}")
        return 0

    if arguments.action == "compare":
        if not arguments.baseline:
            raise ReproError("runs compare needs --baseline PATH")
        baseline = RunStore(arguments.baseline)
        report = compare_stores(baseline, store, tolerance=arguments.tolerance)
        print(report.to_text())
        return 1 if report.has_regressions else 0

    # runs gc
    removed = store.gc(keep=arguments.keep)
    print(
        f"gc of {store.root}: removed {removed['staging']} staging "
        f"leftover(s), pruned {removed['runs']} run(s)"
    )
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Online learning MinLA of cliques and lines (ICDCS 2024 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser("simulate", help="run an algorithm on a random workload")
    simulate.add_argument("--kind", choices=["cliques", "lines"], default="cliques")
    simulate.add_argument("--algorithm", default="rand")
    simulate.add_argument("--nodes", type=int, default=32)
    simulate.add_argument("--final-components", type=int, default=1)
    simulate.add_argument("--trials", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(handler=command_simulate)

    adversary = subparsers.add_parser(
        "adversary",
        help="run a Section 5 lower-bound construction or a worst-of-k random search",
    )
    adversary.add_argument("--construction", choices=["line", "tree", "random"], default="line")
    adversary.add_argument("--algorithm", default="det")
    adversary.add_argument("--kind", choices=["cliques", "lines"], default="cliques",
                           help="graph kind of the random-search candidates")
    adversary.add_argument("--nodes", type=int, default=21)
    adversary.add_argument("--candidates", type=int, default=20,
                           help="candidate instances for --construction random")
    adversary.add_argument("--trials", type=int, default=5)
    adversary.add_argument("--seed", type=int, default=0)
    adversary.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes to shard candidates/trials over "
        "(default: REPRO_JOBS, else 1)",
    )
    adversary.set_defaults(handler=command_adversary)

    profile = subparsers.add_parser("profile", help="print the structural profile of a workload")
    profile.add_argument("--kind", choices=["cliques", "lines"], default="cliques")
    profile.add_argument("--nodes", type=int, default=32)
    profile.add_argument("--final-components", type=int, default=1)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(handler=command_profile)

    scenarios = subparsers.add_parser(
        "scenarios",
        help="browse and exercise the workload scenario registry",
    )
    scenarios.add_argument(
        "action",
        choices=["list", "run"],
        help="list the catalog, or generate and exercise scenarios",
    )
    scenarios.add_argument(
        "--scenario",
        default=None,
        help="scenario name for 'run' (default: REPRO_SCENARIO, else use --all)",
    )
    scenarios.add_argument(
        "--all", action="store_true", help="run every registered scenario"
    )
    scenarios.add_argument(
        "--scale",
        choices=["smoke", "bench", "full"],
        default="smoke",
        help="per-scenario default sizes (override with --nodes / --requests)",
    )
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument("--nodes", type=int, default=None,
                           help="node budget (default: the scenario's scale default)")
    scenarios.add_argument("--requests", type=int, default=None,
                           help="stream length (default: the scenario's scale default)")
    scenarios.add_argument("--batch", type=int, default=1024,
                           help="stream batch size (bounds peak memory)")
    scenarios.set_defaults(handler=command_scenarios)

    def add_service_arguments(parser: argparse.ArgumentParser) -> None:
        """Options shared by the ``serve`` and ``loadgen`` deployments."""
        parser.add_argument(
            "--scenario",
            default=None,
            help="registered scenario to serve (default: REPRO_SCENARIO)",
        )
        parser.add_argument(
            "--scale",
            choices=["smoke", "bench", "full"],
            default="smoke",
            help="per-scenario default sizes (override with --nodes / --requests)",
        )
        parser.add_argument("--nodes", type=int, default=None,
                            help="node budget (default: the scenario's scale default)")
        parser.add_argument("--requests", type=int, default=None,
                            help="request count (default: the scenario's scale default)")
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--shards", type=int, default=1,
                            help="worker shards (tenants are partitioned "
                            "deterministically across them)")
        parser.add_argument("--batch", type=int, default=1,
                            help="micro-batch size (requests coalesced into one "
                            "rearrangement pass)")
        parser.add_argument(
            "--batch-timeout-ms",
            type=float,
            default=None,
            help="cut a micro-batch early after this many milliseconds "
            "(default: wait for a full batch — deterministic cost totals)",
        )
        parser.add_argument("--queue-capacity", type=int, default=1024,
                            help="bounded per-shard queue size in requests (backpressure limit)")
        parser.add_argument(
            "--algorithm",
            choices=["rand", "move-smaller", "det"],
            default="rand",
            help="online algorithm each shard serves with",
        )
        parser.add_argument(
            "--backend",
            choices=["thread", "process"],
            default=None,
            help="worker backend: threads (shared heap) or one process per "
            "shard (default: REPRO_SERVICE_BACKEND, else thread)",
        )
        parser.add_argument(
            "--stats-interval",
            type=float,
            default=None,
            metavar="SECONDS",
            help="print a live one-line fleet snapshot (throughput, "
            "histogram p50/p95/p99, queue peak, busy fraction) every "
            "SECONDS while the run drives",
        )
        parser.add_argument(
            "--retain-requests",
            action="store_true",
            help="keep every per-request result for exact percentiles "
            "(O(requests) memory; default: O(1) fixed-bucket histograms)",
        )
        parser.add_argument(
            "--trace-sample-rate",
            type=float,
            default=0.0,
            metavar="RATE",
            help="head-sample this fraction of requests (seeded, "
            "deterministic) into per-request span traces",
        )
        parser.add_argument(
            "--trace-out",
            default=None,
            metavar="PATH",
            help="write the sampled span traces as JSONL to PATH",
        )
        parser.add_argument(
            "--metrics-out",
            default=None,
            metavar="PATH",
            help="write the final fleet metrics in Prometheus text format "
            "to PATH",
        )
        parser.add_argument(
            "--metrics-jsonl",
            default=None,
            metavar="PATH",
            help="write the final fleet metrics as JSONL to PATH",
        )

    serve = subparsers.add_parser(
        "serve",
        help="boot the sharded serving subsystem and replay a scenario through it",
    )
    add_service_arguments(serve)
    serve.set_defaults(handler=command_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="generate load against a freshly booted service and report latency",
    )
    add_service_arguments(loadgen)
    loadgen.add_argument(
        "--mode",
        choices=["replay", "open", "closed"],
        default="replay",
        help="replay at full speed, open-loop Poisson arrivals, or a "
        "closed concurrency window",
    )
    loadgen.add_argument("--rate", type=float, default=None,
                         help="open-loop arrival rate in requests/second")
    loadgen.add_argument("--concurrency", type=int, default=32,
                         help="closed-loop outstanding-request window")
    loadgen.add_argument(
        "--soak", action="store_true",
        help="stream the scenario in cycles at O(1) memory until a "
        "--duration/--max-requests horizon is reached",
    )
    loadgen.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="soak horizon: stop submitting after this much wall time",
    )
    loadgen.add_argument(
        "--max-requests", type=int, default=None, metavar="N",
        help="soak horizon: stop after submitting N requests",
    )
    loadgen.add_argument(
        "--store",
        default=None,
        help="run-archive directory (default: REPRO_RUNSTORE, else .repro-runs)",
    )
    loadgen.add_argument(
        "--no-store", action="store_true",
        help="do not archive this run's latency summary",
    )
    loadgen.set_defaults(handler=command_loadgen)

    experiments = subparsers.add_parser("experiments", help="run the E1-E15 experiment suite")
    experiments.add_argument("--scale", choices=["smoke", "bench", "full"], default="bench")
    experiments.add_argument("--seed", type=int, default=0)
    experiments.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent experiments (default: REPRO_JOBS, else 1)",
    )
    experiments.add_argument("--only", nargs="*", default=None)
    experiments.add_argument("--output", default=None)
    experiments.add_argument("--csv-dir", default=None,
                             help="directory for the per-table CSV files")
    experiments.add_argument(
        "--store",
        default=None,
        help="run-archive directory (default: REPRO_RUNSTORE, else .repro-runs)",
    )
    experiments.add_argument(
        "--no-store", action="store_true", help="do not archive this invocation's runs"
    )
    experiments.set_defaults(handler=command_experiments)

    perf = subparsers.add_parser(
        "perf",
        help="profile a run: zone profiler plus deterministic work counters",
    )
    perf.add_argument(
        "action",
        choices=["run", "diff"],
        help="profile one experiment/scenario, or diff two archived runs",
    )
    perf.add_argument(
        "target",
        nargs="?",
        default=None,
        help="experiment id (e.g. E2) or scenario name for 'run'; "
        "baseline run id for 'diff'",
    )
    perf.add_argument(
        "run_b",
        nargs="?",
        default=None,
        help="second run id for 'diff'",
    )
    perf.add_argument(
        "--scale", choices=["smoke", "bench", "full"], default="smoke"
    )
    perf.add_argument("--seed", type=int, default=0)
    perf.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (experiments) or shards (scenarios); "
        "counters are bit-identical for every value",
    )
    perf.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="zone table + counters as text (default) or one JSON document",
    )
    perf.add_argument(
        "--flame",
        default=None,
        metavar="PATH",
        help="write the profile as collapsed stacks (flamegraph.pl / "
        "speedscope compatible) to PATH",
    )
    perf.add_argument(
        "--store",
        default=None,
        help="run-archive directory (default: REPRO_RUNSTORE, else .repro-runs)",
    )
    perf.add_argument(
        "--no-store",
        action="store_true",
        help="do not archive this invocation's counters and profile",
    )
    perf.set_defaults(handler=command_perf)

    runs = subparsers.add_parser(
        "runs",
        help="inspect and compare the persistent run archive",
    )
    runs.add_argument(
        "action",
        choices=["list", "show", "compare", "report", "export-bands", "gc"],
        help="list runs, show one run, compare two stores, render variance "
        "bands, export band CSVs, or prune the archive",
    )
    runs.add_argument("run_id", nargs="?", default=None,
                      help="run id for 'show' (see runs list)")
    runs.add_argument(
        "--store",
        default=None,
        help="archive directory (default: REPRO_RUNSTORE, else .repro-runs); "
        "for 'compare' this is the candidate store",
    )
    runs.add_argument(
        "--experiment",
        default=None,
        help="restrict 'list'/'report' to one experiment id (e.g. E2)",
    )
    runs.add_argument(
        "--min-seeds",
        type=int,
        default=3,
        help="seeds a trace population needs before 'report'/'export-bands' "
        "draw its bands",
    )
    runs.add_argument(
        "--out",
        default="results",
        help="directory 'export-bands' writes its per-phase band CSVs to",
    )
    runs.add_argument(
        "--baseline",
        default=None,
        help="baseline store directory for 'compare'",
    )
    runs.add_argument(
        "--tolerance",
        type=float,
        default=0.1,
        help="relative cost/wall-time change 'compare' tolerates before "
        "flagging a regression",
    )
    runs.add_argument(
        "--keep",
        type=int,
        default=None,
        help="for 'gc': keep only the newest N runs per configuration",
    )
    runs.set_defaults(handler=command_runs)

    analyze = subparsers.add_parser(
        "analyze",
        help="run the static determinism/thread-safety checks over the tree",
    )
    add_analyze_arguments(analyze)
    analyze.set_defaults(handler=command_analyze)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.workloads.discovery import autodiscover_scenarios

    parser = build_parser()
    arguments = parser.parse_args(argv)
    try:
        # User scenario recipes (.repro-scenarios.toml in the working
        # directory) join the registry before any command runs, so they are
        # listable, runnable and swept by E11 like built-ins.
        autodiscover_scenarios()
        return arguments.handler(arguments)
    except ReproError as error:
        parser.exit(2, f"error: {error}\n")
        return 2  # pragma: no cover - parser.exit raises SystemExit
