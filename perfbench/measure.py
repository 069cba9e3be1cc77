"""One benchmark run: set up, repeat the job, check it, reduce to metrics."""

from __future__ import annotations

import gc
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.obs.clock import now

import hostspeed
from layers import Repeat
from tracer import Tracer, layer_totals, median, nearest_rank

#: Set-ups per run; ``setup_s`` is their median.  A cheap set-up repeats
#: until it has used ``SETUP_MIN_SECONDS`` (at most ``SETUP_MAX_REPEATS``).
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100

#: Minimum repeats of each kind (untraced, and traced in a traced run).
MIN_REPEATS = 3

Metric = Tuple[float, str]


@dataclass
class Outcome:
    metrics: Dict[str, Metric]
    layer_metrics: Dict[str, Metric]
    attempted: int
    failed: int
    problems: List[str]
    tracer: Tracer
    notes: List[str] = field(default_factory=list)


def _ms(seconds: List[float], q: float) -> float:
    return nearest_rank(seconds, q) * 1e3


def latency_ms(
    repeats: List[Repeat], scales: List[float], q: float, problems: List[str]
) -> float:
    """The median over repeats of each repeat's ``q`` latency percentile.

    Each repeat's percentile is multiplied by its entry in ``scales``.
    """
    values = []
    for index, (repeat, scale) in enumerate(zip(repeats, scales)):
        if repeat.latencies_s is None:
            continue
        try:
            values.append(_ms(repeat.latencies_s, q) * scale)
        except ValueError as error:
            problems.append(f"repeat {index}: no latency p{q * 100:g}: {error}")
    if not values:
        problems.append(f"no repeat measured a latency p{q * 100:g}")
        return 0.0
    return median(values)


def job_time(repeats: List[Repeat], scales: List[float]) -> float:
    """The job's time to solution: the median repeat at reference speed."""
    return median(hostspeed.scaled([repeat.wall_s for repeat in repeats], scales))


def measure(workload, seconds: float, trace: bool) -> Outcome:
    """Run ``workload`` for about ``seconds`` seconds of repeats.

    Every set-up and every repeat is timed between two host-speed probes
    and reported at reference speed (``hostspeed.py``); only latencies timed
    against a schedule (``scaled_latency`` false) are reported as measured.
    """
    tracer = Tracer()
    setup_probes = hostspeed.Probes()
    setup_samples: List[float] = []
    setup_scales: List[float] = []
    while len(setup_samples) < SETUP_REPEATS or (
        sum(setup_samples) < SETUP_MIN_SECONDS
        and len(setup_samples) < SETUP_MAX_REPEATS
    ):
        started = now()
        workload.setup(None)
        setup_samples.append(now() - started)
        setup_scales.append(setup_probes.close_piece())
    setup_spans: list = []
    if trace:
        mark = tracer.mark()
        workload.setup(tracer)
        setup_spans = tracer.since(mark)
    prepare = getattr(workload, "prepare", None)
    if prepare is not None:
        prepare()

    build_samples = getattr(workload, "build_samples", [])
    build_scales: List[float] = []
    untraced: List[Repeat] = []
    untraced_scales: List[float] = []
    traced: List[Tuple[Repeat, list]] = []
    traced_scales: List[float] = []
    probes = hostspeed.Probes()
    started = now()
    while True:
        builds = len(build_samples)
        if trace and len(traced) < len(untraced):
            mark = tracer.mark()
            repeat = workload.repeat(tracer)
            traced.append((repeat, tracer.since(mark)))
            # Keep the collector from rescanning the held spans, whose
            # pauses would otherwise land in the untraced repeats.
            gc.freeze()
            scales = traced_scales
        else:
            untraced.append(workload.repeat(None))
            scales = untraced_scales
        scales.append(probes.close_piece())
        # Services built during the repeat share its scale.
        build_scales.extend([scales[-1]] * (len(build_samples) - builds))
        elapsed = now() - started
        done = len(untraced) + len(traced)
        enough = len(untraced) >= MIN_REPEATS and (
            not trace or len(traced) >= MIN_REPEATS
        )
        if enough and elapsed + elapsed / done > seconds:
            break

    every = untraced + [repeat for repeat, _ in traced]
    problems = [problem for repeat in every for problem in repeat.problems]
    if len({repeat.fingerprint for repeat in every}) != 1:
        problems.append("the job's costs differ between repeats")
    works = {json.dumps(repeat.work, sort_keys=True) for repeat in every}
    if len(works) != 1:
        problems.append("the job's work counts differ between repeats")

    setup_s = median(hostspeed.scaled(setup_samples, setup_scales))
    if build_samples:
        setup_s += median(hostspeed.scaled(build_samples, build_scales))
    wall_s = job_time(untraced, untraced_scales)
    # Latency against a schedule is not computation the host's speed scales.
    latency_scales = untraced_scales if workload.scaled_latency else [1.0] * len(untraced)
    metrics: Dict[str, Metric] = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "req_per_s": (untraced[0].units / wall_s, "1/s"),
        "latency_p50_ms": (latency_ms(untraced, latency_scales, 0.5, problems), "ms"),
        "latency_p90_ms": (latency_ms(untraced, latency_scales, 0.9, problems), "ms"),
    }
    samples = [len(repeat.latencies_s) for repeat in untraced if repeat.latencies_s is not None]
    notes = [
        f"workload {workload.name}: {len(untraced)} untraced and {len(traced)} "
        f"traced repeats, {len(setup_samples)} set-ups, "
        f"{min(samples)}-{max(samples)} latency samples per repeat",
        "repeat wall_s " + json.dumps([round(repeat.wall_s, 4) for repeat in untraced]),
        "repeat scale " + json.dumps([round(scale, 4) for scale in untraced_scales]),
        "setup scaled median "
        + f"{median(hostspeed.scaled(setup_samples, setup_scales)):.4f} s, raw "
        + f"{median(setup_samples):.4f} s",
        f"work {json.dumps(untraced[0].work, sort_keys=True)}",
        # Equal digests mean equal work counts and equal served costs.
        "digest "
        + hashlib.sha256(
            json.dumps([untraced[0].work, untraced[0].fingerprint], sort_keys=True).encode()
        ).hexdigest()[:16],
    ]
    layer_metrics: Dict[str, Metric] = {}
    if trace:
        layer_metrics = _layer_metrics(workload, untraced, traced, setup_spans)
        traced_time = job_time([repeat for repeat, _ in traced], traced_scales)
        layer_metrics["trace.overhead"] = (traced_time / wall_s, "ratio")
        probe_ms = [value * 1e3 for value in setup_probes.seconds + probes.seconds]
        layer_metrics["host.probe_ms"] = (median(probe_ms), "ms")
    return Outcome(
        metrics=metrics,
        layer_metrics=layer_metrics,
        attempted=sum(repeat.attempted for repeat in every),
        failed=sum(repeat.failed for repeat in every),
        problems=problems,
        tracer=tracer,
        notes=notes + problems,
    )


def _layer_metrics(workload, untraced, traced, setup_spans) -> Dict[str, Metric]:
    """Per-layer numbers for a traced run.

    * ``*.calls`` and ``*.self_s`` come from the spans of the traced set-up
      plus the traced repeat of median wall time.  ``minla.verifier`` counts
      ``check_step`` calls and adds the self time of ``observe``.
    * Plain counts (``telemetry.backends.*``, ``core.permutation.swaps``,
      verifier checks, distance-cache hits/misses/evictions) are the
      program's own work counters over one job; ``minla.closest.exact_calls``
      and ``.dp_states`` are counted by the solver wrapper.
    * ``service.engine.*`` comes from the replay's ``ServeResult`` fields
      (``busy_s``: each batch's service time once) and shard reports.
    * Queue, busy fraction, reply hop and generator lag come from the
      untraced fixed-rate phases: ``ServeResult.queue_seconds``,
      ``worker_stats()``, parent completion minus (submit stamp plus the
      worker's ``latency_seconds``), and send time minus due time.
    * ``trace.coverage`` is the spans' summed self time over the traced
      job's wall time (above 1 when worker threads overlap).
    """
    ordered = sorted(traced, key=lambda pair: pair[0].wall_s)
    repeat, job_spans = ordered[(len(ordered) - 1) // 2]
    totals = layer_totals(list(setup_spans) + list(job_spans))
    work = repeat.work

    def calls(name: str) -> float:
        return float(totals.get(name, (0, 0.0))[0])

    def self_s(*names: str) -> float:
        return sum(totals.get(name, (0, 0.0))[1] for name in names)

    solver_exact = workload.setup_solver.exact_calls + repeat.solver.exact_calls
    solver_states = workload.setup_solver.dp_states + repeat.solver.dp_states
    hits = work.get("vnet.distance_cache.hits", 0)
    misses = work.get("vnet.distance_cache.misses", 0)

    def pooled(key: str) -> List[float]:
        return [value for run in untraced for value in run.extra.get(key, [])]

    def serving_ms(key: str, q: float) -> float:
        values = pooled(key)
        return _ms(values, q) if values else 0.0

    def serving_median(key: str) -> float:
        values = [run.extra[key] for run in untraced if key in run.extra]
        return median(values) if values else 0.0

    is_process = workload.name == "serve-process"
    return {
        "minla.closest.calls": (calls("minla.closest"), "count"),
        "minla.closest.self_s": (self_s("minla.closest"), "s"),
        "minla.closest.exact_calls": (float(solver_exact), "count"),
        "minla.closest.dp_states": (float(solver_states), "count"),
        "core.opt.calls": (calls("core.opt"), "count"),
        "core.opt.self_s": (self_s("core.opt"), "s"),
        "telemetry.backends.calls": (float(work.get("telemetry.backends.calls", 0)), "count"),
        "telemetry.backends.elements": (float(work.get("telemetry.backends.elements", 0)), "count"),
        "minla.verifier.calls": (calls("minla.verifier.check_step"), "count"),
        "minla.verifier.self_s": (
            self_s("minla.verifier.observe", "minla.verifier.check_step"),
            "s",
        ),
        "minla.verifier.incremental_checks": (
            float(work.get("minla.verifier.incremental_checks", 0)),
            "count",
        ),
        "minla.verifier.full_checks": (float(work.get("minla.verifier.full_checks", 0)), "count"),
        "core.learner.calls": (calls("core.learner"), "count"),
        "core.learner.self_s": (self_s("core.learner"), "s"),
        "core.permutation.swaps": (float(work.get("core.permutation.swaps", 0)), "count"),
        "core.simulator.self_s": (self_s("core.simulator"), "s"),
        "vnet.distance_cache.hits": (float(hits), "count"),
        "vnet.distance_cache.misses": (float(misses), "count"),
        "vnet.distance_cache.evictions": (
            float(work.get("vnet.distance_cache.evictions", 0)),
            "count",
        ),
        "vnet.distance_cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0,
            "ratio",
        ),
        "vnet.distance_cache.rebind_calls": (calls("vnet.distance_cache.rebind"), "count"),
        "vnet.distance_cache.rebind_self_s": (self_s("vnet.distance_cache.rebind"), "s"),
        "service.engine.batches": (float(repeat.extra.get("batches", 0)), "count"),
        "service.engine.busy_s": (serving_median("busy_s"), "s"),
        "service.engine.batch_mean": (float(repeat.extra.get("batch_mean", 0.0)), "count"),
        "service.broker.submit_s": (self_s("service.broker.submit"), "s"),
        "service.broker.queue_ms_p50": (serving_ms("queue_s", 0.5), "ms"),
        "service.broker.queue_ms_p90": (serving_ms("queue_s", 0.9), "ms"),
        "service.broker.queue_peak": (serving_median("queue_peak"), "count"),
        "service.broker.busy_frac": (serving_median("busy_frac"), "ratio"),
        "service.procworker.reply_ms_p50": (
            serving_ms("reply_s", 0.5) if is_process else 0.0,
            "ms",
        ),
        "service.procworker.reply_ms_p90": (
            serving_ms("reply_s", 0.9) if is_process else 0.0,
            "ms",
        ),
        "service.partition.self_s": (self_s("service.partition"), "s"),
        "workloads.self_s": (self_s("workloads"), "s"),
        "loadgen.lag_ms_p90": (serving_ms("lag_s", 0.9), "ms"),
        "trace.coverage": (
            sum(span[6] for span in job_spans) / repeat.wall_s,
            "ratio",
        ),
    }
