"""The repository benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload det-opt --seed 1 --seconds 28 --trace 0

Workloads (see ``offline.py`` and ``serving.py``): ``det-opt``,
``rand-trials``, ``serve-thread`` and ``serve-process``.  A run sets the
workload up several times, then repeats its fixed job until ``--seconds``
are used, checks every output, and prints one JSON object as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A traced run alternates untraced and traced repeats, so it
also reports the tracing overhead, and writes its spans to
``.perfbench/<workload>-seed<seed>-spans.jsonl.gz``.

End-to-end metrics:

* ``setup_s``: median set-up time (input generation, OPT for
  ``rand-trials``, partition discovery), plus the median time to build and
  start one service for the serving workloads, at reference host speed
  (``hostspeed.py``).
* ``wall_s``: the fixed job's time to solution, the whole job's wall time
  (the replay phase when serving) at reference host speed, at its median
  repeat.  Raw repeat times and their host-speed scales are printed on
  ``#`` lines before the result.
* ``req_per_s``: requests completed per second of ``wall_s``: reveal steps
  offline, served requests in the replay phase when serving.
* ``latency_p50_ms``, ``latency_p90_ms``: nearest-rank percentiles of the
  per-request latency, taken per repeat; the median repeat is reported.
  Offline a request is one reveal step, from the learner's ``process``
  entry to the next one, at reference host speed.  Serving, a request of
  the fixed-rate phase, from its due time to its result, as measured: that
  phase runs against a schedule and a batch timeout, which the host's
  speed does not scale.
* ``peak_rss_mb``: the larger of this process's peak resident memory and
  that of the largest worker process it reaped.  Forked workers share the
  parent's pages, so the two are not added.

Failures are reported in the result's ``attempted`` / ``failed`` fields:
runs or trials that raised, requests that were never served.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

WORKLOADS = ("det-opt", "rand-trials", "serve-thread", "serve-process")

#: Where traced runs write their spans: inside the checkout, ignored by git.
SPAN_DIRECTORY = HERE.parent / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int):
    from offline import DetOpt, RandTrials
    from serving import Serve

    if name == "det-opt":
        return DetOpt(seed)
    if name == "rand-trials":
        return RandTrials(seed)
    return Serve(seed, name.split("-", 1)[1])


def host_header() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        from repro.telemetry.backends import get_backend

        backend = get_backend().name
    except ImportError:
        backend = "none"
    return (
        f"# host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} inversion_backend={backend}"
    )


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def stop_helper_processes() -> None:
    """Wait for every child process, including multiprocessing's resource tracker.

    The process backend's shared-memory segments start that tracker; it
    would otherwise outlive the run by a moment.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SOURCE))
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: the repro sources are missing: {error}", file=sys.stderr)
        return 2
    if SOURCE not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    import check_math

    failures = check_math.run()
    if failures:
        print(f"perfbench: self-tests failed:\n{failures}", file=sys.stderr)
        return 1
    from measure import measure

    print(host_header(), flush=True)
    workload = make_workload(args.workload, args.seed)
    outcome = measure(workload, args.seconds, bool(args.trace))
    stop_helper_processes()
    for line in outcome.notes:
        print(f"# {line}")
    if args.trace:
        SPAN_DIRECTORY.mkdir(exist_ok=True)
        path = SPAN_DIRECTORY / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        count = outcome.tracer.write(str(path))
        print(f"# wrote {count} spans to {path}")
        metrics = outcome.layer_metrics
    else:
        metrics = dict(outcome.metrics)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    print(
        json.dumps(
            {
                "correct": not outcome.problems,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
