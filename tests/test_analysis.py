"""Tests for the static-analysis subsystem (:mod:`repro.analysis`).

Covers the tier-1 gate (the whole ``src/repro`` tree is analysis-clean),
one fixture pair per rule (fires on a known-bad snippet, silent on the
fixed version), the suppression mechanism (justified waivers silence,
reason-less and stale waivers are findings), the baseline ratchet, and
the ``python -m repro analyze`` CLI.
"""

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    DETERMINISTIC_MODULES,
    Finding,
    RULE_MISSING_REASON,
    RULE_STALE,
    analyze_paths,
    new_findings,
    parse_suppressions,
    read_baseline,
    rule_catalog,
    select_rules,
    write_baseline,
)
from repro.analysis.cli import main as analyze_main
from repro.errors import AnalysisError

SRC_TREE = Path(repro.__file__).resolve().parent


def run_over(tmp_path, files, rules=None):
    """Write fixture ``files`` (relative path -> source) and analyze them."""
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    selected = select_rules(rules) if rules else None
    return analyze_paths([tmp_path], root=tmp_path, rules=selected)


def rules_fired(report):
    return sorted({finding.rule for finding in report.findings})


# ----------------------------------------------------------------------
# The tier-1 gate: the repository itself is analysis-clean
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def src_report():
    """One analysis of the package's own tree, shared by the self-host tests."""
    return analyze_paths([SRC_TREE])


class TestSelfHost:
    def test_src_tree_has_zero_unsuppressed_findings(self, src_report):
        assert src_report.clean, "\n" + "\n".join(
            finding.format() for finding in src_report.findings
        )

    def test_src_tree_analyzes_many_modules(self, src_report):
        assert src_report.num_modules > 40

    def test_every_suppression_in_tree_has_a_reason(self, src_report):
        assert not [f for f in src_report.findings if f.rule == RULE_MISSING_REASON]

    def test_deterministic_manifest_covers_the_core_subsystems(self):
        for prefix in (
            "repro.core",
            "repro.telemetry",
            "repro.workloads",
            "repro.vnet",
            "repro.service",
        ):
            assert prefix in DETERMINISTIC_MODULES


# ----------------------------------------------------------------------
# DET001 — unseeded randomness
# ----------------------------------------------------------------------
class TestDET001:
    def test_fires_on_global_random_calls(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "import random\n"
                    "def draw():\n"
                    "    return random.random() + random.randint(0, 3)\n"
                )
            },
            rules=["DET001"],
        )
        assert len(report.findings) == 2
        assert rules_fired(report) == ["DET001"]

    def test_fires_on_unseeded_random_instance(self, tmp_path):
        report = run_over(
            tmp_path,
            {"repro/core/bad.py": "import random\nrng = random.Random()\n"},
            rules=["DET001"],
        )
        assert rules_fired(report) == ["DET001"]

    def test_fires_on_numpy_module_level_calls(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "import numpy as np\n"
                    "def draw():\n"
                    "    return np.random.rand(3)\n"
                    "def gen():\n"
                    "    return np.random.default_rng()\n"
                )
            },
            rules=["DET001"],
        )
        assert len(report.findings) == 2

    def test_silent_on_seeded_randomness(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/good.py": (
                    "import random\n"
                    "try:\n"
                    "    import numpy as np\n"
                    "except ImportError:\n"
                    "    np = None\n"
                    "rng = random.Random(0)\n"
                    "def draw(local_rng: random.Random) -> float:\n"
                    "    if np is not None:\n"
                    "        np.random.default_rng(7)\n"
                    "    return local_rng.random()\n"
                )
            },
            rules=["DET001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# DET002 — wall-clock taint into cost accounting
# ----------------------------------------------------------------------
class TestDET002:
    def test_fires_when_clock_value_reaches_a_ledger(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "import time\n"
                    "def serve(ledger):\n"
                    "    start = time.time()\n"
                    "    elapsed = time.time() - start\n"
                    "    ledger.charge(elapsed)\n"
                )
            },
            rules=["DET002"],
        )
        assert rules_fired(report) == ["DET002"]

    def test_tracks_taint_through_assignments(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "from time import perf_counter\n"
                    "def serve(ledger):\n"
                    "    started = perf_counter()\n"
                    "    waited = perf_counter() - started\n"
                    "    scaled = waited * 2.0\n"
                    "    ledger.add_cost(scaled)\n"
                )
            },
            rules=["DET002"],
        )
        assert rules_fired(report) == ["DET002"]

    def test_fires_on_clock_assigned_to_cost_target(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "import time\n"
                    "def serve(record):\n"
                    "    record.total_cost = time.perf_counter()\n"
                )
            },
            rules=["DET002"],
        )
        assert rules_fired(report) == ["DET002"]

    def test_silent_on_timing_named_sinks(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/good.py": (
                    "from time import perf_counter\n"
                    "def serve(ledger, record_cost_trace):\n"
                    "    started = perf_counter()\n"
                    "    elapsed = perf_counter() - started\n"
                    "    record_cost_trace(wall_seconds=elapsed)\n"
                    "    ledger.charge(1.0)\n"
                    "    return elapsed\n"
                )
            },
            rules=["DET002"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# DET003 — unordered iteration in deterministic modules
# ----------------------------------------------------------------------
class TestDET003:
    def test_fires_on_set_iteration(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "def order(items):\n"
                    "    out = []\n"
                    "    for node in set(items):\n"
                    "        out.append(node)\n"
                    "    return out\n"
                )
            },
            rules=["DET003"],
        )
        assert rules_fired(report) == ["DET003"]

    def test_fires_on_raw_dict_view_iteration(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "def render(mapping):\n"
                    "    return [key for key, value in mapping.items()]\n"
                )
            },
            rules=["DET003"],
        )
        assert rules_fired(report) == ["DET003"]

    def test_fires_on_set_literals_and_comprehensions(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/bad.py": (
                    "def walk(a, b):\n"
                    "    for x in {a, b}:\n"
                    "        yield x\n"
                    "    for y in {c for c in (a, b)}:\n"
                    "        yield y\n"
                )
            },
            rules=["DET003"],
        )
        assert len(report.findings) == 2

    def test_silent_when_sorted_or_reduced(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/good.py": (
                    "def order(items, mapping):\n"
                    "    out = [node for node in sorted(set(items))]\n"
                    "    out.extend(key for key, _ in sorted(mapping.items()))\n"
                    "    total = sum(value for value in mapping.values())\n"
                    "    biggest = max(mapping.values())\n"
                    "    return out, total, biggest\n"
                )
            },
            rules=["DET003"],
        )
        assert report.clean

    def test_silent_outside_the_deterministic_manifest(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/experiments/display.py": (
                    "def render(mapping):\n"
                    "    return [key for key in mapping.keys()]\n"
                )
            },
            rules=["DET003"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# THR001 — cross-thread attribute discipline
# ----------------------------------------------------------------------
class TestTHR001:
    def test_fires_on_undeclared_worker_write(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/bad.py": (
                    "import threading\n"
                    "class Worker(threading.Thread):\n"
                    "    def run(self):\n"
                    "        self.result = 42\n"
                )
            },
            rules=["THR001"],
        )
        assert rules_fired(report) == ["THR001"]

    def test_silent_when_declared_in_shared_manifest(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/good.py": (
                    "import threading\n"
                    "class Worker(threading.Thread):\n"
                    "    _shared = ('result',)\n"
                    "    def run(self):\n"
                    "        self.result = 42\n"
                )
            },
            rules=["THR001"],
        )
        assert report.clean

    def test_fires_on_shared_write_outside_lock(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/bad.py": (
                    "import threading\n"
                    "class Broker:\n"
                    "    _shared = ('counter',)\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.counter = 0\n"
                    "    def bump(self):\n"
                    "        self.counter += 1\n"
                )
            },
            rules=["THR001"],
        )
        assert rules_fired(report) == ["THR001"]

    def test_silent_on_shared_write_under_lock(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/good.py": (
                    "import threading\n"
                    "class Broker:\n"
                    "    _shared = ('counter',)\n"
                    "    def __init__(self):\n"
                    "        self._lock = threading.Lock()\n"
                    "        self.counter = 0\n"
                    "    def bump(self):\n"
                    "        with self._lock:\n"
                    "            self.counter += 1\n"
                )
            },
            rules=["THR001"],
        )
        assert report.clean

    def test_silent_outside_service_modules(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/anything.py": (
                    "import threading\n"
                    "class Worker(threading.Thread):\n"
                    "    def run(self):\n"
                    "        self.result = 42\n"
                )
            },
            rules=["THR001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# THR002 — bounded queues in service code
# ----------------------------------------------------------------------
class TestTHR002:
    def test_fires_on_unbounded_queue(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/bad.py": (
                    "import queue\n"
                    "requests = queue.Queue()\n"
                    "events = queue.SimpleQueue()\n"
                )
            },
            rules=["THR002"],
        )
        assert len(report.findings) == 2

    def test_fires_on_zero_maxsize(self, tmp_path):
        report = run_over(
            tmp_path,
            {"repro/service/bad.py": "import queue\nq = queue.Queue(maxsize=0)\n"},
            rules=["THR002"],
        )
        assert rules_fired(report) == ["THR002"]

    def test_fires_on_list_as_queue(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/bad.py": (
                    "def drain(backlog):\n"
                    "    while backlog:\n"
                    "        yield backlog.pop(0)\n"
                )
            },
            rules=["THR002"],
        )
        assert rules_fired(report) == ["THR002"]

    def test_silent_on_bounded_queue(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/good.py": (
                    "import queue\n"
                    "def build(capacity: int) -> queue.Queue:\n"
                    "    return queue.Queue(maxsize=capacity)\n"
                )
            },
            rules=["THR002"],
        )
        assert report.clean

    def test_fires_on_unbounded_multiprocessing_queue(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/bad.py": (
                    "import multiprocessing\n"
                    "import multiprocessing as mp\n"
                    "requests = multiprocessing.Queue()\n"
                    "results = mp.JoinableQueue()\n"
                    "events = mp.SimpleQueue()\n"
                )
            },
            rules=["THR002"],
        )
        assert len(report.findings) == 3
        assert rules_fired(report) == ["THR002"]

    def test_silent_on_bounded_multiprocessing_queue(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/good.py": (
                    "import multiprocessing\n"
                    "def build(capacity: int) -> multiprocessing.Queue:\n"
                    "    return multiprocessing.Queue(maxsize=capacity)\n"
                )
            },
            rules=["THR002"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# API001 — exported functions carry full annotations
# ----------------------------------------------------------------------
class TestAPI001:
    def test_fires_on_unannotated_export(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/__init__.py": (
                    "from repro.demo.impl import compute\n__all__ = ['compute']\n"
                ),
                "repro/demo/impl.py": "def compute(x, y=2):\n    return x + y\n",
            },
            rules=["API001"],
        )
        assert rules_fired(report) == ["API001"]
        (finding,) = report.findings
        assert finding.path.endswith("impl.py")
        assert "x" in finding.message and "return" in finding.message

    def test_resolves_reexport_chains(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/__init__.py": (
                    "from repro.demo import compute\n__all__ = ['compute']\n"
                ),
                "repro/demo/__init__.py": "from repro.demo.impl import compute\n",
                "repro/demo/impl.py": "def compute(x):\n    return x\n",
            },
            rules=["API001"],
        )
        assert len(report.findings) == 1

    def test_silent_on_fully_annotated_export(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/__init__.py": (
                    "from repro.demo.impl import compute\n__all__ = ['compute']\n"
                ),
                "repro/demo/impl.py": (
                    "def compute(x: int, y: int = 2) -> int:\n    return x + y\n"
                ),
            },
            rules=["API001"],
        )
        assert report.clean

    def test_ignores_unexported_functions(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/__init__.py": (
                    "from repro.demo.impl import compute\n__all__ = ['compute']\n"
                ),
                "repro/demo/impl.py": (
                    "def compute(x: int) -> int:\n    return helper(x)\n"
                    "def helper(x):\n    return x\n"
                ),
            },
            rules=["API001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# OBS001 — monotonic clock reads outside the obs clock seam
# ----------------------------------------------------------------------
class TestOBS001:
    def test_fires_on_direct_monotonic_calls(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "import time\n"
                    "def measure():\n"
                    "    started = time.perf_counter()\n"
                    "    return time.monotonic() - started\n"
                )
            },
            rules=["OBS001"],
        )
        assert rules_fired(report) == ["OBS001"]
        assert len(report.findings) == 2
        assert "clock seam" in report.findings[0].message

    def test_fires_on_bare_and_aliased_imports(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "from time import perf_counter as tick\n"
                    "def measure():\n"
                    "    return tick()\n"
                )
            },
            rules=["OBS001"],
        )
        assert rules_fired(report) == ["OBS001"]

    def test_silent_on_wall_clock_reads(self, tmp_path):
        # Wall time is not a latency measurement; DET002's taint tracking
        # owns it. OBS001 polices only the monotonic family.
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
            rules=["OBS001"],
        )
        assert report.clean

    def test_silent_inside_the_seam_module(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/obs/clock.py": (
                    "from time import perf_counter as _read_monotonic\n"
                    "def now():\n"
                    "    return _read_monotonic()\n"
                )
            },
            rules=["OBS001"],
        )
        assert report.clean

    def test_silent_when_timing_through_the_seam(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "from repro.obs.clock import now\n"
                    "def measure():\n"
                    "    started = now()\n"
                    "    return now() - started\n"
                )
            },
            rules=["OBS001"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# OBS002 — durations from paired clock reads instead of profile zones
# ----------------------------------------------------------------------
class TestOBS002:
    def test_fires_on_paired_reads_through_the_seam(self, tmp_path):
        # Pairing readings is the sin, not reading; even the sanctioned
        # seam reader flags when its outputs are subtracted by hand.
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "from repro.obs.clock import now\n"
                    "def measure():\n"
                    "    started = now()\n"
                    "    work()\n"
                    "    return now() - started\n"
                )
            },
            rules=["OBS002"],
        )
        assert rules_fired(report) == ["OBS002"]
        assert len(report.findings) == 1
        assert "profile_zone" in report.findings[0].message

    def test_fires_on_attribute_taint_across_methods(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "import time\n"
                    "class Worker:\n"
                    "    def __init__(self):\n"
                    "        self._started = time.monotonic()\n"
                    "    def uptime(self):\n"
                    "        return time.monotonic() - self._started\n"
                )
            },
            rules=["OBS002"],
        )
        assert rules_fired(report) == ["OBS002"]

    def test_silent_on_profile_zone_version(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "from repro.obs.profile import profile_zone\n"
                    "def measure():\n"
                    "    with profile_zone('demo.work'):\n"
                    "        work()\n"
                )
            },
            rules=["OBS002"],
        )
        assert report.clean

    def test_silent_on_derived_deadlines(self, tmp_path):
        # deadline is now() + timeout — derived, not a raw reading; taint
        # never propagates name-to-name, so the pairing does not flag.
        report = run_over(
            tmp_path,
            {
                "repro/demo/mod.py": (
                    "from repro.obs.clock import now\n"
                    "def remaining(timeout):\n"
                    "    deadline = now() + timeout\n"
                    "    return deadline - now()\n"
                )
            },
            rules=["OBS002"],
        )
        assert report.clean

    def test_silent_inside_exempt_modules(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/obs/profile.py": (
                    "from repro.obs.clock import now\n"
                    "def measure():\n"
                    "    started = now()\n"
                    "    return now() - started\n"
                )
            },
            rules=["OBS002"],
        )
        assert report.clean


# ----------------------------------------------------------------------
# Suppressions: waivers silence findings, and are themselves policed
# ----------------------------------------------------------------------
BAD_SET_LOOP = (
    "def order(items):\n"
    "    return [x for x in set(items)]{comment}\n"
)


class TestSuppressions:
    def test_justified_suppression_silences_the_finding(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/mod.py": BAD_SET_LOOP.format(
                    comment="  # repro: allow[det003] — order feeds no cost"
                )
            },
            rules=["DET003"],
        )
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "DET003"

    def test_standalone_comment_covers_the_next_line(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/mod.py": (
                    "def order(items):\n"
                    "    # repro: allow[det003] — order feeds no cost\n"
                    "    return [x for x in set(items)]\n"
                )
            },
            rules=["DET003"],
        )
        assert report.clean
        assert len(report.suppressed) == 1

    def test_reasonless_suppression_is_a_finding(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/mod.py": BAD_SET_LOOP.format(
                    comment="  # repro: allow[det003]"
                )
            },
            rules=["DET003"],
        )
        assert rules_fired(report) == [RULE_MISSING_REASON]
        assert len(report.suppressed) == 1

    def test_stale_suppression_is_a_finding(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/mod.py": (
                    "def order(items):\n"
                    "    return sorted(items)  # repro: allow[det003] — obsolete\n"
                )
            },
            rules=["DET003"],
        )
        assert rules_fired(report) == [RULE_STALE]

    def test_unexecuted_rules_are_not_reported_stale(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/core/mod.py": BAD_SET_LOOP.format(
                    comment="  # repro: allow[det003] — order feeds no cost"
                )
            },
            rules=["DET001"],
        )
        assert report.clean

    def test_one_comment_can_waive_several_rules(self, tmp_path):
        report = run_over(
            tmp_path,
            {
                "repro/service/mod.py": (
                    "import queue\n"
                    "q = queue.Queue()  # repro: allow[thr002, det003] — test double\n"
                )
            },
            rules=["THR002", "DET003"],
        )
        # THR002 is waived; the DET003 half of the waiver is stale.
        assert rules_fired(report) == [RULE_STALE]
        assert len(report.suppressed) == 1

    def test_parse_ignores_hash_inside_strings(self, tmp_path):
        suppressions = parse_suppressions(
            "mod.py", 'text = "# repro: allow[det003] — not a comment"\n'
        )
        assert suppressions == []


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trips_through_json(self, tmp_path):
        findings = [
            Finding("a.py", 3, 0, "DET001", "one"),
            Finding("b.py", 9, 4, "THR002", "two"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        assert read_baseline(path) == sorted(findings)

    def test_adopted_findings_do_not_fail_new_ones_do(self, tmp_path):
        old = Finding("a.py", 3, 0, "DET001", "one")
        drifted = Finding("a.py", 30, 0, "DET001", "one")  # same key, new line
        fresh = Finding("a.py", 4, 0, "DET003", "newly introduced")
        path = tmp_path / "baseline.json"
        write_baseline(path, [old])
        assert new_findings([drifted, fresh], read_baseline(path)) == [fresh]

    def test_duplicate_findings_consume_baseline_budget(self):
        finding = Finding("a.py", 3, 0, "DET001", "one")
        again = Finding("a.py", 7, 0, "DET001", "one")
        assert new_findings([finding, again], [finding]) == [again]

    def test_malformed_baseline_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(AnalysisError):
            read_baseline(path)

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text('{"version": 99, "findings": []}')
        with pytest.raises(AnalysisError):
            read_baseline(path)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestAnalyzeCLI:
    def write_bad_tree(self, tmp_path):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nvalue = random.random()\n")
        return tmp_path

    def write_clean_tree(self, tmp_path):
        """The bad tree's module done right: randomness from a passed-in RNG.

        The CLI tests check exit codes and dispatch; ``TestSelfHost`` and
        the CI analyze step hold the real ``src/`` tree clean.
        """
        good = tmp_path / "repro" / "core" / "good.py"
        good.parent.mkdir(parents=True)
        good.write_text(
            "import random\n\n\n"
            "def draw(rng: random.Random) -> float:\n"
            "    return rng.random()\n"
        )
        return tmp_path

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        assert analyze_main([str(self.write_clean_tree(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_exit_nonzero_on_findings(self, tmp_path, capsys):
        tree = self.write_bad_tree(tmp_path)
        assert analyze_main([str(tree)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format_round_trips(self, tmp_path, capsys):
        tree = self.write_bad_tree(tmp_path)
        assert analyze_main([str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["findings"][0]["rule"] == "DET001"
        rebuilt = Finding.from_json(payload["findings"][0])
        assert rebuilt.rule == "DET001"

    def test_rules_filter(self, tmp_path):
        tree = self.write_bad_tree(tmp_path)
        assert analyze_main([str(tree), "--rules", "THR002"]) == 0
        assert analyze_main([str(tree), "--rules", "det001"]) == 1

    def test_unknown_rule_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            analyze_main([str(tmp_path), "--rules", "NOPE999"])

    def test_baseline_workflow_round_trips(self, tmp_path, capsys):
        tree = self.write_bad_tree(tmp_path)
        baseline = tmp_path / "analysis-baseline.json"
        assert analyze_main([str(tree), "--write-baseline", str(baseline)]) == 0
        # The adopted finding no longer fails the gate ...
        assert analyze_main([str(tree), "--baseline", str(baseline)]) == 0
        # ... but a new violation still does.
        worse = tree / "repro" / "core" / "worse.py"
        worse.write_text("import random\nother = random.randint(0, 1)\n")
        capsys.readouterr()
        assert analyze_main([str(tree), "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "worse.py" in out and "bad.py" not in out

    def test_list_rules_names_the_full_catalog(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_catalog():
            assert rule_id in out

    def test_repro_cli_dispatches_analyze(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["analyze", str(self.write_clean_tree(tmp_path))]) == 0
        assert "0 new finding(s)" in capsys.readouterr().out
        assert repro_main(["analyze", str(self.write_bad_tree(tmp_path / "bad"))]) == 1
        assert "DET001" in capsys.readouterr().out
