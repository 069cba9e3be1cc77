"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import algorithm_factory, build_parser, main
from repro.core import det, opt
from repro.core.det import DeterministicClosestLearner
from repro.core.rand_cliques import RandomizedCliqueLearner
from repro.core.rand_lines import RandomizedLineLearner
from repro.errors import ReproError
from repro.graphs.reveal import GraphKind
from repro.minla import closest
from repro.obs.profile import work_delta, work_snapshot


class TestAlgorithmResolution:
    def test_known_names(self):
        assert algorithm_factory(GraphKind.CLIQUES, "rand") is RandomizedCliqueLearner
        assert algorithm_factory(GraphKind.LINES, "rand") is RandomizedLineLearner
        assert algorithm_factory(GraphKind.LINES, "det") is DeterministicClosestLearner

    def test_unknown_name_rejected(self):
        with pytest.raises(ReproError):
            algorithm_factory(GraphKind.CLIQUES, "nope")


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        arguments = build_parser().parse_args(["simulate"])
        assert arguments.kind == "cliques"
        assert arguments.algorithm == "rand"
        assert arguments.nodes == 32


class TestSimulateCommand:
    def test_simulate_cliques(self, capsys):
        exit_code = main(
            ["simulate", "--kind", "cliques", "--nodes", "12", "--trials", "3", "--seed", "1"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mean cost" in output
        assert "offline optimum" in output
        assert "paper bound" in output

    def test_simulate_lines_with_det(self, capsys):
        exit_code = main(
            [
                "simulate",
                "--kind",
                "lines",
                "--algorithm",
                "det",
                "--nodes",
                "10",
                "--trials",
                "1",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "det-closest-to-initial" in output

    def test_simulate_unknown_algorithm_exits_with_error(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--algorithm", "nope", "--nodes", "8"])


class TestAdversaryCommand:
    def test_line_adversary(self, capsys):
        exit_code = main(["adversary", "--construction", "line", "--nodes", "11"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Theorem 16" in output
        assert "ratio" in output

    def test_tree_adversary(self, capsys):
        exit_code = main(
            [
                "adversary",
                "--construction",
                "tree",
                "--algorithm",
                "rand",
                "--nodes",
                "16",
                "--trials",
                "2",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Theorem 15" in output


class TestProfileCommand:
    def test_profile_output(self, capsys):
        exit_code = main(["profile", "--kind", "cliques", "--nodes", "12", "--seed", "3"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "Lemma 5 sum" in output
        assert "harmonic budget" in output


class TestExperimentsCommand:
    def test_runs_a_single_experiment(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(
            [
                "experiments",
                "--scale",
                "smoke",
                "--only",
                "E8",
                "--output",
                str(tmp_path / "EXPERIMENTS.md"),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "E8" in output
        assert (tmp_path / "EXPERIMENTS.md").exists()
        # Default archiving: the invocation landed in .repro-runs.
        assert (tmp_path / ".repro-runs" / "runs").exists()
        assert "archived 1 run(s)" in output

    def test_no_store_disables_archiving(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        exit_code = main(
            [
                "experiments",
                "--scale",
                "smoke",
                "--only",
                "E8",
                "--no-store",
                "--output",
                str(tmp_path / "EXPERIMENTS.md"),
            ]
        )
        assert exit_code == 0
        assert not (tmp_path / ".repro-runs").exists()


class TestRunsCommand:
    def _populate(self, tmp_path, seeds=(0,)):
        store = str(tmp_path / "store")
        for seed in seeds:
            assert (
                main(
                    [
                        "experiments",
                        "--scale",
                        "smoke",
                        "--only",
                        "E2",
                        "--seed",
                        str(seed),
                        "--store",
                        store,
                        "--output",
                        str(tmp_path / "EXPERIMENTS.md"),
                        "--csv-dir",
                        str(tmp_path / "results"),
                    ]
                )
                == 0
            )
        return store

    def test_list_show_and_report(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        capsys.readouterr()

        assert main(["runs", "list", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "1 stored run(s)" in listing
        assert "E2" in listing

        run_id = listing.split()[listing.split().index("E2") - 1]
        assert main(["runs", "show", run_id, "--store", store]) == 0
        shown = capsys.readouterr().out
        assert "findings" in shown
        assert "trace samples" in shown

        assert main(["runs", "report", "--store", store]) == 0
        report = capsys.readouterr().out
        assert "harmonic-slope bands" in report

    def test_show_without_run_id_errors(self, tmp_path):
        store = self._populate(tmp_path)
        with pytest.raises(SystemExit):
            main(["runs", "show", "--store", store])

    def test_compare_detects_no_regression_against_itself(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        exit_code = main(
            ["runs", "compare", "--baseline", store, "--store", store]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "0 regression(s)" in output

    def test_gc_runs(self, capsys, tmp_path):
        store = self._populate(tmp_path)
        assert main(["runs", "gc", "--store", store]) == 0
        assert "gc of" in capsys.readouterr().out


class TestPerfCommand:
    def test_perf_run_text_prints_zones_and_counters(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert (
            main(
                ["perf", "run", "e2", "--scale", "smoke", "--store", store]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "run_trials" in output
        assert "core.permutation.slides" in output
        assert "archived 1 run(s)" in output

    def test_perf_run_json_and_flame_export(self, capsys, tmp_path):
        flame = tmp_path / "flame.txt"
        assert (
            main(
                [
                    "perf",
                    "run",
                    "e2",
                    "--scale",
                    "smoke",
                    "--no-store",
                    "--format",
                    "json",
                    "--flame",
                    str(flame),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "E2"
        assert payload["work"]["core.permutation.slides"] > 0
        assert payload["wall_seconds"] > 0
        zone_paths = [zone["path"] for zone in payload["zones"]["zones"]]
        assert ["experiment", "run_trials"] in zone_paths
        assert payload["archived_runs"] == []
        # Collapsed-stack lines: "frame;frame;frame <integer weight>".
        lines = flame.read_text().splitlines()
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert frames
            assert int(weight) >= 0
        assert any(line.startswith("experiment;run_trials ") for line in lines)

    def test_perf_run_profiles_a_scenario(self, capsys, tmp_path):
        assert (
            main(
                [
                    "perf",
                    "run",
                    "zipf-tenants",
                    "--scale",
                    "smoke",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["target"] == "zipf-tenants"
        zone_paths = [zone["path"] for zone in payload["zones"]["zones"]]
        assert ["serve.replay"] in zone_paths
        assert payload["work"]["core.permutation.slides"] > 0

    def test_perf_diff_gates_drift_and_passes_identity(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        for seed in ("0", "1"):
            assert (
                main(
                    [
                        "perf",
                        "run",
                        "e2",
                        "--scale",
                        "smoke",
                        "--seed",
                        seed,
                        "--store",
                        store,
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert main(["runs", "list", "--store", store]) == 0
        listing = capsys.readouterr().out
        words = listing.split()
        run_ids = [words[i - 1] for i, word in enumerate(words) if word == "E2"]
        assert len(run_ids) == 2

        # A run diffed against itself: identical counters, exit 0.
        assert (
            main(["perf", "diff", run_ids[0], run_ids[0], "--store", store]) == 0
        )
        same = capsys.readouterr().out
        assert "DRIFT" not in same

        # Different seeds do different work: the exact gate fails, exit 1.
        assert (
            main(["perf", "diff", run_ids[0], run_ids[1], "--store", store]) == 1
        )
        diff = capsys.readouterr().out
        assert "DRIFT" in diff
        assert "counter drift" in diff

    def test_perf_run_attributes_the_solver(self, capsys, monkeypatch):
        # Record the multi-node and one-node block counts and the DP
        # counters of every exact solve, seen from outside the solver, on
        # each module that holds a reference to it.
        exact_solves = []

        def recording(solve):
            def wrapper(pi0, blocks, *args, **kwargs):
                before = work_snapshot()
                result = solve(pi0, blocks, *args, **kwargs)
                if result.method == "exact":
                    work = work_delta(before, work_snapshot())
                    singletons = sum(1 for block in blocks if block.size == 1)
                    exact_solves.append(
                        (
                            len(blocks) - singletons,
                            singletons,
                            work.get("minla.closest.dp_states", 0),
                            work.get("minla.closest.dp_transitions", 0),
                        )
                    )
                return result

            return wrapper

        for module in (closest, det, opt):
            monkeypatch.setattr(
                module,
                "closest_feasible_arrangement",
                recording(module.closest_feasible_arrangement),
            )
        assert (
            main(["perf", "run", "e11", "--scale", "smoke", "--no-store", "--format", "json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        zone_paths = [tuple(zone["path"]) for zone in payload["zones"]["zones"]]
        assert any(path[-2:] == ("opt.bounds", "closest.solve") for path in zone_paths)
        assert exact_solves
        # On k multi-node and s one-node blocks the bounded DP keeps the
        # k + s states of the order it returns and at most the 2^k·(s+1)
        # states of the unbounded DP; each kept state was reached by a kept
        # candidate, and the unbounded DP pulls (s+1)·k·2^(k−1) + s·2^k.
        for k, s, states, transitions in exact_solves:
            assert k + s <= states <= (1 << k) * (s + 1)
            assert states <= transitions <= (s + 1) * (k << k >> 1) + s * (1 << k)
        work = payload["work"]
        assert work["minla.closest.dp_states"] == sum(
            states for _, _, states, _ in exact_solves
        )
        assert work["minla.closest.dp_transitions"] == sum(
            transitions for _, _, _, transitions in exact_solves
        )

    def test_perf_run_without_target_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["perf", "run"])
        assert "experiment id or scenario" in capsys.readouterr().err


class TestServeAndLoadgenCommands:
    def test_serve_replays_a_scenario(self, capsys):
        exit_code = main(
            [
                "serve",
                "--scenario",
                "zipf-tenants",
                "--shards",
                "2",
                "--batch",
                "4",
                "--nodes",
                "16",
                "--requests",
                "200",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "throughput" in output
        assert "p99" in output
        assert "served cost" in output
        assert "shard balance" in output

    def test_serve_without_scenario_errors(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCENARIO", raising=False)
        with pytest.raises(SystemExit):
            main(["serve", "--nodes", "16", "--requests", "100"])

    def test_loadgen_archives_a_run(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        exit_code = main(
            [
                "loadgen",
                "--scenario",
                "zipf-tenants",
                "--shards",
                "2",
                "--nodes",
                "16",
                "--requests",
                "200",
                "--store",
                store,
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "p99" in output
        assert "archived run" in output

        assert main(["runs", "list", "--store", store]) == 0
        listing = capsys.readouterr().out
        assert "SERVE" in listing
        assert "scenario=zipf-tenants" in listing

    def test_loadgen_no_store_skips_archiving(self, capsys, tmp_path):
        store = tmp_path / "store"
        exit_code = main(
            [
                "loadgen",
                "--scenario",
                "zipf-tenants",
                "--nodes",
                "16",
                "--requests",
                "150",
                "--no-store",
                "--store",
                str(store),
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "archived run" not in output
        assert not store.exists()

    def test_loadgen_open_loop_mode(self, capsys, tmp_path):
        exit_code = main(
            [
                "loadgen",
                "--scenario",
                "bursty-pipelines",
                "--nodes",
                "16",
                "--requests",
                "150",
                "--mode",
                "open",
                "--rate",
                "50000",
                "--no-store",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "mode=open" in output

    def test_loadgen_unknown_scenario_errors(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "--scenario", "no-such-scenario", "--no-store"])

    def test_serve_process_backend(self, capsys):
        exit_code = main(
            [
                "serve",
                "--scenario",
                "zipf-tenants",
                "--shards",
                "2",
                "--backend",
                "process",
                "--nodes",
                "16",
                "--requests",
                "150",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "backend=process" in output
        assert "queue peak" in output

    def test_loadgen_backend_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_BACKEND", "process")
        exit_code = main(
            [
                "loadgen",
                "--scenario",
                "zipf-tenants",
                "--nodes",
                "16",
                "--requests",
                "150",
                "--no-store",
            ]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "backend=process" in output

    def test_serve_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["serve", "--scenario", "zipf-tenants", "--backend", "fiber"])


class TestExportBandsCommand:
    def test_export_bands_writes_csv_files(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert (
            main(
                [
                    "experiments",
                    "--scale",
                    "smoke",
                    "--only",
                    "E2",
                    "--store",
                    store,
                    "--output",
                    str(tmp_path / "EXPERIMENTS.md"),
                    "--csv-dir",
                    str(tmp_path / "results"),
                ]
            )
            == 0
        )
        capsys.readouterr()
        out_dir = tmp_path / "bands"
        exit_code = main(
            ["runs", "export-bands", "--store", store, "--out", str(out_dir)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "band CSV file(s)" in output
        written = sorted(out_dir.glob("band_E2_*.csv"))
        assert written
        header = written[0].read_text().splitlines()[0]
        for column in ("step", "total_mean", "moving_min", "rearranging_max"):
            assert column in header

    def test_export_bands_on_an_empty_store_is_a_noop(self, capsys, tmp_path):
        store = str(tmp_path / "empty-store")
        out_dir = tmp_path / "bands"
        exit_code = main(
            ["runs", "export-bands", "--store", store, "--out", str(out_dir)]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "no trace population" in output
        assert not out_dir.exists()
