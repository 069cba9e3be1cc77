"""Tests for the package surface: exception hierarchy, public exports, metadata."""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.errors import (
    ArrangementError,
    EmbeddingError,
    ExperimentError,
    InfeasibleArrangementError,
    ReproError,
    RevealError,
    SolverError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            ArrangementError,
            EmbeddingError,
            ExperimentError,
            InfeasibleArrangementError,
            RevealError,
            SolverError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)
        assert issubclass(error_type, Exception)

    def test_errors_can_carry_messages(self):
        error = SolverError("too many blocks")
        assert "too many blocks" in str(error)

    def test_catching_the_base_class_catches_everything(self):
        with pytest.raises(ReproError):
            raise RevealError("bad reveal")


class TestPublicExports:
    def test_declared_exports_exist(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} is declared in __all__ but missing"

    def test_version_is_a_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") >= 1

    def test_core_exports_are_classes_or_callables(self):
        from repro import (
            Arrangement,
            DeterministicClosestLearner,
            OnlineMinLAInstance,
            RandomizedCliqueLearner,
            RandomizedLineLearner,
            run_online,
        )

        assert callable(run_online)
        for cls in (
            Arrangement,
            DeterministicClosestLearner,
            OnlineMinLAInstance,
            RandomizedCliqueLearner,
            RandomizedLineLearner,
        ):
            assert isinstance(cls, type)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core",
            "repro.core.analysis",
            "repro.core.auto",
            "repro.graphs",
            "repro.minla",
            "repro.adversary",
            "repro.adversary.random_adversary",
            "repro.dynamic_minla",
            "repro.vnet",
            "repro.experiments",
            "repro.experiments.charts",
            "repro.experiments.suite_workloads",
            "repro.io",
            "repro.cli",
            "repro.envconfig",
            "repro.workloads",
            "repro.workloads.registry",
            "repro.workloads.streaming",
            "repro.workloads.discovery",
            "repro.runstore",
            "repro.runstore.store",
            "repro.runstore.align",
            "repro.runstore.stats",
            "repro.runstore.report",
            "repro.service",
            "repro.service.engine",
            "repro.service.partition",
            "repro.service.broker",
            "repro.service.metrics",
            "repro.service.loadgen",
            "repro.vnet.distance_cache",
            "repro.experiments.suite_service",
        ],
    )
    def test_submodules_import_cleanly(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} is missing a module docstring"

    def test_subpackage_all_lists_are_consistent(self):
        for module_name in (
            "repro.core",
            "repro.graphs",
            "repro.minla",
            "repro.adversary",
            "repro.dynamic_minla",
            "repro.vnet",
            "repro.experiments",
            "repro.workloads",
            "repro.runstore",
            "repro.service",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name} missing"


REPOSITORY_ROOT = Path(__file__).resolve().parent.parent


def _imported_modules(path: Path, package: str):
    """Every module one source file imports, relative imports resolved."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                yield ".".join(base + ([node.module] if node.module else []))
            else:
                yield node.module


class TestLayering:
    def test_graphs_imports_only_itself_and_errors(self):
        # The graph substrates sit below every other package: workload
        # generation builds on them, never the other way round.
        sources = sorted((REPOSITORY_ROOT / "src" / "repro" / "graphs").glob("*.py"))
        assert len(sources) >= 5
        outside = sorted(
            f"{path.name}: {module}"
            for path in sources
            for module in _imported_modules(path, "repro.graphs")
            if module.split(".")[0] == "repro"
            and module != "repro.errors"
            and not (module == "repro.graphs" or module.startswith("repro.graphs."))
        )
        assert outside == []


def _run_python(*args: str) -> str:
    """Run a fresh interpreter in the repository root on the checked-out sources."""
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=REPOSITORY_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPOSITORY_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestLazyDependencies:
    def test_verified_rand_and_thread_serving_never_import_networkx(self):
        code = textwrap.dedent(
            """
            import random, sys
            import repro
            from repro.core.instance import OnlineMinLAInstance
            from repro.core.rand_lines import RandomizedLineLearner
            from repro.core.simulator import run_online
            from repro.workloads.generation import random_line_sequence
            from repro.service import run_scenario_loadgen
            from repro.workloads.registry import get_scenario

            rng = random.Random(0)
            instance = OnlineMinLAInstance.with_random_start(
                random_line_sequence(32, rng), rng
            )
            run_online(RandomizedLineLearner(), instance, rng=random.Random(1), verify=True)
            report = run_scenario_loadgen(
                get_scenario("zipf-tenants"), num_nodes=24, num_requests=200,
                seed=0, num_shards=2, batch_size=4, queue_capacity=200,
                backend="thread",
            )
            assert report.summary.num_requests == 200, report.summary
            print("networkx" in sys.modules)
            """
        )
        assert _run_python("-c", code).split() == ["False"]

    def test_importing_repro_never_imports_numpy(self):
        # The package is pure Python and depends on networkx alone; no
        # module, learner or solver may pull numpy back in.
        code = textwrap.dedent(
            """
            import sys
            import repro
            import repro.core.rand_lines
            import repro.minla
            print("numpy" in sys.modules)
            """
        )
        assert _run_python("-c", code).split() == ["False"]


class TestPackagingMetadata:
    def test_setup_metadata_resolves_from_pyproject(self):
        pytest.importorskip("setuptools")
        stdout = _run_python("setup.py", "--name", "--version")
        assert stdout.split() == ["repro", repro.__version__]
        assert repro.__version__ == "1.1.0"

    def test_pyproject_names_no_build_backend(self):
        # A ``build-backend`` makes pip refuse ``--no-use-pep517``, the
        # offline install path through the installed setuptools.
        tomllib = pytest.importorskip("tomllib")
        with open(REPOSITORY_ROOT / "pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert "build-backend" not in pyproject.get("build-system", {})
