"""Tests for the experiment harness plumbing (metrics, tables, runner, registry)."""

import math
from pathlib import Path

import pytest

from repro.errors import ExperimentError
from repro.experiments.metrics import (
    geometric_mean,
    mean,
    ratios,
    sample_std,
    summarize,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentScale,
    scale_pick,
    seeded_rng,
)
from repro.experiments.suite import ALL_EXPERIMENTS, run_all, write_experiments_markdown
from repro.experiments.tables import ResultTable


class TestMetrics:
    def test_mean_and_std(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert sample_std([2.0, 2.0, 2.0]) == 0.0
        assert sample_std([1.0, 3.0]) == pytest.approx(math.sqrt(2))
        assert sample_std([5.0]) == 0.0

    def test_empty_samples_rejected(self):
        with pytest.raises(ExperimentError):
            mean([])
        with pytest.raises(ExperimentError):
            sample_std([])
        with pytest.raises(ExperimentError):
            summarize([])
        with pytest.raises(ExperimentError):
            geometric_mean([])

    def test_summary_fields(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.ci_low <= summary.mean <= summary.ci_high

    def test_singleton_summary_has_zero_ci(self):
        summary = summarize([7.0])
        assert summary.ci_half_width == 0.0

    def test_ratios(self):
        assert ratios([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ExperimentError):
            ratios([1.0], 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ExperimentError):
            geometric_mean([1.0, -2.0])


class TestResultTable:
    def test_add_rows_and_column_access(self):
        table = ResultTable(title="demo", columns=["n", "ratio"])
        table.add_row(8, 1.5)
        table.add_row(16, 2.0)
        assert table.column("n") == [8, 16]
        with pytest.raises(ExperimentError):
            table.column("missing")

    def test_row_length_validation(self):
        table = ResultTable(title="demo", columns=["a", "b"])
        with pytest.raises(ExperimentError):
            table.add_row(1)

    def test_ascii_and_markdown_rendering(self):
        table = ResultTable(title="demo table", columns=["name", "value", "flag"])
        table.add_row("alpha", 1.23456, True)
        ascii_art = table.to_ascii()
        assert "demo table" in ascii_art
        assert "alpha" in ascii_art and "1.235" in ascii_art
        markdown = table.to_markdown()
        assert markdown.count("|") > 4
        assert "yes" in markdown

    def test_csv_output(self, tmp_path):
        table = ResultTable(title="demo", columns=["x"])
        table.add_row(1)
        path = table.to_csv(tmp_path / "sub" / "demo.csv")
        assert path.exists()
        assert path.read_text().splitlines() == ["x", "1"]


class TestRunnerHelpers:
    def test_seeded_rng_is_deterministic_and_salt_sensitive(self):
        assert seeded_rng(1, "a").random() == seeded_rng(1, "a").random()
        assert seeded_rng(1, "a").random() != seeded_rng(1, "b").random()
        assert seeded_rng(1).random() != seeded_rng(2).random()

    def test_scale_pick(self):
        assert scale_pick(ExperimentScale.SMOKE, 1, 2, 3) == 1
        assert scale_pick(ExperimentScale.BENCH, 1, 2, 3) == 2
        assert scale_pick(ExperimentScale.FULL, 1, 2, 3) == 3

    def test_experiment_result_rendering(self):
        table = ResultTable(title="t", columns=["a"])
        table.add_row(1)
        result = ExperimentResult(
            experiment_id="E0",
            title="demo",
            paper_claim="claim",
            tables=[table],
            findings={"metric": 1.0},
            notes=["note"],
        )
        markdown = result.to_markdown()
        assert "## E0: demo" in markdown
        assert "claim" in markdown and "note" in markdown
        ascii_art = result.to_ascii()
        assert "E0: demo" in ascii_art
        assert "metric=1.000" in ascii_art


class TestSuiteRegistry:
    def test_registry_covers_design_md_index(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 16)}

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError):
            run_all(only=["E99"])

    def test_run_single_experiment_and_write_report(self, tmp_path):
        results = run_all(scale=ExperimentScale.SMOKE, seed=1, only=["E8"])
        assert len(results) == 1
        assert results[0].experiment_id == "E8"
        output = write_experiments_markdown(
            results,
            output_path=tmp_path / "EXPERIMENTS.md",
            csv_directory=tmp_path / "results",
            scale=ExperimentScale.SMOKE,
            elapsed_seconds=1.0,
        )
        text = Path(output).read_text()
        assert "E8" in text
        assert (tmp_path / "results" / "e8_0.csv").exists()
