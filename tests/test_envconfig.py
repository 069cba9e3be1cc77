"""Tests for the shared ``REPRO_*`` environment-override validation."""

import pytest

from repro.envconfig import read_env_choice, read_env_positive_int
from repro.errors import ExperimentError, ReproError


class TestReadEnvChoice:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_CHOICE", raising=False)
        assert read_env_choice("REPRO_TEST_CHOICE", ["a", "b"], default="a") == "a"
        assert read_env_choice("REPRO_TEST_CHOICE", ["a", "b"]) is None

    def test_valid_value_returned(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "b")
        assert read_env_choice("REPRO_TEST_CHOICE", ["a", "b"], default="a") == "b"

    def test_invalid_value_names_variable_and_choices(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "c")
        with pytest.raises(ReproError, match="REPRO_TEST_CHOICE") as excinfo:
            read_env_choice("REPRO_TEST_CHOICE", ["b", "a"])
        assert "'a', 'b'" in str(excinfo.value)

    def test_custom_error_class(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_CHOICE", "c")
        with pytest.raises(ExperimentError):
            read_env_choice("REPRO_TEST_CHOICE", ["a"], error=ExperimentError)


class TestReadEnvPositiveInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert read_env_positive_int("REPRO_TEST_INT", default=3) == 3

    def test_valid_value_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "8")
        assert read_env_positive_int("REPRO_TEST_INT") == 8

    @pytest.mark.parametrize("raw", ["zero", "0", "-2", "1.5", ""])
    def test_invalid_values_fail_loudly(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_INT", raw)
        with pytest.raises(ReproError, match="REPRO_TEST_INT"):
            read_env_positive_int("REPRO_TEST_INT")


class TestConsumers:
    def test_jobs_override_validated(self, monkeypatch):
        from repro.experiments.parallel import resolve_jobs

        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_scenario_override_validated(self, monkeypatch):
        from repro.workloads import default_scenario_name

        monkeypatch.setenv("REPRO_SCENARIO", "definitely-not-registered")
        with pytest.raises(ReproError, match="REPRO_SCENARIO"):
            default_scenario_name()
