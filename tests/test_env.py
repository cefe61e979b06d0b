"""Tests for the consolidated environment-knob parsing (repro.env)."""

import pytest

from repro.env import (
    KNOWN_BACKENDS,
    backend_from_env,
    backoff_from_env,
    cext_sanitize_from_env,
    contracts_from_env,
    faults_from_env,
    jobs_from_env,
    model_dir_from_env,
    profile_from_env,
    propagate_trace_env,
    retries_from_env,
    serve_batch_from_env,
    serve_cache_from_env,
    serve_delay_from_env,
    task_timeout_from_env,
    trace_from_env,
)


class TestPropagateTraceEnv:
    def test_default_advertises_on_without_export(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        propagate_trace_env()
        assert trace_from_env() == ""

    def test_export_path_round_trips(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        propagate_trace_env("/tmp/out.json")
        assert trace_from_env() == "/tmp/out.json"

    def test_overrides_a_disabled_setting(self, monkeypatch):
        """--trace must win over an ambient REPRO_TRACE=0."""
        monkeypatch.setenv("REPRO_TRACE", "0")
        propagate_trace_env()
        assert trace_from_env() == ""


class TestJobsFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs_from_env() == 1
        assert jobs_from_env(default=3) == 3

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert jobs_from_env() == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert jobs_from_env() == 4

    def test_whitespace_is_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", " 2 ")
        assert jobs_from_env() == 2

    @pytest.mark.parametrize("raw", ["four", "2.5", "1e3", "0x4"])
    def test_non_integer_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="REPRO_JOBS") as excinfo:
            jobs_from_env()
        assert raw in str(excinfo.value)

    @pytest.mark.parametrize("raw", ["0", "-1"])
    def test_non_positive_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_JOBS", raw)
        with pytest.raises(ValueError, match="positive integer"):
            jobs_from_env()

    def test_runner_reexport_is_the_same_function(self):
        from repro.experiments.runner import jobs_from_env as runner_jobs

        assert runner_jobs is jobs_from_env


class TestProfileFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert profile_from_env() == "quick"
        assert profile_from_env(default="full") == "full"

    @pytest.mark.parametrize("profile", ["quick", "full"])
    def test_valid_profiles(self, monkeypatch, profile):
        monkeypatch.setenv("REPRO_PROFILE", profile)
        assert profile_from_env() == profile

    def test_bad_profile_names_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "exhaustive")
        with pytest.raises(ValueError, match="REPRO_PROFILE.*'exhaustive'"):
            profile_from_env()

    def test_config_reexport_is_the_same_function(self):
        from repro.experiments.config import profile_from_env as config_profile

        assert config_profile is profile_from_env


class TestBackendFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend_from_env() == "auto"
        assert backend_from_env(default="numpy") == "numpy"

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "   ")
        assert backend_from_env() == "auto"

    @pytest.mark.parametrize("backend", KNOWN_BACKENDS)
    def test_known_backends_pass_through(self, monkeypatch, backend):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        assert backend_from_env() == backend

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "  NumPy ")
        assert backend_from_env() == "numpy"

    def test_unknown_backend_names_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fortran")
        with pytest.raises(ValueError, match="REPRO_BACKEND.*'fortran'"):
            backend_from_env()

    def test_retired_backend_name_is_a_named_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(ValueError) as error:
            backend_from_env()
        message = str(error.value)
        assert "auto/numpy/cext" in message
        assert "REPRO_BACKEND=cext" in message
        assert "'numba'" in message


class TestContractsFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CONTRACTS", raising=False)
        assert contracts_from_env() is True
        assert contracts_from_env(default=False) is False

    @pytest.mark.parametrize("raw", ["1", "true", "ON", "yes"])
    def test_truthy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CONTRACTS", raw)
        assert contracts_from_env() is True

    @pytest.mark.parametrize("raw", ["0", "false", "OFF", "no"])
    def test_falsy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CONTRACTS", raw)
        assert contracts_from_env() is False

    def test_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CONTRACTS", "maybe")
        with pytest.raises(ValueError, match="REPRO_CONTRACTS.*'maybe'"):
            contracts_from_env()


class TestCextSanitizeFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CEXT_SANITIZE", raising=False)
        assert cext_sanitize_from_env() is False
        assert cext_sanitize_from_env(default=True) is True

    @pytest.mark.parametrize("raw", ["1", "true", "ON", "yes"])
    def test_truthy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CEXT_SANITIZE", raw)
        assert cext_sanitize_from_env() is True

    @pytest.mark.parametrize("raw", ["0", "false", "OFF", "no"])
    def test_falsy_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_CEXT_SANITIZE", raw)
        assert cext_sanitize_from_env() is False

    def test_garbage_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_CEXT_SANITIZE", "asan")
        with pytest.raises(ValueError, match="REPRO_CEXT_SANITIZE.*'asan'"):
            cext_sanitize_from_env()


class TestRetriesFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_RETRIES", raising=False)
        assert retries_from_env() == 0
        assert retries_from_env(default=2) == 2

    def test_valid_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRIES", "3")
        assert retries_from_env() == 3
        monkeypatch.setenv("REPRO_RETRIES", "0")
        assert retries_from_env(default=5) == 0

    @pytest.mark.parametrize("raw", ["two", "1.5", "-1"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RETRIES", raw)
        with pytest.raises(ValueError, match="REPRO_RETRIES"):
            retries_from_env()


class TestTaskTimeoutFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        assert task_timeout_from_env() is None
        assert task_timeout_from_env(default=30.0) == 30.0

    def test_seconds_parse_as_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        assert task_timeout_from_env() == 2.5

    @pytest.mark.parametrize("raw", ["0", "off", "false", "no"])
    def test_disabled_values_return_default(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", raw)
        assert task_timeout_from_env() is None

    @pytest.mark.parametrize("raw", ["soon", "-5"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", raw)
        with pytest.raises(ValueError, match="REPRO_TASK_TIMEOUT"):
            task_timeout_from_env()


class TestBackoffFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKOFF", raising=False)
        assert backoff_from_env() == 0.05
        assert backoff_from_env(default=1.0) == 1.0

    def test_zero_disables_backoff(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        assert backoff_from_env() == 0.0

    @pytest.mark.parametrize("raw", ["later", "-0.1"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BACKOFF", raw)
        with pytest.raises(ValueError, match="REPRO_BACKOFF"):
            backoff_from_env()


class TestFaultsFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert faults_from_env() == ""
        assert faults_from_env(default="raise:mrcc:0") == "raise:mrcc:0"

    def test_spec_passes_through_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "  raise:mrcc:0,kill:lac:1 ")
        assert faults_from_env() == "raise:mrcc:0,kill:lac:1"


class TestModelDirFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_MODEL_DIR", raising=False)
        assert model_dir_from_env() == "."
        assert model_dir_from_env(default="/models") == "/models"

    def test_value_passes_through_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_DIR", "  /srv/models ")
        assert model_dir_from_env() == "/srv/models"

    def test_blank_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MODEL_DIR", "   ")
        assert model_dir_from_env() == "."


class TestServeBatchFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_BATCH", raising=False)
        assert serve_batch_from_env() == 4096
        assert serve_batch_from_env(default=64) == 64

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_BATCH", " 512 ")
        assert serve_batch_from_env() == 512

    @pytest.mark.parametrize("raw", ["many", "0", "-3", "2.5"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVE_BATCH", raw)
        with pytest.raises(ValueError, match="REPRO_SERVE_BATCH"):
            serve_batch_from_env()


class TestServeDelayFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_DELAY", raising=False)
        assert serve_delay_from_env() == 0.002
        assert serve_delay_from_env(default=0.1) == 0.1

    def test_zero_means_no_coalescing_wait(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DELAY", "0")
        assert serve_delay_from_env() == 0.0

    def test_seconds_parse_as_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_DELAY", "0.25")
        assert serve_delay_from_env() == 0.25

    @pytest.mark.parametrize("raw", ["soon", "-0.01"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVE_DELAY", raw)
        with pytest.raises(ValueError, match="REPRO_SERVE_DELAY"):
            serve_delay_from_env()


class TestServeCacheFromEnv:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_CACHE", raising=False)
        assert serve_cache_from_env() == 4
        assert serve_cache_from_env(default=1) == 1

    def test_positive_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVE_CACHE", "16")
        assert serve_cache_from_env() == 16

    @pytest.mark.parametrize("raw", ["lots", "0", "-1"])
    def test_bad_values_name_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SERVE_CACHE", raw)
        with pytest.raises(ValueError, match="REPRO_SERVE_CACHE"):
            serve_cache_from_env()
