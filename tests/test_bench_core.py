"""Gates on ``BENCH_core.json``, the seed-versus-optimised trajectory.

``scripts/perf_baseline.py`` times the aggregated tree build and the
incremental β-cluster search against their seed references under every
loadable backend.  These tests hold the committed file to the script's
own gates, check that the gates catch a slow or a wrong arm, and run
the quick profile end to end, which re-checks that the optimised paths
equal their references and that the aggregated build beats the rescan.

Regenerate the committed file with::

    PYTHONPATH=src python scripts/perf_baseline.py
"""

import copy
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_CORE = REPO_ROOT / "BENCH_core.json"

sys.path.insert(0, str(REPO_ROOT / "scripts"))
import perf_baseline  # noqa: E402

sys.path.pop(0)

WORKLOADS = {"tree_build/h5_d15_eta100000", "beta_search/h5_d15_eta100000"}


@pytest.fixture(scope="module")
def committed():
    return json.loads(BENCH_CORE.read_text())


class TestCommittedFile:
    def test_is_a_full_profile_run_of_the_current_schema(self, committed):
        assert committed["profile"] == "full"
        assert committed["schema"] == perf_baseline.SCHEMA_VERSION
        assert set(committed["workloads"]) == WORKLOADS

    def test_every_backend_arm_matches_the_reference(self, committed):
        for row in committed["workloads"].values():
            assert set(row["backends"]) == set(committed["backends"])
            for arm in row["backends"].values():
                assert arm["matches_reference"] is True

    def test_passes_its_gates(self, committed):
        assert perf_baseline.gate_failures(committed) == []


class TestGates:
    def test_tree_build_below_its_floor_fails(self, committed):
        payload = copy.deepcopy(committed)
        arm = payload["workloads"]["tree_build/h5_d15_eta100000"]["backends"]
        arm["numpy"]["speedup"] = perf_baseline.TREE_SPEEDUP_FLOOR_FULL * 0.9
        failures = perf_baseline.gate_failures(payload)
        assert len(failures) == 1
        assert "tree_build" in failures[0] and "numpy" in failures[0]

    def test_compiled_search_below_its_floor_fails(self, committed):
        payload = copy.deepcopy(committed)
        compiled = [n for n, b in payload["backends"].items() if b["compiled"]]
        if not compiled:
            pytest.skip("the committed file has no compiled backend")
        arms = payload["workloads"]["beta_search/h5_d15_eta100000"]["backends"]
        arms[compiled[0]]["speedup_vs_numpy"] = (
            perf_baseline.BETA_COMPILED_SPEEDUP_FLOOR * 0.9
        )
        failures = perf_baseline.gate_failures(payload)
        assert len(failures) == 1
        assert "beta_search" in failures[0] and compiled[0] in failures[0]

    def test_a_result_that_differs_from_the_reference_fails(self, committed):
        payload = copy.deepcopy(committed)
        arms = payload["workloads"]["beta_search/h5_d15_eta100000"]["backends"]
        arms["numpy"]["matches_reference"] = False
        failures = perf_baseline.gate_failures(payload)
        assert len(failures) == 1
        assert "differs from the seed" in failures[0]

    def test_quick_profile_only_asks_the_build_to_beat_the_rescan(
        self, committed
    ):
        payload = copy.deepcopy(committed)
        payload["profile"] = "quick"
        for row in payload["workloads"].values():
            for arm in row["backends"].values():
                arm["speedup"] = arm["speedup_vs_numpy"] = 1.5
        assert perf_baseline.gate_failures(payload) == []
        tree = payload["workloads"]["tree_build/h5_d15_eta100000"]
        tree["backends"]["numpy"]["speedup"] = 1.0
        assert len(perf_baseline.gate_failures(payload)) == 1


def test_quick_profile_runs_and_passes_its_gates(tmp_path):
    output = tmp_path / "bench.json"
    assert perf_baseline.main(["--quick", "--output", str(output)]) == 0
    payload = json.loads(output.read_text())
    assert payload["profile"] == "quick"
    assert payload["schema"] == perf_baseline.SCHEMA_VERSION
    assert [key.split("/")[0] for key in payload["workloads"]] == [
        "tree_build",
        "beta_search",
    ]
    assert perf_baseline.gate_failures(payload) == []

