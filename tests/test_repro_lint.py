"""Tests for the repro-lint static-analysis layer (tools/repro_lint).

Every rule gets a bad fixture (must fire) and a good fixture (must stay
silent); suppression comments, path scoping and the CLI are exercised,
and the final test runs the linter over the real tree and asserts the
repository is violation-free at HEAD.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from tools.repro_lint import RULES, lint_paths, lint_source
from tools.repro_lint.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

CORE_PATH = "src/repro/core/module.py"
EXPERIMENTS_PATH = "src/repro/experiments/module.py"
BASELINES_PATH = "src/repro/baselines/module.py"
DATA_PATH = "src/repro/data/module.py"
TEST_PATH = "tests/test_module.py"


def codes(source, path=DATA_PATH):
    return [finding.code for finding in lint_source(source, path)]


class TestR001Randomness:
    BAD_MODULE_CALL = "import numpy as np\nx = np.random.rand(10)\n"
    BAD_STDLIB = "import random\nx = random.random()\n"
    BAD_UNSEEDED_RNG = "import numpy as np\nrng = np.random.default_rng()\n"
    BAD_BARE_RNG = (
        "from numpy.random import default_rng\nrng = default_rng()\n"
    )
    GOOD_SEEDED = "import numpy as np\nrng = np.random.default_rng(42)\n"
    GOOD_KWARG = "import numpy as np\nrng = np.random.default_rng(seed=7)\n"

    def test_module_level_draw_fires(self):
        assert codes(self.BAD_MODULE_CALL) == ["R001"]

    def test_stdlib_random_fires(self):
        assert codes(self.BAD_STDLIB) == ["R001"]

    def test_unseeded_default_rng_fires(self):
        assert codes(self.BAD_UNSEEDED_RNG) == ["R001"]

    def test_bare_default_rng_fires(self):
        assert codes(self.BAD_BARE_RNG) == ["R001"]

    def test_seeded_rng_is_clean(self):
        assert codes(self.GOOD_SEEDED) == []
        assert codes(self.GOOD_KWARG) == []

    def test_tests_are_exempt(self):
        assert codes(self.BAD_MODULE_CALL, path=TEST_PATH) == []

    def test_generator_method_calls_are_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n"
        assert codes(source) == []


class TestR002FloatEquality:
    BAD_SCALAR = "def f(x: float) -> bool:\n    return x == 0.5\n"
    BAD_NOTEQ = "def f(x: float) -> bool:\n    return 1.5 != x\n"
    GOOD_INT = "def f(x: int) -> bool:\n    return x == 0\n"
    GOOD_ISCLOSE = (
        "import math\n\ndef f(x: float) -> bool:\n"
        "    return math.isclose(x, 0.5)\n"
    )

    def test_float_literal_eq_fires(self):
        assert codes(self.BAD_SCALAR) == ["R002"]
        assert codes(self.BAD_NOTEQ) == ["R002"]

    def test_integer_and_isclose_are_clean(self):
        assert codes(self.GOOD_INT) == []
        assert codes(self.GOOD_ISCLOSE) == []

    def test_tests_are_exempt(self):
        assert codes(self.BAD_SCALAR, path=TEST_PATH) == []


class TestR003Determinism:
    BAD_CLOCK = "import time\nstamp = time.time()\n"
    BAD_SET_FOR = "total = 0\nfor x in {3, 1, 2}:\n    total += x\n"
    BAD_SET_LIST = "items = list({3, 1, 2})\n"
    BAD_SET_CALL = "items = list(set((3, 1, 2)))\n"
    GOOD_SORTED = "items = sorted({3, 1, 2})\n"
    GOOD_PERF = "import time\nstart = time.perf_counter()\n"

    def test_wall_clock_fires_in_core(self):
        assert codes(self.BAD_CLOCK, path=CORE_PATH) == ["R003"]

    def test_set_iteration_fires_in_experiments(self):
        assert codes(self.BAD_SET_FOR, path=EXPERIMENTS_PATH) == ["R003"]
        assert codes(self.BAD_SET_LIST, path=EXPERIMENTS_PATH) == ["R003"]
        assert codes(self.BAD_SET_CALL, path=EXPERIMENTS_PATH) == ["R003"]

    def test_comprehension_over_set_fires(self):
        source = "doubled = [x * 2 for x in {3, 1, 2}]\n"
        assert codes(source, path=CORE_PATH) == ["R003"]

    def test_sorted_set_and_perf_counter_are_clean(self):
        assert codes(self.GOOD_SORTED, path=CORE_PATH) == []
        # perf_counter is not a *wall* clock, so R003 stays silent; in
        # core it now belongs to R008's timing funnel instead.
        assert "R003" not in codes(self.GOOD_PERF, path=CORE_PATH)
        assert codes(self.GOOD_PERF, path="benchmarks/bench_x.py") == []

    def test_rule_only_binds_in_core_and_experiments(self):
        assert codes(self.BAD_CLOCK, path=DATA_PATH) == []
        assert codes(self.BAD_SET_FOR, path=BASELINES_PATH) == []


class TestR004Annotations:
    BAD_PARAM = "def fit(points):\n    return points\n"
    BAD_RETURN = "def fit(points: int):\n    return points\n"
    GOOD = "def fit(points: int) -> int:\n    return points\n"
    GOOD_PRIVATE = "def _helper(points):\n    return points\n"
    GOOD_METHOD = (
        "class M:\n"
        "    def fit(self, points: int) -> int:\n"
        "        return points\n"
    )

    def test_missing_param_annotation_fires(self):
        found = codes(self.BAD_PARAM, path=CORE_PATH)
        assert found == ["R004", "R004"]  # parameter and return

    def test_missing_return_annotation_fires(self):
        assert codes(self.BAD_RETURN, path=BASELINES_PATH) == ["R004"]

    def test_annotated_function_is_clean(self):
        assert codes(self.GOOD, path=CORE_PATH) == []
        assert codes(self.GOOD_METHOD, path=CORE_PATH) == []

    def test_private_functions_are_exempt(self):
        assert codes(self.GOOD_PRIVATE, path=CORE_PATH) == []

    def test_rule_only_binds_in_core_and_baselines(self):
        assert codes(self.BAD_PARAM, path=DATA_PATH) == []

    def test_nested_functions_are_exempt(self):
        source = (
            "def outer(x: int) -> int:\n"
            "    def closure(y):\n"
            "        return y\n"
            "    return closure(x)\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestR005DtypePins:
    BAD_ZEROS = "import numpy as np\nbuf = np.zeros(10)\n"
    BAD_ARANGE = "import numpy as np\nidx = np.arange(5)\n"
    GOOD_KWARG = "import numpy as np\nbuf = np.zeros(10, dtype=np.int64)\n"
    GOOD_POSITIONAL = "import numpy as np\nbuf = np.zeros(10, np.int64)\n"

    def test_dtypeless_allocation_fires_in_core(self):
        assert codes(self.BAD_ZEROS, path=CORE_PATH) == ["R005"]
        assert codes(self.BAD_ARANGE, path=CORE_PATH) == ["R005"]

    def test_pinned_dtype_is_clean(self):
        assert codes(self.GOOD_KWARG, path=CORE_PATH) == []
        assert codes(self.GOOD_POSITIONAL, path=CORE_PATH) == []

    def test_rule_only_binds_in_core(self):
        assert codes(self.BAD_ZEROS, path=BASELINES_PATH) == []


class TestR006MutableDefaults:
    BAD_LIST = "def f(items=[]):\n    return items\n"
    BAD_DICT = "def f(*, table={}):\n    return table\n"
    BAD_CALL = "def f(seen=set()):\n    return seen\n"
    GOOD = "def f(items=None):\n    return items or []\n"

    def test_mutable_defaults_fire(self):
        assert codes(self.BAD_LIST) == ["R006"]
        assert codes(self.BAD_DICT) == ["R006"]
        assert codes(self.BAD_CALL) == ["R006"]

    def test_none_default_is_clean(self):
        assert codes(self.GOOD) == []


class TestR007EnvAccess:
    BAD_READ = "import os\njobs = os.environ.get('REPRO_JOBS', '1')\n"
    BAD_SUBSCRIPT = "import os\nos.environ['REPRO_JOBS'] = '4'\n"
    BAD_GETENV = "import os\nprofile = os.getenv('REPRO_PROFILE')\n"
    BAD_IMPORT = "from os import environ\nx = environ.get('REPRO_JOBS')\n"
    GOOD_HELPER = "from repro.env import jobs_from_env\njobs = jobs_from_env()\n"
    GOOD_OS_USE = "import os\nsep = os.sep\n"
    ENV_MODULE_PATH = "src/repro/env.py"

    def test_environ_read_fires_in_package(self):
        assert codes(self.BAD_READ, path=EXPERIMENTS_PATH) == ["R007"]
        assert codes(self.BAD_READ, path=CORE_PATH) == ["R007"]

    def test_environ_write_fires(self):
        assert codes(self.BAD_SUBSCRIPT, path=CORE_PATH) == ["R007"]

    def test_getenv_fires(self):
        assert codes(self.BAD_GETENV, path=DATA_PATH) == ["R007"]

    def test_importing_environ_from_os_fires(self):
        assert codes(self.BAD_IMPORT, path=CORE_PATH) == ["R007"]

    def test_env_module_itself_is_exempt(self):
        assert codes(self.BAD_READ, path=self.ENV_MODULE_PATH) == []

    def test_outside_package_is_exempt(self):
        assert codes(self.BAD_READ, path="benchmarks/conftest.py") == []
        assert codes(self.BAD_READ, path="scripts/perf_baseline.py") == []

    def test_tests_are_exempt(self):
        assert codes(self.BAD_READ, path=TEST_PATH) == []

    def test_helper_and_unrelated_os_use_are_clean(self):
        assert codes(self.GOOD_HELPER, path=CORE_PATH) == []
        assert codes(self.GOOD_OS_USE, path=CORE_PATH) == []

    def test_line_suppression_silences_r007(self):
        source = (
            "import os\n"
            "x = os.environ.get('HOME')  # repro-lint: disable=R007\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestR008TimingFunnel:
    BAD_PERF = "import time\nstart = time.perf_counter()\n"
    BAD_MONOTONIC = "import time\nstart = time.monotonic()\n"
    BAD_RUSAGE = (
        "import resource\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    )
    BAD_IMPORT_PERF = "from time import perf_counter\nstart = perf_counter()\n"
    BAD_IMPORT_RUSAGE = "from resource import getrusage\n"
    GOOD_CLOCK = "from repro.obs import perf_clock\nstart = perf_clock()\n"
    GOOD_SLEEP = "import time\ntime.sleep(0.1)\n"
    OBS_PATH = "src/repro/obs/trace.py"
    BENCH_PATH = "benchmarks/bench_obs_overhead.py"
    SCRIPT_PATH = "scripts/perf_baseline.py"

    def test_perf_counter_fires_in_core(self):
        assert codes(self.BAD_PERF, path=CORE_PATH) == ["R008"]

    def test_monotonic_fires(self):
        assert codes(self.BAD_MONOTONIC, path=EXPERIMENTS_PATH) == ["R008"]

    def test_getrusage_fires(self):
        assert codes(self.BAD_RUSAGE, path=CORE_PATH) == ["R008"]

    def test_imported_perf_counter_fires(self):
        # The import itself is flagged, so bare calls cannot hide.
        assert codes(self.BAD_IMPORT_PERF, path=CORE_PATH) == ["R008"]

    def test_imported_getrusage_fires(self):
        assert codes(self.BAD_IMPORT_RUSAGE, path=DATA_PATH) == ["R008"]

    def test_binds_outside_the_package_too(self):
        assert codes(self.BAD_PERF, path=self.SCRIPT_PATH) == ["R008"]
        assert codes(self.BAD_PERF, path=TEST_PATH) == ["R008"]

    def test_obs_module_is_exempt(self):
        assert codes(self.BAD_PERF, path=self.OBS_PATH) == []
        assert codes(self.BAD_RUSAGE, path=self.OBS_PATH) == []

    def test_benchmarks_are_exempt(self):
        assert codes(self.BAD_PERF, path=self.BENCH_PATH) == []

    def test_perf_clock_and_sleep_are_clean(self):
        assert codes(self.GOOD_CLOCK, path=CORE_PATH) == []
        assert codes(self.GOOD_SLEEP, path=DATA_PATH) == []

    def test_line_suppression_silences_r008(self):
        source = (
            "import time\n"
            "start = time.perf_counter()  # repro-lint: disable=R008\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestR009ExceptionHandling:
    BAD_BARE = "try:\n    work()\nexcept:\n    recover()\n"
    BAD_SWALLOW = "try:\n    work()\nexcept ValueError:\n    pass\n"
    BAD_ELLIPSIS = "try:\n    work()\nexcept OSError:\n    ...\n"
    BAD_BOTH = "try:\n    work()\nexcept:\n    pass\n"
    GOOD_NAMED = (
        "try:\n"
        "    work()\n"
        "except ValueError as error:\n"
        "    raise RuntimeError('context') from error\n"
    )
    GOOD_HANDLED = "try:\n    work()\nexcept KeyError:\n    value = None\n"
    FABRIC_PATH = "src/repro/fabric/supervisor.py"

    def test_bare_except_fires(self):
        assert codes(self.BAD_BARE, path=CORE_PATH) == ["R009"]

    def test_swallowed_except_fires(self):
        assert codes(self.BAD_SWALLOW, path=EXPERIMENTS_PATH) == ["R009"]

    def test_ellipsis_body_fires(self):
        assert codes(self.BAD_ELLIPSIS, path=DATA_PATH) == ["R009"]

    def test_bare_and_swallowed_both_reported(self):
        assert codes(self.BAD_BOTH, path=CORE_PATH) == ["R009", "R009"]

    def test_named_reraise_is_clean(self):
        assert codes(self.GOOD_NAMED, path=CORE_PATH) == []

    def test_handled_fallback_is_clean(self):
        assert codes(self.GOOD_HANDLED, path=CORE_PATH) == []

    def test_fabric_package_is_exempt(self):
        assert codes(self.BAD_SWALLOW, path=self.FABRIC_PATH) == []

    def test_tests_are_exempt(self):
        assert codes(self.BAD_SWALLOW, path=TEST_PATH) == []

    def test_line_suppression_silences_r009(self):
        source = (
            "try:\n"
            "    work()\n"
            "except ValueError:  # repro-lint: disable=R009\n"
            "    pass\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestR011CtypesImports:
    BAD_IMPORT = "import ctypes\n"
    BAD_FROM = "from ctypes import CDLL\n"
    BAD_SUBMODULE = "import ctypes.util\n"
    BAD_FROM_SUBMODULE = "from ctypes.util import find_library\n"
    CEXT_PATH = "src/repro/core/kernels/cext_backend.py"
    KERNELS_PATH = "src/repro/core/kernels/reference.py"

    def test_plain_import_fires(self):
        assert codes(self.BAD_IMPORT, path=CORE_PATH) == ["R011"]

    def test_from_import_fires(self):
        assert codes(self.BAD_FROM, path=EXPERIMENTS_PATH) == ["R011"]

    def test_submodule_import_fires(self):
        assert codes(self.BAD_SUBMODULE, path=DATA_PATH) == ["R011"]

    def test_from_submodule_fires(self):
        assert codes(self.BAD_FROM_SUBMODULE, path=CORE_PATH) == ["R011"]

    def test_cext_backend_module_is_exempt(self):
        assert codes(self.BAD_IMPORT, path=self.CEXT_PATH) == []

    def test_rest_of_kernels_package_is_not_exempt(self):
        # Only the one audited binding module may touch ctypes, not
        # the kernels package at large.
        assert codes(self.BAD_IMPORT, path=self.KERNELS_PATH) == ["R011"]

    def test_tests_are_exempt(self):
        assert codes(self.BAD_IMPORT, path=TEST_PATH) == []

    def test_similar_prefix_is_clean(self):
        assert codes("import ctypeslib\n", path=CORE_PATH) == []

    def test_line_suppression_silences_r011(self):
        source = "import ctypes  # repro-lint: disable=R011\n"
        assert codes(source, path=CORE_PATH) == []


class TestR012ModelFileIO:
    BAD_MEMMAP = (
        "import numpy as np\n"
        "arrays = np.memmap('golden.model', dtype=np.uint8, mode='r')\n"
    )
    BAD_OPEN = "blob = open('golden.model', 'rb').read()\n"
    BAD_SAVE = "import numpy as np\nnp.save('arrays.npy', x)\n"
    BAD_LOAD = "import numpy as np\nx = np.load('arrays.npy')\n"
    STORE_PATH = "src/repro/serve/store.py"
    SERVE_PATH = "src/repro/serve/model.py"

    def test_memmap_fires_anywhere_in_package(self):
        assert codes(self.BAD_MEMMAP, path=CORE_PATH) == ["R012"]
        assert codes(self.BAD_MEMMAP, path=DATA_PATH) == ["R012"]
        assert codes(self.BAD_MEMMAP, path=self.SERVE_PATH) == ["R012"]

    def test_open_fires_only_in_serve_modules(self):
        assert codes(self.BAD_OPEN, path=self.SERVE_PATH) == ["R012"]
        # File I/O elsewhere in the package is not model I/O.
        assert codes(self.BAD_OPEN, path=DATA_PATH) == []

    def test_numpy_io_fires_in_serve_modules(self):
        assert codes(self.BAD_SAVE, path=self.SERVE_PATH) == ["R012"]
        assert codes(self.BAD_LOAD, path=self.SERVE_PATH) == ["R012"]

    def test_store_module_is_exempt(self):
        assert codes(self.BAD_MEMMAP, path=self.STORE_PATH) == []
        assert codes(self.BAD_OPEN, path=self.STORE_PATH) == []

    def test_tests_are_exempt(self):
        assert codes(self.BAD_MEMMAP, path=TEST_PATH) == []

    def test_outside_package_is_exempt(self):
        assert codes(self.BAD_MEMMAP, path="scripts/tool.py") == []

    def test_line_suppression_silences_r012(self):
        source = (
            "import numpy as np\n"
            "m = np.memmap('f', dtype=np.uint8)"
            "  # repro-lint: disable=R012\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestR013PoolConstruction:
    BAD_EXECUTOR = (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "pool = ProcessPoolExecutor(max_workers=2)\n"
    )
    BAD_DOTTED = (
        "import concurrent.futures\n"
        "pool = concurrent.futures.ProcessPoolExecutor()\n"
    )
    BAD_MP = "import multiprocessing\npool = multiprocessing.Pool(4)\n"
    BAD_MP_ALIAS = "import multiprocessing as mp\npool = mp.Pool()\n"
    FABRIC_PATH = "src/repro/fabric/supervisor.py"
    FABRIC_QUEUE_PATH = "src/repro/fabric/queue.py"
    KERNELS_PATH = "src/repro/core/kernels/dispatch.py"

    def test_executor_construction_fires_in_package(self):
        assert codes(self.BAD_EXECUTOR, path=CORE_PATH) == ["R013"]
        assert codes(self.BAD_DOTTED, path=EXPERIMENTS_PATH) == ["R013"]

    def test_multiprocessing_pool_fires(self):
        assert codes(self.BAD_MP, path=DATA_PATH) == ["R013"]
        assert codes(self.BAD_MP_ALIAS, path=DATA_PATH) == ["R013"]

    def test_fabric_package_is_exempt(self):
        assert codes(self.BAD_EXECUTOR, path=self.FABRIC_PATH) == []

    def test_fabric_modules_and_kernels_are_exempt(self):
        assert codes(self.BAD_EXECUTOR, path=self.FABRIC_QUEUE_PATH) == []
        assert codes(self.BAD_EXECUTOR, path=self.KERNELS_PATH) == []

    def test_tests_and_scripts_are_exempt(self):
        assert codes(self.BAD_EXECUTOR, path=TEST_PATH) == []
        assert codes(self.BAD_EXECUTOR, path="scripts/tool.py") == []

    def test_message_points_at_the_fabric(self):
        finding = lint_source(self.BAD_EXECUTOR, CORE_PATH)[0]
        assert "repro.fabric" in finding.message

    def test_line_suppression_silences_r013(self):
        source = (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "pool = ProcessPoolExecutor()  # repro-lint: disable=R013\n"
        )
        assert codes(source, path=CORE_PATH) == []


class TestSuppression:
    def test_line_suppression(self):
        source = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=R001\n"
        assert codes(source) == []

    def test_line_suppression_is_code_specific(self):
        source = "import numpy as np\nx = np.random.rand(3)  # repro-lint: disable=R005\n"
        assert codes(source) == ["R001"]

    def test_multi_code_suppression(self):
        source = (
            "import numpy as np\n"
            "def f(x=[]):  # repro-lint: disable=R006, R001\n"
            "    return np.random.rand(3)\n"
        )
        assert codes(source) == ["R001"]

    def test_file_level_suppression(self):
        source = (
            "# repro-lint: disable-file=R001\n"
            "import numpy as np\n"
            "a = np.random.rand(3)\n"
            "b = np.random.rand(3)\n"
        )
        assert codes(source) == []

    def test_disable_all(self):
        source = "x = 1.0 == 2.0  # repro-lint: disable=all\n"
        assert codes(source) == []


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        found = lint_source("def broken(:\n", path=DATA_PATH)
        assert [f.code for f in found] == ["R000"]

    def test_findings_carry_location(self):
        (finding,) = lint_source(
            "import numpy as np\nx = np.random.rand(3)\n", path=DATA_PATH
        )
        assert finding.line == 2
        assert finding.code == "R001"
        assert finding.render().startswith(f"{DATA_PATH}:2:")

    def test_rule_table_has_six_rules(self):
        assert len([c for c in RULES if c != "R000"]) >= 6


class TestRealTree:
    def test_repository_is_violation_free(self):
        findings = lint_paths(
            [
                REPO_ROOT / "src",
                REPO_ROOT / "tests",
                REPO_ROOT / "scripts",
                REPO_ROOT / "benchmarks",
            ]
        )
        assert findings == [], "\n".join(f.render() for f in findings)


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert main([str(clean)]) == 0

    def test_exit_one_on_findings(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import numpy as np\nx = np.random.rand(3)\n")
        assert main([str(dirty)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "dirty.py:2:" in out

    def test_exit_two_on_missing_path(self, tmp_path):
        assert main([str(tmp_path / "nowhere")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R002", "R003", "R004", "R005", "R006"):
            assert code in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tools.repro_lint", "--list-rules"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "R001" in proc.stdout


@pytest.mark.parametrize(
    "code",
    [
        "R001",
        "R002",
        "R003",
        "R004",
        "R005",
        "R006",
        "R007",
        "R008",
        "R009",
        "R012",
    ],
)
def test_every_rule_fires_on_its_bad_fixture(code):
    """Acceptance: each of the rules demonstrably fires."""
    bad_by_code = {
        "R001": (TestR001Randomness.BAD_MODULE_CALL, DATA_PATH),
        "R002": (TestR002FloatEquality.BAD_SCALAR, DATA_PATH),
        "R003": (TestR003Determinism.BAD_CLOCK, CORE_PATH),
        "R004": (TestR004Annotations.BAD_RETURN, CORE_PATH),
        "R005": (TestR005DtypePins.BAD_ZEROS, CORE_PATH),
        "R006": (TestR006MutableDefaults.BAD_LIST, DATA_PATH),
        "R007": (TestR007EnvAccess.BAD_READ, CORE_PATH),
        "R008": (TestR008TimingFunnel.BAD_PERF, CORE_PATH),
        "R009": (TestR009ExceptionHandling.BAD_BARE, CORE_PATH),
        "R012": (TestR012ModelFileIO.BAD_MEMMAP, CORE_PATH),
    }
    source, path = bad_by_code[code]
    assert code in codes(source, path=path)
