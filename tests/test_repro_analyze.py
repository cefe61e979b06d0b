"""Tests for the interprocedural analyzer (tools/repro_analyze)."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.repro_analyze import (
    BaselineError,
    CallGraph,
    Finding,
    Project,
    analyze_contracts,
    analyze_determinism,
    analyze_equivalence,
    analyze_ffi,
    analyze_purity,
    analyze_shapes,
    apply_baseline,
    find_parallel_entries,
    parse_baseline,
    write_baseline,
)
from tools.repro_analyze import cparse

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_project(tmp_path, files):
    for relative, content in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content), encoding="utf-8")
    return Project.load([tmp_path])


def codes(findings):
    return sorted(f.code for f in findings)


ALL_MODULES = ("",)  # prefix matching every fixture module


class TestShapesPass:
    """A1: shape/dtype dataflow."""

    def test_narrowing_cast_true_positive(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from repro.types import IntArray

                def shrink(a: IntArray):
                    return a.astype(np.uint16)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A101"]
        assert "int64" in findings[0].message
        assert "uint16" in findings[0].message
        assert findings[0].symbol == "mod.shrink"

    def test_clean_fixture_has_no_findings(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from repro.types import FloatArray, IntArray

                def bin_points(points: FloatArray, h: int) -> IntArray:
                    base = np.floor(points * (1 << h)).astype(np.int64)
                    np.clip(base, 0, (1 << h) - 1, out=base)
                    return base

                def widths(counts: IntArray) -> FloatArray:
                    total = counts.astype(np.float64)
                    return total / 2.0
                """
            },
        )
        assert analyze_shapes(project, module_prefixes=ALL_MODULES) == []

    def test_integral_float_cast_is_exempt(self, tmp_path):
        # floor() marks the value integral, so float64 -> int64 binning
        # (not safe under np.can_cast) is still accepted.
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from repro.types import FloatArray

                def bin(points: FloatArray):
                    return np.floor(points * 8).astype(np.int64)

                def truncate(points: FloatArray):
                    return points.astype(np.int64)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        # Only the un-floored truncation is a narrowing cast.
        assert codes(findings) == ["A101"]
        assert findings[0].symbol == "mod.truncate"

    def test_platform_dependent_width_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                def scratch(n: int):
                    return np.zeros(n, dtype=np.intp)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A102"]
        assert "np.intp" in findings[0].message

    def test_axis_out_of_range_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                def oops():
                    grid = np.zeros((4, 3))
                    return grid.sum(axis=2)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A103"]

    def test_silent_upcast_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np

                def mix(n: int):
                    unsigned = np.zeros(n, dtype=np.uint64)
                    signed = np.zeros(n, dtype=np.int64)
                    return unsigned + signed
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A104"]
        assert "float64" in findings[0].message

    def test_check_array_refines_the_environment(self, tmp_path):
        # Without the refinement the ndim of ``points`` is unknown and
        # the axis check stays silent; with it, axis=3 is provably bad.
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from repro.core.contracts import check_array
                from repro.types import AnyArray

                def reduce(points: AnyArray):
                    check_array("points", points, dtype=np.float64, ndim=2)
                    return points.sum(axis=3)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A103"]

    def test_summaries_flow_between_functions(self, tmp_path):
        # The narrowing source dtype is established in one function and
        # consumed in another via the round-one return summary.
        project = make_project(
            tmp_path,
            {
                "mod.py": """
                import numpy as np
                from repro.types import FloatArray

                def produce(points: FloatArray):
                    return np.floor(points * 4).astype(np.int64)

                def consume(points: FloatArray):
                    coords = produce(points)
                    return coords.astype(np.uint8)
                """
            },
        )
        findings = analyze_shapes(project, module_prefixes=ALL_MODULES)
        assert codes(findings) == ["A101"]
        assert findings[0].symbol == "mod.consume"


# Indented to match the triple-quoted fixture bodies below, so that the
# concatenated module dedents uniformly in make_project.
PARALLEL_PRELUDE = """
                import numpy as np
                from concurrent.futures import ProcessPoolExecutor
"""


class TestPurityPass:
    """A2: parallel-purity proofs."""

    def _analyze(self, project):
        return analyze_purity(project, CallGraph(project))

    def test_injected_mutable_global_write_is_flagged(self, tmp_path):
        # The ISSUE's acceptance fixture: a REPRO_JOBS-style worker that
        # writes module state, dispatched exactly like the runner does.
        project = make_project(
            tmp_path,
            {
                "runnerlike.py": PARALLEL_PRELUDE
                + """
                _RESULTS = {}

                def _configuration_task(name, params):
                    global _TOTAL
                    _TOTAL = len(params)
                    _RESULTS[name] = params
                    return params

                def run_suite_parallel(tasks, n_jobs):
                    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
                        futures = [
                            pool.submit(_configuration_task, name, params)
                            for name, params in tasks
                        ]
                        return [f.result() for f in futures]
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A201", "A201", "A201"]
        messages = " | ".join(f.message for f in findings)
        assert "_TOTAL" in messages
        assert "_RESULTS" in messages
        assert all(
            f.symbol == "runnerlike._configuration_task" for f in findings
        )

    def test_clean_worker_has_no_findings(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "clean.py": PARALLEL_PRELUDE
                + """
                import time

                def task(seed, values):
                    rng = np.random.default_rng(seed)
                    start = time.perf_counter()
                    noise = rng.normal(size=len(values))
                    local = []
                    local.append(noise.sum())
                    return local, time.perf_counter() - start

                def run(seeds, pool_size):
                    with ProcessPoolExecutor(max_workers=pool_size) as pool:
                        return list(pool.map(task, seeds))
                """
            },
        )
        assert self._analyze(project) == []

    def test_ambient_randomness_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "rand.py": PARALLEL_PRELUDE
                + """
                def task(n):
                    return np.random.uniform(size=n)

                def run(sizes):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(task, sizes))
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A202"]
        assert "numpy.random.uniform" in findings[0].message

    def test_unseeded_default_rng_flagged_seeded_allowed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "rng.py": PARALLEL_PRELUDE
                + """
                def bad(n):
                    return np.random.default_rng().normal(size=n)

                def good(seed):
                    return np.random.default_rng(seed).normal()

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        a = pool.submit(bad, 3)
                        b = pool.submit(good, 0)
                    return a, b
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A202"]
        assert findings[0].symbol == "rng.bad"

    def test_ambient_reads_flagged_transitively(self, tmp_path):
        # The clock read hides one call down from the dispatched task.
        project = make_project(
            tmp_path,
            {
                "clock.py": PARALLEL_PRELUDE
                + """
                import os
                import time

                def helper():
                    return time.time(), os.environ.get("HOME")

                def task(x):
                    return helper()

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(task, items))
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A203", "A203"]
        assert all(f.symbol == "clock.helper" for f in findings)

    def test_methods_of_instantiated_classes_are_reachable(self, tmp_path):
        # The worker only *builds* the estimator; the conservative
        # closure still inspects every method of the class.
        project = make_project(
            tmp_path,
            {
                "cls.py": PARALLEL_PRELUDE
                + """
                class Estimator:
                    def fit(self, points):
                        return np.random.uniform(size=points.shape[0])

                def task(points):
                    model = Estimator()
                    return model.fit(points)

                def run(chunks):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(task, chunks))
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A202"]
        assert findings[0].symbol == "cls.Estimator.fit"

    def test_entry_detection_finds_submitted_functions(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "disp.py": PARALLEL_PRELUDE
                + """
                def task(x):
                    return x

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return [pool.submit(task, i) for i in items]
                """
            },
        )
        entries = find_parallel_entries(project)
        assert [entry.qualname for entry in entries] == ["disp.task"]

    def test_run_supervised_dispatch_roots_the_proof(self, tmp_path):
        # The resilient runner hands its worker to run_supervised
        # instead of a raw pool.submit; the proof must still root at the
        # worker even though the calling module imports no executor.
        project = make_project(
            tmp_path,
            {
                "supervised.py": """
                import numpy as np
                from repro.fabric.supervisor import Task, run_supervised

                def task(name, params, *, attempt, fault, in_worker):
                    return {"noise": float(np.random.uniform())}

                def run(cells):
                    tasks = [Task(key=k, args=a) for k, a in cells]
                    return run_supervised(task, tasks, n_jobs=2)
                """
            },
        )
        entries = find_parallel_entries(project)
        assert [entry.qualname for entry in entries] == ["supervised.task"]
        findings = self._analyze(project)
        assert codes(findings) == ["A202"]
        assert findings[0].symbol == "supervised.task"

    def test_no_executor_import_means_no_entries(self, tmp_path):
        # ``pool.submit`` on something else (a thread pool wrapper the
        # module built itself) does not root a proof.
        project = make_project(
            tmp_path,
            {
                "noexec.py": """
                def task(x):
                    return x

                def run(pool, items):
                    return [pool.submit(task, i) for i in items]
                """
            },
        )
        assert find_parallel_entries(project) == []


CONTRACT_TYPES = """
                import numpy as np
                from repro.core.contracts import check_array, check_labels
                from repro.types import FloatArray, IntArray
"""


class TestContractsPass:
    """A3: contract cross-checking."""

    def test_unchecked_entry_point_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.api import checked, unchecked

                __all__ = ["checked", "unchecked"]
                """,
                "pkg/api.py": CONTRACT_TYPES
                + """
                def checked(points: FloatArray) -> float:
                    points = np.asarray(points, dtype=np.float64)
                    check_array("points", points, dtype=np.float64, ndim=2)
                    return float(points.sum())

                def unchecked(points: FloatArray) -> float:
                    return float(points.sum())
                """,
            },
        )
        findings = analyze_contracts(project, packages=("pkg",))
        assert codes(findings) == ["A301"]
        assert findings[0].symbol == "pkg.api.unchecked"
        assert "'points'" in findings[0].message

    def test_forwarded_parameter_counts_as_checked(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.api import outer

                __all__ = ["outer"]
                """,
                "pkg/api.py": CONTRACT_TYPES
                + """
                def _inner(points: FloatArray) -> float:
                    check_array("points", points, dtype=np.float64, ndim=2)
                    return float(points.sum())

                def outer(points: FloatArray) -> float:
                    return _inner(points)
                """,
            },
        )
        assert analyze_contracts(project, packages=("pkg",)) == []

    def test_iterable_parameter_checked_per_element(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.api import stream_ok, stream_bad

                __all__ = ["stream_ok", "stream_bad"]
                """,
                "pkg/api.py": CONTRACT_TYPES
                + """
                from collections.abc import Iterable

                def stream_ok(chunks: Iterable[FloatArray]) -> float:
                    total = 0.0
                    for index, chunk in enumerate(chunks):
                        chunk = np.asarray(chunk, dtype=np.float64)
                        check_array("chunk", chunk, dtype=np.float64, ndim=2)
                        total += float(chunk.sum())
                    return total

                def stream_bad(chunks: Iterable[FloatArray]) -> float:
                    return sum(float(np.asarray(c).sum()) for c in chunks)
                """,
            },
        )
        findings = analyze_contracts(project, packages=("pkg",))
        assert codes(findings) == ["A301"]
        assert findings[0].symbol == "pkg.api.stream_bad"

    def test_inherited_public_method_resolves_through_bases(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.model import Model

                __all__ = ["Model"]
                """,
                "pkg/base.py": CONTRACT_TYPES
                + """
                class Base:
                    def fit(self, points: FloatArray):
                        points = np.asarray(points, dtype=np.float64)
                        check_array("points", points, dtype=np.float64, ndim=2)
                        return self._fit(points)

                    def fit_predict(self, points: FloatArray):
                        return self.fit(points)
                """,
                "pkg/model.py": """
                from pkg.base import Base

                class Model(Base):
                    def _fit(self, points):
                        return points
                """,
            },
        )
        assert analyze_contracts(project, packages=("pkg",)) == []

    def test_dtype_disagreement_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.api import labelled

                __all__ = ["labelled"]
                """,
                "pkg/api.py": CONTRACT_TYPES
                + """
                def labelled(labels: IntArray) -> int:
                    check_array("labels", labels, dtype=np.float64, ndim=1)
                    return int(labels.max())
                """,
            },
        )
        findings = analyze_contracts(project, packages=("pkg",))
        assert codes(findings) == ["A302"]
        assert "IntArray" in findings[0].message
        assert "float64" in findings[0].message

    def test_non_array_parameters_need_no_check(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "pkg/__init__.py": """
                from pkg.api import scalar_only

                __all__ = ["scalar_only"]
                """,
                "pkg/api.py": """
                def scalar_only(n_points: int, alpha: float) -> float:
                    return n_points * alpha
                """,
            },
        )
        assert analyze_contracts(project, packages=("pkg",)) == []


# A small FFI binding module in the shape of the real cext backend; the
# injected-divergence tests below mutate one line at a time.
FFI_FIXTURE = '''
import ctypes

import numpy as np

from repro.types import IntArray

_C_SOURCE = r"""
void scale(const int64_t *values, int64_t n, int64_t *out) {
    for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];
}
"""

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")

def bind(lib):
    lib.scale.restype = None
    lib.scale.argtypes = [_I64P, ctypes.c_int64, _I64P]

    def scale(values: IntArray) -> IntArray:
        n = values.shape[0]
        out = np.empty(n, dtype=np.int64)
        lib.scale(np.ascontiguousarray(values, dtype=np.int64), n, out)
        return out

    return scale
'''


class TestFFIPass:
    """A4: C prototypes vs ctypes bindings vs call sites."""

    def _analyze(self, tmp_path, source):
        project = make_project(tmp_path, {"cext_mod.py": source})
        return analyze_ffi(project, cext_module="cext_mod")

    def test_clean_fixture_has_no_findings(self, tmp_path):
        assert self._analyze(tmp_path, FFI_FIXTURE) == []

    def test_signature_drift_flagged(self, tmp_path):
        # The injected divergence: the length parameter binds c_double
        # while the C prototype declares int64_t.
        drifted = FFI_FIXTURE.replace("ctypes.c_int64", "ctypes.c_double")
        findings = self._analyze(tmp_path, drifted)
        assert codes(findings) == ["A401"]
        assert "float64" in findings[0].message
        assert findings[0].symbol == "cext_mod.scale"

    def test_arity_drift_flagged(self, tmp_path):
        drifted = FFI_FIXTURE.replace("_I64P, ctypes.c_int64, _I64P", "_I64P")
        findings = self._analyze(tmp_path, drifted)
        assert "A401" in codes(findings)
        assert any("1 entries" in f.message for f in findings)

    def test_unbound_export_and_orphan_binding_flagged(self, tmp_path):
        drifted = FFI_FIXTURE.replace("lib.scale.argtypes", "lib.scan.argtypes")
        findings = self._analyze(tmp_path, drifted)
        assert codes(findings) == ["A401", "A401"]
        messages = " | ".join(f.message for f in findings)
        assert "no ctypes argtypes binding" in messages
        assert "no exported C function" in messages

    def test_missing_contiguity_flag_flagged(self, tmp_path):
        drifted = FFI_FIXTURE.replace(', flags="C_CONTIGUOUS"', "")
        findings = self._analyze(tmp_path, drifted)
        assert set(codes(findings)) == {"A401"}
        assert any("C_CONTIGUOUS" in f.message for f in findings)

    def test_unpaired_pointer_flagged(self, tmp_path):
        source = FFI_FIXTURE.replace(
            'void scale(const int64_t *values, int64_t n, int64_t *out) {\n'
            '    for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];\n'
            '}',
            'void scale(const int64_t *values, int64_t n, int64_t *out) {\n'
            '    for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];\n'
            '}\n'
            'void seed_out(int64_t *out, double alpha) {\n'
            '    out[0] = (int64_t)alpha;\n'
            '}',
        ).replace(
            "lib.scale.restype = None",
            "lib.scale.restype = None\n"
            "    lib.seed_out.restype = None\n"
            "    lib.seed_out.argtypes = [_I64P, ctypes.c_double]",
        )
        findings = self._analyze(tmp_path, source)
        assert codes(findings) == ["A402"]
        assert "'out'" in findings[0].message
        assert "no integer length parameter" in findings[0].message

    def test_data_derived_index_flagged(self, tmp_path):
        # values[j] where j was itself read out of the array: data,
        # never a bound.
        source = FFI_FIXTURE.replace(
            "out[i] = 2 * values[i];",
            "int64_t j = values[i];\n        out[i] = values[j];",
        )
        findings = self._analyze(tmp_path, source)
        assert codes(findings) == ["A402"]
        assert "'j'" in findings[0].message

    def test_bounded_counter_cycle_is_not_flagged(self, tmp_path):
        # low/mid/high step from each other (a binary search); none of
        # them reads data, so the mutually recursive group stays
        # bounded.
        source = FFI_FIXTURE.replace(
            "for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];",
            "int64_t low = 0, high = n;\n"
            "    while (low < high) {\n"
            "        int64_t mid = (low + high) / 2;\n"
            "        if (values[mid] < 0) low = mid + 1; else high = mid;\n"
            "    }\n"
            "    out[0] = low;",
        )
        assert self._analyze(tmp_path, source) == []

    def test_unproven_call_site_flagged(self, tmp_path):
        # The injected divergence: the guard is dropped, so the call
        # pushes a possibly non-contiguous view through the ndpointer.
        drifted = FFI_FIXTURE.replace(
            "np.ascontiguousarray(values, dtype=np.int64)", "values"
        )
        findings = self._analyze(tmp_path, drifted)
        assert codes(findings) == ["A403"]
        assert "not provably" in findings[0].message

    def test_wrong_dtype_call_site_flagged(self, tmp_path):
        drifted = FFI_FIXTURE.replace(
            "out = np.empty(n, dtype=np.int64)",
            "out = np.empty(n, dtype=np.float64)",
        )
        findings = self._analyze(tmp_path, drifted)
        assert codes(findings) == ["A403"]
        assert "float64" in findings[0].message

    def test_uint64_pointers_are_checked(self, tmp_path):
        # Packed cell words travel as uint64_t; the dialect knows the
        # type, so a matching uint64 ndpointer is clean and an int64
        # one (binding or call site) is flagged.
        source = (
            FFI_FIXTURE.replace("const int64_t *values", "const uint64_t *values")
            .replace(
                "_I64P = np",
                "_U64P = np.ctypeslib.ndpointer("
                'dtype=np.uint64, flags="C_CONTIGUOUS")\n_I64P = np',
            )
            .replace("[_I64P, ctypes.c_int64", "[_U64P, ctypes.c_int64")
            .replace(
                "np.ascontiguousarray(values, dtype=np.int64)",
                "np.ascontiguousarray(values, dtype=np.uint64)",
            )
        )
        assert self._analyze(tmp_path, source) == []
        drifted = source.replace("[_U64P, ctypes.c_int64", "[_I64P, ctypes.c_int64")
        findings = self._analyze(tmp_path, drifted)
        assert codes(findings) == ["A401", "A403"]
        assert "uint64_t (uint64)" in findings[0].message
        unproven = source.replace(
            "np.ascontiguousarray(values, dtype=np.uint64)",
            "np.ascontiguousarray(values, dtype=np.int64)",
        )
        findings = self._analyze(tmp_path, unproven)
        assert codes(findings) == ["A403"]
        assert "requires uint64" in findings[0].message

    def test_module_without_c_source_is_ignored(self, tmp_path):
        project = make_project(tmp_path, {"cext_mod.py": "X = 1\n"})
        assert analyze_ffi(project, cext_module="cext_mod") == []


LOOPS_FIXTURE = """
SF_GUARD_BAND = 1e-6

def scale(values, out):
    for i in range(values.shape[0]):
        out[i] = 2 * values[i]
"""

CEXT_EQ_FIXTURE = '''
_C_SOURCE = r"""
#define SF_GUARD_BAND 1e-6

void scale(const int64_t *values, int64_t n, int64_t *out) {
    for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];
}
"""
'''


class TestEquivalencePass:
    """A5: loop skeletons and constants of the C spec."""

    def _analyze(self, tmp_path, files):
        project = make_project(tmp_path, files)
        return analyze_equivalence(
            project,
            loops_module="loops_mod",
            cext_module="cext_mod",
        )

    def test_clean_fixture_has_no_findings(self, tmp_path):
        findings = self._analyze(
            tmp_path,
            {
                "loops_mod.py": LOOPS_FIXTURE,
                "cext_mod.py": CEXT_EQ_FIXTURE,
            },
        )
        assert findings == []

    def test_skeleton_divergence_flagged(self, tmp_path):
        # The injected divergence: the C side nests a second loop the
        # Python body does not have.
        diverged = CEXT_EQ_FIXTURE.replace(
            "for (int64_t i = 0; i < n; i++) out[i] = 2 * values[i];",
            "for (int64_t i = 0; i < n; i++)\n"
            "        for (int64_t k = 0; k < n; k++)\n"
            "            out[i] = 2 * values[k];",
        )
        findings = self._analyze(
            tmp_path,
            {
                "loops_mod.py": LOOPS_FIXTURE,
                "cext_mod.py": diverged,
            },
        )
        assert codes(findings) == ["A502"]
        assert "[F(F)]" in findings[0].message
        assert "[F]" in findings[0].message

    def test_braced_block_in_braceless_body_stays_nested(self):
        # A brace-less loop body whose statement holds a braced block
        # ends at the block's closing brace, not at its first ``;``.
        source = (
            "void f(const int64_t *a, int64_t *out, int64_t n) {\n"
            "    for (int64_t i = 0; i < n; i++) if (a[i] > 0) {\n"
            "        out[i] = 1;\n"
            "        for (int64_t j = 0; j < n; j++) out[j] += 1;\n"
            "    }\n"
            "}\n"
        )
        functions = cparse.parse_functions(source)
        assert cparse.loop_skeleton(functions["f"], functions) == "F(F)"

    def test_constant_mismatch_flagged(self, tmp_path):
        # The injected divergence: the C guard band is an order of
        # magnitude wider than the Python definition.
        findings = self._analyze(
            tmp_path,
            {
                "loops_mod.py": LOOPS_FIXTURE,
                "cext_mod.py": CEXT_EQ_FIXTURE.replace(
                    "#define SF_GUARD_BAND 1e-6",
                    "#define SF_GUARD_BAND 1e-5",
                ),
            },
        )
        assert codes(findings) == ["A503"]
        assert "1e-5" in findings[0].message

    def test_define_without_counterpart_flagged(self, tmp_path):
        findings = self._analyze(
            tmp_path,
            {
                "loops_mod.py": LOOPS_FIXTURE,
                "cext_mod.py": CEXT_EQ_FIXTURE.replace(
                    "#define SF_GUARD_BAND 1e-6",
                    "#define SF_GUARD_BAND 1e-6\n#define EXTRA_KNOB 3.0",
                ),
            },
        )
        assert codes(findings) == ["A503"]
        assert "EXTRA_KNOB" in findings[0].message

    def test_private_python_constant_pairs_with_bare_define(self, tmp_path):
        findings = self._analyze(
            tmp_path,
            {
                "loops_mod.py": LOOPS_FIXTURE.replace(
                    "SF_GUARD_BAND = 1e-6", "_SF_GUARD_BAND = 1e-6"
                ),
                "cext_mod.py": CEXT_EQ_FIXTURE,
            },
        )
        assert findings == []


class TestDeterminismPass:
    """A6: dispatch roots and worker-visible state."""

    def _analyze(self, project):
        return analyze_determinism(project, CallGraph(project))

    def test_unordered_worker_reduce_flagged(self, tmp_path):
        # The injected divergence: folding float results in completion
        # order.  as_completed is A601; the += over .result() is A602.
        project = make_project(
            tmp_path,
            {
                "fold.py": """
                from concurrent.futures import ProcessPoolExecutor
                from concurrent.futures import as_completed

                def task(x):
                    return x * 0.5

                def run(items):
                    total = 0.0
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(task, i) for i in items]
                        for future in as_completed(futures):
                            total += future.result()
                    return total
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A601", "A602"]
        assert "as_completed" in findings[0].message
        assert "submission order" in findings[1].message

    def test_submission_order_reduce_is_clean(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "ordered.py": """
                from concurrent.futures import ProcessPoolExecutor

                def task(x):
                    return x * 0.5

                def run(items):
                    out = []
                    done = 0
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(task, i) for i in items]
                        for item, future in zip(items, futures):
                            out.append((item, future.result()))
                            done += int(future.result())
                    return out, done
                """
            },
        )
        assert self._analyze(project) == []

    def test_sum_of_results_flagged(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "summed.py": """
                from concurrent.futures import ProcessPoolExecutor

                def task(x):
                    return x * 0.5

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        futures = [pool.submit(task, i) for i in items]
                        return sum(f.result() for f in futures)
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A602"]
        assert "sum(...)" in findings[0].message

    def test_set_iteration_outside_dispatch_path_not_flagged(self, tmp_path):
        # The same iteration in a function that neither dispatches nor
        # runs in a worker is out of scope (R003's territory, not A6's).
        project = make_project(
            tmp_path,
            {
                "plain.py": """
                def tally(values):
                    return [v for v in {1, 2, 3} if v in values]
                """
            },
        )
        assert self._analyze(project) == []

    def test_mutable_worker_state_flagged(self, tmp_path):
        # The injected divergences: a mutable default on the worker and
        # a module-level dict the parent mutates after forking.
        project = make_project(
            tmp_path,
            {
                "state.py": """
                from concurrent.futures import ProcessPoolExecutor

                _CACHE = {}

                def configure(value):
                    _CACHE["mode"] = value

                def task(x, acc=[]):
                    acc.append(x)
                    return len(acc) + len(_CACHE)

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(task, items))
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == ["A603", "A603"]
        messages = " | ".join(f.message for f in findings)
        assert "mutable default" in messages
        assert "_CACHE" in messages
        assert all(f.symbol == "state.task" for f in findings)

    def test_worker_local_mutation_is_clean(self, tmp_path):
        # A memo the worker itself maintains is per-process state with
        # no parent-side mutator: the A201/A603 boundary.
        project = make_project(
            tmp_path,
            {
                "memo.py": """
                from concurrent.futures import ProcessPoolExecutor

                _MEMO = {}

                def task(x):
                    if x not in _MEMO:
                        _MEMO[x] = x * 0.5
                    return _MEMO[x]

                def run(items):
                    with ProcessPoolExecutor() as pool:
                        return list(pool.map(task, items))
                """
            },
        )
        findings = self._analyze(project)
        assert codes(findings) == []


class TestBaseline:
    def _finding(self, line=10):
        return Finding(
            path="src/x.py",
            line=line,
            col=0,
            code="A101",
            symbol="x.f",
            message="cast from int64 to uint32 can lose values",
        )

    def test_fingerprint_survives_line_moves(self):
        assert (
            self._finding(line=10).fingerprint()
            == self._finding(line=99).fingerprint()
        )

    def test_roundtrip_keeps_comments(self, tmp_path):
        path = tmp_path / "baseline.txt"
        finding = self._finding()
        write_baseline(path, [finding], {})
        # Fresh entries carry TODO comments that the parser rejects.
        with pytest.raises(BaselineError, match="TODO"):
            parse_baseline(path)
        text = path.read_text().replace("TODO: justify", "guarded upstream")
        path.write_text(text)
        entries = parse_baseline(path)
        assert list(entries) == [finding.fingerprint()]
        fresh, stale = apply_baseline([finding], entries)
        assert fresh == [] and stale == []
        # Re-writing keeps the human comment.
        write_baseline(path, [finding], entries)
        assert "guarded upstream" in path.read_text()

    def test_uncommented_entry_rejected(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text(f"{self._finding().fingerprint()}\n")
        with pytest.raises(BaselineError, match="comment"):
            parse_baseline(path)

    def test_stale_entries_reported(self, tmp_path):
        path = tmp_path / "baseline.txt"
        gone = self._finding()
        write_baseline(path, [gone], {})
        text = path.read_text().replace("TODO: justify", "was accepted once")
        path.write_text(text)
        fresh, stale = apply_baseline([], parse_baseline(path))
        assert fresh == []
        assert [entry.fingerprint for entry in stale] == [gone.fingerprint()]


class TestCommandLine:
    def test_tree_is_clean_at_head(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.repro_analyze", "src"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_exit_one_on_findings(self, tmp_path):
        # The shapes pass scopes itself to repro.core modules, so the
        # fixture recreates that package layout under tmp_path.
        core = tmp_path / "repro" / "core"
        core.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (core / "__init__.py").write_text("")
        (core / "bad.py").write_text(
            textwrap.dedent(
                """
                import numpy as np
                from repro.types import IntArray

                def shrink(a: IntArray):
                    return a.astype(np.uint8)
                """
            )
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.repro_analyze",
                str(tmp_path),
                "--no-baseline",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "A101" in result.stdout

    def test_list_codes(self):
        result = subprocess.run(
            [sys.executable, "-m", "tools.repro_analyze", "--list-codes"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        for code in ("A101", "A201", "A301"):
            assert code in result.stdout

    def test_unparsable_file_reported_as_a000(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.repro_analyze",
                str(broken),
                "--no-baseline",
            ],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "A000" in result.stdout
