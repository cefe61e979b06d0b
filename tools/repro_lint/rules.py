"""AST rule implementations for repro-lint.

One :class:`_RuleVisitor` pass per file collects findings; suppression
comments are applied afterwards so every rule stays a pure function of
the tree.  Rules are scoped by path context (tests are exempt from
R001; R003/R005 only bind inside the deterministic core packages), and
every finding carries a stable code so suppressions survive refactors.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

RULES: dict[str, str] = {
    "R001": "no unseeded randomness outside tests",
    "R002": "no ==/!= comparison against float literals outside tests",
    "R003": "no wall clocks or raw set iteration in deterministic modules",
    "R004": "public core/baselines functions must be fully annotated",
    "R005": "core array allocations must pin an explicit dtype",
    "R006": "no mutable default arguments",
    "R007": "environment access outside repro.env",
    "R008": "direct timing calls outside repro.obs and benchmarks",
    "R009": "no bare or silently-swallowed except outside the job fabric",
    "R011": "no direct ctypes imports outside the cext backend module",
    "R012": "no direct model-file I/O outside repro.serve.store",
    "R013": "no process-pool construction outside repro.fabric",
    "R000": "file could not be parsed",
}

#: Process-pool constructors reserved to the fabric (R013).  Every
#: worker-process fan-out must go through repro.fabric.run_supervised —
#: it owns leases, retries, deadlines and fault attribution; a raw pool
#: elsewhere would be an unsupervised execution path whose worker
#: deaths take down in-flight siblings.  repro.core.kernels keeps its
#: exemption for backend-internal parallelism.
_POOL_CONSTRUCTORS = frozenset(
    {
        "ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "futures.ProcessPoolExecutor",
        "multiprocessing.Pool",
        "mp.Pool",
    }
)

#: Environment-touching callables/objects funnelled through repro.env (R007).
_ENV_ACCESSORS = frozenset(
    {
        "os.environ",
        "os.getenv",
        "os.putenv",
        "os.unsetenv",
    }
)

#: np.random constructors that are fine *when given a seed argument*.
_SEEDABLE_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)

#: Wall-clock callables forbidden in deterministic modules (R003).
_WALL_CLOCKS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Timing primitives funnelled through repro.obs (R008): durations go
#: through ``repro.obs.perf_clock`` and peak RSS through
#: ``repro.obs.peak_rss_kb`` so timing policy has one home.  Only the
#: observability layer itself and the benchmark harness may call these.
_TIMING_CALLS = frozenset(
    {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "resource.getrusage",
    }
)

#: numpy allocators that must pin a dtype in core (R005), mapped to the
#: 1-based position their ``dtype`` parameter occupies when positional.
_PINNED_ALLOCATORS = {
    "zeros": 2,
    "ones": 2,
    "empty": 2,
    "full": 3,
    "arange": 4,
}

#: File-I/O callables forbidden in serving modules outside the store
#: (R012): every model byte must pass through the validated, schema-
#: versioned read/write path so no serving code can grow an unchecked
#: side-channel format.
_SERVE_IO_CALLS = frozenset(
    {
        "open",
        "np.save",
        "np.savez",
        "np.savez_compressed",
        "np.load",
        "np.fromfile",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
        "numpy.load",
        "numpy.fromfile",
    }
)

#: The mmap primitive is the model store's exclusive tool (R012
#: package-wide): a second mapping site would create level arrays whose
#: lifetime and read-only guarantees nothing audits.
_MEMMAP_CALLS = frozenset({"np.memmap", "numpy.memmap"})

_SUPPRESS_LINE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")
_SUPPRESS_FILE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, pinned to a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """GCC-style ``path:line:col: CODE message`` output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class PathContext:
    """Which rule scopes a file path falls into."""

    is_test: bool
    in_core: bool
    in_experiments: bool
    in_baselines: bool
    in_package: bool
    is_env_module: bool
    in_obs: bool
    in_benchmarks: bool
    in_fabric: bool
    in_kernels: bool
    is_cext_module: bool
    in_serve: bool
    is_model_store_module: bool

    @staticmethod
    def classify(path: str) -> "PathContext":
        normalized = "/" + str(path).replace(os.sep, "/").lstrip("/")
        parts = normalized.split("/")
        name = parts[-1]
        is_test = (
            "tests" in parts[:-1]
            or name.startswith("test_")
            or name == "conftest.py"
        )
        return PathContext(
            is_test=is_test,
            in_core="/repro/core/" in normalized,
            in_experiments="/repro/experiments/" in normalized,
            in_baselines="/repro/baselines/" in normalized,
            in_package="/repro/" in normalized,
            is_env_module=normalized.endswith("/repro/env.py"),
            in_obs="/repro/obs/" in normalized,
            in_benchmarks="benchmarks" in parts[:-1],
            in_fabric="/repro/fabric/" in normalized,
            in_kernels="/repro/core/kernels/" in normalized,
            is_cext_module=normalized.endswith(
                "/repro/core/kernels/cext_backend.py"
            ),
            in_serve="/repro/serve/" in normalized,
            is_model_store_module=normalized.endswith(
                "/repro/serve/store.py"
            ),
        )


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_set_expression(node: ast.expr) -> bool:
    """Set literal, set comprehension, or ``set(...)``/``frozenset(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


def _is_mutable_literal(node: ast.expr) -> bool:
    """Expression that evaluates to a fresh mutable container."""
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        dotted = _dotted_name(node.func)
        return dotted in {
            "list",
            "dict",
            "set",
            "bytearray",
            "collections.defaultdict",
            "collections.OrderedDict",
            "collections.Counter",
            "collections.deque",
        }
    return False


class _RuleVisitor(ast.NodeVisitor):
    """Single-pass collector for every repro-lint rule."""

    def __init__(self, path: str, context: PathContext):
        self.path = path
        self.context = context
        self.findings: list[Finding] = []
        self._function_depth = 0

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    # -- R001 / R003 / R005: calls ------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            if not self.context.is_test:
                self._check_randomness(node, dotted)
            if self.context.in_core or self.context.in_experiments:
                self._check_wall_clock(node, dotted)
                self._check_set_materialisation(node, dotted)
            if self.context.in_core:
                self._check_dtype_pin(node, dotted)
            if self._timing_rule_binds:
                self._check_timing_call(node, dotted)
            if self._serve_io_rule_binds:
                self._check_serve_io(node, dotted)
            if self._pool_rule_binds:
                self._check_pool_construction(node, dotted)
        self.generic_visit(node)

    # -- R013: process pools stay inside the job fabric ---------------
    # Every worker-process fan-out goes through
    # repro.fabric.run_supervised, which owns leases, retries, deadlines
    # and fault attribution.  A raw pool elsewhere is an unsupervised
    # execution path: one worker death breaks every in-flight future at
    # once and nothing journals what was lost.  repro.core.kernels is
    # exempt (backend-internal parallelism), as are tests.

    @property
    def _pool_rule_binds(self) -> bool:
        return (
            self.context.in_package
            and not self.context.is_test
            and not self.context.in_fabric
            and not self.context.in_kernels
        )

    def _check_pool_construction(self, node: ast.Call, dotted: str) -> None:
        if dotted in _POOL_CONSTRUCTORS:
            self._add(
                node,
                "R013",
                f"direct {dotted} construction outside repro.fabric "
                "(dispatch worker processes through "
                "repro.fabric.run_supervised so every fan-out gets "
                "leases, retries, deadlines and fault attribution)",
            )

    def _check_randomness(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        fn = parts[-1]
        has_args = bool(node.args) or bool(node.keywords)
        if len(parts) >= 3 and parts[-3] in {"np", "numpy"} and parts[-2] == "random":
            if fn in _SEEDABLE_CONSTRUCTORS:
                if not has_args:
                    self._add(
                        node,
                        "R001",
                        f"unseeded randomness: {dotted}() without an explicit "
                        "seed argument",
                    )
            else:
                self._add(
                    node,
                    "R001",
                    f"unseeded randomness: legacy module-level call {dotted} "
                    "(use a seeded np.random.default_rng Generator)",
                )
        elif len(parts) == 2 and parts[0] == "random":
            self._add(
                node,
                "R001",
                f"unseeded randomness: stdlib {dotted} call (use a seeded "
                "np.random.default_rng Generator)",
            )
        elif dotted == "default_rng" and not has_args:
            self._add(
                node,
                "R001",
                "unseeded randomness: default_rng() without an explicit seed "
                "argument",
            )

    def _check_wall_clock(self, node: ast.Call, dotted: str) -> None:
        if dotted in _WALL_CLOCKS:
            self._add(
                node,
                "R003",
                f"wall-clock call {dotted} in a deterministic module "
                "(inject timestamps or use repro.obs.perf_clock for "
                "durations kept out of results)",
            )

    # -- R008: timing calls outside the observability layer -----------

    @property
    def _timing_rule_binds(self) -> bool:
        return not self.context.in_obs and not self.context.in_benchmarks

    def _check_timing_call(self, node: ast.Call, dotted: str) -> None:
        if dotted in _TIMING_CALLS:
            self._add(
                node,
                "R008",
                f"direct timing call {dotted} outside repro.obs (use "
                "repro.obs.perf_clock / repro.obs.peak_rss_kb so timing "
                "stays behind the one observability subsystem)",
            )

    # -- R012: model-file I/O stays inside repro.serve.store ----------
    # The model format's guarantees — schema versioning, strict header
    # validation, 64-byte alignment, read-only mmap lifetime — hold only
    # while every byte passes through the store's read/write pair.  A
    # direct open/np.save in a serving module would grow an unvalidated
    # side-channel format, and an np.memmap anywhere else in the package
    # would map arrays whose lifetime nothing audits.

    @property
    def _serve_io_rule_binds(self) -> bool:
        return (
            self.context.in_package
            and not self.context.is_test
            and not self.context.is_model_store_module
        )

    def _check_serve_io(self, node: ast.Call, dotted: str) -> None:
        if dotted in _MEMMAP_CALLS:
            self._add(
                node,
                "R012",
                f"direct {dotted} call outside repro.serve.store (model "
                "arrays are mapped only by the store, which owns the "
                "read-only lifetime rules; load models via "
                "repro.serve.load_model)",
            )
        elif self.context.in_serve and dotted in _SERVE_IO_CALLS:
            self._add(
                node,
                "R012",
                f"direct file I/O {dotted} in a serving module (model "
                "bytes go through repro.serve.store.write_model/"
                "read_model so every file is schema-checked)",
            )

    def _check_set_materialisation(self, node: ast.Call, dotted: str) -> None:
        if dotted in {"list", "tuple", "enumerate", "iter"} and node.args:
            if _is_set_expression(node.args[0]):
                self._add(
                    node,
                    "R003",
                    f"{dotted}() over a set expression has arbitrary order; "
                    "wrap the set in sorted(...) before it feeds an ordered "
                    "reduction",
                )

    def _check_dtype_pin(self, node: ast.Call, dotted: str) -> None:
        parts = dotted.split(".")
        if len(parts) != 2 or parts[0] not in {"np", "numpy"}:
            return
        dtype_position = _PINNED_ALLOCATORS.get(parts[1])
        if dtype_position is None:
            return
        has_dtype = any(kw.arg == "dtype" for kw in node.keywords) or (
            len(node.args) >= dtype_position
        )
        if not has_dtype:
            self._add(
                node,
                "R005",
                f"{dotted} without an explicit dtype= in core (array "
                "contracts require pinned dtypes)",
            )

    # -- R007: environment access outside repro.env -------------------

    @property
    def _env_rule_binds(self) -> bool:
        return (
            self.context.in_package
            and not self.context.is_env_module
            and not self.context.is_test
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._env_rule_binds and _dotted_name(node) in _ENV_ACCESSORS:
            self._add(
                node,
                "R007",
                f"environment access {_dotted_name(node)} outside repro.env "
                "(read REPRO_* knobs through the repro.env helpers)",
            )
        self.generic_visit(node)

    # -- R011: ctypes stays inside the cext backend module ------------
    # The FFI boundary is a correctness liability: calls through ctypes
    # bypass every Python-side type check, so repro_analyze's A4 pass
    # audits exactly one module's bindings.  A ctypes import anywhere
    # else would open an unaudited boundary.

    @property
    def _ctypes_rule_binds(self) -> bool:
        return (
            self.context.in_package
            and not self.context.is_cext_module
            and not self.context.is_test
        )

    def visit_Import(self, node: ast.Import) -> None:
        if self._ctypes_rule_binds:
            for alias in node.names:
                if alias.name == "ctypes" or alias.name.startswith("ctypes."):
                    self._add(
                        node,
                        "R011",
                        f"direct import of {alias.name} outside "
                        "repro.core.kernels.cext_backend (the FFI boundary "
                        "is audited there by repro_analyze A4; route foreign "
                        "calls through the kernels backend layer)",
                    )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._ctypes_rule_binds and node.module is not None:
            if node.module == "ctypes" or node.module.startswith("ctypes."):
                self._add(
                    node,
                    "R011",
                    f"direct import from {node.module} outside "
                    "repro.core.kernels.cext_backend (the FFI boundary "
                    "is audited there by repro_analyze A4; route foreign "
                    "calls through the kernels backend layer)",
                )
        if self._env_rule_binds and node.module == "os":
            imported = {alias.name for alias in node.names}
            leaked = sorted(
                imported & {"environ", "getenv", "putenv", "unsetenv"}
            )
            if leaked:
                self._add(
                    node,
                    "R007",
                    f"importing {', '.join(leaked)} from os outside "
                    "repro.env (read REPRO_* knobs through the repro.env "
                    "helpers)",
                )
        if self._timing_rule_binds and node.module in {"time", "resource"}:
            timers = sorted(
                alias.name
                for alias in node.names
                if f"{node.module}.{alias.name}" in _TIMING_CALLS
            )
            if timers:
                self._add(
                    node,
                    "R008",
                    f"importing {', '.join(timers)} from {node.module} "
                    "outside repro.obs (use repro.obs.perf_clock / "
                    "repro.obs.peak_rss_kb so timing stays behind the one "
                    "observability subsystem)",
                )
        self.generic_visit(node)

    # -- R009: bare / silently-swallowed except -----------------------
    # Package code must not turn failures into silence: blanket
    # exception handling is the fabric supervisor's job, where every
    # caught failure becomes a structured, journaled outcome.  Tests may
    # swallow (pytest.raises idioms); repro.fabric is the sanctioned
    # home for broad handlers.

    @property
    def _except_rule_binds(self) -> bool:
        return (
            self.context.in_package
            and not self.context.is_test
            and not self.context.in_fabric
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._except_rule_binds:
            if node.type is None:
                self._add(
                    node,
                    "R009",
                    "bare except: swallows KeyboardInterrupt/SystemExit too "
                    "(name the exception types; blanket failure handling "
                    "belongs in repro.fabric)",
                )
            if _swallows_silently(node.body):
                self._add(
                    node,
                    "R009",
                    "exception silently swallowed (handle it, record it, or "
                    "re-raise; blanket failure handling belongs in "
                    "repro.fabric)",
                )
        self.generic_visit(node)

    # -- R002: float equality -----------------------------------------
    # Test files are exempt: the equivalence suite *asserts* exact float
    # equality on purpose (bit-identical reproduction is the claim).

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        if not self.context.is_test and any(
            isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
        ):
            if any(
                isinstance(operand, ast.Constant)
                and isinstance(operand.value, float)
                for operand in operands
            ):
                self._add(
                    node,
                    "R002",
                    "equality comparison against a float literal (use "
                    "np.isclose/math.isclose or an integer comparison)",
                )
        self.generic_visit(node)

    # -- R003: raw set iteration --------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            self._check_set_iteration(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_set_iteration(self, iter_node: ast.expr) -> None:
        if self.context.in_core or self.context.in_experiments:
            if _is_set_expression(iter_node):
                self._add(
                    iter_node,
                    "R003",
                    "iterating a set expression has arbitrary order; wrap it "
                    "in sorted(...) before it feeds an ordered reduction",
                )

    # -- R004 / R006: function definitions ----------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        self._check_mutable_defaults(node)
        if (
            (self.context.in_core or self.context.in_baselines)
            and not self.context.is_test
            and self._function_depth == 0
            and not node.name.startswith("_")
        ):
            self._check_annotations(node)
        self._function_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._function_depth -= 1

    def _check_mutable_defaults(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        defaults: list[ast.expr | None] = [
            *node.args.defaults,
            *node.args.kw_defaults,
        ]
        for default in defaults:
            if default is not None and _is_mutable_literal(default):
                self._add(
                    default,
                    "R006",
                    f"mutable default argument in {node.name}() (use None "
                    "and allocate inside the body)",
                )

    def _check_annotations(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        parameters = [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]
        if parameters and parameters[0].arg in {"self", "cls"}:
            parameters = parameters[1:]
        missing = [p.arg for p in parameters if p.annotation is None]
        if missing:
            self._add(
                node,
                "R004",
                f"public function {node.name}() is missing parameter "
                f"annotations: {', '.join(missing)}",
            )
        if node.returns is None:
            self._add(
                node,
                "R004",
                f"public function {node.name}() is missing a return "
                "annotation",
            )


def _swallows_silently(body: list[ast.stmt]) -> bool:
    """Handler body that only ``pass``es / ``...``s (drops the error)."""
    return all(
        isinstance(stmt, ast.Pass)
        or (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        )
        for stmt in body
    )


def _suppressions(source: str) -> tuple[dict[int, set[str]], set[str]]:
    """Per-line and per-file suppression sets parsed from comments."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for line_number, text in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in text:
            continue
        file_match = _SUPPRESS_FILE.search(text)
        if file_match:
            per_file.update(_parse_codes(file_match.group(1)))
            continue
        line_match = _SUPPRESS_LINE.search(text)
        if line_match:
            per_line.setdefault(line_number, set()).update(
                _parse_codes(line_match.group(1))
            )
    return per_line, per_file


def _parse_codes(raw: str) -> set[str]:
    codes = {token.strip().upper() for token in raw.split(",") if token.strip()}
    return {"ALL"} if "ALL" in codes else codes


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one Python source text under its path's rule context."""
    context = PathContext.classify(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Finding(
                path=path,
                line=error.lineno or 1,
                col=(error.offset or 0) + 1,
                code="R000",
                message=f"syntax error: {error.msg}",
            )
        ]
    visitor = _RuleVisitor(path, context)
    visitor.visit(tree)
    per_line, per_file = _suppressions(source)
    kept = []
    for finding in visitor.findings:
        disabled = per_file | per_line.get(finding.line, set())
        if "ALL" in disabled or finding.code in disabled:
            continue
        kept.append(finding)
    return sorted(kept)


def lint_file(path: str | Path) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """All ``*.py`` files under the given files/directories, sorted."""
    for entry in paths:
        root = Path(entry)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        if not root.exists():
            raise FileNotFoundError(f"no such file or directory: {root}")
        for candidate in sorted(root.rglob("*.py")):
            parts = candidate.parts
            if any(p == "__pycache__" or p.startswith(".") for p in parts):
                continue
            yield candidate


def lint_paths(paths: Iterable[str | Path]) -> list[Finding]:
    """Lint every Python file under the given paths."""
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path))
    return sorted(findings)
