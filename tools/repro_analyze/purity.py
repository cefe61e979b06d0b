"""Pass A2: purity proofs for functions dispatched to worker processes.

Entry points are found syntactically: every ``pool.submit(f, …)`` /
``pool.map(f, …)`` call in a module that imports
``ProcessPoolExecutor`` roots the proof at ``f``, and so does every
``run_supervised(f, …)`` call — the fabric supervisor forwards its
worker function to per-slot process pools, so a function dispatched
through it reaches workers exactly like a raw ``submit``.  From the
roots the pass walks the conservative closure of the shared call
graph — call edges, referenced callbacks, and *all* methods of every
class that is instantiated or referenced along the way (an instance
that escapes into a worker may have any method invoked there).

Inside that closure, three behaviours break the determinism guarantee
``REPRO_JOBS`` relies on (a parallel run must reproduce the serial
run bit-for-bit):

``A201``
    Writing module-level state: a ``global`` declaration that is
    assigned, or a store/mutation (``X[k] = …``, ``X.append(…)``)
    whose base is a module-level name.  Workers each mutate their own
    copy — the parent never sees it, and fork inheritance makes the
    result start-method dependent.
``A202``
    Ambient randomness: any ``np.random.*`` / stdlib ``random.*``
    draw.  Exempt: ``default_rng(seed)`` / ``Random(seed)`` *with* an
    argument — seeding from passed-in state is the sanctioned pattern.
``A203``
    Ambient reads: wall clocks (``time.time``, ``datetime.now`` …),
    environment variables, ``uuid``/hostname.  ``time.perf_counter``
    and ``time.process_time`` stay allowed — duration measurement is
    part of the protocol and is reported as such.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .callgraph import CallGraph
from .findings import Finding
from .project import FunctionInfo, ModuleInfo, Project, dotted_name

_EXECUTOR_IMPORTS = frozenset(
    {
        "concurrent.futures",
        "concurrent.futures.ProcessPoolExecutor",
        "concurrent.futures.process.ProcessPoolExecutor",
        "multiprocessing",
        "multiprocessing.Pool",
        "multiprocessing.pool.Pool",
    }
)

_DISPATCH_METHODS = frozenset({"submit", "map", "apply_async", "starmap"})

#: Project-level dispatchers whose first argument reaches worker
#: processes (matched by terminal name, so both ``run_supervised(f, …)``
#: and ``supervisor.run_supervised(f, …)`` root).  Unlike pool methods
#: these need no executor import in the *calling* module — the pools
#: live behind the dispatcher.
_SUPERVISED_DISPATCHERS = frozenset({"run_supervised"})

#: Mutating methods on module-level containers.
_MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "add",
        "discard",
        "update",
        "setdefault",
        "popitem",
        "sort",
        "reverse",
        "fill",
    }
)

#: Ambient reads that make a worker's output depend on when/where it ran.
_AMBIENT_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
        "os.environ",
        "os.getenv",
        "os.getpid",
        "os.urandom",
        "os.cpu_count",
        "uuid.uuid1",
        "uuid.uuid4",
        "socket.gethostname",
        "platform.node",
    }
)


@dataclass(frozen=True)
class ParallelEntry:
    """One function handed to a process pool, with its dispatch site."""

    qualname: str
    dispatch_module: str
    line: int


def find_parallel_entries(project: Project) -> list[ParallelEntry]:
    """Every project function dispatched via a process pool."""
    entries: list[ParallelEntry] = []
    for module in project.modules.values():
        pool_dispatch_possible = _imports_executor(module)
        for node in ast.walk(module.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            if not (
                _is_pool_dispatch(node, pool_dispatch_possible)
                or _is_supervised_dispatch(node)
            ):
                continue
            target = dotted_name(node.args[0])
            if target is None:
                continue
            function = project.resolve_function(module, target)
            if function is not None:
                entries.append(
                    ParallelEntry(
                        qualname=function.qualname,
                        dispatch_module=module.name,
                        line=node.lineno,
                    )
                )
    return entries


def _is_pool_dispatch(node: ast.Call, imports_executor: bool) -> bool:
    return (
        imports_executor
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DISPATCH_METHODS
    )


def _is_supervised_dispatch(node: ast.Call) -> bool:
    callee = dotted_name(node.func)
    return (
        callee is not None
        and callee.split(".")[-1] in _SUPERVISED_DISPATCHERS
    )


def _imports_executor(module: ModuleInfo) -> bool:
    return any(
        target in _EXECUTOR_IMPORTS for target in module.imports.values()
    )


def analyze_purity(project: Project, graph: CallGraph) -> list[Finding]:
    """Run pass A2: prove every parallel worker closure pure."""
    entries = find_parallel_entries(project)
    if not entries:
        return []
    roots = sorted({entry.qualname for entry in entries})
    reachable = graph.reachable(roots)
    findings: list[Finding] = []
    for qualname in sorted(reachable):
        info = project.functions.get(qualname)
        if info is None:
            continue
        findings.extend(_check_function(project, info))
    return sorted(set(findings))


def _check_function(project: Project, info: FunctionInfo) -> list[Finding]:
    checker = _PurityChecker(project, info)
    for stmt in info.node.body:
        checker.visit(stmt)
    return checker.findings


class _PurityChecker(ast.NodeVisitor):
    def __init__(self, project: Project, info: FunctionInfo):
        self.project = project
        self.info = info
        self.module = info.module
        self.findings: list[Finding] = []
        self.declared_global: set[str] = set()
        self.local_names = _local_names(info)

    # Nested defs run in the same worker; lambdas likewise — both are
    # visited inline (their locals are over-approximated by ours, which
    # can only suppress findings about *their* locals, not invent any).
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)
        self._report(
            "A201",
            node,
            f"declares global {', '.join(node.names)} inside a parallel "
            f"worker closure; module state written in a worker process "
            f"never reaches the parent",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_store(target)
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_store(node.target)
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._check_store(node.target)
        if node.value is not None:
            self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        self._check_mutator_call(node)
        self._check_ambient_call(node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        canonical = self._canonical(dotted_name(node))
        if canonical in _AMBIENT_READS and isinstance(node.ctx, ast.Load):
            self._report(
                "A203",
                node,
                f"reads ambient state via {canonical} inside a parallel "
                f"worker closure",
            )
            return
        self.generic_visit(node)

    # -- stores --------------------------------------------------------

    def _check_store(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_store(element)
            return
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self._report(
                    "A201",
                    target,
                    f"writes module-level name {target.id!r} inside a "
                    f"parallel worker closure",
                )
            return
        root = _root_name(target)
        if root is None or root in {"self", "cls"}:
            return
        if self._is_module_global(root):
            self._report(
                "A201",
                target,
                f"mutates module-level object {root!r} inside a parallel "
                f"worker closure",
            )

    def _check_mutator_call(self, node: ast.Call) -> None:
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _MUTATORS
        ):
            return
        root = _root_name(node.func.value)
        if root is None or root in {"self", "cls"}:
            return
        if self._is_module_global(root):
            self._report(
                "A201",
                node,
                f"calls {root}.{node.func.attr}(...) on a module-level "
                f"object inside a parallel worker closure",
            )

    def _is_module_global(self, name: str) -> bool:
        if name in self.local_names:
            return False
        if name in self.module.module_globals:
            return True
        target = self.module.imports.get(name)
        if target is None:
            return False
        # A bare ``import numpy as np`` binds a *module*; calling
        # ``np.append(...)`` is a function call, not a mutation.  Only
        # ``from mod import OBJECT`` bindings name mutable state.
        return "." in target and target not in self.project.modules

    # -- ambient calls -------------------------------------------------

    def _check_ambient_call(self, node: ast.Call) -> None:
        canonical = self._canonical(dotted_name(node.func))
        if canonical is None:
            return
        if canonical.startswith(("numpy.random.", "random.")):
            tail = canonical.rsplit(".", 1)[-1]
            seeded_factory = tail in {"default_rng", "Random", "RandomState"}
            if seeded_factory and (node.args or node.keywords):
                return
            self._report(
                "A202",
                node,
                f"draws ambient randomness via {canonical} inside a "
                f"parallel worker closure; thread a seeded Generator "
                f"through the arguments instead",
            )
            return
        if canonical.startswith("secrets."):
            self._report(
                "A202",
                node,
                f"draws ambient randomness via {canonical} inside a "
                f"parallel worker closure",
            )
            return
        if canonical in _AMBIENT_READS:
            self._report(
                "A203",
                node,
                f"reads ambient state via {canonical} inside a parallel "
                f"worker closure",
            )

    def _canonical(self, dotted: str | None) -> str | None:
        """Resolve the head through the import table (``np`` → ``numpy``)."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.module.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                path=str(self.module.path),
                line=getattr(node, "lineno", self.info.node.lineno),
                col=getattr(node, "col_offset", 0),
                code=code,
                symbol=self.info.qualname,
                message=message,
            )
        )


def _root_name(node: ast.expr) -> str | None:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _local_names(info: FunctionInfo) -> set[str]:
    """Names bound inside the function (params, assignments, loops…)."""
    names = {arg.arg for arg in info.parameters()}
    names.update({"self", "cls"})
    for node in ast.walk(info.node):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not info.node:
                names.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.comprehension):
            for name_node in ast.walk(node.target):
                if isinstance(name_node, ast.Name):
                    names.add(name_node.id)
    return names
