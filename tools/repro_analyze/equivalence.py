"""Pass A5: prove the C backend mirrors its executable specification.

The bit-identity story of the kernels rests on one structural claim:
the C transliteration in the cext backend mirrors the loop bodies of
:mod:`repro.core.kernels.loops` statement for statement.  No test that
merely compares outputs enforces it — outputs agree until the day an
edit lands on one side only.  This pass checks the structure itself:

``A502``
    Loop-skeleton agreement.  For every kernel defined on both sides,
    the for/while nesting tree of the C function (private static
    helpers inlined at their call sites, shared-name callees kept
    opaque) must equal the loop tree of the Python body.  The skeleton
    is deliberately coarser than a statement diff — C hoists row
    compares into helpers and conditions — but any change to *which
    loops run inside which loops* is an algorithmic divergence and is
    exactly what it catches.
``A503``
    Constant agreement.  Every numeric ``#define`` in the C source
    must equal the Python constant of the same name (modulo the
    leading-underscore privacy convention: C ``SF_TOLERANCE`` pairs
    with Python ``_SF_TOLERANCE``).  Guard bands that differ between
    backends would void the scipy-adjudication contract silently.
"""

from __future__ import annotations

import ast

from .cparse import (
    CParseError,
    loop_skeleton,
    parse_defines,
    parse_functions,
)
from .findings import Finding
from .project import FunctionInfo, ModuleInfo, Project


def analyze_equivalence(
    project: Project,
    loops_module: str = "repro.core.kernels.loops",
    cext_module: str = "repro.core.kernels.cext_backend",
    source_global: str = "_C_SOURCE",
) -> list[Finding]:
    """Run pass A5 over the kernel backend modules, where present."""
    loops_mod = project.modules.get(loops_module)
    cext_mod = project.modules.get(cext_module)
    if loops_mod is None or cext_mod is None:
        return []
    source, source_line = _find_c_source(cext_mod, source_global)
    if source is None:
        return []
    findings = _check_c_equivalence(
        cext_mod, source, source_line, loops_mod, _public_kernels(loops_mod)
    )
    return sorted(set(findings))


def _public_kernels(loops_mod: ModuleInfo) -> dict[str, FunctionInfo]:
    """Top-level functions of the loops module, private ones included.

    ``binom_sf`` is public; a private helper would still need a C
    counterpart compared under its own name, so everything top-level
    participates.
    """
    return {
        info.name: info
        for info in loops_mod.functions.values()
        if info.class_name is None
        and info.qualname == f"{loops_mod.name}.{info.name}"
    }


# -- A502: C loop skeletons match the Python bodies --------------------


def _check_c_equivalence(
    cext_mod: ModuleInfo,
    source: str,
    source_line: int,
    loops_mod: ModuleInfo,
    kernels: dict[str, FunctionInfo],
) -> list[Finding]:
    try:
        c_functions = parse_functions(source)
    except CParseError as error:
        return [
            _finding(
                cext_mod,
                source_line,
                "A502",
                cext_mod.name,
                f"C source is outside the analyzable kernel dialect: {error}",
            )
        ]
    findings: list[Finding] = []
    shared_names = frozenset(c_functions) & frozenset(kernels)
    for name in sorted(shared_names):
        c_fn = c_functions[name]
        c_skeleton = loop_skeleton(c_fn, c_functions, opaque=shared_names)
        py_skeleton = _python_skeleton(kernels[name].node)
        if c_skeleton != py_skeleton:
            findings.append(
                _finding(
                    cext_mod,
                    source_line + c_fn.line - 1,
                    "A502",
                    f"{cext_mod.name}.{name}",
                    f"C loop skeleton [{c_skeleton}] diverges from the "
                    f"Python body's [{py_skeleton}] in "
                    f"{kernels[name].qualname}",
                )
            )
    findings.extend(
        _check_constants(cext_mod, source, source_line, loops_mod)
    )
    return findings


def _python_skeleton(node: ast.AST) -> str:
    """Render a function's for/while nesting tree (see cparse)."""
    return _render(_py_nodes(getattr(node, "body", [])))


def _render(nodes: list[tuple[str, list]]) -> str:
    parts = []
    for kind, children in nodes:
        parts.append(f"{kind}({_render(children)})" if children else kind)
    return ",".join(parts)


def _py_nodes(stmts: list[ast.stmt]) -> list[tuple[str, list]]:
    nodes: list[tuple[str, list]] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            nodes.append(("F", _py_nodes(stmt.body + stmt.orelse)))
        elif isinstance(stmt, ast.While):
            nodes.append(("W", _py_nodes(stmt.body + stmt.orelse)))
        elif isinstance(stmt, (ast.If,)):
            nodes.extend(_py_nodes(stmt.body))
            nodes.extend(_py_nodes(stmt.orelse))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            nodes.extend(_py_nodes(stmt.body))
        elif isinstance(stmt, ast.Try):
            for region in (stmt.body, stmt.orelse, stmt.finalbody):
                nodes.extend(_py_nodes(region))
            for handler in stmt.handlers:
                nodes.extend(_py_nodes(handler.body))
        # Nested defs, expressions and assignments contribute no loops:
        # the kernel dialect has no comprehensions or generator bodies.
    return nodes


# -- A503: #define constants equal the Python definitions --------------


def _check_constants(
    cext_mod: ModuleInfo,
    source: str,
    source_line: int,
    loops_mod: ModuleInfo,
) -> list[Finding]:
    py_constants = _module_constants(loops_mod)
    findings: list[Finding] = []
    for name, (text, line) in sorted(parse_defines(source).items()):
        try:
            c_value = float(text)
        except ValueError:
            continue  # non-numeric define: outside this check's scope
        where = source_line + line - 1
        counterpart = name if name in py_constants else f"_{name}"
        if counterpart not in py_constants:
            findings.append(
                _finding(
                    cext_mod,
                    where,
                    "A503",
                    f"{cext_mod.name}.{name}",
                    f"C #define {name} has no counterpart constant in "
                    f"{loops_mod.name} (looked for {name} and _{name})",
                )
            )
            continue
        py_value = py_constants[counterpart]
        if float(py_value) != c_value:
            findings.append(
                _finding(
                    cext_mod,
                    where,
                    "A503",
                    f"{cext_mod.name}.{name}",
                    f"C #define {name} = {text} differs from "
                    f"{loops_mod.name}.{counterpart} = {py_value!r}",
                )
            )
    return findings


def _module_constants(module: ModuleInfo) -> dict[str, float]:
    constants: dict[str, float] = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, (int, float))
            and not isinstance(node.value.value, bool)
        ):
            constants[node.targets[0].id] = float(node.value.value)
    return constants


# -- helpers -----------------------------------------------------------


def _find_c_source(
    module: ModuleInfo, source_global: str
) -> tuple[str | None, int]:
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == source_global
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            return node.value.value, node.value.lineno
    return None, 1


def _finding(
    module: ModuleInfo, line: int, code: str, symbol: str, message: str
) -> Finding:
    return Finding(
        path=str(module.path),
        line=line,
        col=0,
        code=code,
        symbol=symbol,
        message=message,
    )
