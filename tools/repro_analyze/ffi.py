"""Pass A4: the FFI contract between the C kernels and their bindings.

The cext backend is the one place where Python's type discipline ends:
ctypes will happily push a float64 buffer through an ``int64_t *``
parameter, and C will happily index past the end of it.  This pass
closes that gap statically, from three sides:

``A401``
    Signature agreement.  Every exported (non-static) function in
    ``_C_SOURCE`` must carry a ctypes binding whose ``argtypes`` /
    ``restype`` match the C prototype position for position — pointer
    vs scalar, base dtype, and the ``C_CONTIGUOUS`` requirement on
    every ``ndpointer``.  Bindings without a C definition and exported
    functions without a binding are the same defect seen from the
    other side.
``A402``
    Pointer bounds.  A pointer parameter is only usable when the
    signature also carries integer *length* parameters and every index
    expression into the pointer is derivable from them: scalar
    parameters are bounded by the caller's contract, loop counters
    stepped from bounded values stay bounded, and values read out of
    an array are data, never bounds (see
    :func:`cparse.unbounded_pointer_indices`).
``A403``
    Call-site proof.  Every ``lib.<fn>(…)`` call in the binding module
    must pass, for each ``ndpointer`` position, an argument that is
    *provably* C-contiguous with the declared dtype — a fresh
    ``np.empty``/``np.zeros`` allocation or an
    ``np.ascontiguousarray(…, dtype=…)`` wrapper, with dtypes resolved
    through the A1 annotation lattice (``IntArray`` → int64 …).
    "Probably fine" is exactly what this code cannot be.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .cparse import (
    C_INTEGER_TYPES,
    C_SCALAR_DTYPES,
    CFunction,
    CParseError,
    parse_functions,
    unbounded_pointer_indices,
)
from .findings import Finding
from .lattice import canonical_dtype, value_from_annotation
from .project import FunctionInfo, ModuleInfo, Project, dotted_name

#: ctypes scalar constructors → numpy dtype names.
_CTYPES_SCALARS: dict[str, str] = {
    "c_int64": "int64",
    "c_longlong": "int64",
    "c_uint64": "uint64",
    "c_ulonglong": "uint64",
    "c_uint32": "uint32",
    "c_int32": "int32",
    "c_int": "int32",
    "c_uint8": "uint8",
    "c_ubyte": "uint8",
    "c_double": "float64",
    "c_float": "float32",
    "c_bool": "bool",
}

#: numpy allocators that return fresh C-contiguous arrays.
_FRESH_ALLOCATORS = frozenset(
    {"empty", "zeros", "ones", "full", "arange", "ascontiguousarray"}
)


@dataclass(frozen=True)
class _ArgSpec:
    """One ctypes argtype: pointer-with-dtype or scalar-with-dtype."""

    kind: str  # "ptr" | "scalar" | "unknown"
    dtype: str | None = None
    contiguous: bool = False


@dataclass
class _Binding:
    """The ctypes binding statements seen for one function name."""

    name: str
    argtypes: list[_ArgSpec] | None = None
    restype: _ArgSpec | None = None  # kind "void" encoded as scalar/None
    restype_is_void: bool = False
    line: int = 1
    call_sites: list[tuple[ast.Call, FunctionInfo]] = field(
        default_factory=list
    )


def analyze_ffi(
    project: Project,
    cext_module: str = "repro.core.kernels.cext_backend",
    source_global: str = "_C_SOURCE",
) -> list[Finding]:
    """Run pass A4 over the ctypes binding module, if present."""
    module = project.modules.get(cext_module)
    if module is None:
        return []
    source, source_line = _find_c_source(module, source_global)
    if source is None:
        return []

    findings: list[Finding] = []
    try:
        functions = parse_functions(source)
    except CParseError as error:
        return [
            _finding(
                module,
                source_line,
                "A401",
                source_global,
                f"C source is outside the analyzable kernel dialect: {error}",
            )
        ]

    pointer_table = _ndpointer_table(project, module)
    bindings = _collect_bindings(project, module, pointer_table)
    exported = {
        name: fn for name, fn in functions.items() if not fn.is_static
    }

    findings.extend(
        _check_signatures(module, source_line, exported, bindings)
    )
    for fn in functions.values():
        findings.extend(_check_pointer_bounds(module, source_line, fn))
    for binding in bindings.values():
        if binding.argtypes is None:
            continue  # A401 already reports the missing argtypes
        for call, info in binding.call_sites:
            findings.extend(
                _check_call_site(project, module, info, call, binding)
            )
    return sorted(set(findings))


# -- source / binding discovery ----------------------------------------


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


def _ndpointer_table(
    project: Project, module: ModuleInfo
) -> dict[str, _ArgSpec]:
    """Module-level ``X = np.ctypeslib.ndpointer(…)`` shorthands."""
    table: dict[str, _ArgSpec] = {}
    for node in module.tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            continue
        spec = _eval_ndpointer(module, node.value)
        if spec is not None:
            table[node.targets[0].id] = spec
    return table


def _eval_ndpointer(module: ModuleInfo, node: ast.expr) -> _ArgSpec | None:
    if not isinstance(node, ast.Call):
        return None
    callee = _canonical(module, dotted_name(node.func))
    if callee is None or not callee.endswith("ctypeslib.ndpointer"):
        return None
    dtype: str | None = None
    contiguous = False
    for keyword in node.keywords:
        if keyword.arg == "dtype":
            dtype = _dtype_of_spec(keyword.value)
        elif keyword.arg == "flags":
            if isinstance(keyword.value, ast.Constant) and isinstance(
                keyword.value.value, str
            ):
                contiguous = "C_CONTIGUOUS" in keyword.value.value
    return _ArgSpec(kind="ptr", dtype=dtype, contiguous=contiguous)


def _dtype_of_spec(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return canonical_dtype(node.value)
    dotted = dotted_name(node)
    if dotted is not None:
        return canonical_dtype(dotted.rsplit(".", 1)[-1])
    return None


def _argtype_spec(
    module: ModuleInfo, node: ast.expr, pointer_table: dict[str, _ArgSpec]
) -> _ArgSpec:
    if isinstance(node, ast.Name) and node.id in pointer_table:
        return pointer_table[node.id]
    inline = _eval_ndpointer(module, node)
    if inline is not None:
        return inline
    dotted = _canonical(module, dotted_name(node))
    if dotted is not None:
        tail = dotted.rsplit(".", 1)[-1]
        if tail in _CTYPES_SCALARS:
            return _ArgSpec(kind="scalar", dtype=_CTYPES_SCALARS[tail])
    return _ArgSpec(kind="unknown")


def _collect_bindings(
    project: Project,
    module: ModuleInfo,
    pointer_table: dict[str, _ArgSpec],
) -> dict[str, _Binding]:
    bindings: dict[str, _Binding] = {}

    def binding_for(name: str, line: int) -> _Binding:
        return bindings.setdefault(name, _Binding(name=name, line=line))

    for node in ast.walk(module.tree):
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Attribute)
        ):
            continue
        target = node.targets[0]
        if not isinstance(target.value, ast.Attribute):
            continue
        fname = target.value.attr
        if target.attr == "argtypes" and isinstance(
            node.value, (ast.List, ast.Tuple)
        ):
            binding_for(fname, node.lineno).argtypes = [
                _argtype_spec(module, element, pointer_table)
                for element in node.value.elts
            ]
        elif target.attr == "restype":
            entry = binding_for(fname, node.lineno)
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                entry.restype_is_void = True
            else:
                entry.restype = _argtype_spec(
                    module, node.value, pointer_table
                )

    bound_names = set(bindings)
    for info in module.functions.values():
        for call in _own_calls(info.node):
            if (
                isinstance(call.func, ast.Attribute)
                and call.func.attr in bound_names
                and isinstance(call.func.value, ast.Name)
            ):
                bindings[call.func.attr].call_sites.append((call, info))
    return bindings


def _own_calls(node: ast.AST) -> list[ast.Call]:
    """Call nodes of a function body, nested defs excluded."""
    calls: list[ast.Call] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(current, ast.Call):
            calls.append(current)
        stack.extend(ast.iter_child_nodes(current))
    return calls


# -- A401: prototype vs binding ----------------------------------------


def _check_signatures(
    module: ModuleInfo,
    source_line: int,
    exported: dict[str, CFunction],
    bindings: dict[str, _Binding],
) -> list[Finding]:
    findings: list[Finding] = []
    for name, fn in exported.items():
        line = source_line + fn.line - 1
        binding = bindings.get(name)
        if binding is None or binding.argtypes is None:
            findings.append(
                _finding(
                    module,
                    line,
                    "A401",
                    name,
                    "exported C function has no ctypes argtypes binding",
                )
            )
            continue
        findings.extend(_compare_signature(module, fn, binding))
    for name, binding in bindings.items():
        if name not in exported and binding.argtypes is not None:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    name,
                    "ctypes binding has no exported C function definition",
                )
            )
    return findings


def _compare_signature(
    module: ModuleInfo, fn: CFunction, binding: _Binding
) -> list[Finding]:
    findings: list[Finding] = []
    argtypes = binding.argtypes or []
    if len(argtypes) != len(fn.params):
        findings.append(
            _finding(
                module,
                binding.line,
                "A401",
                fn.name,
                f"argtypes has {len(argtypes)} entries but the C prototype "
                f"takes {len(fn.params)} parameters",
            )
        )
        return findings
    for position, (param, spec) in enumerate(zip(fn.params, argtypes)):
        if spec.kind == "unknown":
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"argtypes[{position}] ({param.name!r}) is not a "
                    f"recognizable ctypes scalar or ndpointer spec",
                )
            )
            continue
        if param.is_pointer != (spec.kind == "ptr"):
            expected = "a pointer" if param.is_pointer else "a scalar"
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"argtypes[{position}] ({param.name!r}) binds "
                    f"{spec.kind!r} where the C prototype declares "
                    f"{expected} ({param.base_type}"
                    f"{' *' if param.is_pointer else ''})",
                )
            )
            continue
        if spec.dtype != param.dtype:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"argtypes[{position}] ({param.name!r}) declares dtype "
                    f"{spec.dtype} but the C parameter is "
                    f"{param.base_type} ({param.dtype})",
                )
            )
        if param.is_pointer and not spec.contiguous:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"argtypes[{position}] ({param.name!r}) ndpointer does "
                    f"not require C_CONTIGUOUS",
                )
            )
    if fn.return_type == "void":
        if not binding.restype_is_void:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    "C function returns void but restype is not None",
                )
            )
    else:
        expected = C_SCALAR_DTYPES.get(fn.return_type)
        returned = binding.restype.dtype if binding.restype else None
        if binding.restype_is_void or returned is None:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"C function returns {fn.return_type} but the binding "
                    f"declares no scalar restype",
                )
            )
        elif expected is not None and returned != expected:
            findings.append(
                _finding(
                    module,
                    binding.line,
                    "A401",
                    fn.name,
                    f"restype dtype {returned} does not match the C return "
                    f"type {fn.return_type}",
                )
            )
    return findings


# -- A402: pointer/length pairing --------------------------------------


def _check_pointer_bounds(
    module: ModuleInfo, source_line: int, fn: CFunction
) -> list[Finding]:
    if not fn.pointer_params:
        return []
    line = source_line + fn.line - 1
    has_length = any(
        param.base_type in C_INTEGER_TYPES for param in fn.scalar_params
    )
    if not has_length:
        return [
            _finding(
                module,
                line,
                "A402",
                fn.name,
                f"pointer parameter {param.name!r} has no integer length "
                f"parameter pairing it in the signature",
            )
            for param in fn.pointer_params
        ]
    return [
        _finding(
            module,
            line,
            "A402",
            fn.name,
            f"index [{expr}] into pointer parameter {pointer!r} uses "
            f"{ident!r}, which is not derivable from the signature's "
            f"length parameters",
        )
        for pointer, expr, ident in unbounded_pointer_indices(fn)
    ]


# -- A403: call-site array proof ---------------------------------------


def _check_call_site(
    project: Project,
    module: ModuleInfo,
    info: FunctionInfo,
    call: ast.Call,
    binding: _Binding,
) -> list[Finding]:
    argtypes = binding.argtypes or []
    if len(call.args) != len(argtypes) or call.keywords:
        return [
            _finding(
                module,
                call.lineno,
                "A403",
                binding.name,
                f"call passes {len(call.args)} positional arguments but "
                f"argtypes declares {len(argtypes)}",
            )
        ]
    env = _local_env(info)
    findings: list[Finding] = []
    for position, (arg, spec) in enumerate(zip(call.args, argtypes)):
        if spec.kind != "ptr":
            continue
        dtype, contiguous = _prove_array(project, module, info, env, arg)
        rendered = ast.unparse(arg)
        if not contiguous:
            findings.append(
                _finding(
                    module,
                    call.lineno,
                    "A403",
                    binding.name,
                    f"argument {position} ({rendered}) is not provably "
                    f"C-contiguous; wrap it in np.ascontiguousarray or "
                    f"allocate it fresh at the call site",
                )
            )
        if spec.dtype is not None and dtype != spec.dtype:
            shown = dtype if dtype is not None else "unknown"
            findings.append(
                _finding(
                    module,
                    call.lineno,
                    "A403",
                    binding.name,
                    f"argument {position} ({rendered}) has dtype {shown} "
                    f"but the binding requires {spec.dtype}",
                )
            )
    return findings


def _local_env(info: FunctionInfo) -> dict[str, ast.expr]:
    """Last single-target assignment per local name, nested defs excluded."""
    env: dict[str, ast.expr] = {}
    stack: list[ast.AST] = list(info.node.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
        ):
            env[node.targets[0].id] = node.value
        for child in ast.iter_child_nodes(node):
            stack.append(child)
    return env


def _prove_array(
    project: Project,
    module: ModuleInfo,
    info: FunctionInfo,
    env: dict[str, ast.expr],
    node: ast.expr,
    depth: int = 0,
) -> tuple[str | None, bool]:
    """``(dtype, provably_contiguous)`` for a call-site argument."""
    if depth > 8:
        return None, False
    if isinstance(node, ast.Call):
        callee = _canonical(module, dotted_name(node.func))
        tail = callee.rsplit(".", 1)[-1] if callee else None
        if callee and callee.startswith("numpy.") and tail in _FRESH_ALLOCATORS:
            dtype = None
            for keyword in node.keywords:
                if keyword.arg == "dtype":
                    dtype = _dtype_of_spec(keyword.value)
            if dtype is None and tail == "ascontiguousarray" and node.args:
                dtype, _ = _prove_array(
                    project, module, info, env, node.args[0], depth + 1
                )
            return dtype, True
        return None, False
    if isinstance(node, ast.Name):
        if node.id in env:
            return _prove_array(
                project, module, info, env, env[node.id], depth + 1
            )
        value = value_from_annotation(_param_annotation(info, node.id))
        if value is not None:
            return value.dtype, False
        return None, False
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        annotation = _param_annotation(info, node.value.id)
        if annotation is not None:
            cls = project.resolve_class(module, annotation)
            if cls is not None and node.attr in cls.annotations:
                value = value_from_annotation(cls.annotations[node.attr])
                if value is not None:
                    # Dtype comes from the class contract; contiguity
                    # must still be proven at the call site.
                    return value.dtype, False
        return None, False
    if isinstance(node, ast.Subscript):
        dtype, _ = _prove_array(
            project, module, info, env, node.value, depth + 1
        )
        return dtype, False
    return None, False


def _param_annotation(info: FunctionInfo, name: str) -> str | None:
    for arg in info.parameters():
        if arg.arg == name and arg.annotation is not None:
            return dotted_name(arg.annotation)
    return None


# -- helpers -----------------------------------------------------------


def _canonical(module: ModuleInfo, dotted: str | None) -> str | None:
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    target = module.imports.get(head)
    if target is None:
        return dotted
    return f"{target}.{rest}" if rest else target


def _finding(
    module: ModuleInfo, line: int, code: str, symbol: str, message: str
) -> Finding:
    return Finding(
        path=str(module.path),
        line=line,
        col=0,
        code=code,
        symbol=f"{module.name}.{symbol}",
        message=message,
    )
