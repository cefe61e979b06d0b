"""Minimal C parser for the restricted kernel dialect of the cext backend.

The C transliteration in ``repro.core.kernels.cext_backend._C_SOURCE``
is deliberately written in a tiny dialect — flat functions over
``int64_t``/``uint64_t``/``uint32_t``/``double``/``uint8_t`` scalars and
pointers, ``for``/``while`` loops, no typedefs, no structs, no function
pointers, no
preprocessor beyond object-like ``#define`` constants.  That restraint
is what makes a *trustworthy* static cross-check feasible: this module
parses exactly that dialect (prototypes, parameter lists, ``#define``
constants and loop structure) so the A4 FFI pass can verify the ctypes
bindings and the A5 equivalence pass can compare loop skeletons against
:mod:`repro.core.kernels.loops`.

The parser is textual, not a grammar for C: it comment-strips the
source, brace-matches function bodies, and scans statements with
word-boundary regexes.  Anything outside the dialect (a struct, a
``#if``, a function-pointer parameter) simply fails to index, which the
passes report rather than mis-analyse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: C base types the kernel dialect admits, with their numpy dtype names.
C_SCALAR_DTYPES: dict[str, str] = {
    "int64_t": "int64",
    "uint64_t": "uint64",
    "uint32_t": "uint32",
    "double": "float64",
    "uint8_t": "uint8",
    "int": "int32",
}

#: C integer base types usable as length parameters for pointer bounds.
C_INTEGER_TYPES = frozenset(
    {"int64_t", "uint64_t", "uint32_t", "int", "uint8_t"}
)

_KEYWORDS = frozenset(
    {
        "if",
        "else",
        "for",
        "while",
        "return",
        "break",
        "continue",
        "static",
        "const",
        "void",
        "sizeof",
    }
) | frozenset(C_SCALAR_DTYPES)

_DEFINE = re.compile(r"^[ \t]*#define[ \t]+(\w+)[ \t]+(.+?)[ \t]*$", re.M)
_PROTOTYPE = re.compile(
    r"^[ \t]*(static[ \t]+)?(\w+)[ \t]+\**(\w+)[ \t]*\(", re.M
)
_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
_IDENT = re.compile(r"\b[A-Za-z_]\w*\b")
_LOOP_OR_CALL = re.compile(r"\b(for|while)\b|\b([A-Za-z_]\w*)[ \t\n]*\(")
_ASSIGN = re.compile(
    r"\b(\w+)[ \t]*(?:(\+\+|--)|([+\-*/|&^]?)=(?!=))"
)


class CParseError(ValueError):
    """The source stepped outside the restricted kernel dialect."""


@dataclass(frozen=True)
class CParam:
    """One parameter of a C kernel function."""

    name: str
    base_type: str
    is_pointer: bool
    is_const: bool

    @property
    def dtype(self) -> str | None:
        """numpy dtype name for the base type, if known."""
        return C_SCALAR_DTYPES.get(self.base_type)


@dataclass
class CFunction:
    """One function definition parsed out of the kernel C source."""

    name: str
    return_type: str
    params: list[CParam]
    body: str
    is_static: bool
    line: int

    pointer_params: list[CParam] = field(init=False)
    scalar_params: list[CParam] = field(init=False)

    def __post_init__(self) -> None:
        self.pointer_params = [p for p in self.params if p.is_pointer]
        self.scalar_params = [p for p in self.params if not p.is_pointer]


def strip_comments(source: str) -> str:
    """Blank out comments, preserving line structure for diagnostics."""

    def blank(match: re.Match[str]) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    return _COMMENT.sub(blank, source)


def parse_defines(source: str) -> dict[str, tuple[str, int]]:
    """``#define NAME value`` constants → ``{name: (value_text, line)}``."""
    clean = strip_comments(source)
    defines: dict[str, tuple[str, int]] = {}
    for match in _DEFINE.finditer(clean):
        line = clean.count("\n", 0, match.start()) + 1
        defines[match.group(1)] = (match.group(2).strip(), line)
    return defines


def parse_functions(source: str) -> dict[str, CFunction]:
    """Every function *definition* in the source, keyed by name."""
    clean = strip_comments(source)
    functions: dict[str, CFunction] = {}
    position = 0
    while True:
        match = _PROTOTYPE.search(clean, position)
        if match is None:
            break
        position = match.end()
        return_type = match.group(2)
        if return_type in _KEYWORDS - frozenset(C_SCALAR_DTYPES) - {"void"}:
            continue
        close = _match_delimiter(clean, match.end() - 1, "(", ")")
        after = _skip_space(clean, close + 1)
        if after >= len(clean) or clean[after] != "{":
            continue  # declaration or macro call, not a definition
        body_end = _match_delimiter(clean, after, "{", "}")
        params = _parse_params(clean[match.end() : close])
        line = clean.count("\n", 0, match.start()) + 1
        functions[match.group(3)] = CFunction(
            name=match.group(3),
            return_type=return_type,
            params=params,
            body=clean[after + 1 : body_end],
            is_static=bool(match.group(1)),
            line=line,
        )
        position = body_end + 1
    return functions


def _parse_params(text: str) -> list[CParam]:
    params: list[CParam] = []
    text = text.strip()
    if not text or text == "void":
        return params
    for chunk in text.split(","):
        tokens = chunk.replace("*", " * ").split()
        if not tokens:
            raise CParseError(f"empty parameter in ({text})")
        is_const = "const" in tokens
        is_pointer = "*" in tokens
        tokens = [t for t in tokens if t not in {"const", "*"}]
        if len(tokens) != 2:
            raise CParseError(f"unsupported parameter syntax: {chunk!r}")
        base_type, name = tokens
        params.append(
            CParam(
                name=name,
                base_type=base_type,
                is_pointer=is_pointer,
                is_const=is_const,
            )
        )
    return params


def _match_delimiter(text: str, start: int, open_ch: str, close_ch: str) -> int:
    """Index of the delimiter closing the one at ``start``."""
    assert text[start] == open_ch
    depth = 0
    for i in range(start, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    raise CParseError(f"unbalanced {open_ch}…{close_ch} from offset {start}")


def _skip_space(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


# -- loop skeletons ----------------------------------------------------
#
# A loop skeleton is the tree of for/while nodes of a function body with
# every *private* static helper inlined at its call site (call in a
# loop condition → children of that loop), and calls to functions that
# exist on both sides (``binom_sf``) kept opaque — those are compared
# separately under their own name.  Conditionals deliberately do not
# nest: the skeleton answers "which loops run inside which loops", the
# one structural property the C transliteration must share with the
# Python bodies for the statement-for-statement claim to hold.


def loop_skeleton(
    fn: CFunction,
    functions: dict[str, CFunction],
    opaque: frozenset[str] = frozenset(),
) -> str:
    """Render the for/while nesting of ``fn`` with helpers inlined."""
    return _render(_scan_region(fn.body, functions, opaque, {fn.name}))


def _render(nodes: list[tuple[str, list]]) -> str:
    parts = []
    for kind, children in nodes:
        parts.append(f"{kind}({_render(children)})" if children else kind)
    return ",".join(parts)


def _statement_end(text: str, start: int) -> int:
    """Index of the ``;`` ending the statement at ``start``.

    Semicolons inside parentheses (a brace-less nested ``for`` header)
    and inside brace groups (a compound sub-statement) belong to the
    statement, not after it — so both delimiter kinds are skipped at
    depth.
    """
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            i = _match_delimiter(text, i, "(", ")") + 1
        elif ch == "{":
            i = _match_delimiter(text, i, "{", "}") + 1
        elif ch == ";":
            return i
        else:
            i += 1
    return len(text)


def _scan_region(
    text: str,
    functions: dict[str, CFunction],
    opaque: frozenset[str],
    active: set[str],
) -> list[tuple[str, list]]:
    nodes: list[tuple[str, list]] = []
    i = 0
    while i < len(text):
        match = _LOOP_OR_CALL.search(text, i)
        if match is None:
            break
        if match.group(1):  # for / while
            kind = "F" if match.group(1) == "for" else "W"
            paren = text.index("(", match.end(1))
            close = _match_delimiter(text, paren, "(", ")")
            children = _scan_region(
                text[paren + 1 : close], functions, opaque, active
            )
            after = _skip_space(text, close + 1)
            if after < len(text) and text[after] == "{":
                body_end = _match_delimiter(text, after, "{", "}")
                children += _scan_region(
                    text[after + 1 : body_end], functions, opaque, active
                )
                i = body_end + 1
            else:
                stmt_end = _statement_end(text, after)
                children += _scan_region(
                    text[after:stmt_end], functions, opaque, active
                )
                i = stmt_end + 1
            nodes.append((kind, children))
            continue
        # An identifier followed by "(": scan the argument region, then
        # splice the callee's skeleton when it is a private helper.
        name = match.group(2)
        paren = text.index("(", match.end(2))
        close = _match_delimiter(text, paren, "(", ")")
        nodes.extend(
            _scan_region(text[paren + 1 : close], functions, opaque, active)
        )
        callee = functions.get(name)
        if (
            callee is not None
            and name not in opaque
            and name not in active  # recursion guard
        ):
            nodes.extend(
                _scan_region(
                    callee.body, functions, opaque, active | {name}
                )
            )
        i = close + 1
    return nodes


# -- pointer-index boundedness (A402) ----------------------------------
#
# Within one function, an identifier is *bounded* when its value is
# derived purely from the function's scalar parameters and literals:
# scalar params are bounded by the caller's contract (that is what
# "paired length parameter" means), loop counters initialised and
# stepped from bounded values stay bounded, and results of calls are
# treated as bounded (in-source helpers carry their own checked
# contract; libm calls are pure functions of bounded arguments).  A
# value read *out of* a pointer is data, not a bound — any variable
# whose definition reads an array is tainted, and indexing a pointer
# with a tainted identifier is exactly the out-of-contract access A402
# exists to flag.


def unbounded_pointer_indices(fn: CFunction) -> list[tuple[str, str, str]]:
    """``(pointer_name, index_expr, offending_ident)`` per bad subscript.

    Boundedness is computed as the complement of a taint fixpoint: the
    taint sources are the pointer parameters themselves (an identifier
    appearing in an assignment that reads an array makes the assigned
    variable data-dependent) and any identifier that is neither a
    parameter nor a variable assigned in the body (an out-of-signature
    name can carry no caller-side bound).  Taint propagates through
    assignments until stable — mutually recursive counter groups like a
    binary search's ``low``/``mid``/``high`` stay untainted as long as
    nothing in the group reads data.
    """
    pointer_names = {p.name for p in fn.pointer_params}
    scalar_names = {p.name for p in fn.scalar_params}
    assignments = _collect_assignments(fn.body)

    known = pointer_names | scalar_names | set(assignments)
    tainted = set(pointer_names)
    changed = True
    while changed:
        changed = False
        for name, rhs_ids in assignments.items():
            if name in tainted or name in scalar_names:
                continue
            reads_taint = any(
                ident in tainted or ident not in known
                for ids in rhs_ids
                for ident in ids
            )
            if reads_taint:
                tainted.add(name)
                changed = True

    problems: list[tuple[str, str, str]] = []
    for base, expr in _subscripts(fn.body):
        if base not in pointer_names:
            continue
        for ident in sorted(_identifiers(_strip_calls(expr))):
            if ident in tainted or ident not in known:
                problems.append((base, expr.strip(), ident))
    return problems


def _collect_assignments(body: str) -> dict[str, list[set[str]]]:
    """Every scalar binding in the body → the identifier sets it reads."""
    assignments: dict[str, list[set[str]]] = {}
    for match in _ASSIGN.finditer(body):
        name = match.group(1)
        if name in _KEYWORDS:
            continue
        if match.group(2):  # ++ / -- : self-referential step
            assignments.setdefault(name, []).append({name})
            continue
        end = _assignment_end(body, match.end())
        rhs = body[match.end() : end]
        ids = _identifiers(_strip_calls(rhs))
        if match.group(3):  # compound assignment reads the target too
            ids.add(name)
        assignments.setdefault(name, []).append(ids)
    return assignments


def _assignment_end(text: str, start: int) -> int:
    """Offset of the ``;`` (or ``)`` for a for-clause) ending a statement."""
    depth = 0
    for i in range(start, len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                return i
            depth -= 1
        elif ch == ";" and depth == 0:
            return i
    return len(text)


def _subscripts(body: str) -> list[tuple[str, str]]:
    """``(base, index_expression)`` for every ``base[...]`` in the body."""
    out: list[tuple[str, str]] = []
    for match in re.finditer(r"\b(\w+)[ \t\n]*\[", body):
        close = _match_delimiter(body, body.index("[", match.end(1)), "[", "]")
        out.append((match.group(1), body[match.end() : close]))
    return out


def _strip_calls(expr: str) -> str:
    """Remove every ``name(...)`` call expression (results are bounded)."""
    while True:
        match = re.search(r"\b[A-Za-z_]\w*[ \t\n]*\(", expr)
        if match is None:
            return expr
        close = _match_delimiter(expr, expr.index("(", match.start()), "(", ")")
        expr = expr[: match.start()] + expr[close + 1 :]


def _identifiers(expr: str) -> set[str]:
    """Identifiers in an expression, keywords and type names excluded."""
    return {
        ident
        for ident in _IDENT.findall(expr)
        if ident not in _KEYWORDS and not ident[0].isdigit()
    }
