"""Finding records shared by every repro-analyze pass.

A finding carries a stable ``code`` (``A1xx`` shape/dtype, ``A2xx``
parallel purity, ``A3xx`` contract cross-check, ``A4xx`` FFI contract,
``A5xx`` backend equivalence, ``A6xx`` cross-process determinism), a
``file:line``
location for humans, and a *location-free* fingerprint for the
baseline: accepted findings are keyed on ``(code, symbol, message)``
so they survive unrelated edits that move line numbers around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

CODES: dict[str, str] = {
    "A000": "file could not be parsed",
    "A101": "narrowing cast: target dtype cannot represent the source",
    "A102": "platform-dependent integer width in a dtype",
    "A103": "shape-incompatible operation (axis/operand rank)",
    "A104": "silent upcast: operands promote to a dtype wider than either",
    "A201": "parallel worker writes module-level mutable state",
    "A202": "parallel worker draws ambient randomness",
    "A203": "parallel worker reads ambient state (clock/environment)",
    "A301": "public entry point misses a contracts check for an array parameter",
    "A302": "contracts check disagrees with the parameter annotation",
    "A401": "C prototype and ctypes binding disagree",
    "A402": "C pointer parameter without a bounding length parameter",
    "A403": "FFI call site passes an unproven array (dtype/contiguity)",
    "A502": "C loop skeleton diverges from the Python kernel body",
    "A503": "C #define constant differs from the Python definition",
    "A601": "unordered iteration in a parallel dispatch path",
    "A602": "order-sensitive reduction of worker results",
    "A603": "mutable state reachable by worker closures",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One analyzer finding, pinned to a source location and a symbol."""

    path: str
    line: int
    col: int
    code: str
    symbol: str
    message: str

    def render(self) -> str:
        """GCC-style ``path:line:col: CODE [symbol] message`` line."""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"[{self.symbol}] {self.message}"
        )

    def fingerprint(self) -> str:
        """Stable identity used by the baseline file.

        Line numbers are deliberately excluded so accepted findings
        survive edits elsewhere in the file; two identical findings in
        the same symbol share a fingerprint (one baseline entry accepts
        both — acceptable for a tool whose goal is a clean tree).
        """
        digest = hashlib.sha1(
            f"{self.code}|{self.symbol}|{self.message}".encode()
        ).hexdigest()[:10]
        return f"{self.code} {self.symbol} {digest}"
