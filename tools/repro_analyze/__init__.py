"""Interprocedural static analysis for the repro package.

Six passes over one shared project model and call graph:

* :mod:`.shapes` (``A1xx``) — shape/dtype dataflow through
  ``repro.core``: narrowing casts, platform-dependent integer widths,
  rank-incompatible operations, silent upcasts.
* :mod:`.purity` (``A2xx``) — purity proofs for every function
  reachable from a ``ProcessPoolExecutor`` dispatch (the ``REPRO_JOBS``
  fan-out): no module-state writes, no ambient randomness or clocks.
* :mod:`.contracts_check` (``A3xx``) — every public entry point of
  ``repro.core``/``repro.baselines`` must route its array parameters
  through ``repro.core.contracts.check_*``.
* :mod:`.ffi` (``A4xx``) — the FFI contract of the cext backend: C
  prototypes vs ctypes bindings, pointer/length pairing, call-site
  dtype/contiguity proofs.
* :mod:`.equivalence` (``A5xx``) — backend equivalence: the C
  transliteration matches the loop skeletons of its Python spec in
  ``kernels.loops``, and ``#define`` constants equal the Python
  definitions.
* :mod:`.determinism` (``A6xx``) — cross-process determinism of the
  dispatch roots and worker closures: no unordered iteration,
  order-sensitive reductions, or parent-mutated state visible to
  workers.

Run with ``python -m tools.repro_analyze [roots…]``; accepted findings
live in ``baseline.txt`` next to this package, one commented
fingerprint per line.
"""

from .baseline import (
    DEFAULT_BASELINE,
    BaselineError,
    apply_baseline,
    parse_baseline,
    write_baseline,
)
from .callgraph import CallGraph
from .cli import collect_findings, main
from .contracts_check import analyze_contracts
from .determinism import analyze_determinism
from .equivalence import analyze_equivalence
from .ffi import analyze_ffi
from .findings import CODES, Finding
from .project import Project
from .purity import analyze_purity, find_parallel_entries
from .shapes import analyze_shapes

__all__ = [
    "CODES",
    "CallGraph",
    "DEFAULT_BASELINE",
    "BaselineError",
    "Finding",
    "Project",
    "analyze_contracts",
    "analyze_determinism",
    "analyze_equivalence",
    "analyze_ffi",
    "analyze_purity",
    "analyze_shapes",
    "apply_baseline",
    "collect_findings",
    "find_parallel_entries",
    "main",
    "parse_baseline",
    "write_baseline",
]
