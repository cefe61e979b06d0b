"""Runtime array contracts for the public entry points of the core.

The static layer (``tools/repro_lint``, mypy) pins what can be checked
without running the code; this module checks the data-dependent half of
the same invariants at the package's trust boundary: inputs must be
float64, 2-d, finite, and — for the Counting-tree — embedded in the
unit hyper-cube ``[0, 1)^d`` (Definition 1 of the paper), and label
vectors must be 1-d integer arrays with no id below the noise label.

Every violation raises :class:`ContractError` (a ``ValueError``) that
names the offending argument, so a failure three layers down a pipeline
still points at the call site.

Cost model: structural checks (type, dtype, ndim, length) are O(1) and
always on.  Data scans (finiteness, the unit-box bound, label range)
are O(n·d) and can be switched off — ``REPRO_CONTRACTS=0`` in the
environment, or :func:`set_enabled` / the :func:`disabled` context
manager — for benchmarking the raw hot path; the overhead benchmark
(``benchmarks/bench_contracts_overhead.py``) holds the enabled/disabled
gap on the η=100k fit path under 2%.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.env import contracts_from_env
from repro.types import NOISE_LABEL, AnyArray, ContractError, DTypeLike, Normalizer

__all__ = [
    "ContractError",
    "check_array",
    "check_labels",
    "check_level",
    "check_normalizer",
    "check_probability",
    "disabled",
    "enabled",
    "set_enabled",
]


_ENABLED: bool = contracts_from_env(default=True)


def enabled() -> bool:
    """Whether the O(n) data-scan half of the contracts is active."""
    return _ENABLED


def set_enabled(flag: bool) -> bool:
    """Toggle the data-scan contracts; returns the previous setting."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(flag)
    return previous


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager that switches the data-scan contracts off."""
    previous = set_enabled(False)
    try:
        yield
    finally:
        set_enabled(previous)


def check_array(
    name: str,
    a: object,
    *,
    dtype: DTypeLike | None = None,
    ndim: int | None = None,
    unit_box: bool = False,
    finite: bool = False,
) -> AnyArray:
    """Validate one array argument; returns it for call-site chaining.

    Parameters
    ----------
    name:
        The argument name reported in error messages.
    a:
        The candidate array; anything but an ``np.ndarray`` is rejected.
    dtype:
        Exact dtype the array must carry (e.g. ``np.float64``).
    ndim:
        Required number of dimensions.
    unit_box:
        Require every value in ``[0, 1)`` — the paper's Definition 1
        embedding.  Implies the finiteness scan (NaN compares false
        against both bounds and would otherwise slip through).
    finite:
        Reject NaN and infinities.
    """
    if not isinstance(a, np.ndarray):
        raise ContractError(
            f"{name} must be a numpy.ndarray, got {type(a).__name__}"
        )
    if dtype is not None and a.dtype != np.dtype(dtype):
        raise ContractError(
            f"{name} must have dtype {np.dtype(dtype)}, got {a.dtype}"
        )
    if ndim is not None and a.ndim != ndim:
        raise ContractError(
            f"{name} must be a {ndim}-d array, got {a.ndim}-d "
            f"(shape {a.shape})"
        )
    if _ENABLED and (finite or unit_box):
        if a.dtype.kind == "f" and not bool(np.isfinite(a).all()):
            raise ContractError(f"{name} contains NaN or infinite values")
        if unit_box and a.size and (
            float(a.min()) < 0.0 or float(a.max()) >= 1.0
        ):
            raise ContractError(
                f"{name} must lie in [0, 1); normalise first "
                f"(observed range [{float(a.min()):g}, {float(a.max()):g}])"
            )
    return a


def check_normalizer(name: str, normalizer: object, d: int) -> Normalizer:
    """Validate a min-max map ``(lo, span)`` for ``d``-axis points.

    Both halves must be finite float64 vectors of shape ``(d,)`` and
    every span non-negative (zero marks a constant axis).  The kernels
    that replay the map index both vectors by axis, so this check is
    structural and always on: it is O(d), not a data scan.
    """
    if not isinstance(normalizer, tuple) or len(normalizer) != 2:
        raise ContractError(f"{name} must be a (lo, span) pair of arrays")
    lo, span = (
        check_array(f"{name}[{i}]", np.asarray(part), dtype=np.float64, ndim=1)
        for i, part in enumerate(normalizer)
    )
    if lo.shape != (d,) or span.shape != (d,):
        raise ContractError(
            f"{name} must hold two ({d},) vectors, got {lo.shape} and "
            f"{span.shape}"
        )
    if not (bool(np.isfinite(lo).all()) and bool(np.isfinite(span).all())):
        raise ContractError(f"{name} contains NaN or infinite values")
    if bool((span < 0.0).any()):
        raise ContractError(f"{name} has a negative span")
    return lo, span


def check_labels(
    name: str, labels: object, *, n_points: int | None = None
) -> AnyArray:
    """Validate a label vector: 1-d integers, nothing below the noise id."""
    if not isinstance(labels, np.ndarray):
        raise ContractError(
            f"{name} must be a numpy.ndarray, got {type(labels).__name__}"
        )
    if labels.ndim != 1:
        raise ContractError(
            f"{name} must be a 1-d label vector, got {labels.ndim}-d"
        )
    if labels.dtype.kind not in "iu":
        raise ContractError(
            f"{name} must have an integer dtype, got {labels.dtype}"
        )
    if n_points is not None and labels.shape[0] != n_points:
        raise ContractError(
            f"{name} must have one entry per point "
            f"({n_points}), got {labels.shape[0]}"
        )
    if _ENABLED and labels.size and int(labels.min()) < NOISE_LABEL:
        raise ContractError(
            f"{name} contains ids below the noise label {NOISE_LABEL}"
        )
    return labels


def check_level(name: str, level: Any) -> None:
    """Validate the column arrays of one Counting-tree level.

    Checks the inter-column shape/dtype contract the β-cluster search
    relies on: integer cell coordinates (the level's derived oracle
    view), one uint32 count per cell, and uint32 half-space counts per
    (cell, axis).
    """
    coords = check_array(f"{name}.coords", level.coords, dtype=np.int64, ndim=2)
    n = check_array(f"{name}.n", level.n, dtype=np.uint32, ndim=1)
    half = check_array(
        f"{name}.half_counts", level.half_counts, dtype=np.uint32, ndim=2
    )
    m = coords.shape[0]
    if n.shape[0] != m or half.shape != coords.shape:
        raise ContractError(
            f"{name} columns disagree: coords {coords.shape}, n {n.shape}, "
            f"half_counts {half.shape}"
        )
    if _ENABLED and m:
        limit = (1 << int(level.h)) - 1
        if int(coords.min()) < 0 or int(coords.max()) > limit:
            raise ContractError(
                f"{name}.coords exceed the level-{level.h} grid [0, {limit}]"
            )
        if int(n.min()) < 1:
            raise ContractError(
                f"{name}.n has empty cells; only populated cells are stored"
            )


def check_probability(name: str, value: float) -> float:
    """Validate a probability-like scalar lies strictly inside (0, 1)."""
    if not 0.0 < value < 1.0:
        raise ContractError(f"{name} must be in (0, 1), got {value!r}")
    return value
