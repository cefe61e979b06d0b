"""Measurement helpers of the MrCC benchmark.

Nothing here imports ``repro``: these are the benchmark's own tools
(percentiles, per-call peak RSS, label digests, seeded inputs), kept
apart so the tests in ``test_helpers.py`` exercise them without the
program.
"""

from __future__ import annotations

import hashlib
import math
import time
from collections.abc import Callable, Sequence
from statistics import NormalDist
from typing import Any

import numpy as np

_CLEAR_REFS = "/proc/self/clear_refs"
_STATUS = "/proc/self/status"


def percentile(values: Sequence[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count.

    Nearest rank returns a measured sample, never an interpolation
    between two, so a p99 over ``n`` samples has ``n - rank`` samples
    above it; report the count with the value.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1]), len(ordered)


def reset_peak_rss() -> None:
    """Reset this process's resident high-water mark (``VmHWM``).

    Writing ``5`` to ``/proc/self/clear_refs`` sets ``VmHWM`` back to
    the current RSS, so the next reading is the peak of what ran in
    between rather than of the whole process lifetime (which would
    include input synthesis).
    """
    with open(_CLEAR_REFS, "w") as handle:
        handle.write("5")


def peak_rss_kb() -> int:
    """This process's resident high-water mark in KiB (``VmHWM``)."""
    with open(_STATUS) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM line in {_STATUS}")


def cpu_seconds() -> float:
    """CPU seconds this process has used, all threads, user and system.

    Unlike wall time this leaves out time the vCPU was not running: a
    hypervisor's steal, other processes, sleeping.
    """
    return time.process_time()


def measured(fn: Callable[[], Any]) -> tuple[Any, float, int]:
    """Call ``fn`` once: its value, CPU seconds and peak RSS in KiB."""
    reset_peak_rss()
    start = cpu_seconds()
    value = fn()
    seconds = cpu_seconds() - start
    return value, seconds, peak_rss_kb()


def row_permutation(seed: int, n_rows: int) -> np.ndarray:
    """Seeded row order: the benchmark's inputs for a ``--seed``.

    MrCC's clustering is a function of the point set, not of row
    order, so a permuted input has pinned labels in canonical order
    while every seed still feeds the program different bytes.
    """
    return np.random.default_rng([seed, n_rows]).permutation(n_rows)


def canonical_labels(labels: np.ndarray, permutation: np.ndarray) -> np.ndarray:
    """Labels of ``points[permutation]`` put back in the original row order."""
    canonical = np.empty_like(labels)
    canonical[permutation] = labels
    return canonical


def labels_digest(labels: np.ndarray) -> str:
    """SHA-256 of a label vector as little-endian int64."""
    return hashlib.sha256(
        np.ascontiguousarray(labels, dtype="<i8").tobytes()
    ).hexdigest()


def open_loop_schedule(
    seed: int, rate: float, duration: float, n_choices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Poisson arrivals: due offsets (s) and request-pool indices.

    Inter-arrival gaps are exponential with mean ``1 / rate`` and the
    schedule stops before ``duration``; each arrival names one of
    ``n_choices`` pooled requests.
    """
    if rate <= 0.0 or duration <= 0.0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng([seed, 1])
    expected = int(rate * duration)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(math.sqrt(expected)) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    return offsets, rng.integers(0, n_choices, size=offsets.shape[0])


def request_sizes(
    seed: int, n_requests: int, median_points: float, sigma: float, max_points: int
) -> np.ndarray:
    """Lognormal request sizes, clipped to ``[1, max_points]``, in seeded order.

    The sizes are the distribution's ``n_requests`` evenly spaced
    quantiles, so every seed serves the same multiset of sizes (the same
    work) and only their order changes.
    """
    normal = NormalDist(math.log(median_points), sigma)
    quantiles = [normal.inv_cdf((i + 0.5) / n_requests) for i in range(n_requests)]
    sizes = np.clip(np.ceil(np.exp(quantiles)), 1, max_points).astype(np.int64)
    return np.random.default_rng([seed, 2]).permutation(sizes)
