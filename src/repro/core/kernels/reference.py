"""The numpy reference backend — the reproduction's bit-identity oracle.

Every kernel here is the vectorised numpy formulation the package ran
before the backend layer existed: binning into an int64 coordinate
matrix and packing it with blocked dot products for the tree's cell
words, one ``reduceat`` per axis for its half-space counts, integer
arithmetic plus sorted-key ``searchsorted`` joins for the convolution
and the six-region neighbourhood, the interval test for point
labelling, and the scipy binomial
inverse survival function for the critical values.  The compiled
backends are validated against these functions — any disagreement is a
bug in the compiled path, never in this one.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from repro.core.counting_tree import (
    Level,
    _field_layout,
    _pack_words,
    bin_points,
    void_keys,
)
from repro.data.normalize import apply_minmax
from repro.types import NOISE_LABEL, AnyArray, FloatArray, IntArray, Normalizer

NAME = "numpy"
COMPILED = False


def version() -> str:
    """Version string recorded in benchmarks (the numpy release)."""
    return str(np.__version__)


def cell_words(
    points: FloatArray, n_resolutions: int, normalizer: Normalizer | None = None
) -> tuple[AnyArray, AnyArray]:
    """Level-``H-1`` cell words and parity words: bin, then pack twice.

    With a ``normalizer`` the raw points go through
    :func:`~repro.data.normalize.apply_minmax` first — the map the
    compiled kernels replay value by value.
    """
    if normalizer is not None:
        points = apply_minmax(points, *normalizer)
    base = bin_points(points, n_resolutions)
    return _pack_words(base, n_resolutions - 1, drop=1), _pack_words(base, 1)


def half_counts(
    child_words: AnyArray,
    child_counts: AnyArray | None,
    starts: IntArray,
    counts: AnyArray,
    d: int,
    width: int,
) -> AnyArray:
    """Half-space counts ``P[j]`` of each group, one ``reduceat`` per axis.

    A child whose field along ``e_j`` is odd sits in the upper half of
    its parent, so ``P[j]`` is the group count minus the count-weighted
    number of odd children; ``child_counts=None`` weighs every child 1.
    The sums run in int64 and land in the uint32 result exactly.
    """
    _, word, shift = _field_layout(d, width)
    halves = np.empty((counts.shape[0], d), dtype=np.uint32)
    for axis in range(d):
        odd = (child_words[:, word[axis]] >> shift[axis]) & np.uint64(1)
        # Reinterpreting the 0/1 bits as int64 is exact.
        odd_rows = odd.view(np.int64)
        if child_counts is not None:
            odd_rows *= child_counts
        halves[:, axis] = counts - np.add.reduceat(odd_rows, starts)
    return halves


def level_responses(level: Level, rows: IntArray) -> IntArray:
    """Laplacian responses at ``rows`` (vectorised searchsorted joins).

    Only the probes of the requested cells are built and joined, so
    the cost follows ``rows``, not the level.  The joins run on the
    level's derived :attr:`~repro.core.counting_tree.Level.coords` and
    void :attr:`~repro.core.counting_tree.Level.keys`, independent of
    the packed words the compiled kernels search.
    """
    m, d = level.coords.shape
    coords = level.coords[rows]
    responses = (2 * d) * level.n[rows].astype(np.int64)
    if m <= 1 or rows.shape[0] == 0:
        return responses
    limit = (1 << level.h) - 1
    shifted = coords.copy()
    for axis in range(d):
        column = coords[:, axis]
        for delta in (-1, 1):
            shifted[:, axis] = column + delta
            valid = (shifted[:, axis] >= 0) & (shifted[:, axis] <= limit)
            if not np.any(valid):
                continue
            queries = void_keys(shifted[valid])
            positions = np.searchsorted(level.keys, queries)
            positions = np.minimum(positions, m - 1)
            found = level.keys[positions] == queries
            targets = np.flatnonzero(valid)[found]
            responses[targets] -= level.n[positions[found]]
        shifted[:, axis] = column
    return responses


def label_rows(
    points: FloatArray,
    lower: FloatArray,
    upper: FloatArray,
    box_group: IntArray,
    normalizer: Normalizer | None = None,
) -> IntArray:
    """Group labels, one group at a time: the lowest claiming id wins.

    A ``normalizer`` maps the raw points with
    :func:`~repro.data.normalize.apply_minmax` before the box tests.
    """
    if normalizer is not None:
        points = apply_minmax(points, *normalizer)
    labels = np.full(points.shape[0], NOISE_LABEL, dtype=np.int64)
    unassigned = np.ones(points.shape[0], dtype=bool)
    for cluster_id in np.unique(box_group):
        claimed = np.zeros(points.shape[0], dtype=bool)
        for b in np.flatnonzero(box_group == cluster_id):
            inside = np.all((points >= lower[b]) & (points <= upper[b]), axis=1)
            claimed |= inside
        claimed &= unassigned
        labels[claimed] = cluster_id
        unassigned &= ~claimed
    return labels


def six_region(
    level: Level, row: int, bits: IntArray
) -> tuple[IntArray, IntArray]:
    """Six-region counts ``(cP_j, nP_j)``, all 2d probes in one join."""
    m, d = level.coords.shape
    base = level.coords[row]
    parent_n = int(level.n[row])
    probes = np.tile(base, (2 * d, 1))
    probe_axes = np.repeat(np.arange(d, dtype=np.int64), 2)
    deltas = np.tile(np.array([-1, 1], dtype=np.int64), d)
    probe_index = np.arange(2 * d, dtype=np.int64)
    probes[probe_index, probe_axes] += deltas
    shifted = probes[probe_index, probe_axes]
    valid = (shifted >= 0) & (shifted <= (1 << level.h) - 1)
    neighbors = np.zeros(2 * d, dtype=np.int64)
    if np.any(valid):
        queries = void_keys(probes[valid])
        positions = np.searchsorted(level.keys, queries)
        positions = np.minimum(positions, m - 1)
        found = level.keys[positions] == queries
        neighbors[np.flatnonzero(valid)[found]] = level.n[positions[found]]
    total = parent_n + neighbors[0::2] + neighbors[1::2]
    half = level.half_counts[row].astype(np.int64)
    center = np.where(bits == 0, half, parent_n - half).astype(np.int64)
    return center, total.astype(np.int64)


def binom_thetas(
    totals: IntArray, probs: FloatArray, alpha: float
) -> tuple[IntArray, IntArray]:
    """Critical values via the scipy oracle; nothing is ever borderline."""
    totals = np.asarray(totals, dtype=np.int64)
    theta = stats.binom.isf(alpha, np.maximum(totals, 1), probs)
    theta = np.where(np.isnan(theta), totals, theta)
    thetas = np.where(totals == 0, 0, theta.astype(np.int64))
    return thetas, np.zeros(totals.shape[0], dtype=np.uint8)
