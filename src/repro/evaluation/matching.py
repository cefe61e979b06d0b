"""Most-dominant-cluster matching (Section IV-A).

For each *found* cluster the paper selects the *real* cluster with the
largest point overlap (its "most dominant real cluster") and vice
versa.  Ties are broken towards the lower cluster index, which keeps
the procedure deterministic.
"""

from __future__ import annotations

import numpy as np

from repro.types import IntArray, SubspaceCluster


def intersection_size(a: IntArray, b: IntArray) -> int:
    """Number of values two sorted, unique index arrays share.

    Each value of the shorter array is looked up in the longer one, so
    the cost is ``O(short · log long)`` with no merged copy of both.
    """
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return 0
    at = np.searchsorted(b, a)
    np.minimum(at, b.size - 1, out=at)
    return int(np.count_nonzero(b[at] == a))


def overlap_matrix(
    found: list[SubspaceCluster], real: list[SubspaceCluster]
) -> np.ndarray:
    """Return the ``len(found) x len(real)`` matrix of point-overlap sizes."""
    matrix = np.zeros((len(found), len(real)), dtype=np.int64)
    for i, f in enumerate(found):
        for j, r in enumerate(real):
            matrix[i, j] = intersection_size(f.indices, r.indices)
    return matrix


def dominant_real(overlaps: np.ndarray) -> np.ndarray:
    """Index of the most dominant real cluster for each found cluster.

    ``overlaps`` is the matrix from :func:`overlap_matrix`.  Rows with
    no real clusters produce an empty result.
    """
    if overlaps.size == 0:
        return np.zeros(overlaps.shape[0], dtype=np.int64)
    return np.argmax(overlaps, axis=1)


def dominant_found(overlaps: np.ndarray) -> np.ndarray:
    """Index of the most dominant found cluster for each real cluster."""
    if overlaps.size == 0:
        return np.zeros(overlaps.shape[1], dtype=np.int64)
    return np.argmax(overlaps, axis=0)
