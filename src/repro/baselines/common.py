"""Shared numerical helpers for the baseline algorithms."""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.types import NOISE_LABEL, ClusteringResult, records_from_labels


def kmeanspp_seeds(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: indices of ``k`` well-spread points.

    Used by the iterative methods (LAC, PROCLUS, ORCLUS) so a
    bad uniform draw cannot place every seed inside one cluster.
    """
    n = points.shape[0]
    if k > n:
        raise ValueError("cannot draw more seeds than points")
    seeds = [int(rng.integers(n))]
    closest_sq = np.full(n, np.inf)
    for _ in range(1, k):
        diff = points - points[seeds[-1]]
        np.minimum(closest_sq, np.einsum("ij,ij->i", diff, diff), out=closest_sq)
        total = closest_sq.sum()
        if total <= 0.0:
            seeds.append(int(rng.integers(n)))
            continue
        seeds.append(int(rng.choice(n, p=closest_sq / total)))
    return np.asarray(seeds, dtype=np.int64)


def result_from_labels(
    labels: np.ndarray,
    axes_for_label: Callable[[int], Iterable[int]],
    extras: dict | None = None,
) -> ClusteringResult:
    """Build a :class:`ClusteringResult` from labels plus an axis lookup.

    The one path from a baseline's final labels to its result.  Labels
    that hold a point become ``0..k-1`` in ascending order of their
    original value (one ``np.unique``); noise stays -1 and a label no
    point carries vanishes.  ``axes_for_label`` maps an *original*
    label to an iterable of relevant axes.
    """
    labels = np.asarray(labels, dtype=np.int64)
    clustered = labels != NOISE_LABEL
    originals, inverse = np.unique(labels[clustered], return_inverse=True)
    compact = np.full(labels.shape, NOISE_LABEL, dtype=np.int64)
    compact[clustered] = inverse
    clusters = records_from_labels(
        compact, [axes_for_label(int(original)) for original in originals]
    )
    return ClusteringResult(labels=compact, clusters=clusters, extras=extras or {})
