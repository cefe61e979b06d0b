"""Quality and Subspaces Quality metrics (Section IV-A, Eqs. 1-2).

The paper scores a clustering against the ground truth by

1. matching every found cluster to its *most dominant* real cluster and
   every real cluster to its most dominant found cluster;
2. averaging ``precision(found, dominant real)`` over found clusters
   and ``recall(dominant found, real)`` over real clusters;
3. reporting the harmonic mean of the two averages — the **Quality**.

The **Subspaces Quality** repeats the computation with the clusters'
relevant-axis sets in place of their point sets.  When a method finds
no clusters, both qualities are zero by definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.evaluation.matching import (
    dominant_found,
    dominant_real,
    intersection_size,
    overlap_matrix,
)
from repro.types import ClusteringResult, Dataset, IntArray, SubspaceCluster

MemberSet = Union[frozenset[int], IntArray]
"""An axis set, or a cluster's sorted index array."""


def _shared(found: MemberSet, real: MemberSet) -> int:
    if isinstance(found, frozenset) and isinstance(real, frozenset):
        return len(found & real)
    return intersection_size(np.asarray(found), np.asarray(real))


def precision(found: MemberSet, real: MemberSet) -> float:
    """Eq. 1: fraction of the found set that belongs to the real set."""
    if len(found) == 0:
        return 0.0
    return _shared(found, real) / len(found)


def recall(found: MemberSet, real: MemberSet) -> float:
    """Eq. 2: fraction of the real set that the found set covers."""
    if len(real) == 0:
        return 0.0
    return _shared(found, real) / len(real)


def _harmonic_mean(a: float, b: float) -> float:
    if a <= 0.0 or b <= 0.0:
        return 0.0
    return 2.0 * a * b / (a + b)


def _set_quality(
    found_sets: list[MemberSet],
    real_sets: list[MemberSet],
    found_clusters: list[SubspaceCluster],
    real_clusters: list[SubspaceCluster],
) -> float:
    """Shared machinery for Quality (point sets) and Subspaces Quality.

    Matching is always done on *point* overlap (the paper's dominant
    ratio), while precision/recall are evaluated on whichever sets the
    caller passes (points or axes).
    """
    if not found_clusters or not real_clusters:
        return 0.0
    overlaps = overlap_matrix(found_clusters, real_clusters)
    real_for_found = dominant_real(overlaps)
    found_for_real = dominant_found(overlaps)
    avg_precision = float(
        np.mean(
            [
                precision(found_sets[i], real_sets[real_for_found[i]])
                for i in range(len(found_sets))
            ]
        )
    )
    avg_recall = float(
        np.mean(
            [
                recall(found_sets[found_for_real[j]], real_sets[j])
                for j in range(len(real_sets))
            ]
        )
    )
    return _harmonic_mean(avg_precision, avg_recall)


def quality(found: list[SubspaceCluster], real: list[SubspaceCluster]) -> float:
    """Point-set Quality: harmonic mean of averaged precision and recall."""
    return _set_quality(
        [c.indices for c in found], [c.indices for c in real], found, real
    )


def subspaces_quality(
    found: list[SubspaceCluster], real: list[SubspaceCluster]
) -> float:
    """Axis-set Quality: the same harmonic mean over relevant-axis sets."""
    return _set_quality(
        [c.relevant_axes for c in found],
        [c.relevant_axes for c in real],
        found,
        real,
    )


@dataclass(frozen=True)
class EvaluationReport:
    """All Section IV-A scores for one clustering of one dataset."""

    quality: float
    subspaces_quality: float
    n_found: int
    n_real: int
    n_noise_found: int
    n_noise_real: int

    def as_row(self) -> dict:
        """Flatten into a dict suitable for tabular reporting."""
        return {
            "quality": self.quality,
            "subspaces_quality": self.subspaces_quality,
            "n_found": self.n_found,
            "n_real": self.n_real,
        }


def evaluate_clustering(result: ClusteringResult, dataset: Dataset) -> EvaluationReport:
    """Score a clustering result against a dataset's ground truth."""
    return EvaluationReport(
        quality=quality(result.clusters, dataset.clusters),
        subspaces_quality=subspaces_quality(result.clusters, dataset.clusters),
        n_found=result.n_clusters,
        n_real=dataset.n_clusters,
        n_noise_found=result.n_noise,
        n_noise_real=int(np.count_nonzero(dataset.labels == -1)),
    )
