"""RIC — Robust Information-theoretic Clustering (Böhm, Faloutsos,
Pan, Plant, KDD 2006; Section II of the MrCC paper).

RIC is not a clusterer but a *refinement* layer: given any preliminary
clustering, it (a) purifies each cluster by discarding the points that
do not compress well under the cluster's model, and (b) selects, per
cluster, the model (here: which axes are Gaussian-coded vs
uniform-coded) minimising the total description length — the Volume
After Compression (VAC).

This implementation follows that architecture:

* per cluster and axis, the VAC compares coding the members' values
  with a Gaussian model (costing ``-log2 pdf`` bits, plus the model
  parameters) against coding them as uniform over ``[0, 1)``;
* axes that compress under the Gaussian become the cluster's relevant
  axes — an MDL alternative to MrCC's relevance cut;
* points whose per-point coding cost sits far above the cluster's
  typical cost are evicted as noise (robustness).

Pairs with any :class:`SubspaceClusterer` via :func:`refine`.
"""

from __future__ import annotations

import numpy as np

from repro.core.contracts import check_array
from repro.types import NOISE_LABEL, ClusteringResult, SubspaceCluster

_UNIFORM_BITS = 0.0
"""Coding cost per value under the uniform-[0,1) model: log2(1) = 0
bits beyond the shared quantisation grid, which cancels between
models."""

_PARAMETER_BITS = 2 * 16.0
"""Bits charged for a Gaussian model's two parameters (mean, sigma) at
16-bit precision."""


def gaussian_bits(values: np.ndarray) -> float:
    """Total bits to code ``values`` under their own Gaussian model."""
    if values.size < 2:
        return np.inf
    sigma = max(float(values.std()), 1e-6)
    mean = float(values.mean())
    log_pdf = (
        -0.5 * np.log2(2.0 * np.pi * sigma**2)
        - ((values - mean) ** 2) / (2.0 * sigma**2) * np.log2(np.e)
    )
    return _PARAMETER_BITS + float(np.sum(-log_pdf))


def relevant_axes_by_vac(members: np.ndarray) -> frozenset[int]:
    """Axes where the Gaussian code beats the uniform code."""
    axes = set()
    for axis in range(members.shape[1]):
        uniform_cost = _UNIFORM_BITS * members.shape[0]
        if gaussian_bits(members[:, axis]) < uniform_cost:
            axes.add(axis)
    return frozenset(axes)


def point_coding_cost(members: np.ndarray, axes: frozenset[int]) -> np.ndarray:
    """Per-point bits under the cluster's chosen per-axis models."""
    cost = np.zeros(members.shape[0])
    for axis in sorted(axes):
        column = members[:, axis]
        sigma = max(float(column.std()), 1e-6)
        mean = float(column.mean())
        log_pdf = (
            -0.5 * np.log2(2.0 * np.pi * sigma**2)
            - ((column - mean) ** 2) / (2.0 * sigma**2) * np.log2(np.e)
        )
        cost += -log_pdf
    return cost


class RIC:
    """Information-theoretic refinement of a clustering.

    Parameters
    ----------
    eviction_sigmas:
        Points whose coding cost exceeds the cluster's median cost by
        this many (robust) standard deviations become noise.
    min_cluster_size:
        Clusters that shrink below this size dissolve into noise.
    """

    name = "RIC"

    def __init__(self, eviction_sigmas: float = 3.0, min_cluster_size: int = 8):
        if eviction_sigmas <= 0:
            raise ValueError("eviction_sigmas must be positive")
        self.eviction_sigmas = float(eviction_sigmas)
        self.min_cluster_size = int(min_cluster_size)

    def refine(
        self, result: ClusteringResult, points: np.ndarray
    ) -> ClusteringResult:
        """Purify ``result`` over ``points``; returns a new clustering."""
        points = np.asarray(points, dtype=np.float64)
        check_array("points", points, dtype=np.float64, ndim=2, finite=True)
        labels = np.full(points.shape[0], NOISE_LABEL, dtype=np.int64)
        clusters: list[SubspaceCluster] = []
        for cluster in result.clusters:
            members_idx = cluster.indices
            members = points[members_idx]
            axes = relevant_axes_by_vac(members)
            if not axes:
                axes = cluster.relevant_axes
            if not axes or members_idx.size < self.min_cluster_size:
                continue
            cost = point_coding_cost(members, axes)
            median = float(np.median(cost))
            mad = float(np.median(np.abs(cost - median)))
            cutoff = median + self.eviction_sigmas * max(1.4826 * mad, 1e-6)
            keep = members_idx[cost <= cutoff]
            if keep.size < self.min_cluster_size:
                continue
            labels[keep] = len(clusters)
            clusters.append(SubspaceCluster.from_iterables(keep, axes))
        return ClusteringResult(
            labels=labels,
            clusters=clusters,
            extras={**result.extras, "ric_refined": True},
        )
