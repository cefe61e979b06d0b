"""PROCLUS — Fast Algorithms for Projected Clustering (Aggarwal et al.,
SIGMOD 1999).

The archetypal top-down projected-clustering method the paper builds
its related-work discussion on.  PROCLUS is k-medoid-like:

1. draw a greedy, well-separated medoid candidate pool;
2. iteratively: for each medoid, gather its *locality* (points closer
   to it than to any other medoid), compute per-axis average distances,
   and pick ``k * avg_dims`` axes overall (at least 2 per medoid) where
   localities are tightest (smallest standardised z-scores);
3. assign every point to the medoid nearest in *Manhattan segmental
   distance* over that medoid's axes;
4. replace the medoid of the smallest cluster with a random point when
   the objective stalls (the "bad medoid" swap);
5. after convergence, points farther than the cluster's locality radius
   are marked as outliers.

Needs the number of clusters and the average cluster dimensionality —
the two user burdens the paper criticises.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import kmeanspp_seeds, result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult


class PROCLUS(SubspaceClusterer):
    """Projected clustering with k medoids.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    avg_dims:
        Average cluster dimensionality ``l``; the algorithm selects
        ``k * l`` (medoid, axis) pairs in total.
    max_iter:
        Medoid-improvement iterations.
    outlier_factor:
        A point is an outlier if its segmental distance to its medoid
        exceeds ``outlier_factor`` times the medoid's locality radius.
    random_state:
        Seed for sampling and medoid swaps.
    """

    name = "PROCLUS"

    def __init__(
        self,
        n_clusters: int,
        avg_dims: int = 5,
        max_iter: int = 20,
        outlier_factor: float = 1.5,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if avg_dims < 2:
            raise ValueError("avg_dims must be at least 2")
        self.n_clusters = int(n_clusters)
        self.avg_dims = int(avg_dims)
        self.max_iter = int(max_iter)
        self.outlier_factor = float(outlier_factor)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        k = min(self.n_clusters, n)
        rng = np.random.default_rng(self.random_state)
        medoids = kmeanspp_seeds(points, k, rng)

        best_labels = None
        best_dims = None
        best_cost = np.inf
        for _ in range(self.max_iter):
            dims = self._find_dimensions(points, medoids)
            labels = self._assign(points, medoids, dims)
            cost = self._cost(points, medoids, labels, dims)
            if cost < best_cost - 1e-12:
                best_cost = cost
                best_labels = labels
                best_dims = dims
                medoids = self._swap_bad_medoid(points, medoids, labels, rng)
            else:
                break

        labels = best_labels if best_labels is not None else self._assign(
            points, medoids, self._find_dimensions(points, medoids)
        )
        dims = best_dims if best_dims is not None else self._find_dimensions(
            points, medoids
        )
        labels = self._mark_outliers(points, medoids, labels, dims)
        return result_from_labels(
            labels, dims.__getitem__, extras={"cost": best_cost}
        )

    def _find_dimensions(
        self, points: np.ndarray, medoids: np.ndarray
    ) -> list[list[int]]:
        """Greedy (medoid, axis) selection by standardised locality spread."""
        k = medoids.size
        d = points.shape[1]
        z_rows = []
        for c in range(k):
            locality = self._locality(points, medoids, c)
            x = np.abs(points[locality] - points[medoids[c]]).mean(axis=0)
            mean = x.mean()
            sigma = x.std() + 1e-12
            z_rows.append((x - mean) / sigma)
        z = np.vstack(z_rows)

        chosen: list[list[int]] = [[] for _ in range(k)]
        order = np.dstack(np.unravel_index(np.argsort(z, axis=None), z.shape))[0]
        # Guarantee two axes per medoid first, then fill greedily.
        budget = self.avg_dims * k
        taken = 0
        for c in range(k):
            for axis in np.argsort(z[c])[:2]:
                chosen[c].append(int(axis))
                taken += 1
        for c, axis in order:
            if taken >= budget:
                break
            if int(axis) not in chosen[c]:
                chosen[c].append(int(axis))
                taken += 1
        return chosen

    def _locality(self, points: np.ndarray, medoids: np.ndarray, c: int) -> np.ndarray:
        """Points within the medoid's nearest-other-medoid radius."""
        medoid = points[medoids[c]]
        others = points[np.delete(medoids, c)]
        if others.shape[0] == 0:
            return np.arange(points.shape[0])
        delta = np.sqrt(((others - medoid) ** 2).sum(axis=1).min())
        dist = np.sqrt(((points - medoid) ** 2).sum(axis=1))
        locality = np.flatnonzero(dist <= delta)
        return locality if locality.size >= 2 else np.argsort(dist)[:2]

    @staticmethod
    def _segmental(points: np.ndarray, medoid: np.ndarray, axes: list[int]) -> np.ndarray:
        """Manhattan segmental distance over the medoid's axes."""
        return np.abs(points[:, axes] - medoid[axes]).mean(axis=1)

    def _assign(self, points, medoids, dims) -> np.ndarray:
        distances = np.empty((points.shape[0], medoids.size))
        for c in range(medoids.size):
            distances[:, c] = self._segmental(points, points[medoids[c]], dims[c])
        return np.argmin(distances, axis=1).astype(np.int64)

    def _cost(self, points, medoids, labels, dims) -> float:
        total = 0.0
        for c in range(medoids.size):
            members = points[labels == c]
            if members.shape[0] == 0:
                continue
            total += self._segmental(members, points[medoids[c]], dims[c]).sum()
        return total / points.shape[0]

    @staticmethod
    def _swap_bad_medoid(points, medoids, labels, rng) -> np.ndarray:
        """Replace the medoid of the smallest cluster with a random point."""
        sizes = np.bincount(labels, minlength=medoids.size)
        bad = int(np.argmin(sizes))
        new = medoids.copy()
        candidates = np.setdiff1d(np.arange(points.shape[0]), medoids)
        if candidates.size:
            new[bad] = int(rng.choice(candidates))
        return new

    def _mark_outliers(self, points, medoids, labels, dims) -> np.ndarray:
        """Points beyond their cluster's locality radius become noise."""
        labels = labels.copy()
        for c in range(medoids.size):
            members = np.flatnonzero(labels == c)
            if members.size == 0:
                continue
            dist = self._segmental(points[members], points[medoids[c]], dims[c])
            radius = np.median(dist) * self.outlier_factor + 1e-12
            labels[members[dist > radius * 2.0]] = NOISE_LABEL
        return labels
