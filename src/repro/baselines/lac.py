"""LAC — Locally Adaptive Clustering (Domeniconi et al., DMKD 2007).

LAC is a k-means-style partitioner that learns, for every cluster, one
*weight* per axis instead of a hard subspace: axes along which the
cluster is tight get exponentially larger weights.  It minimises

    Σ_k Σ_j ( w_kj · X_kj + h · w_kj · log w_kj ),   Σ_j w_kj = 1

where ``X_kj`` is the average squared distance of cluster ``k``'s
points to its centroid along axis ``j``.  The closed-form solution per
iteration is the Gibbs distribution ``w_kj ∝ exp(-X_kj / h)``, after
which points are re-assigned to the centroid with the smallest
*weighted* squared distance and centroids are recomputed.

Properties the paper relies on (Section IV): LAC needs the number of
clusters ``k``; it produces a full partition (no noise set); it ranks
axes by weight but does not select relevant axes — which is why the
paper excludes it from the Subspaces Quality comparison.  The parameter
is reported as ``1/h`` (integers 1..11 were tried).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import kmeanspp_seeds, result_from_labels
from repro.types import ClusteringResult


class LAC(SubspaceClusterer):
    """Locally adaptive clustering with per-cluster axis weights.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k`` (the paper feeds the true count).
    inv_h:
        The paper's tuning knob ``1/h``; larger values sharpen the
        weight distribution.
    max_iter / tol:
        Iteration control for the assign/weight/centroid loop.
    random_state:
        Seed for the k-means++ initialisation.
    """

    name = "LAC"

    def __init__(
        self,
        n_clusters: int,
        inv_h: float = 4.0,
        max_iter: int = 50,
        tol: float = 1e-5,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if inv_h <= 0:
            raise ValueError("inv_h must be positive")
        self.n_clusters = int(n_clusters)
        self.inv_h = float(inv_h)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        k = min(self.n_clusters, n)
        rng = np.random.default_rng(self.random_state)

        centroids = points[kmeanspp_seeds(points, k, rng)].copy()
        weights = np.full((k, d), 1.0 / d)
        labels = self._assign(points, centroids, weights)

        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            centroids, weights = self._update(points, labels, centroids, k)
            new_labels = self._assign(points, centroids, weights)
            changed = np.count_nonzero(new_labels != labels)
            labels = new_labels
            if changed <= self.tol * n:
                break

        # LAC yields a full partition; empty clusters (possible when k
        # exceeds the natural structure) are dropped from the report.
        return result_from_labels(
            labels,
            lambda c: self._weighted_axes(weights[c], d),
            extras={"n_iter": n_iter, "weights": weights},
        )

    @staticmethod
    def _assign(
        points: np.ndarray, centroids: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Assign each point to the centroid of least weighted distance."""
        distances = np.empty((points.shape[0], centroids.shape[0]))
        for c in range(centroids.shape[0]):
            diff = points - centroids[c]
            distances[:, c] = (diff * diff) @ weights[c]
        return np.argmin(distances, axis=1).astype(np.int64)

    def _update(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
        k: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Recompute centroids and Gibbs weights for one iteration."""
        d = points.shape[1]
        new_centroids = centroids.copy()
        weights = np.full((k, d), 1.0 / d)
        for c in range(k):
            members = points[labels == c]
            if members.shape[0] == 0:
                continue
            new_centroids[c] = members.mean(axis=0)
            dispersion = ((members - new_centroids[c]) ** 2).mean(axis=0)
            logits = -dispersion * self.inv_h
            logits -= logits.max()
            gibbs = np.exp(logits)
            weights[c] = gibbs / gibbs.sum()
        return new_centroids, weights

    @staticmethod
    def _weighted_axes(weights_row: np.ndarray, d: int) -> list[int]:
        """Axes with above-uniform weight — LAC's closest analogue to
        a relevant-axis set (the paper excludes LAC from the Subspaces
        Quality figures for exactly this fuzziness)."""
        return np.flatnonzero(weights_row > 1.0 / d).tolist()
