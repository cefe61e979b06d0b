"""ORCLUS — Finding Generalized Projected Clusters (Aggarwal & Yu,
TKDE 2002; Section II of the MrCC paper).

ORCLUS extends PROCLUS to *arbitrarily oriented* subspaces: each
cluster carries an orthonormal basis of the directions in which its
points are least spread (the eigenvectors of the cluster's covariance
with the smallest eigenvalues).  The algorithm runs a merge-and-refine
schedule: start with ``k0 > k`` seeds in the full space, repeatedly

1. assign points to the seed nearest in its *projected* distance,
2. recompute each cluster's subspace from its covariance eigenvectors,
3. merge the pair of clusters whose union has the least projected
   energy,

while gradually shrinking both the number of clusters (towards ``k``)
and the subspace dimensionality (towards ``l``).

In the MrCC comparison narrative ORCLUS is the classic method that can
follow rotated clusters — but at cubic cost in the dimensionality.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import kmeanspp_seeds, result_from_labels
from repro.types import ClusteringResult


class ORCLUS(SubspaceClusterer):
    """Generalized projected clustering with oriented subspaces.

    Parameters
    ----------
    n_clusters:
        Final number of clusters ``k``.
    subspace_dim:
        Final subspace dimensionality ``l``.
    k0_factor:
        Initial seed count multiplier (``k0 = k0_factor * k``).
    alpha:
        Cluster-count decay per iteration (ORCLUS uses 0.5).
    random_state:
        Seed for the initial medoid draw.
    """

    name = "ORCLUS"

    def __init__(
        self,
        n_clusters: int,
        subspace_dim: int = 4,
        k0_factor: int = 3,
        alpha: float = 0.5,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if subspace_dim < 1:
            raise ValueError("subspace_dim must be positive")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.n_clusters = int(n_clusters)
        self.subspace_dim = int(subspace_dim)
        self.k0_factor = max(1, int(k0_factor))
        self.alpha = float(alpha)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        rng = np.random.default_rng(self.random_state)
        l_target = min(self.subspace_dim, d)
        k_current = min(self.k0_factor * self.n_clusters, max(n // 4, self.n_clusters))
        l_current = d

        centroids = points[kmeanspp_seeds(points, k_current, rng)].copy()
        bases = [np.eye(d) for _ in range(k_current)]

        while True:
            labels = self._assign(points, centroids, bases)
            centroids, bases, labels = self._refit(
                points, labels, centroids, l_current
            )
            if k_current <= self.n_clusters and l_current <= l_target:
                break
            k_new = max(self.n_clusters, int(k_current * self.alpha))
            # l shrinks in step with k (ORCLUS couples the schedules).
            l_new = max(
                l_target,
                int(round(d - (d - l_target)
                          * (np.log(max(k_new, 1)) - np.log(self.n_clusters))
                          / max(np.log(max(k_current, 2))
                                - np.log(self.n_clusters), 1e-9))),
            ) if k_new > self.n_clusters else l_target
            while k_current > k_new and k_current > 1:
                centroids, bases, labels = self._merge_once(
                    points, labels, centroids, bases, l_current
                )
                k_current -= 1
            l_current = max(l_new, l_target)

        return result_from_labels(
            self._assign(points, centroids, bases),
            lambda c: self._loaded_axes(bases[c], d),
            extras={"subspace_dim": l_target, "bases": bases},
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _assign(points, centroids, bases) -> np.ndarray:
        """Nearest centroid in each cluster's projected distance."""
        n = points.shape[0]
        distances = np.full((n, centroids.shape[0]), np.inf)
        for c in range(centroids.shape[0]):
            diff = (points - centroids[c]) @ bases[c].T
            distances[:, c] = np.einsum("ij,ij->i", diff, diff)
        return np.argmin(distances, axis=1).astype(np.int64)

    def _refit(self, points, labels, centroids, l_current):
        """Recompute centroids and least-spread eigenbases."""
        k = centroids.shape[0]
        new_centroids = centroids.copy()
        bases = []
        for c in range(k):
            members = points[labels == c]
            if members.shape[0] < 2:
                bases.append(np.eye(points.shape[1])[:l_current])
                continue
            new_centroids[c] = members.mean(axis=0)
            bases.append(self._least_spread_basis(members, l_current))
        return new_centroids, bases, labels

    @staticmethod
    def _least_spread_basis(members: np.ndarray, l: int) -> np.ndarray:
        """Eigenvectors of the covariance with the smallest eigenvalues."""
        cov = np.cov(members.T)
        cov = np.atleast_2d(cov)
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(eigenvalues)
        keep = min(l, eigenvectors.shape[1])
        return eigenvectors[:, order[:keep]].T

    def _merge_once(self, points, labels, centroids, bases, l_current):
        """Merge the cluster pair whose union has least projected energy."""
        k = centroids.shape[0]
        best = (np.inf, 0, 1)
        for i in range(k):
            members_i = points[labels == i]
            for j in range(i + 1, k):
                union = np.vstack([members_i, points[labels == j]])
                if union.shape[0] < 2:
                    energy = 0.0
                else:
                    basis = self._least_spread_basis(union, l_current)
                    centred = union - union.mean(axis=0)
                    energy = float(
                        np.mean(np.sum((centred @ basis.T) ** 2, axis=1))
                    )
                if energy < best[0]:
                    best = (energy, i, j)
        _, i, j = best
        merged_members = np.vstack([points[labels == i], points[labels == j]])
        keep_centroids = np.delete(centroids, j, axis=0)
        keep_centroids[i] = merged_members.mean(axis=0)
        new_bases = [b for idx, b in enumerate(bases) if idx != j]
        new_bases[i] = self._least_spread_basis(
            merged_members if merged_members.shape[0] >= 2 else points,
            l_current,
        )
        labels = labels.copy()
        labels[labels == j] = i
        labels[labels > j] -= 1
        return keep_centroids, new_bases, labels

    @staticmethod
    def _loaded_axes(basis: np.ndarray, d: int, tol: float = 0.3) -> set[int]:
        """Original axes with significant loading on the subspace."""
        if basis.size == 0:
            return set(range(d))
        loading = np.abs(basis).max(axis=0)
        axes = set(int(a) for a in np.flatnonzero(loading > tol))
        return axes or {int(np.argmax(loading))}
