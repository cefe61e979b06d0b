"""DOC / FastDOC — A Monte Carlo Algorithm for Fast Projective
Clustering (Procopiuc, Jones, Agarwal, Murali, SIGMOD 2002).

DOC defines the projected-cluster model CFPC inherits: a cluster is a
medoid ``p`` and a subspace ``D`` with every member within ``w`` of
``p`` along each axis of ``D``, scored by
``mu(|C|, |D|) = |C| * (1/beta)^|D|``.  The search is randomised: draw
a pivot ``p`` and a small *discriminating set* ``X``; the candidate
subspace keeps the axes on which all of ``X`` stays within ``w`` of
``p``; the candidate cluster is every point inside the resulting box.
Repeating the draw enough times finds an approximately optimal cluster
with fixed probability; FastDOC caps the inner iterations (we expose
``max_iter``).

Multiple clusters come from the standard greedy peel: find the best
cluster, remove its points, repeat — which is also how the paper's
CFPC baseline operationalises DOC's model.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.types import NOISE_LABEL, ClusteringResult, SubspaceCluster


class DOC(SubspaceClusterer):
    """Monte-Carlo projective clustering.

    Parameters
    ----------
    n_clusters:
        Clusters to peel.
    w:
        Box half-width per relevant axis (unit-cube fraction).
    alpha:
        Minimum cluster size as a fraction of the remaining points.
    beta:
        Size/dimensionality trade-off of the quality ``mu``.
    max_iter:
        Monte-Carlo draws per cluster (FastDOC-style cap); the original
        bound ``(2/alpha) * ln 4`` iterations of ``m`` set draws is far
        larger.
    discriminating_size:
        Size ``r`` of the discriminating set (DOC uses
        ``log(2d) / log(1/(2 beta))`` — a handful).
    random_state:
        Monte-Carlo seed.
    """

    name = "DOC"

    def __init__(
        self,
        n_clusters: int,
        w: float = 0.1,
        alpha: float = 0.05,
        beta: float = 0.25,
        max_iter: int = 64,
        discriminating_size: int = 4,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if not 0.0 < w < 1.0:
            raise ValueError("w must be in (0, 1)")
        self.n_clusters = int(n_clusters)
        self.w = float(w)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.max_iter = int(max_iter)
        self.discriminating_size = int(discriminating_size)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n = points.shape[0]
        rng = np.random.default_rng(self.random_state)
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        clusters: list[SubspaceCluster] = []

        for cluster_id in range(self.n_clusters):
            remaining = np.flatnonzero(labels == NOISE_LABEL)
            if remaining.size < max(2, self.discriminating_size + 1):
                break
            found = self._best_cluster(points[remaining], rng)
            if found is None:
                continue
            axes, mask = found
            members = remaining[mask]
            labels[members] = cluster_id
            clusters.append(SubspaceCluster.from_iterables(members, axes))

        # Peels that found nothing leave gaps in the ids; close them.
        compact = np.full(n, NOISE_LABEL, dtype=np.int64)
        for k, cluster in enumerate(clusters):
            compact[cluster.indices] = k
        return ClusteringResult(labels=compact, clusters=clusters, extras={})

    def _best_cluster(self, points: np.ndarray, rng: np.random.Generator):
        """One greedy-peel step: best (subspace, member mask) found."""
        n = points.shape[0]
        min_size = max(2, int(np.ceil(self.alpha * n)))
        gain = 1.0 / self.beta
        best_quality = 0.0
        best = None
        for _ in range(self.max_iter):
            pivot = points[int(rng.integers(n))]
            sample = points[rng.integers(0, n, size=self.discriminating_size)]
            axes = np.flatnonzero(
                np.all(np.abs(sample - pivot) <= self.w, axis=0)
            )
            if axes.size == 0:
                continue
            mask = np.all(np.abs(points[:, axes] - pivot[axes]) <= self.w, axis=1)
            size = int(mask.sum())
            if size < min_size:
                continue
            quality = size * gain ** axes.size
            if quality > best_quality:
                best_quality = quality
                best = (axes.tolist(), mask)
        return best
