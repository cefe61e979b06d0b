"""CFPC / FPC — Iterative Projected Clustering by Subspace Mining
(Yiu, Mamoulis, TKDE 2005).

FPC adopts DOC's projected-cluster model (Procopiuc et al., SIGMOD
2002): a cluster is a medoid ``p`` plus a subspace ``D`` such that every
member lies within ``w`` of ``p`` along each axis of ``D``; the quality
of ``(C, D)`` is

    mu(|C|, |D|) = |C| * (1 / beta) ** |D|,

trading cluster size against dimensionality.  Where DOC samples random
discriminating sets, FPC turns the search into *frequent-itemset
mining*: for a medoid ``p`` every point defines the itemset
``{j : |x_j - p_j| <= w}``, and the best cluster around ``p`` is the
axis-itemset maximising ``mu`` with support at least ``alpha * n`` —
found here by branch-and-bound with the standard support/quality
upper-bound pruning.

CFPC is the multi-cluster extension: clusters are mined one after
another from the not-yet-clustered points, so a single run produces the
full clustering.  Points in no mined cluster are outliers.

Paper tuning (Section IV-E): ``w`` in 5..35 (for data spanning 200
units, i.e. 0.025..0.175 of the range), ``alpha`` in 0.05..0.25,
``beta`` in 0.15..0.35, ``maxout = 50``; the true cluster count was
supplied; five runs were averaged because the medoid draw is random.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult


class CFPC(SubspaceClusterer):
    """Iterative projected clustering via best-itemset mining.

    Parameters
    ----------
    n_clusters:
        Number of clusters to mine (the paper feeds the true count).
    w:
        Half-width of the cluster box along each relevant axis, as a
        fraction of the (unit) axis range.
    alpha:
        Minimum cluster support as a fraction of the points remaining
        when the cluster is mined.
    beta:
        Quality trade-off; smaller values favour higher-dimensional
        clusters.
    maxout:
        Total medoid trials allowed across the whole run.
    medoids_per_cluster:
        Random medoid candidates evaluated per mined cluster.
    random_state:
        Seed for the medoid draws.
    """

    name = "CFPC"

    def __init__(
        self,
        n_clusters: int,
        w: float = 0.1,
        alpha: float = 0.05,
        beta: float = 0.25,
        maxout: int = 50,
        medoids_per_cluster: int = 8,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if not 0.0 < w < 1.0:
            raise ValueError("w must be a fraction of the axis range in (0, 1)")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must be in (0, 1)")
        self.n_clusters = int(n_clusters)
        self.w = float(w)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.maxout = int(maxout)
        self.medoids_per_cluster = int(medoids_per_cluster)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        rng = np.random.default_rng(self.random_state)
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        axes_of: dict[int, tuple[int, ...]] = {}
        trials_left = max(self.maxout, self.n_clusters)

        for cluster_id in range(self.n_clusters):
            remaining = np.flatnonzero(labels == NOISE_LABEL)
            if remaining.size < 2 or trials_left <= 0:
                break
            min_support = max(2, int(np.ceil(self.alpha * remaining.size)))
            best = None
            trials = min(self.medoids_per_cluster, trials_left, remaining.size)
            for medoid_idx in rng.choice(remaining, size=trials, replace=False):
                trials_left -= 1
                candidate = self._mine_best_itemset(
                    points[remaining], points[medoid_idx], min_support
                )
                if candidate is None:
                    continue
                quality, axes, member_mask = candidate
                if best is None or quality > best[0]:
                    best = (quality, axes, member_mask)
            if best is None:
                continue
            _, axes, member_mask = best
            labels[remaining[member_mask]] = cluster_id
            axes_of[cluster_id] = axes

        # An iteration that mines nothing leaves a gap in the ids; the
        # compaction closes it.
        return result_from_labels(
            labels,
            axes_of.__getitem__,
            extras={"trials_used": max(self.maxout, self.n_clusters) - trials_left},
        )

    def _mine_best_itemset(
        self, points: np.ndarray, medoid: np.ndarray, min_support: int
    ):
        """Best axis-itemset around ``medoid`` by branch-and-bound.

        Returns ``(quality, axes, member_mask)`` or ``None`` when no
        itemset reaches the support floor.  Axes are explored in
        decreasing single-axis support order; a branch is pruned when
        even keeping its full current support over all axes still to
        the right cannot beat the incumbent.
        """
        d = points.shape[1]
        inside = np.abs(points - medoid) <= self.w
        support_per_axis = inside.sum(axis=0)
        order = np.argsort(-support_per_axis)
        usable = [int(a) for a in order if support_per_axis[a] >= min_support]
        if not usable:
            return None
        columns = inside[:, usable]
        gain = 1.0 / self.beta

        best = {"quality": 0.0, "axes": (), "mask": None}

        def descend(start: int, mask: np.ndarray, picked: tuple[int, ...]) -> None:
            support = int(mask.sum())
            if picked:
                quality = support * gain ** len(picked)
                if quality > best["quality"]:
                    best.update(quality=quality, axes=picked, mask=mask.copy())
            remaining = len(usable) - start
            if remaining == 0:
                return
            bound = support * gain ** (len(picked) + remaining)
            if bound <= best["quality"]:
                return
            for pos in range(start, len(usable)):
                new_mask = mask & columns[:, pos]
                if int(new_mask.sum()) < min_support:
                    continue
                descend(pos + 1, new_mask, picked + (usable[pos],))

        descend(0, np.ones(points.shape[0], dtype=bool), ())
        if best["mask"] is None:
            return None
        return best["quality"], best["axes"], best["mask"]
