"""HARP — a Hierarchical approach with Automatic Relevant dimension
selection for Projected clustering (Yip, Cheung, Ng, TKDE 2004).

HARP clusters agglomeratively: every point starts as a singleton, and
pairs keep merging while the merged cluster *selects* enough relevant
dimensions.  A dimension ``j`` is relevant to cluster ``C`` when its
local variance is small next to the global variance, measured by the
relevance index

    R_Cj = 1 - var_Cj / var_j .

Two dynamic thresholds control the merges: the minimum number of
selected dimensions ``d_min`` and the minimum relevance ``R_min``.
Both start maximally strict (``d_min = d``, ``R_min`` near 1) and relax
level by level, so pure merges happen first — this is how HARP avoids
user-supplied densities.  Merging stops when ``n_clusters`` remain.
The paper supplies the true cluster count and the known noise
percentile, which HARP uses to discard the worst-fitting points.

Complexity: inherently quadratic in the number of points (the paper's
Figure 5 shows HARP's run time and memory exploding, and its authors'
cache structures — we mimic the linear-space "Conga line" choice by
keeping only per-cluster sufficient statistics).  For tractability this
implementation agglomerates over at most ``max_points`` points
(sampled uniformly) and attaches the remainder to the nearest cluster
in its selected subspace — the same regime the original needs on large
data.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult

_NEG = -np.inf


class HARP(SubspaceClusterer):
    """Hierarchical projected clustering with automatic relevance.

    Parameters
    ----------
    n_clusters:
        Target number of clusters (true count in the paper's setup).
    max_noise_percent:
        Fraction of points to discard as noise at the end (the paper
        feeds the known percentile).
    n_levels:
        Number of threshold relaxation levels.
    r_start:
        Initial relevance threshold ``R_min`` (relaxes linearly to 0).
    max_points:
        Agglomeration budget; larger datasets are subsampled and the
        rest assigned afterwards.
    random_state:
        Seed for the subsample.
    """

    name = "HARP"

    def __init__(
        self,
        n_clusters: int,
        max_noise_percent: float = 0.15,
        n_levels: int = 10,
        r_start: float = 0.9,
        max_points: int = 6000,
        random_state: int = 0,
    ):
        if n_clusters < 1:
            raise ValueError("n_clusters must be positive")
        if not 0.0 <= max_noise_percent < 1.0:
            raise ValueError("max_noise_percent must be in [0, 1)")
        self.n_clusters = int(n_clusters)
        self.max_noise_percent = float(max_noise_percent)
        self.n_levels = int(n_levels)
        self.r_start = float(r_start)
        self.max_points = int(max_points)
        self.random_state = int(random_state)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        rng = np.random.default_rng(self.random_state)
        global_var = np.maximum(points.var(axis=0), 1e-12)

        if n > self.max_points:
            sample = np.sort(rng.choice(n, size=self.max_points, replace=False))
        else:
            sample = np.arange(n)
        work = points[sample]

        member_lists, selected_dims = self._agglomerate(work, global_var)
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        for cluster_id, members in enumerate(member_lists):
            labels[sample[members]] = cluster_id

        labels = self._attach_rest(points, labels, member_lists, sample, selected_dims)
        labels = self._discard_noise(points, labels, len(member_lists))

        def final_dims(cluster_id: int) -> list[int]:
            # Select dimensions from the final membership: the noise
            # discard and the attachment of unsampled points sharpen
            # the per-axis variances considerably.
            sub = points[labels == cluster_id]
            return self._selected_dims(
                float(sub.shape[0]),
                sub.sum(axis=0),
                (sub**2).sum(axis=0),
                global_var,
                r_min=0.0,
            )

        return result_from_labels(
            labels, final_dims, extras={"n_agglomerated": int(sample.size)}
        )

    # ------------------------------------------------------------------
    # Agglomeration with relaxing thresholds
    # ------------------------------------------------------------------

    def _agglomerate(self, points: np.ndarray, global_var: np.ndarray):
        """Merge singletons under relaxing (d_min, R_min) thresholds.

        Sufficient statistics (count, per-axis sum and sum of squares)
        make the merged relevance of any pair an O(d) expression, and a
        vectorised pass scores one cluster against all others at once.
        A best-partner cache keeps the merge loop near O(n^2 d): each
        merge recomputes partners only for the merged cluster and for
        clusters whose cached partner just disappeared.
        """
        m, d = points.shape
        count = np.ones(m)
        sums = points.copy()
        squares = points**2
        alive = np.ones(m, dtype=bool)
        members: list[list[int]] = [[i] for i in range(m)]

        for level in range(self.n_levels):
            frac = 1.0 - level / max(self.n_levels - 1, 1)
            d_min = max(1, int(round(d * frac)))
            r_min = self.r_start * frac

            partner = np.full(m, -1, dtype=np.int64)
            partner_score = np.full(m, _NEG)

            def refresh(i: int) -> None:
                """Recompute i's best partner and push better symmetric
                scores into the other clusters' caches."""
                others, scores = self._scores_vs_all(
                    i, count, sums, squares, alive, global_var, d_min, r_min
                )
                if others.size == 0:
                    partner[i], partner_score[i] = -1, _NEG
                    return
                pick = int(np.argmax(scores))
                partner[i], partner_score[i] = int(others[pick]), float(scores[pick])
                better = scores > partner_score[others]
                partner[others[better]] = i
                partner_score[others[better]] = scores[better]

            for i in np.flatnonzero(alive):
                refresh(int(i))

            while int(alive.sum()) > self.n_clusters:
                candidates = np.where(alive, partner_score, _NEG)
                i = int(np.argmax(candidates))
                if candidates[i] == _NEG:
                    break
                j = int(partner[i])
                count[i] += count[j]
                sums[i] += sums[j]
                squares[i] += squares[j]
                alive[j] = False
                members[i].extend(members[j])
                members[j] = []
                partner_score[j] = _NEG

                stale = np.flatnonzero(alive & ((partner == i) | (partner == j)))
                for s in stale:
                    if s != i:
                        refresh(int(s))
                refresh(i)
            if int(alive.sum()) <= self.n_clusters:
                break

        alive_ids = np.flatnonzero(alive)
        member_lists = [members[i] for i in alive_ids]
        selected = [
            self._selected_dims(
                count[i], sums[i], squares[i], global_var, r_min=0.0
            )
            for i in alive_ids
        ]
        return member_lists, selected

    @staticmethod
    def _scores_vs_all(i, count, sums, squares, alive, global_var, d_min, r_min):
        """Merge scores of cluster ``i`` against every other live cluster.

        Returns ``(others, scores)``; disallowed merges (fewer than
        ``d_min`` selected dimensions) score ``-inf``.
        """
        others = np.flatnonzero(alive)
        others = others[others != i]
        if others.size == 0:
            return others, np.empty(0)
        total = count[i] + count[others]
        mean = (sums[i] + sums[others]) / total[:, None]
        var = (squares[i] + squares[others]) / total[:, None] - mean**2
        relevance = 1.0 - np.maximum(var, 0.0) / global_var
        selected = relevance >= r_min
        n_selected = selected.sum(axis=1)
        enough = n_selected >= d_min
        # HARP prefers merges that keep the most selected dimensions;
        # the summed relevance only breaks ties (it is bounded by d, so
        # scaling the count by d keeps the ordering lexicographic).
        d = relevance.shape[1]
        scores = np.where(
            enough,
            n_selected * (d + 1.0) + (relevance * selected).sum(axis=1),
            _NEG,
        )
        return others, scores

    @staticmethod
    def _selected_dims(count, sums, squares, global_var, r_min):
        """Dimensions whose relevance index clears ``r_min``."""
        mean = sums / count
        var = np.maximum(squares / count - mean**2, 0.0)
        relevance = 1.0 - var / global_var
        selected = np.flatnonzero(relevance > max(r_min, 0.5))
        if selected.size == 0:
            selected = np.array([int(np.argmax(relevance))])
        return selected.tolist()

    # ------------------------------------------------------------------
    # Assignment of non-sampled points and noise filtering
    # ------------------------------------------------------------------

    def _attach_rest(self, points, labels, member_lists, sample, selected_dims):
        """Give unsampled points the label of the nearest projected centroid."""
        unlabeled = np.flatnonzero(labels == NOISE_LABEL)
        if unlabeled.size == 0 or not member_lists:
            return labels
        centroids = []
        for cluster_id, members in enumerate(member_lists):
            centroids.append(points[sample[members]].mean(axis=0))
        best_dist = np.full(unlabeled.size, np.inf)
        best_lab = np.full(unlabeled.size, NOISE_LABEL, dtype=np.int64)
        for cluster_id, centroid in enumerate(centroids):
            dims = selected_dims[cluster_id]
            diff = points[unlabeled][:, dims] - centroid[dims]
            dist = np.abs(diff).mean(axis=1)
            closer = dist < best_dist
            best_dist[closer] = dist[closer]
            best_lab[closer] = cluster_id
        labels[unlabeled] = best_lab
        return labels

    def _discard_noise(self, points, labels, k):
        """Drop the worst-fitting ``max_noise_percent`` of points."""
        if self.max_noise_percent <= 0.0 or k == 0:
            return labels
        fit = np.zeros(points.shape[0])
        for cluster_id in range(k):
            members = np.flatnonzero(labels == cluster_id)
            if members.size < 2:
                continue
            sub = points[members]
            std = np.maximum(sub.std(axis=0), 1e-9)
            z = (sub - sub.mean(axis=0)) / std
            fit[members] = np.sqrt((z * z).mean(axis=1))
        n_noise = int(points.shape[0] * self.max_noise_percent)
        if n_noise > 0:
            worst = np.argsort(-fit)[:n_noise]
            labels[worst] = NOISE_LABEL
        return labels
