"""Soft correlation clustering (the journal follow-up's extension).

The conference method (this paper) produces *hard*, disjoint clusters:
each β-cluster claims its space exclusively and every point gets one
label.  The journal extension of the method (Halite, TKDE 2013) adds a
*soft* variant in which clusters may overlap and points carry
membership degrees — useful when real structures genuinely share
space (e.g. tissue patterns sharing feature ranges).

This module implements that extension on top of the phase-1/phase-2
machinery:

* the standard β-cluster search runs unchanged (it already surfaces
  structures that overlap on a subset of their axes, since exclusion
  requires overlap on *every* axis);
* β-clusters are merged into soft clusters when their boxes overlap
  substantially (worst-axis Jaccard of the relevant-axis intervals),
  which is stricter than the hard variant's any-positive-overlap rule;
* every point receives a membership degree per soft cluster from a
  Gaussian model fitted over the cluster's relevant axes; degrees are
  *not* normalised across clusters — a point may belong strongly to
  two overlapping clusters, or weakly to all (noise).

:func:`find_beta_clusters_soft` additionally exposes the
exclusion-free search for exploratory use (every dense region
including sub-slices of spread clusters surfaces as its own
candidate).
"""

from __future__ import annotations

import numpy as np

from repro.core.beta_cluster import BetaCluster, _SearchState, _search_pass
from repro.core.contracts import check_array
from repro.core.correlation_cluster import UnionFind
from repro.core.counting_tree import MIN_RESOLUTIONS, CountingTree
from repro.data.normalize import minmax_normalize
from repro.types import (
    NOISE_LABEL,
    ClusteringResult,
    FloatArray,
    IntArray,
    records_from_labels,
)


def find_beta_clusters_soft(
    tree: CountingTree, alpha: float, max_beta_clusters: int = 64
) -> list[BetaCluster]:
    """Algorithm 2 without the inter-cluster space exclusion.

    The ``usedCell`` flags remain (one seed per cell) but found boxes do
    not mask the space, so overlapping structures can each surface.  A
    finite ``max_beta_clusters`` bounds the run because without
    exclusion the stop condition weakens.
    """
    state = _SearchState(tree)
    found: list[BetaCluster] = []
    while len(found) < max_beta_clusters:
        new_cluster = _search_pass(state, alpha)
        if new_cluster is None:
            break
        found.append(new_cluster)
        # NOTE: deliberately no state.exclude_box(new_cluster).
    state.count_bounded()
    return found


def _interval_jaccard(beta_a: BetaCluster, beta_b: BetaCluster) -> float:
    """Worst-axis Jaccard overlap of the boxes over shared relevant axes.

    The minimum (not the mean) is the right aggregator: two structures
    that coincide on every axis but one are different clusters — one
    disjoint axis must veto the merge.
    """
    shared = sorted(beta_a.relevant_axes & beta_b.relevant_axes)
    if not shared:
        return 0.0
    scores = []
    for axis in shared:
        lo = max(beta_a.lower[axis], beta_b.lower[axis])
        hi = min(beta_a.upper[axis], beta_b.upper[axis])
        union_lo = min(beta_a.lower[axis], beta_b.lower[axis])
        union_hi = max(beta_a.upper[axis], beta_b.upper[axis])
        if union_hi <= union_lo:
            scores.append(0.0)
        else:
            scores.append(max(hi - lo, 0.0) / (union_hi - union_lo))
    return float(np.min(scores))


def merge_soft(
    betas: list[BetaCluster], jaccard_threshold: float = 0.5
) -> list[list[int]]:
    """Group β-clusters whose boxes substantially coincide."""
    uf = UnionFind(len(betas))
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            if _interval_jaccard(betas[i], betas[j]) >= jaccard_threshold:
                uf.union(i, j)
    return sorted(uf.components().values(), key=lambda members: members[0])


class SoftMrCC:
    """Soft-membership variant of MrCC.

    Parameters
    ----------
    alpha / n_resolutions / normalize:
        As in :class:`~repro.core.mrcc.MrCC`.
    membership_threshold:
        Minimum degree for a point to count as a member of a cluster;
        points below the threshold everywhere are noise.
    jaccard_threshold:
        Box overlap above which two β-clusters describe the same soft
        cluster.
    max_beta_clusters:
        Search budget (the exclusion-free search needs a bound).

    After :meth:`fit`: ``membership_`` is the ``(n_points, k)`` degree
    matrix; the returned :class:`ClusteringResult` hard-assigns each
    point to its strongest cluster for interoperability.
    """

    def __init__(
        self,
        alpha: float = 1e-10,
        n_resolutions: int = 4,
        normalize: bool = True,
        membership_threshold: float = 0.05,
        jaccard_threshold: float = 0.5,
        max_beta_clusters: int = 64,
    ) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if n_resolutions < MIN_RESOLUTIONS:
            raise ValueError(f"n_resolutions must be >= {MIN_RESOLUTIONS}")
        if not 0.0 <= membership_threshold < 1.0:
            raise ValueError("membership_threshold must be in [0, 1)")
        self.alpha = float(alpha)
        self.n_resolutions = int(n_resolutions)
        self.normalize = bool(normalize)
        self.membership_threshold = float(membership_threshold)
        self.jaccard_threshold = float(jaccard_threshold)
        self.max_beta_clusters = int(max_beta_clusters)
        self.membership_: FloatArray | None = None
        self.beta_clusters_: list[BetaCluster] | None = None
        self.labels_: IntArray | None = None

    def fit(self, points: FloatArray) -> ClusteringResult:
        """Soft-cluster ``points``; returns the hard-argmax view."""
        points = np.asarray(points, dtype=np.float64)
        check_array("points", points, dtype=np.float64, ndim=2, finite=True)
        if self.normalize:
            points = minmax_normalize(points)

        from repro.core.beta_cluster import find_beta_clusters

        tree = CountingTree(points, n_resolutions=self.n_resolutions)
        betas = find_beta_clusters(
            tree, self.alpha, max_beta_clusters=self.max_beta_clusters
        )
        self.beta_clusters_ = betas
        groups = merge_soft(betas, self.jaccard_threshold)
        membership = self._membership_matrix(points, betas, groups)

        labels = np.full(points.shape[0], NOISE_LABEL, dtype=np.int64)
        if membership.shape[1]:
            best = membership.argmax(axis=1)
            strong = membership.max(axis=1) >= self.membership_threshold
            labels[strong] = best[strong]

        # Groups that attracted no hard member drop out; the others keep
        # their order as cluster ids, in the labels and the membership.
        clustered = labels != NOISE_LABEL
        kept = np.flatnonzero(np.bincount(labels[clustered], minlength=len(groups)))
        remap = np.full(len(groups), NOISE_LABEL, dtype=np.int64)
        remap[kept] = np.arange(kept.size, dtype=np.int64)
        labels[clustered] = remap[labels[clustered]]
        clusters = records_from_labels(
            labels,
            [
                frozenset().union(*(betas[i].relevant_axes for i in groups[g]))
                for g in kept
            ],
        )
        membership = membership[:, kept]
        self.membership_ = membership
        self.labels_ = labels
        return ClusteringResult(
            labels=labels,
            clusters=clusters,
            extras={
                "n_beta_clusters": len(betas),
                "membership": self.membership_,
                "soft": True,
            },
        )

    def _membership_matrix(
        self,
        points: FloatArray,
        betas: list[BetaCluster],
        groups: list[list[int]],
    ) -> FloatArray:
        """Gaussian membership degree of every point to every group."""
        n = points.shape[0]
        membership = np.zeros((n, len(groups)), dtype=np.float64)
        for g, members in enumerate(groups):
            seeds = np.zeros(n, dtype=bool)
            axes: set[int] = set()
            for beta_index in members:
                beta = betas[beta_index]
                axes.update(beta.relevant_axes)
                seeds |= np.all(
                    (points >= beta.lower) & (points <= beta.upper), axis=1
                )
            axis_list = sorted(axes)
            if not np.any(seeds) or not axis_list:
                continue
            sub = points[np.ix_(seeds.nonzero()[0], axis_list)]
            center = sub.mean(axis=0)
            spread = np.maximum(sub.std(axis=0), 1e-6)
            z = (points[:, axis_list] - center) / spread
            membership[:, g] = np.exp(-0.5 * (z**2).mean(axis=1))
        return membership

    def fit_predict(self, points: FloatArray) -> IntArray:
        """Soft-cluster ``points`` and return the hard-argmax labels."""
        return self.fit(points).labels
