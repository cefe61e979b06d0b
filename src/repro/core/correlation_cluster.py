"""Building correlation clusters from β-clusters (Section III-C, Alg. 3).

β-clusters that share data space (their boxes overlap along *every*
axis) describe the same underlying correlation cluster and are merged;
the merge is the transitive closure of the pairwise sharing relation,
computed with a union-find.  A correlation cluster's relevant axes are
the union of its members' relevant axes, and its space is the union of
their boxes.

Finally the dataset is partitioned: a point belongs to the correlation
cluster whose member box contains it; all remaining points are noise.
Boxes of distinct correlation clusters are *not* disjoint: the merge
only joins boxes whose overlap has positive measure, so two groups'
boxes may touch on a shared face, and the closed containment test puts
a point on that face inside both.  The lowest group id wins, which
keeps the assignment a deterministic function of the point.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.beta_cluster import BetaCluster
from repro.core.contracts import check_array, check_labels, check_normalizer
from repro.core.kernels import active_backend
from repro.types import (
    NOISE_LABEL,
    ClusteringResult,
    FloatArray,
    IntArray,
    Normalizer,
    SubspaceCluster,
)


class UnionFind:
    """Minimal union-find with path compression and union by size."""

    def __init__(self, n: int) -> None:
        self._parent = list(range(n))
        self._size = [1] * n

    def find(self, i: int) -> int:
        """Representative of ``i``'s component."""
        root = i
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[i] != root:
            self._parent[i], i = root, self._parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        """Merge the components of ``i`` and ``j``."""
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self._size[ri] < self._size[rj]:
            ri, rj = rj, ri
        self._parent[rj] = ri
        self._size[ri] += self._size[rj]

    def components(self) -> dict[int, list[int]]:
        """Map each representative to its sorted member list."""
        groups: dict[int, list[int]] = {}
        for i in range(len(self._parent)):
            groups.setdefault(self.find(i), []).append(i)
        return groups


def merge_beta_clusters(betas: list[BetaCluster]) -> list[list[int]]:
    """Group β-cluster indices into correlation clusters (Alg. 3 lines 1-5).

    Groups are ordered by their smallest member index, so correlation
    cluster ids are stable across runs.
    """
    uf = UnionFind(len(betas))
    for i in range(len(betas)):
        for j in range(i + 1, len(betas)):
            if betas[i].shares_space_with(betas[j]):
                uf.union(i, j)
    groups = sorted(uf.components().values(), key=lambda members: members[0])
    return groups


def label_points(
    points: FloatArray,
    betas: list[BetaCluster],
    groups: list[list[int]],
    normalizer: Normalizer | None = None,
) -> IntArray:
    """Partition the dataset: box membership → cluster id, else noise.

    The member boxes are flattened in group order and handed to the
    active backend's ``label_rows`` kernel, so a point takes the group
    of the first box containing it.  Groups may touch on a shared face
    (see the module docstring); a point on it gets the lowest group id.
    A row with a NaN coordinate lies in no box and stays noise.  With a
    fitted min-max ``normalizer`` the points are raw: the kernel maps
    each coordinate as it reads it, bit-identically to labelling
    :func:`~repro.data.normalize.apply_minmax` of them, without the copy.
    """
    members = [beta_index for group in groups for beta_index in group]
    box_group = np.repeat(
        np.arange(len(groups), dtype=np.int64),
        [len(group) for group in groups],
    )
    # The reshape keeps (0, d) for zero boxes and rejects boxes whose
    # dimensionality differs from the points'.
    shape = (len(members), points.shape[1])
    lower = np.array([betas[b].lower for b in members], dtype=np.float64)
    upper = np.array([betas[b].upper for b in members], dtype=np.float64)
    if normalizer is not None:
        normalizer = check_normalizer("normalizer", normalizer, points.shape[1])
    return active_backend().label_rows(
        points, lower.reshape(shape), upper.reshape(shape), box_group, normalizer
    )


def assemble_result(
    labels: IntArray, betas: list[BetaCluster], groups: list[list[int]]
) -> ClusteringResult:
    """Wrap a label vector with one cluster record per merged group.

    Shared by the in-memory fit, the streaming and the serving label
    paths, so every path reports the same records.
    """
    clusters = []
    for cluster_id, members in enumerate(groups):
        axes = {axis for b in members for axis in betas[b].relevant_axes}
        clusters.append(
            SubspaceCluster.from_iterables(np.flatnonzero(labels == cluster_id), axes)
        )
    return ClusteringResult(
        labels=labels,
        clusters=clusters,
        extras={
            "n_beta_clusters": len(betas),
            "beta_clusters": betas,
            "groups": groups,
        },
    )


def build_correlation_clusters(
    points: FloatArray,
    betas: list[BetaCluster],
    normalizer: Normalizer | None = None,
) -> ClusteringResult:
    """Run Algorithm 3: merge β-clusters, define axes, label points.

    ``normalizer`` labels raw points through a fitted min-max map, as
    :func:`label_points` does.
    """
    check_array("points", points, dtype=np.float64, ndim=2)
    if not betas:
        labels = np.full(points.shape[0], NOISE_LABEL, dtype=np.int64)
        return assemble_result(labels, [], [])
    with obs.span("assemble"):
        obs.incr("assemble.beta_clusters", len(betas))
        groups = merge_beta_clusters(betas)
        obs.incr("assemble.clusters", len(groups))
        labels = check_labels(
            "labels", label_points(points, betas, groups, normalizer)
        )
        if obs.enabled():
            # O(n) scan, so only under an active tracer.
            obs.incr("assemble.noise_points", int(np.sum(labels == NOISE_LABEL)))
    return assemble_result(labels, betas, groups)
