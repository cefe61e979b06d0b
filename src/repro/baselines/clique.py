"""CLIQUE — Automatic Subspace Clustering (Agrawal et al., SIGMOD 1998).

The first bottom-up subspace clustering method, discussed in the
paper's related work: partition every axis into ``xi`` intervals, call
a unit *dense* when it holds more than ``tau`` of the points, join
dense units apriori-style into higher-dimensional subspaces (a
candidate is dense only if all its projections are), and report, per
subspace, the connected components of dense units as clusters.

Its two published drawbacks drive the comparison narrative: the fixed
density threshold ``tau`` (identical for every subspace
dimensionality) and a merge phase exponential in the cluster
dimensionality — this implementation caps the explored dimensionality
and candidate pool for tractability, as the original's MDL subspace
pruning does.

Points can belong to dense units of several subspaces; the final
partition assigns each point to the highest-dimensional (then largest)
cluster covering it.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult


class CLIQUE(SubspaceClusterer):
    """Grid-and-density subspace clustering.

    Parameters
    ----------
    xi:
        Number of intervals per axis.
    tau:
        Density threshold as a fraction of all points per unit.
    max_subspace_dim:
        Apriori cut-off on the subspace dimensionality.
    max_units:
        Candidate-pool cap per level (MDL-style pruning stand-in: the
        densest subspaces are kept).
    """

    name = "CLIQUE"

    def __init__(
        self,
        xi: int = 10,
        tau: float = 0.005,
        max_subspace_dim: int = 4,
        max_units: int = 5000,
    ):
        if xi < 2:
            raise ValueError("xi must be at least 2")
        if not 0.0 < tau < 1.0:
            raise ValueError("tau must be in (0, 1)")
        self.xi = int(xi)
        self.tau = float(tau)
        self.max_subspace_dim = int(max_subspace_dim)
        self.max_units = int(max_units)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        min_count = max(1, int(np.ceil(self.tau * n)))
        cells = np.minimum((points * self.xi).astype(np.int64), self.xi - 1)

        # Level 1: dense units on single axes.
        dense: dict[tuple[int, ...], dict[tuple[int, ...], np.ndarray]] = {}
        for axis in range(d):
            units: dict[tuple[int, ...], np.ndarray] = {}
            counts = np.bincount(cells[:, axis], minlength=self.xi)
            for interval in np.flatnonzero(counts >= min_count):
                units[(int(interval),)] = cells[:, axis] == interval
            if units:
                dense[(axis,)] = units

        all_levels = dict(dense)
        current = dense
        for level in range(2, self.max_subspace_dim + 1):
            current = self._join_level(current, level, min_count)
            if not current:
                break
            current = self._prune(current)
            all_levels.update(current)

        labels, ranked = self._partition(n, self._components(all_levels))
        return result_from_labels(
            labels,
            lambda rank: ranked[rank][0],
            extras={"n_dense_subspaces": len(all_levels), "min_count": min_count},
        )

    def _join_level(self, previous, level, min_count):
        """Apriori join: combine (k-1)-subspaces sharing a (k-2)-prefix."""
        next_level: dict = {}
        subspaces = sorted(previous)
        for a, b in combinations(subspaces, 2):
            merged = tuple(sorted(set(a) | set(b)))
            if len(merged) != level or merged in next_level:
                continue
            units: dict[tuple[int, ...], np.ndarray] = {}
            for ua, mask_a in previous[a].items():
                pos_a = {axis: i for i, axis in enumerate(a)}
                for ub, mask_b in previous[b].items():
                    pos_b = {axis: i for i, axis in enumerate(b)}
                    candidate = []
                    compatible = True
                    for axis in merged:
                        ia = pos_a.get(axis)
                        ib = pos_b.get(axis)
                        if ia is not None and ib is not None and ua[ia] != ub[ib]:
                            compatible = False
                            break
                        candidate.append(ua[ia] if ia is not None else ub[ib])
                    if not compatible:
                        continue
                    key = tuple(candidate)
                    if key in units:
                        continue
                    mask = mask_a & mask_b
                    if int(mask.sum()) >= min_count:
                        units[key] = mask
            if units:
                next_level[merged] = units
        return next_level

    def _prune(self, level_units):
        """Keep the densest subspaces when the pool exceeds the cap."""
        total_units = sum(len(u) for u in level_units.values())
        if total_units <= self.max_units:
            return level_units
        scored = sorted(
            level_units.items(),
            key=lambda kv: -sum(int(m.sum()) for m in kv[1].values()),
        )
        pruned: dict = {}
        budget = self.max_units
        for subspace, units in scored:
            if budget <= 0:
                break
            pruned[subspace] = units
            budget -= len(units)
        return pruned

    @staticmethod
    def _components(all_levels):
        """Connected components of dense units within each subspace.

        Only *maximal* dense subspaces produce clusters (a dense
        subspace strictly contained in another dense subspace is
        redundant — every unit it holds projects from the larger one),
        mirroring CLIQUE's MDL-based subspace selection.
        """
        subspace_sets = {s: set(s) for s in all_levels}
        maximal = [
            s
            for s in all_levels
            if not any(
                subspace_sets[s] < subspace_sets[t] for t in all_levels if t != s
            )
        ]
        clusters: list[tuple[tuple[int, ...], np.ndarray]] = []
        for subspace in maximal:
            units = all_levels[subspace]
            keys = list(units)
            key_set = set(keys)
            seen: set[tuple[int, ...]] = set()
            for start in keys:
                if start in seen:
                    continue
                stack = [start]
                seen.add(start)
                mask = units[start].copy()
                while stack:
                    unit = stack.pop()
                    for pos in range(len(subspace)):
                        for delta in (-1, 1):
                            neighbor = list(unit)
                            neighbor[pos] += delta
                            neighbor = tuple(neighbor)
                            if neighbor in key_set and neighbor not in seen:
                                seen.add(neighbor)
                                stack.append(neighbor)
                                mask |= units[neighbor]
                clusters.append((subspace, mask))
        return clusters

    @staticmethod
    def _partition(n, clusters):
        """Assign points to their highest-dimensional covering cluster.

        Returns the labels, each the rank of the point's cluster, and
        the clusters in rank order (higher-dimensional, then larger,
        first); a cluster whose every point a higher-ranked cluster
        already took holds no label.
        """
        ranked = sorted(clusters, key=lambda c: (-len(c[0]), -int(c[1].sum())))
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        for rank, (_, mask) in enumerate(ranked):
            labels[mask & (labels == NOISE_LABEL)] = rank
        return labels, ranked
