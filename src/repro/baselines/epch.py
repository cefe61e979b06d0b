"""EPCH — Projective Clustering by Histograms (Ng, Fu, Wong, TKDE 2005).

EPCH locates clusters through low-dimensional histograms:

1. build histograms of dimensionality ``hist_dim`` (EPCH1 uses the ``d``
   one-dimensional marginals; EPCH2 the ``C(d, 2)`` two-dimensional
   marginals — the paper tuned ``hist_dim`` from 1 to 5);
2. in each histogram, detect *dense regions* with a threshold computed
   from the data distribution (no user density threshold);
3. give every point a *signature*: which dense region (if any) it
   occupies in each histogram;
4. condense the most frequent signatures into at most
   ``max_no_cluster`` cluster prototypes — the required maximum number
   of clusters is EPCH's main parameter — merging prototypes whose
   signatures are compatible;
5. associate points to prototypes by membership degree; points whose
   degree falls below ``1 - outlier_threshold`` become outliers.

Relevant axes of a cluster are the axes covered by its prototype's
dense regions, so EPCH can find clusters in subspaces of the original
axes and (through multi-dimensional histograms) combinations of them.

The per-point signature matrix of ``C(d, hist_dim)`` entries is what
makes EPCH memory-hungry in the paper's Figure 5 memory panels.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult

_NO_REGION = -1


class EPCH(SubspaceClusterer):
    """Projective clustering by histograms.

    Parameters
    ----------
    max_no_cluster:
        Upper bound on the number of clusters (the paper supplies the
        true count).
    hist_dim:
        Histogram dimensionality (1 or 2 are practical; the original
        evaluation tried 1..5).
    outlier_threshold:
        Fraction in ``[0, 1)``; a point must match its prototype on at
        least ``1 - outlier_threshold`` of the prototype's dense axes.
    n_bins:
        Bins per axis in each histogram.
    density_sigmas:
        A bin is dense when its count exceeds
        ``mean + density_sigmas * std`` of its histogram's counts.
    """

    name = "EPCH"

    def __init__(
        self,
        max_no_cluster: int,
        hist_dim: int = 1,
        outlier_threshold: float = 0.25,
        n_bins: int = 24,
        density_sigmas: float = 1.5,
    ):
        if max_no_cluster < 1:
            raise ValueError("max_no_cluster must be positive")
        if hist_dim < 1:
            raise ValueError("hist_dim must be >= 1")
        if not 0.0 <= outlier_threshold < 1.0:
            raise ValueError("outlier_threshold must be in [0, 1)")
        self.max_no_cluster = int(max_no_cluster)
        self.hist_dim = int(hist_dim)
        self.outlier_threshold = float(outlier_threshold)
        self.n_bins = int(n_bins)
        self.density_sigmas = float(density_sigmas)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        if self.hist_dim > d:
            raise ValueError("hist_dim cannot exceed the dimensionality")
        subspaces = list(combinations(range(d), self.hist_dim))
        signatures = np.full((n, len(subspaces)), _NO_REGION, dtype=np.int32)
        region_counts: list[int] = []

        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        bin_idx = np.minimum(
            ((points - lo) / span * self.n_bins).astype(np.int64), self.n_bins - 1
        )

        for s, subspace in enumerate(subspaces):
            signatures[:, s], n_regions = self._dense_regions(bin_idx, subspace)
            region_counts.append(n_regions)

        prototypes = self._build_prototypes(signatures)
        labels, assigned = self._associate(signatures, prototypes)
        # Refinement: rebuild each prototype from the regions a majority
        # of its members actually occupy (EPCH's membership-degree
        # association is iterated once); this strips regions picked up
        # from chance co-occurrences on irrelevant axes.
        for _ in range(2):
            refined = self._refine_prototypes(signatures, labels, len(prototypes))
            if not refined:
                break
            prototypes = refined
            labels, assigned = self._associate(signatures, prototypes)
        return result_from_labels(
            labels,
            lambda c: self._covered_axes(prototypes[c], subspaces),
            extras={
                "n_histograms": len(subspaces),
                "regions_per_histogram": region_counts,
                "n_prototypes": len(prototypes),
                "n_assigned": int(assigned),
            },
        )

    def _dense_regions(
        self, bin_idx: np.ndarray, subspace: tuple[int, ...]
    ) -> tuple[np.ndarray, int]:
        """Detect dense regions in one histogram; label each point.

        Bins whose count exceeds the adaptive threshold are dense;
        orthogonally adjacent dense bins coalesce into one region via a
        flood fill, mirroring EPCH's region construction.
        """
        cols = bin_idx[:, list(subspace)]
        flat = np.zeros(cols.shape[0], dtype=np.int64)
        for axis_pos in range(len(subspace)):
            flat = flat * self.n_bins + cols[:, axis_pos]
        total_bins = self.n_bins ** len(subspace)
        counts = np.bincount(flat, minlength=total_bins)

        # Robust threshold: the median/MAD of the bin counts estimate
        # the background level without being inflated by the cluster
        # bins themselves (EPCH's "threshold from the data
        # distribution").
        median = float(np.median(counts))
        mad = float(np.median(np.abs(counts - median)))
        threshold = median + self.density_sigmas * max(1.4826 * mad, 1.0)
        dense = counts > max(threshold, 1.0)
        region_of_bin = self._flood_fill(dense)
        n_regions = int(region_of_bin.max()) + 1 if region_of_bin.size else 0
        return region_of_bin[flat], n_regions

    def _flood_fill(self, dense: np.ndarray) -> np.ndarray:
        """Group orthogonally adjacent dense bins into numbered regions."""
        shape = (self.n_bins,) * self.hist_dim
        region = np.full(dense.shape[0], _NO_REGION, dtype=np.int32)
        next_region = 0
        for start in np.flatnonzero(dense):
            if region[start] != _NO_REGION:
                continue
            stack = [int(start)]
            region[start] = next_region
            while stack:
                bin_flat = stack.pop()
                coords = np.unravel_index(bin_flat, shape)
                for axis_pos in range(self.hist_dim):
                    for delta in (-1, 1):
                        neighbor = list(coords)
                        neighbor[axis_pos] += delta
                        if not 0 <= neighbor[axis_pos] < self.n_bins:
                            continue
                        flat = int(np.ravel_multi_index(neighbor, shape))
                        if dense[flat] and region[flat] == _NO_REGION:
                            region[flat] = next_region
                            stack.append(flat)
            next_region += 1
        return region

    def _build_prototypes(self, signatures: np.ndarray) -> list[np.ndarray]:
        """Condense frequent signatures into ≤ ``max_no_cluster`` prototypes.

        Signatures are ranked by frequency; each merges into the first
        prototype whose dense entries *mostly agree* with it — agreement
        on more than half of the union of their dense axes, with no
        conflicts — otherwise it opens a new prototype while slots
        remain.  Requiring majority agreement (not just one shared
        region) stops signatures of different clusters that happen to
        share a single dense region from collapsing into one chimera
        prototype.
        """
        meaningful = signatures[np.any(signatures != _NO_REGION, axis=1)]
        if meaningful.shape[0] == 0:
            return []
        uniq, counts = np.unique(meaningful, axis=0, return_counts=True)
        order = np.argsort(-counts)
        # Singleton signatures carry no prototype information and would
        # make the condensation quadratic; a generous multiple of the
        # cluster budget suffices.
        order = order[: max(64, 32 * self.max_no_cluster)]
        prototypes: list[np.ndarray] = []
        weights: list[int] = []
        for idx in order:
            signature = uniq[idx]
            merged = False
            for p, proto in enumerate(prototypes):
                proto_dense = proto != _NO_REGION
                sig_dense = signature != _NO_REGION
                both = proto_dense & sig_dense
                union = int(np.count_nonzero(proto_dense | sig_dense))
                agree = int(np.count_nonzero(proto[both] == signature[both]))
                conflicts = int(np.count_nonzero(proto[both] != signature[both]))
                if union and conflicts == 0 and agree * 2 > union:
                    fill = ~proto_dense & sig_dense
                    proto[fill] = signature[fill]
                    weights[p] += int(counts[idx])
                    merged = True
                    break
            if not merged:
                prototypes.append(signature.copy())
                weights.append(int(counts[idx]))
        # Keep the max_no_cluster heaviest prototypes (EPCH's cluster
        # budget); lighter ones are signature noise.
        keep = np.argsort(-np.asarray(weights))[: self.max_no_cluster]
        return [prototypes[i] for i in sorted(keep.tolist())]

    def _refine_prototypes(
        self, signatures: np.ndarray, labels: np.ndarray, k: int
    ) -> list[np.ndarray]:
        """Per-cluster modal signature over axes with majority support."""
        refined: list[np.ndarray] = []
        for c in range(k):
            members = signatures[labels == c]
            if members.shape[0] == 0:
                continue
            proto = np.full(signatures.shape[1], _NO_REGION, dtype=np.int32)
            for col in range(signatures.shape[1]):
                column = members[:, col]
                occupied = column[column != _NO_REGION]
                if occupied.size * 2 <= members.shape[0]:
                    continue
                values, counts = np.unique(occupied, return_counts=True)
                mode = values[np.argmax(counts)]
                if counts.max() * 2 > members.shape[0]:
                    proto[col] = mode
            if np.any(proto != _NO_REGION):
                refined.append(proto)
        return refined

    def _associate(
        self, signatures: np.ndarray, prototypes: list[np.ndarray]
    ) -> tuple[np.ndarray, int]:
        """Assign points to prototypes by membership degree."""
        n = signatures.shape[0]
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        if not prototypes:
            return labels, 0
        best_degree = np.zeros(n)
        for c, proto in enumerate(prototypes):
            dense_cols = proto != _NO_REGION
            if not np.any(dense_cols):
                continue
            matches = signatures[:, dense_cols] == proto[dense_cols]
            degree = matches.mean(axis=1)
            better = degree > best_degree
            labels[better] = c
            best_degree[better] = degree[better]
        cutoff = 1.0 - self.outlier_threshold
        labels[best_degree < cutoff] = NOISE_LABEL
        return labels, int(np.count_nonzero(labels != NOISE_LABEL))

    @staticmethod
    def _covered_axes(
        prototype: np.ndarray, subspaces: list[tuple[int, ...]]
    ) -> set[int]:
        """Axes touched by the prototype's dense regions."""
        axes: set[int] = set()
        for s, region in enumerate(prototype):
            if region != _NO_REGION:
                axes.update(subspaces[s])
        return axes
