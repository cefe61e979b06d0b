"""P3C — Projected Clustering via Cluster Cores (Moise, Sander, Ester,
KAIS 2008; "Robust projected clustering").

P3C avoids global density thresholds through statistics:

1. **Relevant intervals.**  Each attribute is divided into
   ``1 + log2(n)`` equal-width bins.  A chi-square test checks the
   uniformity of the bin counts; while the test rejects, the fullest
   unmarked bin is *marked* and excluded, and the test repeats on the
   rest.  Runs of adjacent marked bins form the attribute's relevant
   intervals.
2. **Cluster cores.**  Intervals on distinct attributes combine into
   ``k``-signatures apriori-style.  A candidate's expected support under
   independence is ``supp(S) * width(I)``; the combination survives if
   its observed support is significantly larger under a Poisson model —
   the paper's ``Poisson threshold`` parameter.  Maximal surviving
   signatures are the cluster cores.
3. **Refinement and outliers.**  Points matching a core seed its
   projected cluster; per-cluster Gaussian statistics on the core's
   attributes then re-attract points, and points too far (Mahalanobis
   distance on the relevant attributes) from every cluster are noise.

The paper's experiments found P3C slow (its core generation explodes
with overlapping intervals) and often unable to find clusters — the
behaviour this re-implementation also exhibits on hard inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.baselines.base import SubspaceClusterer
from repro.baselines.common import result_from_labels
from repro.types import NOISE_LABEL, ClusteringResult

_CHI2_PVALUE = 1e-3
"""Significance for the bin-uniformity chi-square test (paper's setup)."""

_MAX_CORES = 64
"""Guard against the combinatorial blow-up the paper observed."""


@dataclass(frozen=True)
class _Interval:
    """A relevant interval on one attribute (bin run, inclusive)."""

    attribute: int
    lo_bin: int
    hi_bin: int
    width_fraction: float

    def matches(self, bins: np.ndarray) -> np.ndarray:
        """Boolean mask of points whose bin falls inside the interval."""
        col = bins[:, self.attribute]
        return (col >= self.lo_bin) & (col <= self.hi_bin)


class P3C(SubspaceClusterer):
    """Projected clustering via cluster cores.

    Parameters
    ----------
    poisson_threshold:
        Significance of the core-support Poisson test (the paper tried
        ``1e-1 .. 1e-15``).
    outlier_sigmas:
        Mahalanobis cut-off (in standard deviations on the relevant
        attributes) beyond which refined points become noise.
    max_refine_iter:
        Iterations of the attract/re-estimate refinement loop.
    """

    name = "P3C"

    def __init__(
        self,
        poisson_threshold: float = 1e-4,
        outlier_sigmas: float = 3.0,
        max_refine_iter: int = 5,
    ):
        if not 0.0 < poisson_threshold < 1.0:
            raise ValueError("poisson_threshold must be in (0, 1)")
        self.poisson_threshold = float(poisson_threshold)
        self.outlier_sigmas = float(outlier_sigmas)
        self.max_refine_iter = int(max_refine_iter)

    def _fit(self, points: np.ndarray) -> ClusteringResult:
        n, d = points.shape
        n_bins = max(4, int(np.ceil(1.0 + np.log2(n))))
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        bins = np.minimum(
            ((points - lo) / span * n_bins).astype(np.int64), n_bins - 1
        )

        intervals = []
        for attribute in range(d):
            intervals.extend(self._relevant_intervals(bins[:, attribute], n_bins, attribute))

        cores = self._cluster_cores(bins, intervals, n)
        labels = self._refine(points, bins, cores)
        # Cores the refinement emptied are dropped.
        return result_from_labels(
            labels,
            lambda c: {iv.attribute for iv in cores[c][0]},
            extras={
                "n_intervals": len(intervals),
                "n_cores": len(cores),
                "n_bins": n_bins,
            },
        )

    # ------------------------------------------------------------------
    # Step 1: relevant intervals
    # ------------------------------------------------------------------

    def _relevant_intervals(
        self, column_bins: np.ndarray, n_bins: int, attribute: int
    ) -> list[_Interval]:
        """Mark non-uniform bins of one attribute and merge runs."""
        counts = np.bincount(column_bins, minlength=n_bins).astype(np.float64)
        marked = np.zeros(n_bins, dtype=bool)
        while marked.sum() < n_bins - 1:
            remaining = counts[~marked]
            if remaining.sum() == 0:
                break
            chi2 = stats.chisquare(remaining)
            if chi2.pvalue >= _CHI2_PVALUE:
                break
            candidates = np.flatnonzero(~marked)
            marked[candidates[np.argmax(counts[candidates])]] = True

        intervals: list[_Interval] = []
        run_start = None
        for b in range(n_bins + 1):
            inside = b < n_bins and marked[b]
            if inside and run_start is None:
                run_start = b
            elif not inside and run_start is not None:
                width = (b - run_start) / n_bins
                intervals.append(_Interval(attribute, run_start, b - 1, width))
                run_start = None
        return intervals

    # ------------------------------------------------------------------
    # Step 2: cluster cores (apriori over interval signatures)
    # ------------------------------------------------------------------

    def _cluster_cores(
        self, bins: np.ndarray, intervals: list[_Interval], n: int
    ) -> list[tuple[tuple[_Interval, ...], np.ndarray]]:
        """Grow signatures whose support beats the Poisson expectation."""
        current: list[tuple[tuple[_Interval, ...], np.ndarray]] = []
        for interval in intervals:
            mask = interval.matches(bins)
            if mask.any():
                current.append(((interval,), mask))

        cores: list[tuple[tuple[_Interval, ...], np.ndarray]] = []
        while current:
            extended: list[tuple[tuple[_Interval, ...], np.ndarray]] = []
            extended_signatures: set[tuple] = set()
            grew = [False] * len(current)
            for i, (signature, mask) in enumerate(current):
                used_attributes = {iv.attribute for iv in signature}
                support = int(mask.sum())
                for interval in intervals:
                    if interval.attribute in used_attributes:
                        continue
                    expected = support * interval.width_fraction
                    new_mask = mask & interval.matches(bins)
                    observed = int(new_mask.sum())
                    if observed == 0:
                        continue
                    pvalue = stats.poisson.sf(observed - 1, max(expected, 1e-12))
                    if pvalue < self.poisson_threshold:
                        key = tuple(
                            sorted((iv.attribute, iv.lo_bin, iv.hi_bin)
                                   for iv in signature + (interval,))
                        )
                        if key in extended_signatures:
                            grew[i] = True
                            continue
                        extended_signatures.add(key)
                        extended.append((signature + (interval,), new_mask))
                        grew[i] = True
            for i, (signature, mask) in enumerate(current):
                if not grew[i] and len(signature) >= 2:
                    cores.append((signature, mask))
                    if len(cores) >= _MAX_CORES:
                        return cores
            if len(extended) > _MAX_CORES:
                extended.sort(key=lambda sm: -int(sm[1].sum()))
                extended = extended[:_MAX_CORES]
            current = extended
        return cores

    # ------------------------------------------------------------------
    # Step 3: refinement and outlier filtering
    # ------------------------------------------------------------------

    def _refine(
        self,
        points: np.ndarray,
        bins: np.ndarray,
        cores: list[tuple[tuple[_Interval, ...], np.ndarray]],
    ) -> np.ndarray:
        """Attract points to Gaussian-refined cores; mark the rest noise."""
        n = points.shape[0]
        labels = np.full(n, NOISE_LABEL, dtype=np.int64)
        if not cores:
            return labels

        attributes = [sorted({iv.attribute for iv in sig}) for sig, _ in cores]
        for c, (_, mask) in enumerate(cores):
            labels[mask & (labels == NOISE_LABEL)] = c

        for _ in range(self.max_refine_iter):
            means, stds = self._statistics(points, labels, len(cores), attributes)
            new_labels = np.full(n, NOISE_LABEL, dtype=np.int64)
            best = np.full(n, np.inf)
            for c in range(len(cores)):
                if means[c] is None:
                    continue
                attrs = attributes[c]
                z = (points[:, attrs] - means[c]) / stds[c]
                distance = np.sqrt((z * z).mean(axis=1))
                closer = (distance < best) & (distance <= self.outlier_sigmas)
                new_labels[closer] = c
                best[closer] = distance[closer]
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
        return labels

    @staticmethod
    def _statistics(points, labels, k, attributes):
        """Per-cluster mean/std on each cluster's relevant attributes."""
        means: list = []
        stds: list = []
        for c in range(k):
            members = points[labels == c][:, attributes[c]]
            if members.shape[0] < 2:
                means.append(None)
                stds.append(None)
                continue
            means.append(members.mean(axis=0))
            stds.append(np.maximum(members.std(axis=0), 1e-9))
        return means, stds
