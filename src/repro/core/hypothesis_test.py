"""The six-region binomial significance test (Section III-B).

To decide whether the best convolution pivot ``a_h`` is the centre of a
new β-cluster, MrCC inspects, per axis ``e_j``, three consecutive cells
at the *parent* level ``h-1``: the parent ``a_{h-1}`` and its two face
neighbours along ``e_j``.  Their half-space counts split the combined
``nP_j`` points into six consecutive equal-size regions along ``e_j``;
``cP_j`` is the count of the central region — the half of the parent
that contains ``a_h``.

Under the null hypothesis (points uniform over the six regions)
``cP_j ~ Binomial(nP_j, 1/6)``.  The axis is *significant* when
``cP_j`` exceeds the one-sided critical value ``θ_j^α`` with
``P(cP_j > θ_j^α) <= α``; one significant axis confirms a β-cluster.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro import obs
from repro.core import kernels
from repro.core.counting_tree import CountingTree
from repro.types import BoolArray, FloatArray, IntArray

CENTER_PROBABILITY = 1.0 / 6.0
"""Chance that a uniform point lands in the central of the six regions."""


def critical_value(n_points: int, alpha: float) -> int:
    """One-sided binomial critical value ``θ^α``.

    Smallest integer ``t`` with ``P(X > t) <= alpha`` for
    ``X ~ Binomial(n_points, 1/6)``; the test rejects when the observed
    central count is *strictly greater* than ``t`` (Algorithm 2 line 15).
    """
    if n_points < 0:
        raise ValueError("n_points must be non-negative")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if n_points == 0:
        return 0
    theta = stats.binom.isf(alpha, n_points, CENTER_PROBABILITY)
    if np.isnan(theta):
        return n_points
    return int(theta)


def critical_values(
    n_points: IntArray,
    alpha: float,
    probability: float | FloatArray = CENTER_PROBABILITY,
) -> IntArray:
    """Vectorised :func:`critical_value` over arrays of ``nP_j`` (and,
    optionally, per-axis null probabilities)."""
    n_points = np.asarray(n_points, dtype=np.int64)
    theta = stats.binom.isf(alpha, np.maximum(n_points, 1), probability)
    theta = np.where(np.isnan(theta), n_points, theta)
    return np.where(n_points == 0, 0, theta.astype(np.int64))


@dataclass(frozen=True)
class NeighborhoodCounts:
    """Per-axis statistics around a candidate centre cell.

    ``center`` is the central-region count ``cP_j`` and ``total`` the
    six-region count ``nP_j``, both arrays of length ``d``.

    ``probability`` is the per-axis chance of the central region under
    the null hypothesis: ``1/6`` when the parent cell has both face
    neighbours, but ``1/4`` at the space border where a neighbour's two
    regions cannot receive points at all — "one of the six *analyzed*
    regions" only covers regions that exist.  Without this adjustment
    uniform data triggers false β-clusters at coarse levels, where
    every parent cell borders the space.
    """

    center: IntArray
    total: IntArray
    probability: FloatArray

    def relevances(self) -> FloatArray:
        """The paper's relevance array ``r[j] = 100 * cP_j / nP_j``.

        Relevances live in ``(0, 100]``; axes whose neighbourhood is
        empty (cannot happen for a populated centre, but guarded) map
        to 0.
        """
        total = np.maximum(self.total, 1)
        return 100.0 * self.center / total


def neighborhood_counts(tree: CountingTree, h: int, row: int) -> NeighborhoodCounts:
    """Compute ``cP_j`` and ``nP_j`` for a pivot cell ``row`` at level ``h``.

    Requires ``h >= 2`` so the parent level is materialised.  For each
    axis, missing face neighbours of the parent (space border or empty
    space) contribute zero points, as in the paper.
    """
    if h < 2:
        raise ValueError("the significance test needs a materialised parent level")
    parent_level = tree.level(h - 1)
    parent_row = tree.parent_row(h, row)
    bits = tree.loc_bits(h, row)

    center, total = kernels.active_backend().six_region(
        parent_level, parent_row, bits
    )
    # Regions beyond the space border cannot receive points and are not
    # analyzed; an in-grid but empty neighbour still counts as two
    # analyzed (zero-count) regions.
    coords = parent_level.coords_of(parent_row)
    parent_limit = (1 << parent_level.h) - 1
    at_border = (coords == 0).astype(np.int64) + (coords == parent_limit)
    probability = 1.0 / (6 - 2 * at_border)
    return NeighborhoodCounts(
        center=center,
        total=total,
        probability=probability.astype(np.float64),
    )


def significant_axes(
    counts: NeighborhoodCounts, alpha: float
) -> BoolArray:
    """Boolean mask of axes where ``cP_j`` beats the critical value.

    The active backend computes the critical values; axes the compiled
    kernels flag as borderline (tail sum within the guard band of
    ``alpha``) are re-adjudicated with the scipy oracle, so the
    decision is bit-identical to the numpy backend on every axis.
    """
    obs.incr("search.tests")
    obs.incr("search.tests.axes", int(counts.center.shape[0]))
    backend = kernels.active_backend()
    theta, flags = backend.binom_thetas(
        counts.total, counts.probability, alpha
    )
    borderline = np.flatnonzero(flags)
    if borderline.size:
        theta[borderline] = critical_values(
            counts.total[borderline],
            alpha,
            probability=counts.probability[borderline],
        )
    return counts.center > theta
