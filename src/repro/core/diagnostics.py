"""Introspection helpers for MrCC results and Counting-trees.

A downstream user debugging a clustering wants to see *why* MrCC made
its calls: how the tree fills up per level, how compact each cluster is
in its own subspace, and how confidently each point sits inside its
cluster's region.  Everything here is read-only over the structures the
estimator already exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.contracts import check_array
from repro.core.counting_tree import CountingTree
from repro.types import NOISE_LABEL, ClusteringResult, FloatArray


@dataclass(frozen=True)
class LevelProfile:
    """Occupancy statistics of one Counting-tree level."""

    h: int
    side: float
    n_cells: int
    max_count: int
    mean_count: float
    occupancy: float

    def as_row(self) -> dict[str, Any]:
        """Flatten into a dict suitable for tabular reporting."""
        return {
            "h": self.h,
            "side": self.side,
            "cells": self.n_cells,
            "max_count": self.max_count,
            "mean_count": self.mean_count,
            "occupancy": self.occupancy,
        }


def tree_profile(tree: CountingTree) -> list[LevelProfile]:
    """Per-level occupancy summary of a Counting-tree.

    ``occupancy`` is the stored-cell count over the nominal grid size
    (clipped into float range); it collapses towards zero as the grid
    out-grows the data — the effect that keeps the tree linear in ``η``.
    """
    profiles: list[LevelProfile] = []
    for h in tree.levels:
        level = tree.level(h)
        nominal = float(1 << min(h * tree.dimensionality, 1020))
        profiles.append(
            LevelProfile(
                h=h,
                side=level.side,
                n_cells=level.n_cells,
                max_count=int(level.n.max()),
                mean_count=float(level.n.mean()),
                occupancy=level.n_cells / nominal,
            )
        )
    return profiles


@dataclass(frozen=True)
class ClusterDiagnostics:
    """Shape statistics of one found cluster in its own subspace."""

    cluster_id: int
    size: int
    dimensionality: int
    relevant_extent: float
    irrelevant_extent: float
    compactness: float

    def as_row(self) -> dict[str, Any]:
        """Flatten into a dict suitable for tabular reporting."""
        return {
            "cluster": self.cluster_id,
            "size": self.size,
            "dim": self.dimensionality,
            "relevant_extent": self.relevant_extent,
            "irrelevant_extent": self.irrelevant_extent,
            "compactness": self.compactness,
        }


def cluster_diagnostics(
    result: ClusteringResult, points: FloatArray
) -> list[ClusterDiagnostics]:
    """Per-cluster compactness report.

    ``relevant_extent`` is the mean spread (std) of the members along
    the cluster's relevant axes, ``irrelevant_extent`` along the rest;
    ``compactness`` is their ratio — a correlation cluster should score
    well below 1.
    """
    points = np.asarray(points, dtype=np.float64)
    check_array("points", points, dtype=np.float64, ndim=2)
    d = points.shape[1]
    reports: list[ClusterDiagnostics] = []
    for k, cluster in enumerate(result.clusters):
        members = points[cluster.indices]
        stds = (
            members.std(axis=0)
            if members.shape[0] > 1
            else np.zeros(d, dtype=np.float64)
        )
        relevant = sorted(cluster.relevant_axes)
        irrelevant = [j for j in range(d) if j not in cluster.relevant_axes]
        relevant_extent = float(stds[relevant].mean()) if relevant else 0.0
        irrelevant_extent = float(stds[irrelevant].mean()) if irrelevant else 0.0
        compactness = (
            relevant_extent / irrelevant_extent if irrelevant_extent > 0 else 0.0
        )
        reports.append(
            ClusterDiagnostics(
                cluster_id=k,
                size=cluster.size,
                dimensionality=cluster.dimensionality,
                relevant_extent=relevant_extent,
                irrelevant_extent=irrelevant_extent,
                compactness=compactness,
            )
        )
    return reports


def membership_confidence(
    result: ClusteringResult, points: FloatArray
) -> FloatArray:
    """Per-point confidence in ``[0, 1]``.

    A clustered point's confidence decays with its standardised
    distance to its cluster's centroid along the cluster's relevant
    axes; noise points score 0.  Useful for ranking borderline members
    for manual review (see the screening example).
    """
    points = np.asarray(points, dtype=np.float64)
    check_array("points", points, dtype=np.float64, ndim=2)
    confidence = np.zeros(points.shape[0], dtype=np.float64)
    for k, cluster in enumerate(result.clusters):
        members = cluster.indices
        axes = sorted(cluster.relevant_axes)
        if members.size < 2 or not axes:
            confidence[members] = 1.0
            continue
        sub = points[np.ix_(members, axes)]
        center = sub.mean(axis=0)
        spread = np.maximum(sub.std(axis=0), 1e-9)
        z = np.abs(sub - center) / spread
        distance = z.mean(axis=1)
        confidence[members] = np.exp(-0.5 * distance**2)
    confidence[result.labels == NOISE_LABEL] = 0.0
    return confidence
