"""Shared value types used across the MrCC reproduction.

Every subsystem (data generation, the MrCC core, the competitor
baselines and the evaluation code) exchanges data through the small
set of immutable-ish records defined here, which keeps the package
free of circular imports.

Conventions
-----------
* Points live in the unit hyper-cube ``[0, 1)^d`` (Definition 1 of the
  paper); generators normalise before returning.
* Cluster membership is expressed both as a label vector (``-1`` means
  noise) and as explicit index sets, because the paper's Quality metric
  (Section IV-A) works on point sets.
* Relevant axes are ``frozenset`` of 0-based axis indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, SupportsInt, Union

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]
"""2-d point matrices, bounds, relevances — everything measured."""

IntArray = NDArray[np.int64]
"""Cell coordinates, counts, label vectors — everything counted."""

BoolArray = NDArray[np.bool_]
"""Masks: ``usedCell`` flags, relevance vectors, exclusion masks."""

AnyArray = NDArray[Any]
"""An array whose dtype is checked at runtime rather than statically."""

DTypeLike = Union[type, np.dtype[Any], str]
"""Anything ``np.dtype`` accepts; used by the runtime contracts."""

Normalizer = tuple[FloatArray, FloatArray]
"""A fitted per-axis min-max map ``(lo, span)``, each of shape ``(d,)``:
``x ↦ clip((x − lo) / span, 0, nextafter(1, 0))``, constant axes to 0."""

NOISE_LABEL = -1
"""Label assigned to points that belong to no cluster."""


@dataclass(frozen=True)
class SubspaceCluster:
    """A correlation cluster: a set of points plus its relevant axes.

    This matches Definition 2 of the paper: ``(E_k, S_k)`` where
    ``E_k`` is the set of axes relevant to the cluster and ``S_k`` the
    set of member points.  The same record describes ground-truth
    ("real") clusters and algorithm output ("found") clusters.
    """

    indices: frozenset[int]
    relevant_axes: frozenset[int]

    @property
    def size(self) -> int:
        """Number of member points."""
        return len(self.indices)

    @property
    def dimensionality(self) -> int:
        """Number of relevant axes (the cluster's ``delta``)."""
        return len(self.relevant_axes)

    @staticmethod
    def from_iterables(
        indices: Iterable[SupportsInt], relevant_axes: Iterable[SupportsInt]
    ) -> "SubspaceCluster":
        """Build a cluster from arbitrary iterables of ints.

        Array input is converted in one ``tolist`` call rather than one
        ``int`` per element: the large fits' cluster records hold
        millions of indices.
        """
        if isinstance(indices, np.ndarray):
            members = frozenset(np.asarray(indices, dtype=np.int64).tolist())
        else:
            members = frozenset(int(i) for i in indices)
        return SubspaceCluster(
            indices=members,
            relevant_axes=frozenset(int(a) for a in relevant_axes),
        )


@dataclass
class ClusteringResult:
    """The output of any subspace-clustering algorithm in this package.

    Attributes
    ----------
    labels:
        Array of shape ``(n_points,)``; cluster id per point, with
        :data:`NOISE_LABEL` for noise.
    clusters:
        One :class:`SubspaceCluster` per distinct non-noise label, in
        label order (``clusters[k]`` has label ``k``).
    extras:
        Free-form algorithm-specific diagnostics (iteration counts,
        number of beta-clusters, tuned thresholds, ...).
    """

    labels: IntArray
    clusters: list[SubspaceCluster]
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        """Number of clusters found."""
        return len(self.clusters)

    @property
    def n_noise(self) -> int:
        """Number of points labelled as noise."""
        return int(np.count_nonzero(self.labels == NOISE_LABEL))

    @staticmethod
    def from_labels(
        labels: Iterable[SupportsInt] | AnyArray,
        relevant_axes_per_cluster: Iterable[Iterable[SupportsInt]],
    ) -> "ClusteringResult":
        """Build a result from a label vector and per-cluster axis sets.

        Parameters
        ----------
        labels:
            Integer labels; noise must already be :data:`NOISE_LABEL`.
            Non-noise labels must be ``0..k-1``.
        relevant_axes_per_cluster:
            Sequence of axis iterables, one per cluster id.
        """
        labels = np.asarray(labels, dtype=np.int64)
        clusters: list[SubspaceCluster] = []
        for k, axes in enumerate(relevant_axes_per_cluster):
            members = np.flatnonzero(labels == k)
            clusters.append(SubspaceCluster.from_iterables(members, axes))
        return ClusteringResult(labels=labels, clusters=clusters)


@dataclass
class Dataset:
    """A dataset together with its ground truth.

    Attributes
    ----------
    points:
        Array of shape ``(n_points, d)`` with values in ``[0, 1)``.
    labels:
        Ground-truth label per point (:data:`NOISE_LABEL` for noise).
    clusters:
        Ground-truth ("real") clusters as :class:`SubspaceCluster`.
    name:
        Identifier following the paper's naming (``14d``, ``20c``,
        ``100k``, ``10o``, ``25d_s``, ``12d_r`` ...).
    metadata:
        Generation parameters for reporting.
    """

    points: FloatArray
    labels: IntArray
    clusters: list[SubspaceCluster]
    name: str = ""
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def n_points(self) -> int:
        """Number of points (the paper's eta)."""
        return int(self.points.shape[0])

    @property
    def dimensionality(self) -> int:
        """Embedding dimensionality (the paper's d)."""
        return int(self.points.shape[1])

    @property
    def n_clusters(self) -> int:
        """Number of ground-truth clusters."""
        return len(self.clusters)

    @property
    def noise_fraction(self) -> float:
        """Fraction of points labelled as noise in the ground truth."""
        if self.n_points == 0:
            return 0.0
        return float(np.count_nonzero(self.labels == NOISE_LABEL)) / self.n_points

    def validate(self) -> None:
        """Check internal consistency; raise ``ValueError`` on problems."""
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if self.labels.shape != (self.n_points,):
            raise ValueError("labels must have one entry per point")
        if np.any(self.points < 0.0) or np.any(self.points >= 1.0 + 1e-12):
            raise ValueError("points must lie in [0, 1)")
        for k, cluster in enumerate(self.clusters):
            members = frozenset(np.flatnonzero(self.labels == k).tolist())
            if members != cluster.indices:
                raise ValueError(f"cluster {k} indices disagree with labels")
            if cluster.relevant_axes and max(cluster.relevant_axes) >= self.dimensionality:
                raise ValueError(f"cluster {k} has an out-of-range relevant axis")
