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
  (Section IV-A) works on point sets.  An index set is a sorted, unique,
  read-only int64 array; :func:`records_from_labels` builds every
  record of a label vector in one pass.
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


class ContractError(ValueError):
    """An argument broke one of the package's array contracts.

    Defined here, below every other module, so the records can raise
    it; :mod:`repro.core.contracts` re-exports it with its checks.
    """


def _index_array(indices: Iterable[SupportsInt] | AnyArray) -> IntArray:
    """``indices`` as a sorted, unique, read-only int64 vector.

    A read-only int64 vector that is already strictly increasing is
    kept as it is (the records :func:`records_from_labels` builds are
    views of one such array); a writable one is copied first, so no
    caller can change a record through its own reference.  Anything
    else is sorted and deduplicated.
    """
    if isinstance(indices, np.ndarray):
        array = indices.astype(np.int64, casting="safe", copy=False)
    else:
        array = np.fromiter(indices, dtype=np.int64)
    if array.ndim != 1 or not bool(np.all(array[1:] > array[:-1])):
        array = np.unique(array)
    elif not array.flags.writeable:
        return array
    elif array is indices:
        array = array.copy()
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False, init=False)
class SubspaceCluster:
    """A correlation cluster: a set of points plus its relevant axes.

    This matches Definition 2 of the paper: ``(E_k, S_k)`` where
    ``E_k`` is the set of axes relevant to the cluster and ``S_k`` the
    set of member points.  The same record describes ground-truth
    ("real") clusters and algorithm output ("found") clusters.

    ``indices`` is a sorted, unique, read-only int64 array: any
    iterable of ints is accepted and converted on construction.  A
    large fit's records hold one int64 per clustered point, not one
    boxed Python int.  Records are equal by value and hashable.
    """

    indices: IntArray
    relevant_axes: frozenset[int]

    def __init__(
        self,
        indices: Iterable[SupportsInt] | AnyArray,
        relevant_axes: Iterable[SupportsInt],
    ) -> None:
        object.__setattr__(self, "indices", _index_array(indices))
        object.__setattr__(
            self, "relevant_axes", frozenset(int(a) for a in relevant_axes)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubspaceCluster):
            return NotImplemented
        return self.relevant_axes == other.relevant_axes and bool(
            np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> int:
        return hash((self.indices.tobytes(), self.relevant_axes))

    def __reduce__(self) -> tuple[Any, ...]:
        # Through the constructor, so an unpickled record is read-only
        # again whatever pickle protocol carried its array.
        return (SubspaceCluster, (self.indices, self.relevant_axes))

    @property
    def size(self) -> int:
        """Number of member points."""
        return int(self.indices.size)

    @property
    def dimensionality(self) -> int:
        """Number of relevant axes (the cluster's ``delta``)."""
        return len(self.relevant_axes)

    @staticmethod
    def from_iterables(
        indices: Iterable[SupportsInt] | AnyArray,
        relevant_axes: Iterable[SupportsInt],
    ) -> "SubspaceCluster":
        """Build a cluster from arbitrary iterables of ints (the constructor)."""
        return SubspaceCluster(indices=indices, relevant_axes=relevant_axes)


def records_from_labels(
    labels: AnyArray, relevant_axes_per_cluster: Iterable[Iterable[SupportsInt]]
) -> list[SubspaceCluster]:
    """One record per cluster id ``0..k-1`` of a label vector, in one pass.

    ``k`` is the number of axis sets given.  One stable argsort of the
    labels, cast to 16-bit keys when ``k`` allows (numpy radix-sorts
    those), orders every clustered point by cluster and by index at
    once; noise (``-1``) casts to the largest key and sorts last, so it
    is cut off the one order array, and each record is a read-only
    view of its slice.  The records hold one int64 per clustered
    point between them.

    Raises :class:`ContractError` for any label outside ``-1..k-1``,
    so no point can be labelled clustered yet sit in no record.
    """
    axes = list(relevant_axes_per_cluster)
    k = len(axes)
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise ContractError(
            f"labels must be a 1-d integer vector, got {labels.ndim}-d "
            f"{labels.dtype}"
        )
    if labels.size and (
        int(labels.min()) < NOISE_LABEL or int(labels.max()) >= k
    ):
        raise ContractError(
            f"labels must lie in {NOISE_LABEL}..{k - 1} for {k} clusters "
            f"(observed range {int(labels.min())}..{int(labels.max())})"
        )
    key_type = np.uint16 if k < np.iinfo(np.uint16).max else np.uint64
    keys = labels.astype(key_type)
    order = np.argsort(keys, kind="stable")
    bounds = np.searchsorted(keys[order], np.arange(k + 1, dtype=keys.dtype))
    # No view of ``order`` exists yet, so it can shrink in place.
    order.resize(int(bounds[k]), refcheck=False)
    order.flags.writeable = False
    return [
        SubspaceCluster(indices=order[bounds[j] : bounds[j + 1]], relevant_axes=axes[j])
        for j in range(k)
    ]


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
            Non-noise labels must be ``0..k-1``; any other label raises
            :class:`ContractError`.
        relevant_axes_per_cluster:
            Sequence of axis iterables, one per cluster id.
        """
        labels = np.asarray(labels, dtype=np.int64)
        return ClusteringResult(
            labels=labels,
            clusters=records_from_labels(labels, relevant_axes_per_cluster),
        )


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
        expected = records_from_labels(
            self.labels, [c.relevant_axes for c in self.clusters]
        )
        for k, (cluster, record) in enumerate(zip(self.clusters, expected)):
            if not np.array_equal(cluster.indices, record.indices):
                raise ValueError(f"cluster {k} indices disagree with labels")
            if cluster.relevant_axes and max(cluster.relevant_axes) >= self.dimensionality:
                raise ValueError(f"cluster {k} has an out-of-range relevant axis")
