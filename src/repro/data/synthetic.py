"""Synthetic dataset generator (Section IV-B of the paper).

The paper's synthetic data follow a simple recipe, which we reproduce:

* the dataset is embedded in ``[0, 1)^d``;
* each correlation cluster lives in a randomly chosen subset of the
  original axes (its *relevant* axes) and follows an axis-aligned
  Gaussian with random mean and standard deviation there;
* along its irrelevant axes the cluster's points are uniform over the
  whole axis range ("the clusters are spread over an axis");
* a configurable percentile of points is uniform noise over the cube;
* cluster sizes are random.

Rotated variants (clusters in subspaces formed by linear combinations
of the original axes) are produced by :mod:`repro.data.rotation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.normalize import clip_unit_cube
from repro.types import NOISE_LABEL, Dataset, records_from_labels

_MIN_CLUSTER_POINTS = 8
"""Smallest cluster size the generator will emit."""


@dataclass(frozen=True)
class ClusterSpec:
    """Generation parameters for one Gaussian correlation cluster.

    Attributes
    ----------
    size:
        Number of member points.
    relevant_axes:
        Axes in which the cluster is concentrated.
    means / stds:
        Gaussian parameters, one per relevant axis (same order as
        ``sorted(relevant_axes)``).
    """

    size: int
    relevant_axes: tuple[int, ...]
    means: tuple[float, ...]
    stds: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("cluster size must be positive")
        if not self.relevant_axes:
            raise ValueError("a cluster needs at least one relevant axis")
        if len(self.means) != len(self.relevant_axes) or len(self.stds) != len(
            self.relevant_axes
        ):
            raise ValueError("means/stds must match relevant_axes in length")
        if any(s <= 0 for s in self.stds):
            raise ValueError("standard deviations must be positive")


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Parameters for a full synthetic dataset.

    The defaults mirror the paper's base ``14d`` dataset (14 axes,
    90,000 points, 17 clusters, 15 % noise).

    Cluster dimensionality is controlled through the number of
    *irrelevant* axes per cluster (drawn uniformly from
    ``[min_irrelevant, max_irrelevant]``) and clamped into
    ``[min_cluster_dim, max_cluster_dim]``.  This matches the paper's
    published dimensionalities — 5 for the 6-axis dataset up to 17 for
    the 18-axis one — and reflects a structural property of the
    evaluation: a cluster spread uniformly along ``q`` irrelevant axes
    dilutes over ``2^{hq}`` grid cells, so the paper's own caveat
    (Section V: clusters with few points in low-dimensional subspaces
    may be missed) implies its synthetic clusters kept ``q`` small.
    """

    dimensionality: int = 14
    n_points: int = 90_000
    n_clusters: int = 17
    noise_fraction: float = 0.15
    min_cluster_dim: int = 5
    max_cluster_dim: int = 17
    min_irrelevant: int = 1
    max_irrelevant: int = 5
    mean_range: tuple[float, float] = (0.12, 0.88)
    std_range: tuple[float, float] = (0.008, 0.035)
    seed: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if self.dimensionality < 2:
            raise ValueError("dimensionality must be at least 2")
        if self.n_points < self.n_clusters * _MIN_CLUSTER_POINTS:
            raise ValueError("too few points for the requested cluster count")
        if not 0.0 <= self.noise_fraction < 1.0:
            raise ValueError("noise_fraction must be in [0, 1)")
        if self.n_clusters < 0:
            raise ValueError("n_clusters must be non-negative")

    @property
    def effective_cluster_dims(self) -> tuple[int, int]:
        """Cluster dimensionality bounds after all clamps.

        Clusters are proper subspace clusters, so their dimensionality
        is capped at ``d - 1``; the irrelevant-axis budget then pins the
        range to ``[d - max_irrelevant, d - min_irrelevant]`` before the
        ``[min_cluster_dim, max_cluster_dim]`` window applies.
        """
        hi = min(self.max_cluster_dim, self.dimensionality - self.min_irrelevant)
        lo = max(self.min_cluster_dim, self.dimensionality - self.max_irrelevant)
        # Full-dimensional clusters are only allowed when explicitly
        # requested via min_irrelevant = 0.
        if self.min_irrelevant > 0:
            hi = min(hi, self.dimensionality - 1)
        lo = min(lo, hi)
        return max(1, lo), max(1, hi)


@dataclass
class _Plan:
    """Fully resolved generation plan (sizes and per-cluster specs)."""

    cluster_specs: list[ClusterSpec] = field(default_factory=list)
    n_noise: int = 0


def _draw_cluster_sizes(rng: np.random.Generator, total: int, k: int) -> list[int]:
    """Split ``total`` points into ``k`` random cluster sizes.

    Sizes are drawn from a Dirichlet so they are "random" (as in the
    paper) yet each cluster keeps at least ``_MIN_CLUSTER_POINTS``.
    """
    if k == 0:
        return []
    reserved = _MIN_CLUSTER_POINTS * k
    if total < reserved:
        raise ValueError("not enough points to honour minimum cluster size")
    weights = rng.dirichlet(np.full(k, 2.0))
    extra = total - reserved
    sizes = (weights * extra).astype(int) + _MIN_CLUSTER_POINTS
    sizes[0] += total - int(sizes.sum())
    return sizes.tolist()


_MIN_MEAN_SEPARATION = 0.3
"""Smallest |Δmean| two space-sharing clusters must show on at least
one shared axis.  Definition 2 requires correlation clusters to be
*disjoint* point sets; without a separation constraint two random
Gaussians can coincide on all their shared axes, making the ground
truth ill-defined."""


def _separated(candidate_axes, candidate_means, existing: list[ClusterSpec]) -> bool:
    """True when the candidate keeps its distance from every existing
    cluster it shares axes with."""
    position = dict(zip(candidate_axes, candidate_means))
    for other in existing:
        shared = [a for a in other.relevant_axes if a in position]
        if not shared:
            continue
        other_position = dict(zip(other.relevant_axes, other.means))
        gap = max(abs(position[a] - other_position[a]) for a in shared)
        if gap < _MIN_MEAN_SEPARATION:
            return False
    return True


def _plan(spec: SyntheticDatasetSpec, rng: np.random.Generator) -> _Plan:
    """Resolve a :class:`SyntheticDatasetSpec` into concrete clusters."""
    if spec.n_clusters == 0:
        return _Plan(cluster_specs=[], n_noise=spec.n_points)
    n_noise = int(round(spec.n_points * spec.noise_fraction))
    n_clustered = spec.n_points - n_noise
    sizes = _draw_cluster_sizes(rng, n_clustered, spec.n_clusters)
    lo_dim, hi_dim = spec.effective_cluster_dims
    cluster_specs: list[ClusterSpec] = []
    for size in sizes:
        dim = int(rng.integers(lo_dim, hi_dim + 1))
        # Rejection-sample the placement until the new cluster is
        # separated from every overlapping one (best effort after a
        # bounded number of draws — crowded low-dimensional spaces may
        # not admit a perfect packing).
        for _ in range(64):
            axes = tuple(
                sorted(
                    rng.choice(spec.dimensionality, size=dim, replace=False).tolist()
                )
            )
            means = tuple(rng.uniform(*spec.mean_range, size=dim).tolist())
            if _separated(axes, means, cluster_specs):
                break
        stds = tuple(rng.uniform(*spec.std_range, size=dim).tolist())
        cluster_specs.append(
            ClusterSpec(size=size, relevant_axes=axes, means=means, stds=stds)
        )
    return _Plan(cluster_specs=cluster_specs, n_noise=n_noise)


def _sample_cluster(
    spec: ClusterSpec, dimensionality: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one cluster's points: Gaussian on relevant axes, uniform elsewhere."""
    points = rng.uniform(0.0, 1.0, size=(spec.size, dimensionality))
    for axis, mean, std in zip(spec.relevant_axes, spec.means, spec.stds):
        points[:, axis] = rng.normal(mean, std, size=spec.size)
    return points


def generate_dataset(spec: SyntheticDatasetSpec) -> Dataset:
    """Generate a synthetic dataset with known correlation clusters.

    The returned :class:`~repro.types.Dataset` carries the ground truth
    needed by the Quality metrics: per-point labels and, per cluster,
    the member indices and relevant axes.

    The generation order places clusters first and noise last, then
    applies a random permutation so no algorithm can exploit point
    order.
    """
    rng = np.random.default_rng(spec.seed)
    plan = _plan(spec, rng)

    blocks = [
        _sample_cluster(cs, spec.dimensionality, rng) for cs in plan.cluster_specs
    ]
    labels_blocks = [
        np.full(cs.size, k, dtype=np.int64) for k, cs in enumerate(plan.cluster_specs)
    ]
    if plan.n_noise:
        blocks.append(rng.uniform(0.0, 1.0, size=(plan.n_noise, spec.dimensionality)))
        labels_blocks.append(np.full(plan.n_noise, NOISE_LABEL, dtype=np.int64))

    points = clip_unit_cube(np.vstack(blocks))
    labels = np.concatenate(labels_blocks)

    permutation = rng.permutation(spec.n_points)
    points = points[permutation]
    labels = labels[permutation]

    clusters = records_from_labels(
        labels, [cs.relevant_axes for cs in plan.cluster_specs]
    )
    return Dataset(
        points=points,
        labels=labels,
        clusters=clusters,
        name=spec.name or f"{spec.dimensionality}d",
        metadata={
            "spec": spec,
            "cluster_specs": plan.cluster_specs,
            "rotated": False,
        },
    )
