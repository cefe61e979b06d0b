"""Simulator of the Siemens KDD Cup 2008 breast-cancer data (Section IV-C).

The paper's real-data experiment uses the KDD Cup 2008 training set:
25 features extracted from 102,294 candidate Regions of Interest (ROIs)
in X-ray breast images of 118 malignant and 1,594 normal cases, split by
(breast side x view) into four datasets of roughly 25k ROIs each, with a
ground-truth class label per ROI.

That dataset is proprietary and not redistributable, so this module
generates a statistically analogous stand-in (substitution #1 in
DESIGN.md):

* the published counts are preserved — cases, ROIs, features, the four
  (side, view) splits, the extreme class skew;
* malignant ROIs form a handful of compact clusters that live in
  low-dimensional subspaces of the 25 features, mimicking the fact that
  true lesions share correlated feature signatures;
* normal tissue contributes both broad benign structures (dense-tissue
  patterns, also subspace clusters, carrying most points) and diffuse
  background ROIs (noise);

which is exactly the structure the compared algorithms exploit: a
large, noisy, 25-axis dataset whose clusters carry the class signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.normalize import clip_unit_cube
from repro.types import NOISE_LABEL, Dataset, records_from_labels

SIDES = ("left", "right")
VIEWS = ("CC", "MLO")

N_FEATURES = 25
TOTAL_ROIS = 102_294
N_MALIGNANT_CASES = 118
N_NORMAL_CASES = 1_594


@dataclass(frozen=True)
class KddCup2008Spec:
    """Size/shape parameters of the simulated KDD Cup 2008 data.

    ``scale`` multiplies ROI counts (1.0 = published size).  The number
    of benign-structure clusters and malignant lesion clusters per split
    are simulator choices documented in DESIGN.md.
    """

    scale: float = 1.0
    n_benign_clusters: int = 2
    n_malignant_clusters: int = 1
    benign_fraction: float = 0.92
    malignant_fraction: float = 0.008
    seed: int = 2008

    @property
    def rois_per_split(self) -> int:
        """ROIs in each (side, view) split — about a quarter of the total."""
        return max(400, int(round(TOTAL_ROIS / 4 * self.scale)))


def _sample_subspace_cluster(
    rng: np.random.Generator,
    size: int,
    dim_range: tuple[int, int],
    std_range: tuple[float, float],
) -> tuple[np.ndarray, tuple[int, ...]]:
    """One Gaussian cluster in a random feature subset; uniform elsewhere."""
    n_axes = int(rng.integers(dim_range[0], dim_range[1] + 1))
    axes = tuple(sorted(rng.choice(N_FEATURES, size=n_axes, replace=False).tolist()))
    points = rng.uniform(0.0, 1.0, size=(size, N_FEATURES))
    for axis in axes:
        mean = rng.uniform(0.15, 0.85)
        std = rng.uniform(*std_range)
        points[:, axis] = rng.normal(mean, std, size=size)
    return points, axes


def kddcup2008_split(
    side: str, view: str, spec: KddCup2008Spec | None = None
) -> Dataset:
    """Generate one (breast side, view) split of the simulated data.

    Following the paper's protocol ("the results ... were evaluated
    based on the ground truth class label of each ROI"), the returned
    :class:`~repro.types.Dataset` exposes the two *classes* as its
    ground-truth clusters: cluster 0 holds every normal ROI, cluster 1
    every malignant ROI.  The finer generator structures (individual
    tissue patterns and lesions) are recorded in
    ``metadata["structure_labels"]`` / ``metadata["structure_axes"]``.
    """
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}")
    if view not in VIEWS:
        raise ValueError(f"view must be one of {VIEWS}")
    spec = spec or KddCup2008Spec()
    split_index = SIDES.index(side) * len(VIEWS) + VIEWS.index(view)
    rng = np.random.default_rng(spec.seed + split_index)

    total = spec.rois_per_split
    # Floor the malignant count so the lesion cluster keeps the
    # statistical mass it has at the published size (~200 ROIs per
    # split): below a few dozen points per cell no method — nor the
    # paper's binomial test — can see it (Section V caveat).
    n_malignant = max(min(120, total // 8), int(round(total * spec.malignant_fraction)))
    n_benign = int(round((total - n_malignant) * spec.benign_fraction))
    n_background = total - n_malignant - n_benign

    blocks: list[np.ndarray] = []
    label_blocks: list[np.ndarray] = []
    malignant_blocks: list[np.ndarray] = []
    axes_per_cluster: list[tuple[int, ...]] = []
    label = 0

    # ROI features are heavily cross-correlated in mammography data, so
    # both tissue structures and lesions span most of the 25 features;
    # only a handful of axes stay uninformative per cluster.
    # One dominant tissue structure carries most normal ROIs (real
    # mammography ROIs overwhelmingly sample regular parenchyma); the
    # remaining benign structures share the rest.
    benign_sizes = _split_sizes(
        rng, n_benign, spec.n_benign_clusters, dominant=0.85
    )
    for size in benign_sizes:
        points, axes = _sample_subspace_cluster(
            rng, size, dim_range=(22, 24), std_range=(0.004, 0.02)
        )
        blocks.append(points)
        label_blocks.append(np.full(size, label, dtype=np.int64))
        malignant_blocks.append(np.zeros(size, dtype=bool))
        axes_per_cluster.append(axes)
        label += 1

    malignant_sizes = _split_sizes(rng, n_malignant, spec.n_malignant_clusters)
    for size in malignant_sizes:
        points, axes = _sample_subspace_cluster(
            rng, size, dim_range=(22, 24), std_range=(0.003, 0.012)
        )
        blocks.append(points)
        label_blocks.append(np.full(size, label, dtype=np.int64))
        malignant_blocks.append(np.ones(size, dtype=bool))
        axes_per_cluster.append(axes)
        label += 1

    blocks.append(rng.uniform(0.0, 1.0, size=(n_background, N_FEATURES)))
    label_blocks.append(np.full(n_background, NOISE_LABEL, dtype=np.int64))
    malignant_blocks.append(np.zeros(n_background, dtype=bool))

    points = clip_unit_cube(np.vstack(blocks))
    structure_labels = np.concatenate(label_blocks)
    is_malignant = np.concatenate(malignant_blocks)

    permutation = rng.permutation(total)
    points = points[permutation]
    structure_labels = structure_labels[permutation]
    is_malignant = is_malignant[permutation]

    # Class-level ground truth (the paper's evaluation target): 0 =
    # normal ROI, 1 = malignant ROI.  A class cluster's relevant axes
    # are the union of its structures' axes.
    class_labels = is_malignant.astype(np.int64)
    n_structures = len(axes_per_cluster)
    normal_axes: set[int] = set()
    malignant_axes: set[int] = set()
    for k in range(n_structures):
        target = malignant_axes if k >= spec.n_benign_clusters else normal_axes
        target.update(axes_per_cluster[k])
    clusters = records_from_labels(class_labels, [normal_axes, malignant_axes])
    return Dataset(
        points=points,
        labels=class_labels,
        clusters=clusters,
        name=f"kddcup2008-{side}-{view}",
        metadata={
            "spec": spec,
            "side": side,
            "view": view,
            "is_malignant": is_malignant,
            "structure_labels": structure_labels,
            "structure_axes": axes_per_cluster,
            "n_malignant_cases": N_MALIGNANT_CASES,
            "n_normal_cases": N_NORMAL_CASES,
            "simulated": True,
        },
    )


def generate_kddcup2008(spec: KddCup2008Spec | None = None) -> dict[str, Dataset]:
    """Generate all four (side, view) splits keyed by ``"side-VIEW"``."""
    spec = spec or KddCup2008Spec()
    return {
        f"{side}-{view}": kddcup2008_split(side, view, spec)
        for side in SIDES
        for view in VIEWS
    }


def _split_sizes(
    rng: np.random.Generator, total: int, k: int, dominant: float | None = None
) -> list[int]:
    """Split ``total`` into ``k`` parts of at least 10 points each.

    With ``dominant`` set, the first part receives that fraction and
    the rest is shared randomly; otherwise all parts are random.
    """
    if k <= 0:
        return []
    minimum = min(10, max(1, total // k))
    if dominant is not None and k > 1:
        weights = np.concatenate(
            [[dominant], rng.dirichlet(np.full(k - 1, 2.5)) * (1.0 - dominant)]
        )
    elif dominant is not None:
        weights = np.ones(1)
    else:
        weights = rng.dirichlet(np.full(k, 2.5))
    sizes = (weights * (total - minimum * k)).astype(int) + minimum
    sizes[0] += total - int(sizes.sum())
    return sizes.tolist()
