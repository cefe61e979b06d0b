"""End-to-end tests for the MrCC estimator (Section III)."""

import numpy as np
import pytest

from repro.core import kernels
from repro.core.mrcc import MrCC
from repro.data.rotation import rotate_dataset
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.evaluation.quality import evaluate_clustering, quality
from repro.types import NOISE_LABEL

AVAILABLE = kernels.available_backends()


class TestValidation:
    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            MrCC(alpha=2.0)

    def test_rejects_bad_resolutions(self):
        with pytest.raises(ValueError, match="n_resolutions"):
            MrCC(n_resolutions=2)

    def test_rejects_1d_input(self):
        with pytest.raises(ValueError, match="2-d"):
            MrCC().fit(np.zeros(5))


class TestClustering:
    def test_finds_planted_clusters(self, medium_dataset):
        result = MrCC(normalize=False).fit(medium_dataset.points)
        report = evaluate_clustering(result, medium_dataset)
        # Close clusters can legitimately merge at coarse resolutions,
        # so allow one fewer than planted — but the Quality must stay in
        # the paper's band.
        assert result.n_clusters >= medium_dataset.n_clusters - 1
        assert report.quality > 0.8
        assert report.subspaces_quality > 0.8

    def test_labels_match_clusters(self, medium_dataset):
        result = MrCC(normalize=False).fit(medium_dataset.points)
        for k, cluster in enumerate(result.clusters):
            assert cluster.indices == frozenset(
                np.flatnonzero(result.labels == k).tolist()
            )

    def test_pure_noise_finds_nothing(self):
        rng = np.random.default_rng(9)
        points = rng.uniform(0, 1, size=(2000, 5))
        result = MrCC(normalize=False).fit(points)
        assert result.n_clusters == 0
        assert result.n_noise == 2000

    def test_deterministic(self, medium_dataset):
        a = MrCC(normalize=False).fit(medium_dataset.points)
        b = MrCC(normalize=False).fit(medium_dataset.points)
        assert np.array_equal(a.labels, b.labels)

    def test_estimator_attributes_populated(self, medium_dataset):
        estimator = MrCC(normalize=False)
        result = estimator.fit(medium_dataset.points)
        assert np.array_equal(estimator.labels_, result.labels)
        assert estimator.clusters_ == result.clusters
        assert estimator.relevant_axes_ == [c.relevant_axes for c in result.clusters]
        assert estimator.tree_ is not None
        assert estimator.beta_clusters_ is not None

    def test_fit_predict_returns_labels(self, easy_dataset):
        labels = MrCC(normalize=False).fit_predict(easy_dataset.points)
        assert labels.shape == (easy_dataset.n_points,)

    def test_no_cluster_count_parameter_needed(self, easy_dataset):
        """MrCC's headline property: the number of clusters is not an
        input and is still recovered."""
        result = MrCC(normalize=False).fit(easy_dataset.points)
        assert result.n_clusters == easy_dataset.n_clusters


class TestNormalization:
    def test_normalize_handles_raw_feature_ranges(self, easy_dataset):
        scaled = easy_dataset.points * 250.0 - 60.0
        raw = MrCC(normalize=True).fit(scaled)
        unit = MrCC(normalize=False).fit(easy_dataset.points)
        # Min-max normalisation shifts the grid slightly (it maps the
        # observed extremes, not the original cube), so allow one
        # cluster of slack around the unit-cube run.
        assert abs(raw.n_clusters - unit.n_clusters) <= 1
        assert raw.n_clusters >= 1

    def test_unnormalised_data_raises_without_normalize(self, easy_dataset):
        with pytest.raises(ValueError):
            MrCC(normalize=False).fit(easy_dataset.points + 10.0)


class TestRobustness:
    def test_robust_to_noise_increase(self, easy_dataset):
        """Section IV: MrCC's quality moves little as noise grows."""
        from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset

        qualities = []
        for noise in (0.05, 0.25):
            ds = generate_dataset(
                SyntheticDatasetSpec(
                    dimensionality=8,
                    n_points=3000,
                    n_clusters=3,
                    noise_fraction=noise,
                    max_irrelevant=2,
                    seed=31,
                )
            )
            result = MrCC(normalize=False).fit(ds.points)
            qualities.append(quality(result.clusters, ds.clusters))
        assert min(qualities) > 0.6
        assert abs(qualities[0] - qualities[1]) < 0.3

    def test_survives_rotation(self, medium_dataset):
        """Section IV-F: MrCC is only marginally affected by rotations
        (clusters in linearly combined subspaces)."""
        rotated = rotate_dataset(medium_dataset, seed=8)
        result = MrCC(normalize=False).fit(rotated.points)
        report = evaluate_clustering(result, rotated)
        assert result.n_clusters >= 1
        assert report.quality > 0.5

    def test_beta_cluster_count_stays_near_cluster_count(self, medium_dataset):
        """Section IV-F: the number of beta-clusters closely follows the
        number of real clusters (<= 33 for 25 clusters in the paper)."""
        result = MrCC(normalize=False).fit(medium_dataset.points)
        assert result.extras["n_beta_clusters"] <= 2 * medium_dataset.n_clusters

    def test_noise_labelled_noise(self, medium_dataset):
        result = MrCC(normalize=False).fit(medium_dataset.points)
        true_noise = medium_dataset.labels == NOISE_LABEL
        found_noise = result.labels == NOISE_LABEL
        # Most of the injected uniform noise must stay outside clusters.
        assert found_noise[true_noise].mean() > 0.7


@pytest.mark.parametrize(
    "backend", [name for name in ("numpy", "cext") if name in AVAILABLE]
)
def test_row_permutation_permutes_labels(backend, monkeypatch):
    """Fitting the rows in another order labels each row the same."""
    monkeypatch.setenv("REPRO_BACKEND", backend)
    dataset = generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=8,
            n_points=10_000,
            n_clusters=4,
            noise_fraction=0.15,
            max_irrelevant=3,
            seed=21,
        )
    )
    perm = np.random.default_rng(5).permutation(dataset.points.shape[0])
    labels = MrCC(n_resolutions=5).fit(dataset.points).labels
    permuted = MrCC(n_resolutions=5).fit(dataset.points[perm]).labels
    assert len(np.unique(labels)) > 2
    np.testing.assert_array_equal(permuted, labels[perm])


@pytest.mark.parametrize(
    "backend", [name for name in ("numpy", "cext") if name in AVAILABLE]
)
@pytest.mark.parametrize("seed", [0, 3])
def test_axis_permutation_permutes_axes(backend, seed, monkeypatch):
    """Reordering the axes relabels them and changes nothing else.

    Column ``j`` of ``points[:, perm]`` is axis ``perm[j]`` of
    ``points``, so each cluster's relevant axes map through ``perm``
    and each β-cluster's bounds are the original bounds at ``perm``.
    """
    monkeypatch.setenv("REPRO_BACKEND", backend)
    dataset = generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=8,
            n_points=6_000,
            n_clusters=4,
            noise_fraction=0.15,
            max_irrelevant=3,
            seed=seed,
        )
    )
    perm = np.random.default_rng(seed + 100).permutation(8)
    original = MrCC(n_resolutions=5)
    permuted = MrCC(n_resolutions=5)
    labels = original.fit(dataset.points).labels
    permuted_labels = permuted.fit(dataset.points[:, perm]).labels
    assert len(np.unique(labels)) > 2
    np.testing.assert_array_equal(permuted_labels, labels)
    assert [
        frozenset(int(perm[j]) for j in axes) for axes in permuted.relevant_axes_
    ] == original.relevant_axes_
    assert len(permuted.beta_clusters_) == len(original.beta_clusters_)
    for ours, theirs in zip(permuted.beta_clusters_, original.beta_clusters_):
        np.testing.assert_array_equal(ours.lower, theirs.lower[perm])
        np.testing.assert_array_equal(ours.upper, theirs.upper[perm])
        np.testing.assert_array_equal(ours.relevant, theirs.relevant[perm])


@pytest.mark.parametrize(
    "backend", [name for name in ("numpy", "cext") if name in AVAILABLE]
)
def test_axis_permutation_tie_is_broken_by_key_order(backend, monkeypatch):
    """Tied pivots are tried in key order, which axis order defines.

    The data is symmetric under swapping axes 0 and 1: cluster A at
    (0.2, 0.8, …) mirrors cluster B at (0.8, 0.2, …), noise included.
    Their centre cells tie on every statistic, and the one with the
    lower key, axis 0 most significant, is found first.  After the swap
    the other cluster holds that cell, so both fits find the same boxes
    in the same order and the same partition, but cluster ids 0 and 1
    trade places (DESIGN §4b).
    """
    monkeypatch.setenv("REPRO_BACKEND", backend)
    rng = np.random.default_rng(0)
    half = np.vstack(
        [
            np.array([0.2, 0.8, 0.6, 0.6]) + rng.normal(0, 0.015, (500, 4)),
            rng.uniform(0, 1, (200, 4)),
        ]
    )
    swap = np.array([1, 0, 2, 3])
    points = np.clip(np.vstack([half, half[:, swap]]), 0, np.nextafter(1, 0))
    original = MrCC(normalize=False)
    swapped = MrCC(normalize=False)
    labels = original.fit(points).labels
    swapped_labels = swapped.fit(points[:, swap]).labels
    assert labels[:500].tolist() == [0] * 500
    assert labels[700:1200].tolist() == [1] * 500
    relabel = np.array([1, 0, NOISE_LABEL])  # noise (-1) maps to itself
    np.testing.assert_array_equal(swapped_labels, relabel[labels])
    assert len(swapped.beta_clusters_) == len(original.beta_clusters_) == 2
    for ours, theirs in zip(swapped.beta_clusters_, original.beta_clusters_):
        np.testing.assert_array_equal(ours.lower, theirs.lower)
        np.testing.assert_array_equal(ours.upper, theirs.upper)
