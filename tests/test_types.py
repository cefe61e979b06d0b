"""Unit tests for the shared value types."""

import numpy as np
import pytest

from repro.types import NOISE_LABEL, ClusteringResult, Dataset, SubspaceCluster


class TestSubspaceCluster:
    def test_from_iterables_normalises_indices_and_axes(self):
        cluster = SubspaceCluster.from_iterables([3, 1, 1], (np.int64(2), 0))
        assert cluster.indices.dtype == np.int64
        assert cluster.indices.tolist() == [1, 3]
        assert not cluster.indices.flags.writeable
        assert cluster.relevant_axes == frozenset({0, 2})

    def test_size_and_dimensionality(self):
        cluster = SubspaceCluster.from_iterables(range(10), [0, 4])
        assert cluster.size == 10
        assert cluster.dimensionality == 2

    def test_is_hashable_and_equal_by_value(self):
        a = SubspaceCluster.from_iterables([1, 2], [0])
        b = SubspaceCluster.from_iterables([2, 1], [0])
        assert a == b
        assert len({a, b}) == 1


class TestClusteringResult:
    def test_from_labels_builds_clusters_in_label_order(self):
        labels = [0, 1, 0, NOISE_LABEL, 1]
        result = ClusteringResult.from_labels(labels, [[0, 1], [2]])
        assert result.n_clusters == 2
        assert result.clusters[0].indices.tolist() == [0, 2]
        assert result.clusters[1].indices.tolist() == [1, 4]
        assert result.clusters[1].relevant_axes == frozenset({2})

    def test_n_noise_counts_noise_labels(self):
        result = ClusteringResult.from_labels([0, NOISE_LABEL, NOISE_LABEL], [[0]])
        assert result.n_noise == 2

    def test_empty_clusters_allowed(self):
        result = ClusteringResult.from_labels([NOISE_LABEL, NOISE_LABEL], [])
        assert result.n_clusters == 0
        assert result.n_noise == 2


class TestDataset:
    def _dataset(self):
        points = np.array([[0.1, 0.2], [0.3, 0.4], [0.9, 0.9]])
        labels = np.array([0, 0, NOISE_LABEL])
        clusters = [SubspaceCluster.from_iterables([0, 1], [1])]
        return Dataset(points=points, labels=labels, clusters=clusters, name="t")

    def test_properties(self):
        ds = self._dataset()
        assert ds.n_points == 3
        assert ds.dimensionality == 2
        assert ds.n_clusters == 1
        assert ds.noise_fraction == pytest.approx(1 / 3)

    def test_validate_accepts_consistent_dataset(self):
        self._dataset().validate()

    def test_validate_rejects_label_cluster_mismatch(self):
        ds = self._dataset()
        ds.clusters = [SubspaceCluster.from_iterables([0], [1])]
        with pytest.raises(ValueError, match="disagree"):
            ds.validate()

    def test_validate_rejects_points_outside_unit_cube(self):
        ds = self._dataset()
        ds.points = ds.points + 1.0
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ds.validate()

    def test_validate_rejects_out_of_range_axis(self):
        ds = self._dataset()
        ds.clusters = [SubspaceCluster.from_iterables([0, 1], [5])]
        with pytest.raises(ValueError, match="out-of-range"):
            ds.validate()
