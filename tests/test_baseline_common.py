"""Tests for the shared baseline helpers."""

import numpy as np
import pytest

from repro.baselines.common import kmeanspp_seeds, result_from_labels
from repro.types import NOISE_LABEL


class TestKmeansppSeeds:
    def test_seeds_are_distinct_and_valid(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(200, 3))
        seeds = kmeanspp_seeds(points, 5, rng)
        assert len(set(seeds.tolist())) == 5
        assert np.all(seeds >= 0)
        assert np.all(seeds < 200)

    def test_spreads_across_separated_blobs(self):
        rng = np.random.default_rng(1)
        blobs = np.vstack(
            [rng.normal(c, 0.01, size=(50, 2)) for c in (0.1, 0.5, 0.9)]
        )
        seeds = kmeanspp_seeds(blobs, 3, rng)
        blob_ids = {int(s) // 50 for s in seeds}
        assert len(blob_ids) == 3  # one seed per blob

    def test_rejects_more_seeds_than_points(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="more seeds"):
            kmeanspp_seeds(np.zeros((3, 2)), 4, rng)

    def test_handles_identical_points(self):
        rng = np.random.default_rng(3)
        seeds = kmeanspp_seeds(np.full((20, 2), 0.5), 3, rng)
        assert seeds.shape == (3,)


def _compact(labels):
    """The labels ``result_from_labels`` compacts ``labels`` to."""
    return result_from_labels(labels, axes_for_label=lambda lab: []).labels


class TestRelabelCompact:
    def test_compacts_sparse_labels(self):
        labels = np.array([7, 7, 2, NOISE_LABEL, 2, 9])
        assert _compact(labels).tolist() == [1, 1, 0, NOISE_LABEL, 0, 2]

    def test_noise_preserved(self):
        labels = np.array([NOISE_LABEL, NOISE_LABEL])
        assert _compact(labels).tolist() == [NOISE_LABEL, NOISE_LABEL]
        assert result_from_labels(labels, lambda lab: []).clusters == []

    def test_ascending_original_order(self):
        labels = np.array([5, 1, 5, 0])
        assert _compact(labels).tolist() == [2, 1, 2, 0]


class TestResultFromLabels:
    def test_builds_clusters_with_axes(self):
        labels = np.array([4, 4, NOISE_LABEL, 8])
        result = result_from_labels(
            labels, axes_for_label=lambda lab: [lab % 3]
        )
        assert result.n_clusters == 2
        assert result.clusters[0].indices.tolist() == [0, 1]
        assert result.clusters[0].relevant_axes == frozenset({1})  # 4 % 3
        assert result.clusters[1].indices.tolist() == [3]
        assert result.clusters[1].relevant_axes == frozenset({2})  # 8 % 3

    def test_extras_passed_through(self):
        result = result_from_labels(
            np.array([0]), axes_for_label=lambda lab: [0], extras={"k": 1}
        )
        assert result.extras == {"k": 1}
