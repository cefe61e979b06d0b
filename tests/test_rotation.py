"""Tests for the random-plane rotations behind the ``*_r`` suites."""

import numpy as np
import pytest

from repro.data.rotation import compose_random_rotation, givens_rotation, rotate_dataset
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset


class TestGivensRotation:
    def test_is_orthonormal(self):
        rot = givens_rotation(5, 1, 3, 0.7)
        assert np.allclose(rot @ rot.T, np.eye(5))

    def test_rotates_only_the_selected_plane(self):
        rot = givens_rotation(4, 0, 2, np.pi / 2)
        vector = np.array([1.0, 5.0, 0.0, 7.0])
        rotated = rot @ vector
        assert rotated[1] == pytest.approx(5.0)
        assert rotated[3] == pytest.approx(7.0)
        assert rotated[0] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_degenerate_plane(self):
        with pytest.raises(ValueError, match="distinct"):
            givens_rotation(4, 2, 2, 0.1)


class TestComposeRandomRotation:
    def test_composition_is_orthonormal(self):
        rng = np.random.default_rng(5)
        rot = compose_random_rotation(8, n_planes=4, rng=rng)
        assert np.allclose(rot @ rot.T, np.eye(8), atol=1e-12)
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_deterministic_given_rng(self):
        a = compose_random_rotation(6, rng=np.random.default_rng(9))
        b = compose_random_rotation(6, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestRotateDataset:
    @pytest.fixture(scope="class")
    def pair(self):
        dataset = generate_dataset(
            SyntheticDatasetSpec(
                dimensionality=6, n_points=800, n_clusters=2, seed=21
            )
        )
        return dataset, rotate_dataset(dataset, seed=3)

    def test_name_gets_suffix(self, pair):
        original, rotated = pair
        assert rotated.name == original.name + "_r"

    def test_membership_is_preserved(self, pair):
        original, rotated = pair
        assert np.array_equal(original.labels, rotated.labels)
        for a, b in zip(original.clusters, rotated.clusters):
            assert np.array_equal(a.indices, b.indices)

    def test_points_back_in_unit_cube(self, pair):
        _, rotated = pair
        assert np.all(rotated.points >= 0.0)
        assert np.all(rotated.points < 1.0)

    def test_clusters_no_longer_axis_aligned(self, pair):
        """After rotation a cluster should be tight along *combinations*
        of axes: its covariance must have significant off-diagonals
        relative to an axis-aligned cluster."""
        _, rotated = pair
        cluster = max(rotated.clusters, key=lambda c: c.size)
        members = rotated.points[sorted(cluster.indices)]
        cov = np.cov(members.T)
        off_diag = np.abs(cov - np.diag(np.diag(cov))).max()
        assert off_diag > 1e-4

    def test_loaded_axes_cover_originals(self, pair):
        original, rotated = pair
        for a, b in zip(original.clusters, rotated.clusters):
            assert b.relevant_axes  # never empty
            assert len(b.relevant_axes) >= 1

    def test_metadata_records_rotation(self, pair):
        _, rotated = pair
        assert rotated.metadata["rotated"] is True
        rotation = rotated.metadata["rotation"]
        assert np.allclose(rotation @ rotation.T, np.eye(6), atol=1e-12)
