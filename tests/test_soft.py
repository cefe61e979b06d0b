"""Tests for the soft-clustering extension."""

import numpy as np
import pytest

from repro.core.counting_tree import CountingTree
from repro.core.soft import SoftMrCC, find_beta_clusters_soft, merge_soft
from repro.core.beta_cluster import BetaCluster
from repro.evaluation.quality import quality
from repro.types import NOISE_LABEL


def _beta(lower, upper, relevant):
    lower = np.asarray(lower, dtype=float)
    return BetaCluster(
        lower=lower,
        upper=np.asarray(upper, dtype=float),
        relevant=np.asarray(relevant, dtype=bool),
        level=2,
        center_row=0,
        relevances=np.zeros(lower.shape[0]),
    )


@pytest.fixture(scope="module")
def overlapping_points():
    """Two clusters sharing space: same region on axis 0, different on
    axis 1; plus noise."""
    rng = np.random.default_rng(0)
    a = np.column_stack(
        [rng.normal(0.4, 0.02, 600), rng.normal(0.2, 0.02, 600),
         rng.uniform(0, 1, 600), rng.uniform(0, 1, 600),
         rng.normal(0.6, 0.02, 600)]
    )
    b = np.column_stack(
        [rng.normal(0.4, 0.02, 600), rng.normal(0.8, 0.02, 600),
         rng.uniform(0, 1, 600), rng.uniform(0, 1, 600),
         rng.normal(0.3, 0.02, 600)]
    )
    noise = rng.uniform(0, 1, size=(300, 5))
    points = np.clip(np.vstack([a, b, noise]), 0, np.nextafter(1.0, 0))
    return points


class TestSoftSearch:
    def test_finds_more_candidates_without_exclusion(self, overlapping_points):
        tree = CountingTree(overlapping_points)
        betas = find_beta_clusters_soft(tree, alpha=1e-10, max_beta_clusters=32)
        assert len(betas) >= 2

    def test_budget_is_respected(self, overlapping_points):
        tree = CountingTree(overlapping_points)
        betas = find_beta_clusters_soft(tree, alpha=1e-10, max_beta_clusters=3)
        assert len(betas) <= 3


class TestMergeSoft:
    def test_identical_boxes_merge(self):
        a = _beta([0.2, 0.0], [0.5, 1.0], [True, False])
        b = _beta([0.2, 0.0], [0.5, 1.0], [True, False])
        assert merge_soft([a, b]) == [[0, 1]]

    def test_barely_touching_boxes_stay_apart(self):
        a = _beta([0.2, 0.0], [0.5, 1.0], [True, False])
        b = _beta([0.48, 0.0], [0.8, 1.0], [True, False])
        assert merge_soft([a, b], jaccard_threshold=0.5) == [[0], [1]]

    def test_disjoint_axes_never_merge(self):
        a = _beta([0.2, 0.0], [0.5, 1.0], [True, False])
        b = _beta([0.0, 0.2], [1.0, 0.5], [False, True])
        assert merge_soft([a, b]) == [[0], [1]]


class TestSoftMrCC:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="membership_threshold"):
            SoftMrCC(membership_threshold=1.0)

    def test_membership_matrix_shape_and_range(self, overlapping_points):
        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        membership = model.membership_
        assert membership.shape[0] == overlapping_points.shape[0]
        assert membership.shape[1] >= result.n_clusters
        assert np.all(membership >= 0.0)
        assert np.all(membership <= 1.0)

    def test_recovers_overlapping_clusters(self, overlapping_points):
        from repro.types import SubspaceCluster

        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        truth = [
            SubspaceCluster.from_iterables(range(600), [0, 1, 4]),
            SubspaceCluster.from_iterables(range(600, 1200), [0, 1, 4]),
        ]
        assert result.n_clusters >= 2
        assert quality(result.clusters, truth) > 0.7

    def test_membership_is_graded_not_binary(self, overlapping_points):
        """Degrees form a continuum: members near the centre score close
        to 1, boundary members in between, far points near 0 — unlike
        the hard variant's {0, 1} labels."""
        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        membership = model.membership_
        assert membership.size
        graded = (membership > 0.05) & (membership < 0.95)
        assert np.count_nonzero(graded) > 10
        # Hard members of a cluster score higher in it than non-members.
        for k in range(result.n_clusters):
            members = result.labels == k
            if np.any(members) and np.any(~members):
                assert (
                    membership[members, k].mean()
                    > membership[~members, k].mean()
                )

    def test_noise_points_have_weak_membership(self, overlapping_points):
        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        noise = result.labels == NOISE_LABEL
        if np.any(noise) and model.membership_.shape[1]:
            assert (
                model.membership_[noise].max(axis=1).mean()
                < model.membership_[~noise].max(axis=1).mean()
            )

    def test_hard_view_consistent(self, overlapping_points):
        result = SoftMrCC(normalize=False).fit(overlapping_points)
        for k, cluster in enumerate(result.clusters):
            assert np.array_equal(
                cluster.indices, np.flatnonzero(result.labels == k)
            )
