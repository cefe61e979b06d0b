"""Tests for the soft-clustering extension."""

import warnings

import numpy as np
import pytest

from repro.core import kernels
from repro.core.contracts import ContractError
from repro.core.counting_tree import MIN_RESOLUTIONS, CountingTree
from repro.core.soft import (
    SoftMrCC,
    _interval_jaccard,
    find_beta_clusters_soft,
    merge_soft,
)
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

    def test_jaccard_equal_to_the_threshold_merges(self):
        a = _beta([0.0, 0.0], [0.5, 1.0], [True, False])
        b = _beta([0.0, 0.0], [0.25, 1.0], [True, False])
        assert _interval_jaccard(a, b) == 0.5
        assert merge_soft([a, b], jaccard_threshold=0.5) == [[0, 1]]
        assert merge_soft([a, b], jaccard_threshold=0.5000001) == [[0], [1]]

    def test_zero_width_shared_interval_scores_zero(self):
        """Two boxes pinned to the same point on a shared axis have an
        empty union there: the score is 0, never a 0/0 NaN."""
        a = _beta([0.3, 0.0], [0.3, 1.0], [True, False])
        b = _beta([0.3, 0.0], [0.3, 1.0], [True, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _interval_jaccard(a, b) == 0.0
        assert merge_soft([a, b], jaccard_threshold=0.0) == [[0, 1]]

    def test_worst_shared_axis_decides(self):
        a = _beta([0.0, 0.0, 0.0], [0.5, 0.5, 1.0], [True, True, True])
        b = _beta([0.0, 0.25, 0.9], [0.5, 0.5, 1.0], [True, True, False])
        # Axis 0 coincides (1.0), axis 1 half-overlaps (0.5); axis 2 is
        # relevant to one box only and does not count.
        assert _interval_jaccard(a, b) == _interval_jaccard(b, a) == 0.5

    def test_merge_is_order_free(self):
        """Groups depend only on which pairs overlap, whatever order the
        boxes are compared in (chains merge transitively)."""
        boxes = [
            _beta([0.0, 0.0], [0.3, 1.0], [True, False]),
            _beta([0.6, 0.0], [0.9, 1.0], [True, False]),
            _beta([0.05, 0.0], [0.35, 1.0], [True, False]),
            _beta([0.1, 0.0], [0.4, 1.0], [True, False]),
        ]
        assert merge_soft(boxes) == [[0, 2, 3], [1]]
        reordered = [boxes[i] for i in (3, 1, 2, 0)]
        assert merge_soft(reordered) == [[0, 2, 3], [1]]


class TestSoftMrCC:
    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="membership_threshold"):
            SoftMrCC(membership_threshold=1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_bounds_are_open(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            SoftMrCC(alpha=alpha)

    def test_resolution_floor_is_inclusive(self):
        assert SoftMrCC(n_resolutions=MIN_RESOLUTIONS).n_resolutions == MIN_RESOLUTIONS
        with pytest.raises(ValueError, match="n_resolutions"):
            SoftMrCC(n_resolutions=MIN_RESOLUTIONS - 1)

    def test_zero_membership_threshold_is_allowed(self):
        assert SoftMrCC(membership_threshold=0.0).membership_threshold == 0.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_rejects_non_finite_input_before_any_arithmetic(self, value, normalize):
        points = np.random.default_rng(0).uniform(0.0, 0.9, size=(200, 4))
        points[17, 2] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ContractError, match=r"^points contains NaN or infinite values$"
            ):
                SoftMrCC(normalize=normalize).fit(points)

    def test_degree_equal_to_the_threshold_counts(
        self, overlapping_points, monkeypatch
    ):
        monkeypatch.setattr(
            SoftMrCC,
            "_membership_matrix",
            lambda self, points, betas, groups: np.full(
                (points.shape[0], len(groups)), 0.25
            ),
        )
        result = SoftMrCC(normalize=False, membership_threshold=0.25).fit(
            overlapping_points
        )
        # Every degree ties at the threshold: all points join the first group.
        assert result.n_noise == 0
        assert result.n_clusters == 1

    def test_groups_without_a_hard_member_drop_out(
        self, overlapping_points, monkeypatch
    ):
        monkeypatch.setattr(
            SoftMrCC,
            "_membership_matrix",
            lambda self, points, betas, groups: np.zeros(
                (points.shape[0], len(groups))
            ),
        )
        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        assert model.beta_clusters_
        assert result.n_clusters == 0
        assert result.n_noise == overlapping_points.shape[0]
        assert model.membership_.shape == (overlapping_points.shape[0], 0)

    def test_cluster_ids_follow_group_order(self, overlapping_points):
        """Kept groups become clusters 0..k-1 in group order; the
        membership columns, labels and axes follow the same order."""
        model = SoftMrCC(normalize=False)
        result = model.fit(overlapping_points)
        betas = model.beta_clusters_
        groups = merge_soft(betas, model.jaccard_threshold)
        full = model._membership_matrix(overlapping_points, betas, groups)
        strong = full.max(axis=1) >= model.membership_threshold
        best = full.argmax(axis=1)
        kept = [g for g in range(len(groups)) if np.any(strong & (best == g))]
        assert len(kept) >= 2
        assert np.array_equal(model.membership_, full[:, kept])
        expected = np.full(overlapping_points.shape[0], NOISE_LABEL)
        for new, g in enumerate(kept):
            expected[strong & (best == g)] = new
        assert np.array_equal(result.labels, expected)
        assert [c.relevant_axes for c in result.clusters] == [
            frozenset().union(*(betas[i].relevant_axes for i in groups[g]))
            for g in kept
        ]

    @pytest.mark.skipif(
        "cext" not in kernels.available_backends(), reason="C backend not built"
    )
    @pytest.mark.parametrize("normalize", [True, False])
    def test_backends_agree_exactly(self, overlapping_points, monkeypatch, normalize):
        fits = []
        for backend in ("numpy", "cext"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            model = SoftMrCC(normalize=normalize)
            result = model.fit(overlapping_points)
            fits.append((result, model.membership_))
        (first, first_membership), (second, second_membership) = fits
        assert first.n_clusters >= 2
        assert np.array_equal(first.labels, second.labels)
        assert np.array_equal(first_membership, second_membership)
        assert first.clusters == second.clusters

    def test_points_on_a_box_face_seed_the_group(self):
        """Seeds are the points inside a member box, faces included;
        the degree is a Gaussian over the seeds' relevant axes."""
        beta = _beta([0.25, 0.0], [0.5, 1.0], [True, False])
        points = np.array(
            [[0.25, 0.1], [0.3, 0.2], [0.4, 0.3], [0.5, 0.4], [0.9, 0.5]]
        )
        membership = SoftMrCC()._membership_matrix(points, [beta], [[0]])
        seeds = points[:4, 0]
        z = (points[:, 0] - seeds.mean()) / seeds.std()
        assert np.array_equal(membership[:, 0], np.exp(-0.5 * z**2))

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
