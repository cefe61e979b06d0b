"""Tests for correlation-cluster assembly (Algorithm 3)."""

import numpy as np
import pytest

from repro.core import correlation_cluster, kernels
from repro.core.beta_cluster import BetaCluster
from repro.core.correlation_cluster import (
    UnionFind,
    build_correlation_clusters,
    label_points,
    merge_beta_clusters,
)
from repro.types import NOISE_LABEL
from tests.loops_backend import LoopsBackend

LABELLERS = ["numpy", "loops", "cext"]


@pytest.fixture(params=LABELLERS)
def labeller(request, monkeypatch):
    """Route ``label_points`` through one backend's ``label_rows``.

    ``loops`` is the interpreted C spec, run as a pseudo-backend.
    """
    if request.param == "loops":
        monkeypatch.setattr(
            correlation_cluster, "active_backend", lambda: LoopsBackend
        )
    elif request.param not in kernels.available_backends():
        pytest.skip(f"backend {request.param!r} does not load on this machine")
    else:
        monkeypatch.setenv("REPRO_BACKEND", request.param)
    return request.param


def _beta(lower, upper, relevant, idx=0):
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    return BetaCluster(
        lower=lower,
        upper=upper,
        relevant=np.asarray(relevant, dtype=bool),
        level=2,
        center_row=idx,
        relevances=np.zeros(lower.shape[0]),
    )


class TestUnionFind:
    def test_singletons_initially(self):
        uf = UnionFind(3)
        assert len(uf.components()) == 3

    def test_union_and_find(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        uf.union(2, 3)
        assert uf.find(0) == uf.find(1)
        assert uf.find(2) == uf.find(3)
        assert uf.find(0) != uf.find(2)

    def test_transitive_closure(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(1, 2)
        uf.union(3, 4)
        components = sorted(sorted(m) for m in uf.components().values())
        assert components == [[0, 1, 2], [3, 4]]

    def test_idempotent_union(self):
        uf = UnionFind(2)
        uf.union(0, 1)
        uf.union(0, 1)
        assert len(uf.components()) == 1


class TestMergeBetaClusters:
    def test_overlapping_boxes_merge(self):
        a = _beta([0.0, 0.0], [0.5, 1.0], [True, False])
        b = _beta([0.4, 0.0], [0.8, 1.0], [True, False])
        assert merge_beta_clusters([a, b]) == [[0, 1]]

    def test_disjoint_boxes_stay_apart(self):
        a = _beta([0.0, 0.0], [0.3, 1.0], [True, False])
        b = _beta([0.6, 0.0], [0.9, 1.0], [True, False])
        assert merge_beta_clusters([a, b]) == [[0], [1]]

    def test_chain_merging(self):
        a = _beta([0.0, 0.0], [0.4, 1.0], [True, False])
        b = _beta([0.3, 0.0], [0.6, 1.0], [True, False])
        c = _beta([0.5, 0.0], [0.9, 1.0], [True, False])
        assert merge_beta_clusters([a, b, c]) == [[0, 1, 2]]

    def test_group_order_is_stable(self):
        a = _beta([0.6, 0.0], [0.9, 1.0], [True, False])
        b = _beta([0.0, 0.0], [0.3, 1.0], [True, False])
        groups = merge_beta_clusters([a, b])
        assert groups == [[0], [1]]

    def test_empty_and_single(self):
        assert merge_beta_clusters([]) == []
        assert merge_beta_clusters([_beta([0.2], [0.4], [True])]) == [[0]]

    def test_touching_boxes_stay_apart(self):
        # A shared face has zero measure, on any axis.
        a = _beta([0.0, 0.0], [0.5, 0.5], [True, True])
        right = _beta([0.5, 0.0], [0.75, 0.5], [True, True])
        above = _beta([0.0, 0.5], [0.5, 0.75], [True, True])
        corner = _beta([0.5, 0.5], [0.75, 0.75], [True, True])
        assert merge_beta_clusters([a, right, above, corner]) == [[0], [1], [2], [3]]
        # Overlapping by one ulp is overlapping.
        nudged = _beta([np.nextafter(0.5, 0.0), 0.0], [0.75, 0.5], [True, True])
        assert merge_beta_clusters([a, nudged]) == [[0, 1]]

    def test_overlap_must_hold_on_every_axis(self):
        a = _beta([0.0, 0.0, 0.0], [0.6, 0.6, 1.0], [True, True, False])
        b = _beta([0.4, 0.7, 0.0], [0.9, 0.9, 1.0], [True, True, False])
        assert merge_beta_clusters([a, b]) == [[0], [1]]

    def test_transitive_chain_through_the_last_box(self):
        # 0 and 1 are disjoint; only the last box bridges them.
        a = _beta([0.0], [0.3], [True])
        b = _beta([0.6], [0.9], [True])
        bridge = _beta([0.2], [0.7], [True])
        assert merge_beta_clusters([a, b, bridge]) == [[0, 1, 2]]
        # The same through the first box.
        assert merge_beta_clusters([bridge, a, b]) == [[0, 1, 2]]

    def test_long_chain_whose_ends_do_not_meet(self):
        boxes = [_beta([0.1 * i], [0.1 * i + 0.15], [True]) for i in range(7)]
        assert not boxes[0].shares_space_with(boxes[-1])
        assert merge_beta_clusters(boxes[::-1]) == [list(range(7))]

    def test_groups_ordered_by_smallest_member(self):
        x = [_beta([0.0], [0.2], [True]), _beta([0.1], [0.25], [True])]
        y = [_beta([0.4], [0.5], [True]), _beta([0.45], [0.55], [True])]
        z = _beta([0.8], [0.9], [True])
        groups = merge_beta_clusters([y[0], x[0], z, y[1], x[1]])
        assert groups == [[0, 3], [1, 4], [2]]

    @pytest.mark.parametrize("seed", range(5))
    def test_groups_are_the_connected_components(self, seed):
        rng = np.random.default_rng(seed)
        lower = rng.uniform(0.0, 0.8, size=(12, 2))
        betas = [
            _beta(lo, lo + rng.uniform(0.02, 0.2, 2), [True, True], idx=i)
            for i, lo in enumerate(lower)
        ]
        # Brute-force closure of the overlap relation.
        overlaps = [[a.shares_space_with(b) for b in betas] for a in betas]
        reach = np.array(overlaps) | np.eye(12, dtype=bool)
        for _ in range(12):
            reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
        expected = []
        for i in range(12):
            members = [int(j) for j in np.flatnonzero(reach[i])]
            if members[0] == i:
                expected.append(members)
        assert merge_beta_clusters(betas) == expected


class TestLabelPoints:
    def test_points_inside_boxes_get_group_labels(self):
        betas = [
            _beta([0.0, 0.0], [0.3, 1.0], [True, False]),
            _beta([0.6, 0.0], [0.9, 1.0], [True, False]),
        ]
        groups = [[0], [1]]
        points = np.array([[0.1, 0.5], [0.7, 0.5], [0.45, 0.5]])
        labels = label_points(points, betas, groups)
        assert labels.tolist() == [0, 1, NOISE_LABEL]

    def test_merged_group_shares_one_label(self):
        betas = [
            _beta([0.0, 0.0], [0.4, 1.0], [True, False]),
            _beta([0.3, 0.0], [0.7, 1.0], [True, False]),
        ]
        groups = [[0, 1]]
        points = np.array([[0.1, 0.2], [0.65, 0.8]])
        labels = label_points(points, betas, groups)
        assert labels.tolist() == [0, 0]


class TestLabelTieRule:
    """Groups may touch on a face; the lowest group id takes the face."""

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_shared_face_goes_to_lowest_group(self, labeller, order):
        boxes = [([0.5, 0.0], [1.0, 1.0]), ([0.0, 0.0], [0.5, 1.0])]
        betas = [_beta(*boxes[i], [True, False]) for i in order]
        groups = merge_beta_clusters(betas)
        assert groups == [[0], [1]]
        points = np.array([[0.5, 0.3], [0.25, 0.3], [0.75, 0.3]])
        labels = label_points(points, betas, groups)
        upper_group = order.index(0)
        assert labels.tolist() == [0, 1 - upper_group, upper_group]

    def test_first_member_box_of_a_group_wins_over_later_groups(self, labeller):
        # Group 0 = betas {0, 2}; the point lies in betas 1 and 2 only,
        # so group 0 claims it through its second member box.
        betas = [
            _beta([0.0, 0.0], [0.2, 1.0], [True, False]),
            _beta([0.4, 0.0], [0.6, 1.0], [True, False]),
            _beta([0.6, 0.0], [0.9, 1.0], [True, False]),
        ]
        labels = label_points(np.array([[0.6, 0.5]]), betas, [[0, 2], [1]])
        assert labels.tolist() == [0]

    def test_bounds_are_closed_and_nan_rows_are_noise(self, labeller):
        betas = [_beta([0.25, 0.0], [0.75, 1.0], [True, False])]
        points = np.array(
            [
                [0.25, 0.0],
                [0.75, 1.0],
                [np.nextafter(0.25, 0.0), 0.5],
                [np.nextafter(0.75, 1.0), 0.5],
                [np.nan, 0.5],
                [0.5, np.nan],
            ]
        )
        labels = label_points(points, betas, [[0]])
        assert labels.tolist() == [0, 0] + [NOISE_LABEL] * 4

    def test_no_boxes_and_no_rows(self, labeller):
        points = np.array([[0.5, 0.5]])
        assert label_points(points, [], []).tolist() == [NOISE_LABEL]
        betas = [_beta([0.0, 0.0], [1.0, 1.0], [False, False])]
        assert label_points(np.empty((0, 2)), betas, [[0]]).shape == (0,)

    def test_box_dimensionality_must_match_the_points(self, labeller):
        betas = [_beta([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [True, False, False])]
        with pytest.raises(ValueError):
            label_points(np.full((4, 2), 0.5), betas, [[0]])


class TestBuildCorrelationClusters:
    def test_empty_betas_all_noise(self):
        points = np.random.default_rng(0).uniform(0, 1, (10, 3))
        result = build_correlation_clusters(points, [])
        assert result.n_clusters == 0
        assert result.n_noise == 10
        assert result.extras["n_beta_clusters"] == 0

    def test_relevant_axes_union(self):
        betas = [
            _beta([0.0, 0.0, 0.0], [0.4, 1.0, 1.0], [True, False, False]),
            _beta([0.3, 0.0, 0.0], [0.7, 1.0, 1.0], [False, True, False]),
        ]
        points = np.array([[0.2, 0.5, 0.5]])
        result = build_correlation_clusters(points, betas)
        assert result.n_clusters == 1
        assert result.clusters[0].relevant_axes == frozenset({0, 1})

    def test_labels_and_clusters_agree(self, single_cluster_points):
        from repro.core.beta_cluster import find_beta_clusters
        from repro.core.counting_tree import CountingTree

        points, _ = single_cluster_points
        tree = CountingTree(points, n_resolutions=4)
        betas = find_beta_clusters(tree, alpha=1e-10)
        result = build_correlation_clusters(points, betas)
        for k, cluster in enumerate(result.clusters):
            assert np.array_equal(
                cluster.indices, np.flatnonzero(result.labels == k)
            )

    def test_every_point_in_at_most_one_cluster(self):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 1, (500, 3))
        betas = [
            _beta([0.0, 0.0, 0.0], [0.5, 1.0, 1.0], [True, False, False]),
            _beta([0.6, 0.0, 0.0], [1.0, 1.0, 1.0], [True, False, False]),
        ]
        result = build_correlation_clusters(points, betas)
        sizes = sum(c.size for c in result.clusters)
        assert sizes + result.n_noise == 500
