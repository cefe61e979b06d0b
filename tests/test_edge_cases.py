"""Edge-case and failure-injection tests across the stack."""

import numpy as np
import pytest

from repro.core.counting_tree import CountingTree
from repro.core.mrcc import MrCC
from repro.data.normalize import minmax_normalize
from repro.types import NOISE_LABEL


class TestDegenerateInputs:
    def test_single_point(self):
        result = MrCC(normalize=False).fit(np.array([[0.5, 0.5]]))
        assert result.n_clusters == 0
        assert result.labels.tolist() == [NOISE_LABEL]

    def test_all_points_identical(self):
        points = np.full((500, 4), 0.3)
        result = MrCC(normalize=False).fit(points)
        # A zero-volume point mass is a degenerate "cluster"; whatever
        # the verdict, the result must be structurally sound.
        assert result.labels.shape == (500,)
        assert result.n_clusters <= 1

    def test_one_dimensional_data(self):
        rng = np.random.default_rng(0)
        points = np.concatenate(
            [rng.normal(0.3, 0.01, 400), rng.uniform(0, 1, 100)]
        ).reshape(-1, 1)
        points = np.clip(points, 0, np.nextafter(1.0, 0))
        result = MrCC(normalize=False).fit(points)
        assert result.n_clusters >= 1
        assert result.clusters[0].relevant_axes == frozenset({0})

    def test_two_points(self):
        result = MrCC(normalize=False).fit(np.array([[0.1, 0.1], [0.9, 0.9]]))
        assert result.n_clusters == 0

    def test_points_exactly_on_cell_boundaries(self):
        grid = np.linspace(0.0, 0.9375, 16)
        points = np.array([[x, y] for x in grid for y in grid])
        result = MrCC(normalize=False).fit(points)
        assert result.labels.shape == (256,)

    def test_value_just_below_one(self):
        points = np.full((100, 3), np.nextafter(1.0, 0.0))
        tree = CountingTree(points)
        for h in tree.levels:
            assert np.all(tree.level(h).coords == (1 << h) - 1)


class TestExtremeParameters:
    def test_very_deep_tree(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(300, 3))
        tree = CountingTree(points, n_resolutions=16)
        # Deep levels converge to one point per cell; counts stay exact.
        deepest = tree.level(15)
        assert int(deepest.n.sum()) == 300
        assert deepest.n.max() >= 1

    def test_extremely_strict_alpha_finds_nothing_small(self):
        rng = np.random.default_rng(2)
        cluster = np.clip(rng.normal(0.5, 0.01, size=(40, 3)), 0, 0.999)
        result = MrCC(alpha=1e-300, normalize=False).fit(cluster)
        assert result.n_clusters == 0

    def test_lenient_alpha_is_still_valid(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(500, 3))
        result = MrCC(alpha=0.2, normalize=False).fit(points)
        # A lax test may hallucinate clusters on noise, but the output
        # contract must hold.
        for k, cluster in enumerate(result.clusters):
            assert np.array_equal(
                cluster.indices, np.flatnonzero(result.labels == k)
            )

    def test_max_beta_clusters_zero_like_cap(self, medium_dataset):
        result = MrCC(normalize=False, max_beta_clusters=1).fit(
            medium_dataset.points
        )
        assert result.extras["n_beta_clusters"] == 1
        assert result.n_clusters == 1


class TestNormalizationEdges:
    def test_negative_and_large_values(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(loc=-1000.0, scale=500.0, size=(400, 4))
        out = minmax_normalize(raw)
        assert out.min() == 0.0
        assert out.max() < 1.0

    def test_single_row(self):
        out = minmax_normalize(np.array([[5.0, -3.0]]))
        assert np.all(out == 0.0)

    def test_nan_free_given_finite_input(self):
        rng = np.random.default_rng(5)
        raw = rng.uniform(-1e9, 1e9, size=(100, 3))
        assert np.all(np.isfinite(minmax_normalize(raw)))


class TestBaselineDegenerateInputs:
    @pytest.mark.parametrize("n_points", [3, 10])
    def test_tiny_datasets_do_not_crash(self, n_points):
        from repro.baselines import CFPC, EPCH, LAC, P3C

        rng = np.random.default_rng(6)
        points = rng.uniform(0, 1, size=(n_points, 3))
        for method in (
            LAC(n_clusters=2),
            EPCH(max_no_cluster=2),
            P3C(),
            CFPC(n_clusters=2),
        ):
            result = method.fit(points)
            assert result.labels.shape == (n_points,)

    def test_constant_data_baselines(self):
        from repro.baselines import LAC

        points = np.full((50, 3), 0.4)
        result = LAC(n_clusters=2).fit(points)
        assert result.labels.shape == (50,)
