"""Behavioural tests for the related-work extras: PROCLUS and CLIQUE."""

import numpy as np
import pytest

from repro.baselines import CLIQUE, PROCLUS
from repro.evaluation.quality import quality


class TestPROCLUS:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="n_clusters"):
            PROCLUS(n_clusters=0)
        with pytest.raises(ValueError, match="avg_dims"):
            PROCLUS(n_clusters=2, avg_dims=1)

    def test_recovers_planted_structure(self, easy_dataset):
        result = PROCLUS(n_clusters=3, avg_dims=3, random_state=0).fit(
            easy_dataset.points
        )
        assert result.n_clusters >= 2
        assert quality(result.clusters, easy_dataset.clusters) > 0.6

    def test_every_cluster_selects_at_least_two_dims(self, easy_dataset):
        result = PROCLUS(n_clusters=3, avg_dims=3, random_state=0).fit(
            easy_dataset.points
        )
        assert all(c.dimensionality >= 2 for c in result.clusters)

    def test_dimension_budget_respected(self, medium_dataset):
        k, avg = 5, 4
        result = PROCLUS(n_clusters=k, avg_dims=avg, random_state=0).fit(
            medium_dataset.points
        )
        total = sum(c.dimensionality for c in result.clusters)
        assert total <= k * avg + 2 * k  # budget plus the 2-per-medoid floor


class TestCLIQUE:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="xi"):
            CLIQUE(xi=1)
        with pytest.raises(ValueError, match="tau"):
            CLIQUE(tau=0.0)

    def test_finds_dense_subspace_cluster(self, single_cluster_points):
        points, labels = single_cluster_points
        result = CLIQUE(xi=8, tau=0.02, max_subspace_dim=3).fit(points)
        assert result.n_clusters >= 1
        best = max(result.clusters, key=lambda c: c.size)
        assert {1, 3} <= best.relevant_axes
        member_recall = len(
            set(best.indices.tolist()) & set(np.flatnonzero(labels == 0).tolist())
        ) / 600
        assert member_recall > 0.8

    def test_tau_controls_density_floor(self, single_cluster_points):
        points, _ = single_cluster_points
        lax = CLIQUE(xi=8, tau=0.005, max_subspace_dim=2).fit(points)
        strict = CLIQUE(xi=8, tau=0.2, max_subspace_dim=2).fit(points)
        assert lax.extras["n_dense_subspaces"] >= strict.extras["n_dense_subspaces"]

    def test_uniform_noise_yields_little(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(800, 4))
        result = CLIQUE(xi=8, tau=0.05, max_subspace_dim=3).fit(points)
        assert result.n_clusters <= 2
