"""Behavioural tests for the CFPC baseline."""

import numpy as np
import pytest

from repro.baselines import CFPC
from repro.evaluation.quality import quality
from repro.types import NOISE_LABEL


class TestParameters:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="w must"):
            CFPC(n_clusters=2, w=0.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            CFPC(n_clusters=2, alpha=0.0)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            CFPC(n_clusters=2, beta=1.5)


class TestMining:
    def test_best_itemset_on_planted_box(self):
        """Around a medoid of a planted cluster the mined itemset must
        pick exactly the cluster's tight axes."""
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(500, 6))
        points[:300, 1] = rng.normal(0.5, 0.01, 300)
        points[:300, 4] = rng.normal(0.5, 0.01, 300)
        cfpc = CFPC(n_clusters=1, w=0.05)
        best = cfpc._mine_best_itemset(points, points[0], min_support=25)
        assert best is not None
        _, axes, mask = best
        assert {1, 4} <= set(axes)
        assert mask.sum() >= 250

    def test_no_itemset_below_support(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(100, 4))
        cfpc = CFPC(n_clusters=1, w=0.01)
        assert cfpc._mine_best_itemset(points, points[0], min_support=90) is None


class TestClustering:
    def test_recovers_planted_structure(self, easy_dataset):
        result = CFPC(n_clusters=3, random_state=0).fit(easy_dataset.points)
        assert result.n_clusters >= 2
        assert quality(result.clusters, easy_dataset.clusters) > 0.6

    def test_mines_at_most_k_clusters(self, easy_dataset):
        result = CFPC(n_clusters=2, random_state=0).fit(easy_dataset.points)
        assert result.n_clusters <= 2

    def test_beta_trades_size_for_dimensionality(self, easy_dataset):
        narrow = CFPC(n_clusters=3, beta=0.16, random_state=0).fit(
            easy_dataset.points
        )
        wide = CFPC(n_clusters=3, beta=0.34, random_state=0).fit(
            easy_dataset.points
        )
        dims_narrow = np.mean([c.dimensionality for c in narrow.clusters] or [0])
        dims_wide = np.mean([c.dimensionality for c in wide.clusters] or [0])
        assert dims_narrow >= dims_wide

    def test_seed_controls_randomness(self, easy_dataset):
        a = CFPC(n_clusters=3, random_state=1).fit(easy_dataset.points)
        b = CFPC(n_clusters=3, random_state=1).fit(easy_dataset.points)
        assert np.array_equal(a.labels, b.labels)

    def test_trials_respect_maxout(self, easy_dataset):
        result = CFPC(n_clusters=3, maxout=3, random_state=0).fit(
            easy_dataset.points
        )
        assert result.extras["trials_used"] <= 3


class TestLostClusters:
    """A cluster iteration that mines nothing leaves a gap in the ids;
    the clusters mined after it must keep their points and records.
    Uniform points plus two tight blobs with one medoid per iteration
    hit the gap on 17 of these 40 seeds (seed 1 gave record sizes
    ``[66, 0]``, seed 3 one empty record and no clustered point)."""

    @staticmethod
    def _points(seed):
        rng = np.random.default_rng(seed)
        points = np.vstack(
            [
                rng.uniform(size=(600, 5)),
                rng.normal(0.3, 0.005, size=(60, 5)),
                rng.normal(0.7, 0.005, size=(60, 5)),
            ]
        )
        return np.clip(points, 0.0, np.nextafter(1.0, 0.0))

    @pytest.mark.parametrize("seed", range(40))
    def test_found_points_keep_their_cluster(self, seed, monkeypatch):
        points = self._points(seed)
        row_of = {row.tobytes(): i for i, row in enumerate(points)}
        mined = []
        mine = CFPC._mine_best_itemset

        def spy(self, candidates, medoid, min_support):
            best = mine(self, candidates, medoid, min_support)
            if best is not None:
                members = sorted(row_of[row.tobytes()] for row in candidates[best[2]])
                mined.append((members, frozenset(best[1])))
            return best

        monkeypatch.setattr(CFPC, "_mine_best_itemset", spy)
        result = CFPC(
            n_clusters=4, w=0.01, medoids_per_cluster=1, maxout=40, random_state=seed
        ).fit(points)
        # One medoid per iteration: every mined itemset is a cluster.
        assert [
            (c.indices.tolist(), c.relevant_axes) for c in result.clusters
        ] == mined
        assert all(c.size > 0 for c in result.clusters)
        clustered = np.unique(result.labels[result.labels != NOISE_LABEL])
        assert clustered.tolist() == list(range(result.n_clusters))

