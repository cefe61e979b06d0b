"""Equivalence tests for the performance engine.

The fast paths — aggregated Counting-tree construction, the
incremental β-cluster search, the ``MrCC.fit`` pipeline built from them
and the parallel experiment runner — must be *bit-identical* to the
straightforward implementations they replaced; these tests pin that
contract.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.beta_cluster import find_beta_clusters, reference_find_beta_clusters
from repro.core.convolution import overlap_mask, overlap_rows
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.counting_tree import (
    CountingTree,
    aggregate_levels,
    bin_points,
    reference_levels,
    tree_from_levels,
)
from repro.core.mrcc import MrCC
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.experiments.runner import jobs_from_env, run_suite


def _clustered_points(rng, eta, d):
    """Clustered data so coarse levels genuinely aggregate fine cells."""
    centers = rng.uniform(0.2, 0.8, size=(3, d))
    points = rng.normal(centers[rng.integers(0, 3, size=eta)], 0.05)
    return np.clip(points, 0.0, np.nextafter(1.0, 0.0))


class TestAggregatedBuildEquivalence:
    @given(
        eta=st.integers(1, 400),
        d=st.integers(1, 12),
        n_resolutions=st.sampled_from([3, 4, 5]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_level_rescan(self, eta, d, n_resolutions, seed):
        rng = np.random.default_rng(seed)
        points = _clustered_points(rng, eta, d)
        aggregated = aggregate_levels(points, n_resolutions)
        rescanned = reference_levels(
            bin_points(points, n_resolutions), n_resolutions, d
        )
        assert set(aggregated) == set(rescanned)
        for h in aggregated:
            fast, slow = aggregated[h], rescanned[h]
            np.testing.assert_array_equal(fast.coords, slow.coords)
            np.testing.assert_array_equal(fast.n, slow.n)
            np.testing.assert_array_equal(fast.half_counts, slow.half_counts)

    def test_tree_matches_reference_assembly(self):
        rng = np.random.default_rng(7)
        points = _clustered_points(rng, 2000, 6)
        tree = CountingTree(points, n_resolutions=4)
        reference = tree_from_levels(
            reference_levels(bin_points(points, 4), 4, 6), 6, 2000, 4
        )
        for h in tree.levels:
            np.testing.assert_array_equal(
                tree.level(h).coords, reference.level(h).coords
            )
            np.testing.assert_array_equal(tree.level(h).n, reference.level(h).n)


class TestIncrementalSearchEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_seed_search(self, seed):
        dataset = generate_dataset(
            SyntheticDatasetSpec(
                dimensionality=8,
                n_points=3000,
                n_clusters=4,
                noise_fraction=0.15,
                max_irrelevant=3,
                seed=seed,
            )
        )
        # The search keeps its usedCell flags to itself, so both arms
        # read one tree.
        tree = CountingTree(dataset.points, n_resolutions=5)
        fast = find_beta_clusters(tree, alpha=1e-10)
        slow = reference_find_beta_clusters(tree, alpha=1e-10)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a.lower, b.lower)
            np.testing.assert_array_equal(a.upper, b.upper)
            np.testing.assert_array_equal(a.relevant, b.relevant)
            assert (a.level, a.center_row) == (b.level, b.center_row)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_overlap_rows_matches_overlap_mask(self, seed):
        rng = np.random.default_rng(seed)
        points = _clustered_points(rng, 1500, 6)
        tree = CountingTree(points, n_resolutions=4)
        for _ in range(20):
            lower = np.where(rng.random(6) < 0.5, 0.0, rng.uniform(0, 0.9, 6))
            upper = np.where(rng.random(6) < 0.5, 1.0, lower + rng.uniform(0, 0.4, 6))
            upper = np.minimum(np.maximum(upper, lower), 1.0)
            for h in tree.levels:
                level = tree.level(h)
                expected = np.flatnonzero(overlap_mask(level, lower, upper))
                actual = np.sort(overlap_rows(level, lower, upper))
                np.testing.assert_array_equal(actual, expected)


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_fit_labels_match_reference_pipeline(backend, monkeypatch):
    # The reference pipeline: seed per-level rescan, seed search and
    # phase-3 assembly, run on the numpy oracle.
    points = generate_dataset(
        SyntheticDatasetSpec(dimensionality=10, n_points=4000, n_clusters=6, seed=13)
    ).points
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    reference_tree = tree_from_levels(
        reference_levels(bin_points(points, 4), 4, 10), 10, 4000, 4
    )
    reference = build_correlation_clusters(
        points, reference_find_beta_clusters(reference_tree, 1e-10)
    )
    monkeypatch.setenv("REPRO_BACKEND", backend)
    result = MrCC(alpha=1e-10, n_resolutions=4, normalize=False).fit(points)
    assert result.n_clusters == reference.n_clusters > 1
    np.testing.assert_array_equal(result.labels, reference.labels)


class TestParallelRunnerDeterminism:
    @pytest.fixture(scope="class")
    def suite_datasets(self):
        return [
            generate_dataset(
                SyntheticDatasetSpec(
                    dimensionality=5,
                    n_points=600,
                    n_clusters=2,
                    noise_fraction=0.1,
                    max_irrelevant=2,
                    seed=seed,
                )
            )
            for seed in (11, 12)
        ]

    @staticmethod
    def _stable(rows):
        """Row view without the machine-load-dependent measurements."""
        return [
            {k: v for k, v in row.items() if k not in ("seconds", "peak_kb")}
            for row in rows
        ]

    def test_jobs_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert jobs_from_env() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert jobs_from_env() == 4
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError):
            jobs_from_env()

    def test_parallel_rows_match_serial(self, suite_datasets, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_suite(
            suite_datasets, methods=("MrCC",), profile="quick",
            track_memory=False,
        )
        monkeypatch.setenv("REPRO_JOBS", "4")
        parallel = run_suite(
            suite_datasets, methods=("MrCC",), profile="quick",
            track_memory=False,
        )
        assert self._stable(parallel) == self._stable(serial)
