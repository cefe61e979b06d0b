"""Equivalence tests for the performance engine.

The fast paths — aggregated Counting-tree construction, the
incremental β-cluster search, the ``MrCC.fit`` pipeline built from them
and the parallel experiment runner — must be *bit-identical* to the
straightforward implementations they replaced; these tests pin that
contract.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.beta_cluster import find_beta_clusters, reference_find_beta_clusters
from repro.core.convolution import _axis_intervals, overlap_mask, rows_covered
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
        # The lazy search's covered-row test flags, for one box, the
        # cells overlap_mask flags, and for several boxes their union.
        rng = np.random.default_rng(seed)
        points = _clustered_points(rng, 1500, 6)
        tree = CountingTree(points, n_resolutions=4)
        boxes = []
        for _ in range(20):
            lower = np.where(rng.random(6) < 0.5, 0.0, rng.uniform(0, 0.9, 6))
            upper = np.where(rng.random(6) < 0.5, 1.0, lower + rng.uniform(0, 0.4, 6))
            upper = np.minimum(np.maximum(upper, lower), 1.0)
            boxes.append((lower, upper))
            for h in tree.levels:
                level = tree.level(h)
                expected = np.flatnonzero(overlap_mask(level, lower, upper))
                np.testing.assert_array_equal(
                    _covered_rows(level, [(lower, upper)]), expected
                )
        for h in tree.levels:
            level = tree.level(h)
            union = np.zeros(level.n_cells, dtype=bool)
            for lower, upper in boxes:
                union |= overlap_mask(level, lower, upper)
            np.testing.assert_array_equal(
                _covered_rows(level, boxes), np.flatnonzero(union)
            )
            # Any subset of rows, in any order, gets the same answer.
            rows = rng.permutation(level.n_cells)[: level.n_cells // 2]
            lo, hi = _intervals(level, boxes)
            np.testing.assert_array_equal(
                rows_covered(level, rows, lo, hi), union[rows]
            )

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_overlap_rows_matches_overlap_mask_at_fine_levels(self, seed):
        # Levels 20 and 21 of an H=22 tree have 2**20 and more cells per
        # axis; the per-axis intervals come from the box bounds, so no
        # grid-sized table is built.  Bounds sit on cell faces, one ulp
        # either side of them, inside cells and outside [0, 1].
        points = _fine_tree_points()
        tree = _fine_tree()
        rng = np.random.default_rng(seed)
        hits = 0
        for h in (20, 21):
            level = tree.level(h)
            scale = float(1 << h)
            for _ in range(10):
                anchor = points[rng.integers(0, points.shape[0])]
                face = np.floor(anchor * scale) / scale
                lower = face - rng.integers(0, 3, 3) / scale
                upper = face + rng.integers(0, 3, 3) / scale
                nudge = rng.integers(0, 4, size=(2, 3))
                lower = np.where(nudge[0] == 1, np.nextafter(lower, -1.0), lower)
                lower = np.where(nudge[0] == 2, np.nextafter(lower, 2.0), lower)
                lower = np.where(nudge[0] == 3, lower + 0.5 / scale, lower)
                upper = np.where(nudge[1] == 1, np.nextafter(upper, -1.0), upper)
                upper = np.where(nudge[1] == 2, np.nextafter(upper, 2.0), upper)
                upper = np.where(nudge[1] == 3, upper + 0.5 / scale, upper)
                whole = rng.random(3) < 0.3
                lower[whole] = rng.choice([-0.5, 0.0])
                upper[whole] = rng.choice([1.0, 1.5])
                expected = np.flatnonzero(overlap_mask(level, lower, upper))
                actual = _covered_rows(level, [(lower, upper)])
                np.testing.assert_array_equal(actual, expected)
                hits += expected.size
        assert hits > 0

    def test_overlap_rows_at_the_grid_edges(self):
        level = _fine_tree().level(21)
        below_one = np.nextafter(1.0, 0.0)
        for lower, upper, meets in (
            ([below_one] * 3, [1.0] * 3, True),  # inside the last cell
            ([-0.5] * 3, [0.0] * 3, True),  # the first cell's lower face
            ([0.2, 1.0, 0.0], [0.8, 1.5, 1.0], False),  # past the last cell
            ([0.2, -0.5, 0.0], [0.8, -1e-300, 1.0], False),  # below the first
            ([0.6, 0.0, 0.0], [0.4, 1.0, 1.0], False),  # empty interval
            ([np.nan, 0.0, 0.0], [1.0, 1.0, 1.0], False),
        ):
            lower, upper = np.array(lower), np.array(upper)
            expected = np.flatnonzero(overlap_mask(level, lower, upper))
            assert (expected.size > 0) == meets
            np.testing.assert_array_equal(
                _covered_rows(level, [(lower, upper)]), expected
            )


def _intervals(level, boxes):
    """``(k, d)`` interval bounds of the boxes that meet ``level``."""
    met = [_axis_intervals(level, lower, upper) for lower, upper in boxes]
    met = [interval for interval in met if interval is not None]
    lo = np.array([lo for lo, _ in met], dtype=np.int64).reshape(-1, level.d)
    hi = np.array([hi for _, hi in met], dtype=np.int64).reshape(-1, level.d)
    return lo, hi


def _covered_rows(level, boxes):
    """Rows of every cell the covered-row test puts under ``boxes``."""
    rows = np.arange(level.n_cells, dtype=np.int64)
    return rows[rows_covered(level, rows, *_intervals(level, boxes))]


def _fine_tree_points():
    """Blocks of 4x4x4 face-adjacent level-21 cells, one point in each,
    so a box that admits one coordinate too many meets a populated cell."""
    rng = np.random.default_rng(21)
    corners = rng.integers(0, (1 << 21) - 4, size=(30, 1, 3))
    corners[0], corners[1] = 0, (1 << 21) - 4  # both grid corners
    block = np.stack(np.meshgrid(*[np.arange(4)] * 3), axis=-1).reshape(1, -1, 3)
    cells = (corners + block).reshape(-1, 3)
    return (cells + rng.uniform(0.1, 0.9, cells.shape)) / float(1 << 21)


@functools.lru_cache(maxsize=1)
def _fine_tree():
    return CountingTree(_fine_tree_points(), n_resolutions=22)


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
