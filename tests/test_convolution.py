"""Tests for the Laplacian face-mask convolution (Section III-B)."""

import numpy as np

from repro.core.convolution import (
    cell_bounds,
    convolve_level,
    level_responses,
    overlap_mask,
)
from repro.core.counting_tree import CountingTree


def _tree(points, H=4):
    return CountingTree(np.asarray(points, dtype=np.float64), n_resolutions=H)


class TestLevelResponses:
    def test_isolated_cell_scores_2d_times_count(self):
        # A single occupied cell has no face neighbours: response 2d*n.
        points = np.tile([[0.1, 0.1, 0.1]], (7, 1))
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        assert responses[0] == 2 * 3 * 7

    def test_neighbour_counts_subtract(self):
        # Two adjacent level-1 cells along axis 0 with 3 and 5 points.
        points = np.vstack(
            [np.tile([[0.2, 0.2]], (3, 1)), np.tile([[0.7, 0.2]], (5, 1))]
        )
        tree = _tree(points, H=3)
        level = tree.level(1)
        responses = level_responses(level)
        row_a = level.row_of(np.array([0, 0]))
        row_b = level.row_of(np.array([1, 0]))
        assert responses[row_a] == 2 * 2 * 3 - 5
        assert responses[row_b] == 2 * 2 * 5 - 3

    def test_uniform_grid_scores_near_zero(self):
        # A filled 4x4 level-2 grid with equal counts: interior cells
        # have response (2d - #neighbours) * c = (4 - 4) * c = 0.
        cells = [
            (x / 4 + 0.125, y / 4 + 0.125) for x in range(4) for y in range(4)
        ]
        points = np.repeat(np.asarray(cells), 2, axis=0)
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        interior = [
            i
            for i in range(level.n_cells)
            if np.all(level.coords[i] > 0) and np.all(level.coords[i] < 3)
        ]
        assert interior
        assert np.all(responses[interior] == 0)


class TestOverlapMask:
    def test_box_claims_touching_cells(self):
        points = np.array([[0.1, 0.1], [0.6, 0.1], [0.9, 0.9]])
        tree = _tree(points)
        level = tree.level(2)
        # Box covering x in [0.25, 0.5]: touches the first cell (upper
        # bound 0.25 == box lower bound) but not the one at 0.9.
        mask = overlap_mask(level, np.array([0.25, 0.0]), np.array([0.5, 1.0]))
        assert mask[level.row_of(np.array([0, 0]))]
        assert not mask[level.row_of(np.array([3, 3]))]

    def test_cell_bounds_cover_unit_cube(self):
        points = np.array([[0.99, 0.01]])
        tree = _tree(points)
        lower, upper = cell_bounds(tree.level(2))
        assert np.all(lower >= 0.0)
        assert np.all(upper <= 1.0)


class TestConvolveLevel:
    def test_picks_densest_cell(self):
        points = np.vstack(
            [np.tile([[0.1, 0.1]], (20, 1)), np.tile([[0.9, 0.9]], (3, 1))]
        )
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        taken = np.zeros(level.n_cells, dtype=bool)
        row = convolve_level(responses, taken)
        assert np.array_equal(level.coords[row], [0, 0])

    def test_respects_used_flags(self):
        points = np.vstack(
            [np.tile([[0.1, 0.1]], (20, 1)), np.tile([[0.9, 0.9]], (3, 1))]
        )
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        taken = np.zeros(level.n_cells, dtype=bool)
        best = convolve_level(responses, taken)
        taken[best] = True
        second = convolve_level(responses, taken)
        assert second != best
        assert np.array_equal(level.coords[second], [3, 3])

    def test_respects_exclusion_and_exhaustion(self):
        points = np.array([[0.2, 0.2]])
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        taken = np.ones(level.n_cells, dtype=bool)
        assert convolve_level(responses, taken) == -1

    def test_deterministic_tie_break(self):
        points = np.vstack(
            [np.tile([[0.1, 0.1]], (5, 1)), np.tile([[0.9, 0.9]], (5, 1))]
        )
        tree = _tree(points)
        level = tree.level(2)
        responses = level_responses(level)
        taken = np.zeros(level.n_cells, dtype=bool)
        rows = {convolve_level(responses, taken) for _ in range(5)}
        assert len(rows) == 1
