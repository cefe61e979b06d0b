"""Unit and property tests for normalisation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.normalize import (
    apply_minmax,
    clip_unit_cube,
    minmax_normalize,
    minmax_params,
)


class TestMinmaxNormalize:
    def test_maps_extremes_into_half_open_interval(self):
        points = np.array([[0.0, -5.0], [10.0, 5.0]])
        out = minmax_normalize(points)
        assert out.min() == 0.0
        assert out.max() < 1.0
        assert out[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_constant_axis_maps_to_zero(self):
        points = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = minmax_normalize(points)
        assert np.all(out[:, 0] == 0.0)

    def test_preserves_ordering_per_axis(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(50, 3))
        out = minmax_normalize(points)
        for j in range(3):
            assert np.array_equal(np.argsort(points[:, j]), np.argsort(out[:, j]))

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-d"):
            minmax_normalize(np.zeros(5))

    def test_empty_input_passes_through(self):
        out = minmax_normalize(np.zeros((0, 4)))
        assert out.shape == (0, 4)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_output_always_in_unit_cube(self, points):
        out = minmax_normalize(points)
        assert np.all(out >= 0.0)
        assert np.all(out < 1.0)


class TestApplyMinmax:
    @given(
        points=arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.integers(1, 6)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        queries=arrays(
            np.float64,
            st.tuples(st.integers(1, 30), st.just(6)),
            elements=st.floats(-2e6, 2e6, allow_nan=False),
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_equals_the_out_of_place_formula(self, points, queries):
        # Query rows beyond the fitted range exercise the clip; the
        # in-place arithmetic must match the plain expression bit for bit.
        queries = queries[:, : points.shape[1]]
        lo, span = minmax_params(points)
        expected = np.clip(
            (queries - lo) / np.where(span > 0.0, span, 1.0), 0.0,
            np.nextafter(1.0, 0.0),
        )
        expected[:, span == 0.0] = 0.0
        assert apply_minmax(queries, lo, span).tobytes() == expected.tobytes()

    def test_never_writes_the_callers_input(self):
        points = np.array([[3.0, -1.0, 7.0], [5.0, 4.0, 7.0], [9.0, 2.0, 7.0]])
        before = points.copy()
        lo, span = minmax_params(points)
        out = apply_minmax(points, lo, span)
        assert np.array_equal(points, before)
        assert not np.shares_memory(out, points)
        assert not np.shares_memory(out, lo) and not np.shares_memory(out, span)


class TestClipUnitCube:
    def test_clips_tails(self):
        points = np.array([[-0.1, 0.5], [1.2, 0.9]])
        out = clip_unit_cube(points)
        assert out.min() == 0.0
        assert out.max() < 1.0

    def test_interior_unchanged(self):
        points = np.array([[0.25, 0.75]])
        assert np.array_equal(clip_unit_cube(points), points)
