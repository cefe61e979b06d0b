"""Unit and property tests for normalisation helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import kernels
from repro.core.kernels import reference
from repro.data.normalize import (
    _BELOW_ONE,
    apply_minmax,
    clip_unit_cube,
    minmax_normalize,
    minmax_params,
)
from tests.loops_backend import LoopsBackend


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


# --------------------------------------------------------------------
# The map replayed inside the point-reading kernels.  ``cell_words`` and
# ``label_rows`` take raw points plus ``(lo, span)`` and must equal
# ``apply_minmax`` followed by their unit-box path, bit for bit, on
# every backend and on the interpreted C spec.

KERNEL_IMPLS = ["numpy", "loops"] + [
    name for name in kernels.available_backends() if name != "numpy"
]
AXIS_KINDS = ("grid", "constant", "negative", "tiny", "huge", "signed_zero")


def kernel_impl(name):
    return LoopsBackend if name == "loops" else kernels.get_backend(name)


def raw_axis(rng, kind, n):
    """One raw column of ``kind``; a ``grid`` column maps onto k/8."""
    if kind == "grid":
        base, step = float(rng.integers(-5, 6)), 2.0 ** int(rng.integers(-3, 4))
        values = base + step * rng.integers(0, 9, n)
        values[:2] = base, base + 8 * step
        return values
    if kind == "constant":
        return np.full(n, rng.choice([0.0, -0.0, 3.25, -1e300]))
    if kind == "negative":
        return -rng.uniform(1e3, 1e5, n)
    if kind == "tiny":  # subnormal values and a subnormal span
        return rng.integers(-40, 40, n) * 5e-324
    if kind == "huge":
        return rng.uniform(-1e300, 1e300, n)
    return rng.choice([-0.0, 0.0, -1.0, 1.0], n)


def raw_problem(seed, kinds, n_train):
    """Training rows, their fitted map and query rows.

    The queries are the training rows (each axis's exact maximum maps
    to ``nextafter(1, 0)``), rows outside the fitted range on both
    sides (the kernels clip them), and ±0.0 on every axis.
    """
    rng = np.random.default_rng(seed)
    train = np.column_stack([raw_axis(rng, kind, n_train) for kind in kinds])
    lo, span = minmax_params(train)
    reach = np.maximum(span, 1.0)
    outside = np.vstack([lo - reach, lo + span + reach, lo - 0.5 * span])
    zeros = np.vstack([np.zeros(len(kinds)), np.full(len(kinds), -0.0)])
    queries = np.vstack([train, outside, zeros])
    return queries[rng.permutation(queries.shape[0])], (lo, span)


@st.composite
def raw_problems(draw):
    kinds = draw(st.lists(st.sampled_from(AXIS_KINDS), min_size=1, max_size=12))
    seed = draw(st.integers(0, 10_000))
    return raw_problem(seed, kinds, draw(st.integers(2, 25)))


def unit_boxes(rng, unit, n_boxes):
    """Group-ordered boxes on the 1/8 grid around mapped rows, plus
    boxes that start exactly at the mapped column maximum."""
    d = unit.shape[1]
    anchors = unit[rng.integers(0, unit.shape[0], size=n_boxes)]
    lower = np.floor(anchors * 8.0) / 8.0 - rng.integers(0, 3, (n_boxes, d)) / 8.0
    upper = np.floor(anchors * 8.0) / 8.0 + rng.integers(0, 3, (n_boxes, d)) / 8.0
    top = rng.random((n_boxes, d)) < 0.2
    lower[top], upper[top] = _BELOW_ONE, 1.0
    whole = rng.random((n_boxes, d)) < 0.3
    lower[whole], upper[whole] = 0.0, 1.0
    box_group = np.cumsum(rng.integers(0, 2, n_boxes)).astype(np.int64)
    return lower, upper, box_group


# A subnormal span sends far-off queries to ±inf, which then clip.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("name", KERNEL_IMPLS)
class TestKernelsReplayTheMap:
    @given(problem=raw_problems(), n_resolutions=st.integers(3, 12))
    @settings(max_examples=40, deadline=None)
    def test_cell_words_equal_apply_minmax_then_unit_path(
        self, name, problem, n_resolutions
    ):
        raw, normalizer = problem
        unit = apply_minmax(raw, *normalizer)
        words, parity = kernel_impl(name).cell_words(raw, n_resolutions, normalizer)
        expected = reference.cell_words(unit, n_resolutions)
        np.testing.assert_array_equal(words, expected[0])
        np.testing.assert_array_equal(parity, expected[1])

    @given(problem=raw_problems(), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_label_rows_equal_apply_minmax_then_unit_path(self, name, problem, seed):
        raw, normalizer = problem
        unit = apply_minmax(raw, *normalizer)
        lower, upper, box_group = unit_boxes(np.random.default_rng(seed), unit, 8)
        labels = kernel_impl(name).label_rows(
            raw, lower, upper, box_group, normalizer
        )
        expected = reference.label_rows(unit, lower, upper, box_group)
        np.testing.assert_array_equal(labels, expected)

    def test_every_axis_kind_at_once(self, name):
        raw, normalizer = raw_problem(7, AXIS_KINDS * 2, 20)
        unit = apply_minmax(raw, *normalizer)
        # The exact column maxima and the clipped rows above them all
        # land on the last representable value below 1.
        assert np.all(unit.max(axis=0)[normalizer[1] > 0] == _BELOW_ONE)
        impl = kernel_impl(name)
        for n_resolutions in (3, 9, 32):
            np.testing.assert_array_equal(
                impl.cell_words(raw, n_resolutions, normalizer)[0],
                reference.cell_words(unit, n_resolutions)[0],
            )
        lower, upper, box_group = unit_boxes(np.random.default_rng(1), unit, 12)
        labels = impl.label_rows(raw, lower, upper, box_group, normalizer)
        np.testing.assert_array_equal(
            labels, reference.label_rows(unit, lower, upper, box_group)
        )
        assert np.any(labels >= 0) and np.any(labels < 0)

    def test_non_finite_values_follow_apply_minmax(self, name):
        # Callers reject non-finite points, but the kernels still agree
        # with the numpy map on them: ±inf clip, NaN bins to cell 0 and
        # is noise, and a constant axis maps even NaN to 0.0.
        raw = np.array([[np.inf, np.nan, 2.0], [-np.inf, 1.0, np.nan]])
        normalizer = (np.array([0.0, 0.0, 2.0]), np.array([4.0, 2.0, 0.0]))
        unit = apply_minmax(raw, *normalizer)
        impl = kernel_impl(name)
        np.testing.assert_array_equal(
            impl.cell_words(raw, 5, normalizer)[0],
            reference.cell_words(unit, 5)[0],
        )
        lower, upper = np.zeros((1, 3)), np.ones((1, 3))
        group = np.zeros(1, dtype=np.int64)
        np.testing.assert_array_equal(
            impl.label_rows(raw, lower, upper, group, normalizer),
            reference.label_rows(unit, lower, upper, group),
        )
