"""Unit and property tests for normalisation helpers."""

import tracemalloc

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


class TestMinmaxParams:
    """The wide-view reduction equals the plain per-column min and max."""

    @staticmethod
    def _plain(points):
        lo = points.min(axis=0)
        return lo, points.max(axis=0) - lo

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 127, 128, 1000, 1031])
    @pytest.mark.parametrize("d", [1, 3, 15, 70])
    def test_equals_plain_reductions(self, n, d):
        points = np.random.default_rng(n * 100 + d).normal(size=(n, d))
        lo, span = minmax_params(points)
        expected_lo, expected_span = self._plain(points)
        assert lo.shape == span.shape == (d,)
        np.testing.assert_array_equal(lo, expected_lo)
        np.testing.assert_array_equal(span, expected_span)

    def test_extremes_in_the_tail_rows(self):
        # 130 rows = two wide rows of 64 plus a 2-row tail holding
        # every column's minimum and maximum.
        points = np.random.default_rng(3).uniform(-1.0, 1.0, size=(130, 5))
        points[128], points[129] = -7.0, 9.0
        lo, span = minmax_params(points)
        np.testing.assert_array_equal(lo, np.full(5, -7.0))
        np.testing.assert_array_equal(span, np.full(5, 16.0))

    def test_empty_input_gives_the_identity_map(self):
        for d in (0, 4):
            lo, span = minmax_params(np.zeros((0, d)))
            np.testing.assert_array_equal(lo, np.zeros(d))
            np.testing.assert_array_equal(span, np.ones(d))
        lo, span = minmax_params(np.zeros((200, 0)))
        assert lo.shape == span.shape == (0,)

    @pytest.mark.parametrize(
        "layout",
        ["c", "fortran", "row_stride", "column_stride", "transposed"],
    )
    def test_any_layout_without_a_copy(self, layout):
        base = np.random.default_rng(9).normal(size=(40_001, 12))
        points = {
            "c": base,
            "fortran": np.asfortranarray(base),
            "row_stride": base[::3],
            "column_stride": base[:, ::2],
            "transposed": np.ascontiguousarray(base[:, :6].T).T,
        }[layout]
        expected_lo, expected_span = self._plain(points)
        tracemalloc.start()
        try:
            lo, span = minmax_params(points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A copy of the input would be at least points.nbytes.
        assert peak < points.nbytes / 20
        np.testing.assert_array_equal(lo, expected_lo)
        np.testing.assert_array_equal(span, expected_span)

    @pytest.mark.parametrize("n", [50, 64, 200, 257])
    def test_nan_and_infinities_propagate(self, n):
        points = np.random.default_rng(n).normal(size=(n, 6))
        points[n // 3, 0] = np.nan  # in the wide rows when there are any
        points[n - 1, 1] = np.nan  # in the tail when there is one
        points[n // 2, 2] = np.inf
        points[n - 1, 3] = -np.inf
        points[0, 4], points[n - 1, 4] = np.inf, -np.inf
        lo, span = minmax_params(points)
        expected_lo, expected_span = self._plain(points)
        np.testing.assert_array_equal(lo, expected_lo)
        np.testing.assert_array_equal(span, expected_span)
        assert np.isnan(lo[0]) and np.isnan(lo[1])
        assert span[2] == np.inf and lo[3] == -np.inf and span[4] == np.inf


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


def face_problem(d, seed):
    """Raw rows and a fitted map whose mapped values hit every case of
    the row-once labelling pass, and boxes that share faces.

    Axis 0 is fitted on ``[0, 2]``, so a raw 1.0 maps to exactly 0.5:
    the face that group 0's box (``[0, 0.5]``) shares with group 1's
    (``[0.5, 1]``).  The last axis is constant (zero span: every value
    maps to 0.0).  Query rows: the training rows, rows far outside the
    fitted range (clipped to 0 and to ``nextafter(1, 0)``), rows on the
    shared face, and rows with a NaN coordinate (noise).
    """
    rng = np.random.default_rng(seed)
    train = rng.uniform(-3.0, 5.0, size=(40, d))
    train[:, 0] = rng.uniform(0.0, 2.0, 40)
    train[:2, 0] = 0.0, 2.0
    if d > 1:
        train[:, -1] = 4.5
    lo, span = minmax_params(train)
    reach = 10.0 * np.maximum(span, 1.0)
    far = np.vstack([lo - reach, lo + reach])
    face = train[2:6].copy()
    face[:, 0] = 1.0
    nan_rows = train[6:9].copy()
    # Not on the constant axis: a zero span maps even NaN to 0.0.
    nan_rows[np.arange(3), rng.integers(0, max(d - 1, 1), 3)] = np.nan
    raw = np.vstack([train, far, face, nan_rows])
    lower, upper = np.zeros((3, d)), np.ones((3, d))
    upper[0, 0] = 0.5  # group 0: axis 0 in [0, 0.5]
    lower[1, 0] = 0.5  # group 1: axis 0 in [0.5, 1], face shared with 0
    lower[2, 0] = 0.9  # group 1, a second member box
    if d > 1:
        lower[0, -1] = upper[0, -1] = 0.0  # the constant axis maps to 0.0
    box_group = np.array([0, 1, 1], dtype=np.int64)
    return raw, (lo, span), lower, upper, box_group


@pytest.mark.parametrize("name", KERNEL_IMPLS)
@pytest.mark.parametrize("d", [1, 2, 15, 64, 70])
def test_row_once_labelling_with_a_normalizer(name, d):
    raw, normalizer, lower, upper, box_group = face_problem(d, seed=d)
    labels = kernel_impl(name).label_rows(raw, lower, upper, box_group, normalizer)
    unit = apply_minmax(raw, *normalizer)
    expected = reference.label_rows(unit, lower, upper, box_group)
    assert labels.tobytes() == expected.tobytes()
    # Far below the range clips to 0.0 (group 0), far above to just
    # under 1.0 (group 1); the shared face goes to the lower group, and
    # NaN rows are noise.
    assert labels[40:42].tolist() == [0, 1]
    assert unit[42:46, 0].tolist() == [0.5] * 4
    assert labels[42:46].tolist() == [0] * 4
    assert labels[46:49].tolist() == [-1] * 3
    assert set(labels[:40].tolist()) == {0, 1}
