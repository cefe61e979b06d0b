"""Cross-backend equivalence tests for the hot-path kernel layer.

The compiled backend (the C extension, whenever a system compiler
exists) must be *bit-identical* to the numpy reference backend — not
merely close.  This suite drives that contract three ways:
hypothesis-generated level views exercise each kernel against the
oracle, a planted pipeline asserts identical β-clusters and labels end
to end, and a traced fit asserts the obs counter stream is invariant
under ``REPRO_BACKEND``.  The interpreted loop bodies
(:mod:`repro.core.kernels.loops`), the executable spec of the C code,
are tested as a pseudo-backend of their own, so the compiled semantics
stay covered on machines where the C backend does not load.
"""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from repro import obs
from repro.core import kernels
from repro.core import convolution
from repro.core.contracts import ContractError
from repro.core.kernels import cext_backend
from repro.core.beta_cluster import find_beta_clusters
from repro.core.counting_tree import CountingTree, Level
from repro.core.hypothesis_test import critical_values
from repro.core.kernels import loops, reference
from repro.core.mrcc import MrCC
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from tests.loops_backend import LoopsBackend

AVAILABLE = kernels.available_backends()
COMPILED = tuple(
    name for name in AVAILABLE if kernels.get_backend(name).compiled
)


def _limit(level):
    """Largest admissible coordinate of ``level`` (``2**h - 1``)."""
    return (1 << level.h) - 1


IMPL_NAMES = ["loops"] + [name for name in AVAILABLE if name != "numpy"]


def implementation(name):
    return LoopsBackend if name == "loops" else kernels.get_backend(name)


def every_row(level):
    return np.arange(level.n_cells, dtype=np.int64)


def walk_level(seed, d, h, m, width=None):
    """A key-sorted :class:`Level` of at most ``m`` cells at level ``h``.

    The cells are a random walk of face steps inside a window of four
    coordinates per axis, so face neighbours are common at every ``h``;
    each axis's window sits at coordinate 0, at the last coordinate
    ``2**h - 1`` or anywhere between.  Counts and half-space counts are
    random but valid.  The words pack ``width``-bit fields (default
    ``h``); a tree's coarser levels pack fields wider than their grid.
    """
    rng = np.random.default_rng(seed)
    limit = (1 << h) - 1
    span = min(limit, 3)
    edge = rng.integers(0, 3, size=d)
    low = np.where(edge == 1, limit - span, 0).astype(np.int64)
    middle = edge == 2
    low[middle] = rng.integers(0, limit - span + 1, size=int(middle.sum()))
    rows = [low + rng.integers(0, span + 1, size=d)]
    for _ in range(m - 1):
        if rng.random() < 0.2:
            rows.append(low + rng.integers(0, span + 1, size=d))
            continue
        step = rows[int(rng.integers(0, len(rows)))].copy()
        axis = int(rng.integers(0, d))
        step[axis] = np.clip(step[axis] + rng.choice([-1, 1]), 0, limit)
        rows.append(step)
    # np.unique(axis=0) sorts rows lexicographically, which coincides
    # with the big-endian void-key order the kernels require.
    coords = np.unique(np.array(rows, dtype=np.int64), axis=0)
    counts = rng.integers(1, 50, size=coords.shape[0])
    half_counts = rng.integers(0, counts[:, None] + 1, size=(coords.shape[0], d))
    return Level.from_coords(h, coords, counts, half_counts, width=width)


@st.composite
def level_views(draw):
    """A :func:`walk_level` with ``d`` up to 40 and ``h`` up to 31.

    The fields are ``h`` bits wide or wider, up to 31, as at a tree's
    coarser levels; the word layout then spans one word, two, or up to
    twenty (two axes a word at widths of 22 or more).
    """
    h = draw(st.integers(1, 31))
    return walk_level(
        draw(st.integers(0, 10_000)),
        draw(st.integers(1, 40)),
        h,
        draw(st.integers(1, 40)),
        width=draw(st.integers(h, 31)),
    )


# Explicit levels for every kernel test: one axis at h = 31; two words
# (h = 4, 16 axes a word); three words reaching the last coordinate;
# and most of a coarse 4x4x4 grid, where a probe past an axis's last
# coordinate would carry into the next field and hit an occupied cell.
ONE_AXIS_LEVEL = walk_level(1, 1, 31, 30)
TWO_WORD_LEVEL = walk_level(2, 20, 4, 40)
THREE_WORD_LEVEL = walk_level(3, 40, 5, 40)
DENSE_LEVEL = walk_level(4, 3, 2, 60)
# The dense grid again in a tree's wider fields: probes past the grid's
# last coordinate stay inside their field and must find no cell.
WIDE_FIELD_LEVEL = walk_level(4, 3, 2, 60, width=5)


def test_explicit_levels_cover_word_layouts():
    assert ONE_AXIS_LEVEL.coords.shape[1] == 1
    assert ONE_AXIS_LEVEL.words.shape[1] == 1
    assert TWO_WORD_LEVEL.words.shape[1] == 2
    assert THREE_WORD_LEVEL.words.shape[1] >= 3
    assert DENSE_LEVEL.n_cells > 16
    assert WIDE_FIELD_LEVEL.width > WIDE_FIELD_LEVEL.h
    levels = (
        ONE_AXIS_LEVEL, TWO_WORD_LEVEL, THREE_WORD_LEVEL, DENSE_LEVEL,
        WIDE_FIELD_LEVEL,
    )
    for level in levels:
        assert int(level.coords.max()) == _limit(level)
        # Face neighbours exist, so the merges and searches match rows.
        isolated = 2 * level.coords.shape[1] * level.n
        assert np.any(reference.level_responses(level, every_row(level)) < isolated)


@st.composite
def label_problems(draw):
    """Points, group-ordered β-boxes and their group ids for ``label_rows``.

    Coordinates sit on a 1/8 grid over ``[-0.25, 1.25]`` and every box
    is grown from one row by whole grid steps, so rows land exactly on
    box faces; a few rows then get a NaN coordinate.
    """
    seed = draw(st.integers(0, 10_000))
    d = draw(st.integers(1, 20))
    n = draw(st.integers(0, 60))
    n_boxes = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    points = rng.integers(-2, 11, size=(n, d)) / 8.0
    anchors = (
        points[rng.integers(0, n, size=n_boxes)]
        if n
        else rng.integers(-2, 11, size=(n_boxes, d)) / 8.0
    )
    lower = anchors - rng.integers(0, 5, size=(n_boxes, d)) / 8.0
    upper = anchors + rng.integers(0, 5, size=(n_boxes, d)) / 8.0
    # Irrelevant axes span the whole unit interval, as in a β-cluster.
    spans = rng.random((n_boxes, d)) < 0.3
    lower[spans], upper[spans] = 0.0, 1.0
    steps = rng.integers(0, 2, size=n_boxes)
    if n_boxes:
        steps[0] = 0
    box_group = np.cumsum(steps).astype(np.int64)
    nan_rows = np.flatnonzero(rng.random(n) < 0.15)
    points[nan_rows, rng.integers(0, d, size=nan_rows.size)] = np.nan
    return points, lower, upper, box_group


@st.composite
def unit_points(draw):
    """``(points, H)``: unit-box rows with many values exactly on ``k/2^H``.

    ``d`` reaches 70, so the ``H-1``-bit cell fields span several words
    at every ``H`` and the one-bit parity fields span two.  Each value
    is a grid point ``k/2^H`` (a bin's lower edge), ``0.0``,
    ``nextafter(1, 0)`` or a uniform draw.
    """
    seed = draw(st.integers(0, 10_000))
    # The explicit widths straddle the parity word's 64-axis boundary.
    d = draw(st.integers(1, 70) | st.sampled_from([63, 64, 65, 70]))
    n_resolutions = draw(st.integers(3, 32))
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(seed)
    scale = float(1 << n_resolutions)
    grid = rng.integers(0, 1 << n_resolutions, size=(n, d)) / scale
    choice = rng.integers(0, 4, size=(n, d))
    points = np.where(choice == 0, grid, rng.random((n, d)))
    points[choice == 1] = 0.0
    points[choice == 2] = np.nextafter(1.0, 0.0)
    return points, n_resolutions


@st.composite
def half_count_problems(draw):
    """Group-ordered child words, weights, starts and group counts.

    The children are a :func:`unit_points` draw packed by the oracle:
    point level (one-bit parity words, unit weights) or a coarser level
    (``H-1``-bit cell words, random positive weights).  Groups are runs
    of the sorted children, so a group mixes parities on every axis.
    """
    points, n_resolutions = draw(unit_points())
    words, parity = reference.cell_words(points, n_resolutions)
    point_level = draw(st.booleans())
    child_words, width = (parity, 1) if point_level else (words, n_resolutions - 1)
    m, d = points.shape
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    child_words = child_words[rng.permutation(m)]
    cuts = np.flatnonzero(rng.random(m) < 0.3)
    starts = np.unique(np.concatenate(([0], cuts))).astype(np.int64)
    if m == 0:
        starts = np.empty(0, dtype=np.int64)
    child_counts = (
        None if point_level else rng.integers(1, 1000, size=m).astype(np.uint32)
    )
    weights = np.ones(m, dtype=np.uint32) if child_counts is None else child_counts
    counts = (
        np.add.reduceat(weights, starts, dtype=np.uint32)
        if m
        else np.empty(0, dtype=np.uint32)
    )
    return child_words, child_counts, starts, counts, d, width


class TestBackendSelection:
    def test_numpy_always_loads(self):
        backend = kernels.get_backend("numpy")
        assert backend.name == "numpy"
        assert backend.compiled is False
        assert backend.version == str(np.__version__)

    def test_unknown_backend_is_a_named_error(self):
        with pytest.raises(kernels.BackendUnavailableError, match="fortran"):
            kernels.get_backend("fortran")

    def test_numpy_is_always_available(self):
        assert "numpy" in AVAILABLE

    def test_env_pin_selects_exactly_that_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.active_backend().name == "numpy"

    def test_flipping_env_reresolves_mid_process(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert kernels.active_backend().name == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert kernels.active_backend().name == AVAILABLE[0]

    def test_auto_prefers_a_compiled_backend_when_available(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        backend = kernels.active_backend()
        assert backend.name == AVAILABLE[0]
        if COMPILED:
            assert backend.compiled

    def test_unavailable_named_backend_carries_the_probe_reason(
        self, monkeypatch
    ):
        monkeypatch.setattr(cext_backend, "_LOADED", None)
        monkeypatch.setattr(cext_backend, "_UNAVAILABLE_REASON", None)
        monkeypatch.setattr(cext_backend.shutil, "which", lambda name: None)
        kernels.reset_backends()
        try:
            with pytest.raises(
                kernels.BackendUnavailableError,
                match="'cext' is unavailable: no C compiler",
            ):
                kernels.get_backend("cext")
        finally:
            kernels.reset_backends()

    def test_backend_info_reports_the_active_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        info = kernels.backend_info()
        assert info["requested"] == "numpy"
        assert info["name"] == "numpy"
        assert info["compiled"] is False
        assert set(info["available"]) == set(AVAILABLE)

    @pytest.mark.parametrize("name", AVAILABLE)
    def test_warm_up_exercises_every_kernel(self, name):
        kernels.warm_up(kernels.get_backend(name))

    def test_reset_forgets_probes_and_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        before = kernels.active_backend()
        kernels.reset_backends()
        after = kernels.active_backend()
        assert after.name == before.name
        assert after is not before


class TestCextFailurePaths:
    """Every way the C build can fail must degrade with a named reason."""

    @pytest.fixture(autouse=True)
    def _fresh_caches(self, monkeypatch):
        monkeypatch.setattr(cext_backend, "_LOADED", None)
        monkeypatch.setattr(cext_backend, "_UNAVAILABLE_REASON", None)
        kernels.reset_backends()
        yield
        kernels.reset_backends()

    def test_missing_compiler_reason_is_captured(self, monkeypatch):
        monkeypatch.setattr(cext_backend.shutil, "which", lambda name: None)
        with pytest.raises(ImportError, match="no C compiler"):
            cext_backend.load()
        # The failure is memoized: the retry re-raises without re-probing.
        with pytest.raises(ImportError, match="no C compiler"):
            cext_backend.load()
        with pytest.raises(
            kernels.BackendUnavailableError, match="no C compiler"
        ):
            kernels.get_backend("cext")

    def test_compile_error_reason_is_captured(self, monkeypatch):
        if cext_backend._compiler() is None:
            pytest.skip("no C compiler on PATH")
        monkeypatch.setattr(
            cext_backend, "_C_SOURCE", "int broken(void { return 0; }\n"
        )
        with pytest.raises(ImportError, match="C kernel build failed"):
            cext_backend.load()
        assert "CalledProcessError" in cext_backend._UNAVAILABLE_REASON

    def test_unlinkable_shared_object_is_captured(self, monkeypatch):
        if cext_backend._compiler() is None:
            pytest.skip("no C compiler on PATH")

        def refuse(path):
            raise OSError("not a linkable shared object")

        monkeypatch.setattr(cext_backend.ctypes, "CDLL", refuse)
        with pytest.raises(ImportError, match="OSError"):
            cext_backend.load()
        with pytest.raises(kernels.BackendUnavailableError, match="OSError"):
            kernels.get_backend("cext")

    def test_auto_degrades_to_numpy_when_compiled_backends_fail(
        self, monkeypatch
    ):
        monkeypatch.setattr(cext_backend.shutil, "which", lambda name: None)
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        backend = kernels.active_backend()
        assert backend.name == "numpy"
        assert kernels.backend_info()["available"] == ["numpy"]


class TestSanitizedBuild:
    """The REPRO_CEXT_SANITIZE knob and the hardened default flags."""

    def test_default_flags_are_hardened(self):
        flags = cext_backend._cflags(sanitize=False)
        for flag in ("-Wall", "-Wextra", "-Werror"):
            assert flag in flags
        assert not any(flag.startswith("-fsanitize") for flag in flags)

    def test_sanitize_adds_asan_ubsan(self):
        flags = cext_backend._cflags(sanitize=True)
        assert "-fsanitize=address,undefined" in flags
        assert "-fno-omit-frame-pointer" in flags

    def test_sanitize_changes_the_content_address(self):
        compiler = cext_backend._compiler()
        if compiler is None:
            pytest.skip("no C compiler on PATH")
        plain = cext_backend._shared_object(compiler, sanitize=False)
        hardened = cext_backend._shared_object(compiler, sanitize=True)
        assert plain != hardened
        assert plain.exists() and hardened.exists()

    def test_compiler_identity_feeds_the_hash(self, monkeypatch):
        compiler = cext_backend._compiler()
        if compiler is None:
            pytest.skip("no C compiler on PATH")
        assert cext_backend._compiler_identity(compiler)
        baseline = cext_backend._shared_object(compiler, sanitize=False)
        # A toolchain swap (same path, new banner) must miss the cache.
        monkeypatch.setattr(
            cext_backend, "_compiler_identity", lambda c: "other-cc 99.9"
        )
        assert (
            cext_backend._shared_object(compiler, sanitize=False) != baseline
        )

    def test_version_reports_the_sanitized_build(self, monkeypatch):
        if "cext" not in AVAILABLE:
            pytest.skip("cext backend does not load on this machine")

        # Never dlopen here: loading an ASan .so into an unsanitized
        # interpreter aborts the process unless libasan is LD_PRELOADed.
        class _StubLib:
            def __getattr__(self, name):
                fn = types.SimpleNamespace(argtypes=None, restype=None)
                setattr(self, name, fn)
                return fn

        monkeypatch.setattr(
            cext_backend.ctypes, "CDLL", lambda path: _StubLib()
        )
        monkeypatch.setattr(cext_backend, "_UNAVAILABLE_REASON", None)
        monkeypatch.setattr(cext_backend, "_LOADED", None)
        monkeypatch.delenv("REPRO_CEXT_SANITIZE", raising=False)
        assert "+asan" not in cext_backend.load()["version"]
        monkeypatch.setattr(cext_backend, "_LOADED", None)
        monkeypatch.setenv("REPRO_CEXT_SANITIZE", "1")
        assert "+asan" in cext_backend.load()["version"]


@pytest.mark.parametrize("name", IMPL_NAMES)
class TestKernelEquivalence:
    """Each kernel, every implementation, against the numpy oracle."""

    @given(level=level_views())
    @example(level=ONE_AXIS_LEVEL)
    @example(level=TWO_WORD_LEVEL)
    @example(level=THREE_WORD_LEVEL)
    @example(level=DENSE_LEVEL)
    @example(level=WIDE_FIELD_LEVEL)
    @settings(max_examples=40, deadline=None)
    def test_level_responses_bit_identical(self, name, level):
        impl = implementation(name)
        rows = every_row(level)
        np.testing.assert_array_equal(
            impl.level_responses(level, rows),
            reference.level_responses(level, rows),
        )

    @given(level=level_views(), seed=st.integers(0, 10_000))
    @example(level=ONE_AXIS_LEVEL, seed=0)
    @example(level=TWO_WORD_LEVEL, seed=1)
    @example(level=THREE_WORD_LEVEL, seed=2)
    @example(level=DENSE_LEVEL, seed=3)
    @example(level=WIDE_FIELD_LEVEL, seed=4)
    @settings(max_examples=40, deadline=None)
    def test_six_region_bit_identical(self, name, level, seed):
        impl = implementation(name)
        rng = np.random.default_rng(seed)
        row = int(rng.integers(0, level.n_cells))
        bits = rng.integers(0, 2, size=level.coords.shape[1]).astype(np.int64)
        center, total = impl.six_region(level, row, bits)
        ref_center, ref_total = reference.six_region(level, row, bits)
        np.testing.assert_array_equal(center, ref_center)
        np.testing.assert_array_equal(total, ref_total)

    @given(drawn=unit_points())
    @settings(max_examples=60, deadline=None)
    def test_cell_words_bit_identical(self, name, drawn):
        impl = implementation(name)
        points, n_resolutions = drawn
        words, parity = impl.cell_words(points, n_resolutions)
        ref_words, ref_parity = reference.cell_words(points, n_resolutions)
        assert words.dtype == ref_words.dtype == np.uint64
        np.testing.assert_array_equal(words, ref_words)
        np.testing.assert_array_equal(parity, ref_parity)

    @given(problem=half_count_problems())
    @settings(max_examples=60, deadline=None)
    def test_half_counts_bit_identical(self, name, problem):
        impl = implementation(name)
        child_words, child_counts, starts, counts, d, width = problem
        halves = impl.half_counts(child_words, child_counts, starts, counts, d, width)
        expected = reference.half_counts(
            child_words, child_counts, starts, counts, d, width
        )
        assert halves.dtype == expected.dtype == np.uint32
        np.testing.assert_array_equal(halves, expected)

    @given(problem=label_problems())
    @settings(max_examples=60, deadline=None)
    def test_label_rows_bit_identical(self, name, problem):
        impl = implementation(name)
        points, lower, upper, box_group = problem
        np.testing.assert_array_equal(
            impl.label_rows(points, lower, upper, box_group),
            reference.label_rows(points, lower, upper, box_group),
        )

    @given(
        seed=st.integers(0, 10_000),
        d=st.integers(1, 8),
        alpha=st.sampled_from([1e-10, 1e-6, 1e-3, 0.05, 0.2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_binom_thetas_match_after_adjudication(self, name, seed, d, alpha):
        impl = implementation(name)
        rng = np.random.default_rng(seed)
        totals = rng.integers(0, 5_000, size=d).astype(np.int64)
        probs = rng.choice(
            np.array([1.0 / 6.0, 1.0 / 4.0, 0.1, 0.37]), size=d
        ).astype(np.float64)
        thetas, flags = impl.binom_thetas(totals, probs, alpha)
        # Apply the caller-side contract: borderline axes go back to the
        # scipy oracle, after which the result must be bit-identical.
        borderline = np.flatnonzero(flags)
        if borderline.size:
            thetas = thetas.copy()
            thetas[borderline] = critical_values(
                totals[borderline], alpha, probability=probs[borderline]
            )
        expected, _ = reference.binom_thetas(totals, probs, alpha)
        np.testing.assert_array_equal(thetas, expected)


def border_rows(level):
    """Rows of cells with some field at 0 or at ``2**h - 1``."""
    coords = level.coords
    return np.flatnonzero(np.any((coords == 0) | (coords == _limit(level)), axis=1))


@pytest.mark.parametrize("name", ["numpy"] + IMPL_NAMES)
class TestLevelResponsesAtRows:
    """Responses at a key-ordered subset of rows equal the whole level's."""

    @given(level=level_views(), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_random_subsets(self, name, level, seed):
        rng = np.random.default_rng(seed)
        rows = np.flatnonzero(rng.random(level.n_cells) < rng.random())
        whole = reference.level_responses(level, every_row(level))
        np.testing.assert_array_equal(
            implementation(name).level_responses(level, rows), whole[rows]
        )

    @pytest.mark.parametrize(
        "level",
        [TWO_WORD_LEVEL, THREE_WORD_LEVEL, DENSE_LEVEL, ONE_AXIS_LEVEL,
         WIDE_FIELD_LEVEL],
        ids=["two_words", "three_words", "dense", "one_axis", "wide_field"],
    )
    def test_empty_single_first_last_and_border_rows(self, name, level):
        m = level.n_cells
        whole = reference.level_responses(level, every_row(level))
        border = border_rows(level)
        assert border.size
        for rows in (
            np.empty(0, dtype=np.int64),
            np.array([m // 2], dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([m - 1], dtype=np.int64),
            np.array([0, m - 1], dtype=np.int64),
            border,
        ):
            responses = implementation(name).level_responses(level, rows)
            assert responses.dtype == np.int64
            np.testing.assert_array_equal(responses, whole[rows])


def test_explicit_levels_reach_both_grid_borders():
    # The multi-word levels (d·h > 64 bits a cell) hold fields at 0 and
    # at 2**h - 1, so the subsets above probe past both grid borders.
    for level in (TWO_WORD_LEVEL, THREE_WORD_LEVEL):
        assert level.coords.shape[1] * level.h > 64
        assert level.words.shape[1] > 1
        coords = level.coords[border_rows(level)]
        assert np.any(coords == 0) and np.any(coords == _limit(level))


def test_convolution_rejects_unsorted_rows():
    level = DENSE_LEVEL
    with pytest.raises(ContractError, match="strictly increasing"):
        convolution.level_responses(level, np.array([2, 1], dtype=np.int64))
    with pytest.raises(ContractError, match="strictly increasing"):
        convolution.level_responses(
            level, np.array([level.n_cells], dtype=np.int64)
        )


@pytest.mark.parametrize("name", COMPILED or [None])
def test_label_rows_rejects_mismatched_boxes(name):
    # The C loop trusts the shapes for its indexing; the binding checks them.
    if name is None:
        pytest.skip("no compiled backend loads on this machine")
    points = np.full((4, 3), 0.5)
    bounds = np.zeros((2, 2))
    with pytest.raises(ValueError, match="do not match"):
        kernels.get_backend(name).label_rows(
            points, bounds, bounds, np.array([0, 1], dtype=np.int64)
        )


@pytest.mark.parametrize("name", COMPILED or [None])
def test_tree_kernel_bindings_reject_bad_inputs(name):
    # The C loop walks the groups with a counter; the binding checks the
    # shapes that keep every subscript in bounds.
    if name is None:
        pytest.skip("no compiled backend loads on this machine")
    backend = kernels.get_backend(name)
    words = np.zeros((3, 1), dtype=np.uint64)
    one = np.array([0], dtype=np.int64)
    with pytest.raises(ValueError, match="do not match"):
        backend.half_counts(words, None, np.empty(0, dtype=np.int64),
                            np.empty(0, dtype=np.int64), 2, 1)
    with pytest.raises(ValueError, match="do not match"):
        backend.half_counts(words, np.ones(2, dtype=np.int64), one,
                            np.array([3], dtype=np.int64), 2, 1)
    with pytest.raises(ValueError, match="do not match"):
        backend.half_counts(words, None, one, np.array([3], dtype=np.int64),
                            70, 1)
    with pytest.raises(ValueError, match="n_resolutions"):
        backend.cell_words(np.zeros((1, 2)), 33)


@pytest.mark.parametrize("name", AVAILABLE)
def test_cell_words_bin_non_finite_values_into_the_grid(name):
    # Clamped in the float domain, so no cast is undefined: NaN and
    # -inf bin to cell 0, +inf and values past 1.0 to the last cell.
    # NaN also sits in the last axis, whose field has shift 0, so a
    # wild cast could not be shifted out of the word.
    points = np.array([[np.nan, -np.inf, np.inf, 7.5, -0.25, np.nan]])
    words, parity = kernels.get_backend(name).cell_words(points, 3)
    ref_words, ref_parity = reference.cell_words(
        np.array([[0.0, 0.0, 0.999, 0.999, 0.0, 0.0]]), 3
    )
    np.testing.assert_array_equal(words, ref_words)
    np.testing.assert_array_equal(parity, ref_parity)


class TestBinomialTail:
    @given(
        n=st.integers(1, 20_000),
        t=st.integers(-2, 20_000),
        p=st.sampled_from([1.0 / 6.0, 1.0 / 4.0, 0.05, 0.37, 0.5]),
    )
    # scipy's binom.sf underflows to 0.0 here; the tail is 3.95e-254.
    @example(n=1075, t=1036, p=0.5)
    @settings(max_examples=100, deadline=None)
    def test_loop_tail_is_well_inside_the_guard_band(self, n, t, p):
        # The bit-identity argument needs the kernel tail sum at least
        # an order of magnitude more accurate than SF_GUARD_BAND, so a
        # decision the kernel keeps cannot disagree with scipy.  The
        # yardstick is the exact tail, summed term by term in log space.
        ours = loops.binom_sf(n, p, t)
        k = np.arange(max(t + 1, 0), n + 1)
        exact = float(np.exp(special.logsumexp(stats.binom.logpmf(k, n, p))))
        assert ours == pytest.approx(
            exact, rel=loops.SF_GUARD_BAND / 10.0, abs=1e-300
        )

    def test_boundaries_are_exact(self):
        assert loops.binom_sf(10, 0.3, -1) == 1.0
        assert loops.binom_sf(10, 0.3, 10) == 0.0

    def test_guard_band_keeps_clear_decisions(self):
        # A tail sum far from alpha must never be flagged: the kernels
        # only defer to scipy near the cut.
        totals = np.array([600], dtype=np.int64)
        probs = np.array([1.0 / 6.0], dtype=np.float64)
        _, flags = loops.binom_thetas(totals, probs, 1e-10)
        assert flags[0] == 0


@pytest.mark.parametrize("name", COMPILED or [None])
class TestCrossBackendPipeline:
    """End-to-end bit-identity: compiled backend versus numpy oracle."""

    @pytest.fixture(autouse=True)
    def _require_compiled(self, name):
        if name is None:
            pytest.skip("no compiled backend loads on this machine")

    @pytest.fixture()
    def dataset(self):
        return generate_dataset(
            SyntheticDatasetSpec(
                dimensionality=8,
                n_points=2_000,
                n_clusters=3,
                noise_fraction=0.15,
                seed=29,
            )
        )

    def test_beta_clusters_identical(self, name, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        oracle = find_beta_clusters(CountingTree(dataset.points), alpha=1e-10)
        monkeypatch.setenv("REPRO_BACKEND", name)
        betas = find_beta_clusters(CountingTree(dataset.points), alpha=1e-10)
        assert len(betas) == len(oracle)
        for ours, expected in zip(betas, oracle):
            np.testing.assert_array_equal(ours.lower, expected.lower)
            np.testing.assert_array_equal(ours.upper, expected.upper)
            np.testing.assert_array_equal(ours.relevant, expected.relevant)

    def test_labels_bit_identical(self, name, dataset, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        oracle = MrCC(normalize=False).fit(dataset.points)
        monkeypatch.setenv("REPRO_BACKEND", name)
        result = MrCC(normalize=False).fit(dataset.points)
        assert result.n_clusters == oracle.n_clusters
        np.testing.assert_array_equal(result.labels, oracle.labels)

    def test_three_word_levels_identical(self, name, monkeypatch):
        # At d = 40 and H = 5, level 4 packs 16 axes a word: three words.
        points = generate_dataset(
            SyntheticDatasetSpec(
                dimensionality=40,
                n_points=6_000,
                n_clusters=3,
                noise_fraction=0.05,
                max_cluster_dim=40,
                seed=31,
            )
        ).points

        def search_and_fit(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            tree = CountingTree(points, n_resolutions=5)
            assert tree.level(4).words.shape[1] == 3
            betas = find_beta_clusters(tree, alpha=1e-10)
            result = MrCC(n_resolutions=5, normalize=False).fit(points)
            return betas, result.labels

        oracle, oracle_labels = search_and_fit("numpy")
        betas, labels = search_and_fit(name)
        assert oracle
        assert len(betas) == len(oracle)
        for ours, expected in zip(betas, oracle):
            np.testing.assert_array_equal(ours.lower, expected.lower)
            np.testing.assert_array_equal(ours.upper, expected.upper)
            np.testing.assert_array_equal(ours.relevant, expected.relevant)
        np.testing.assert_array_equal(labels, oracle_labels)

    def test_trace_counters_invariant_under_backend(
        self, name, dataset, monkeypatch
    ):
        def traced_counters(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            with obs.capture() as tracer:
                MrCC(normalize=False).fit(dataset.points)
                return dict(tracer.counters)

        assert traced_counters(name) == traced_counters("numpy")
