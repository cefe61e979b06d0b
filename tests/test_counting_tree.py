"""Tests for the Counting-tree (Algorithm 1, Figure 3)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.contracts import ContractError
from repro.core.kernels import available_backends, get_backend
from repro.core import counting_tree
from repro.core.counting_tree import (
    CountingTree,
    Level,
    _field_layout,
    _unpack_words,
    aggregate_levels,
    level_arrays,
    merge_level_arrays,
    reference_levels,
    void_keys,
)


def _tree(points, H=4):
    return CountingTree(np.asarray(points, dtype=np.float64), n_resolutions=H)


class TestConstruction:
    def test_rejects_points_outside_unit_cube(self):
        with pytest.raises(ValueError, match="normalise"):
            _tree([[0.5, 1.5]])

    def test_rejects_too_few_resolutions(self):
        with pytest.raises(ValueError, match=">= 3"):
            _tree([[0.5, 0.5]], H=2)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError, match="zero points"):
            _tree(np.zeros((0, 3)))

    def test_levels_one_to_h_minus_one(self):
        tree = _tree([[0.1, 0.9]], H=5)
        assert list(tree.levels) == [1, 2, 3, 4]
        with pytest.raises(KeyError):
            tree.level(5)


class TestCounts:
    def test_every_level_counts_every_point(self):
        rng = np.random.default_rng(0)
        points = rng.uniform(0, 1, size=(500, 4))
        tree = _tree(points)
        for h in tree.levels:
            assert int(tree.level(h).n.sum()) == 500

    def test_single_point_path(self):
        tree = _tree([[0.3, 0.8]])
        for h in tree.levels:
            level = tree.level(h)
            assert level.n_cells == 1
            expected = np.floor(np.array([0.3, 0.8]) * (1 << h)).astype(int)
            assert np.array_equal(level.coords[0], expected)

    def test_known_grid_placement(self):
        # Four points in distinct level-1 quadrants of the unit square.
        points = [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9], [0.9, 0.9]]
        level1 = _tree(points).level(1)
        assert level1.n_cells == 4
        assert np.all(level1.n == 1)

    def test_parent_child_count_consistency(self):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 1, size=(400, 3))
        tree = _tree(points)
        for h in range(2, tree.n_resolutions - 1 + 1):
            if h not in tree.levels:
                continue
            child = tree.level(h)
            parent = tree.level(h - 1)
            per_parent = {}
            for row in range(child.n_cells):
                key = tuple((child.coords[row] >> 1).tolist())
                per_parent[key] = per_parent.get(key, 0) + int(child.n[row])
            for key, total in per_parent.items():
                parent_row = parent.row_of(np.asarray(key))
                assert parent_row >= 0
                assert int(parent.n[parent_row]) == total


class TestHalfSpaceCounts:
    def test_half_counts_sum_to_cell_count_in_each_axis(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(0, 1, size=(300, 3))
        tree = _tree(points)
        for h in tree.levels:
            level = tree.level(h)
            assert np.all(level.half_counts >= 0)
            assert np.all(level.half_counts <= level.n[:, None])

    def test_half_count_matches_direct_computation(self):
        points = np.array(
            [[0.10, 0.6], [0.20, 0.6], [0.30, 0.6], [0.45, 0.6]]
        )
        tree = _tree(points, H=3)
        level1 = tree.level(1)
        # All four points are in level-1 cell (0, 1).
        row = level1.row_of(np.array([0, 1]))
        # Along axis 0, the cell [0, 0.5) splits at 0.25: two points
        # (0.10, 0.20) in the lower half.
        assert level1.half_counts[row, 0] == 2
        # Along axis 1, the cell [0.5, 1.0) splits at 0.75: all four
        # points in the lower half.
        assert level1.half_counts[row, 1] == 4


class TestNeighborsAndBounds:
    def test_face_neighbors_found_and_missing(self):
        points = np.array([[0.1, 0.1], [0.4, 0.1]])  # adjacent level-2 cells? no:
        # level-2 cells: floor(x*4): (0,0) and (1,0) — adjacent along axis 0.
        tree = _tree(points, H=3)
        level2 = tree.level(2)
        row = level2.row_of(np.array([0, 0]))
        lower, upper = level2.neighbor_rows(row, np.array([0, 1]))
        assert lower[0] == -1  # grid border
        assert upper[0] == level2.row_of(np.array([1, 0]))
        assert lower[1] == -1
        assert upper[1] == -1  # empty space

    def test_bounds(self):
        tree = _tree([[0.3, 0.8]])
        level2 = tree.level(2)
        lower, upper = level2.bounds(0)
        assert lower == pytest.approx([0.25, 0.75])
        assert upper == pytest.approx([0.5, 1.0])

    def test_loc_bits_match_relative_position(self):
        tree = _tree([[0.3, 0.8]])
        # Level-2 cell (1, 3): inside its level-1 parent (0, 1) it sits
        # in the upper half of both axes.
        bits = tree.loc_bits(2, 0)
        assert bits.tolist() == [1, 1]

    def test_parent_row_round_trip(self):
        rng = np.random.default_rng(4)
        points = rng.uniform(0, 1, size=(100, 2))
        tree = _tree(points)
        level2 = tree.level(2)
        for row in range(level2.n_cells):
            parent = tree.parent_row(2, row)
            assert np.array_equal(
                tree.level(1).coords[parent], level2.coords[row] >> 1
            )


class TestLevelWords:
    """The cached packed words: the level's cells, in key order."""

    # (d, H): one word per level; two words at the finer levels; up to
    # twenty words (two 31-bit fields a word) at level 31.
    @pytest.mark.parametrize("d, H", [(3, 4), (20, 6), (40, 32)])
    def test_words_unpack_to_coords_in_strict_key_order(self, d, H):
        rng = np.random.default_rng(d)
        tree = _tree(rng.random((300, d)), H=H)
        for h in tree.levels:
            level = tree.level(h)
            words = level.words
            # Every level packs the tree-wide (H-1)-bit fields.
            assert level.width == H - 1
            assert words.dtype == np.uint64
            assert words.shape == (level.n_cells, _field_layout(d, H - 1)[0])
            coords = _unpack_words(words, d, H - 1)
            assert int(coords.max()) < 1 << h
            np.testing.assert_array_equal(coords, level.coords)
            # Each row exceeds the previous at its first differing word.
            differ = words[1:] != words[:-1]
            assert np.all(differ.any(axis=1)), h
            first = np.argmax(differ, axis=1)
            rows = np.arange(first.shape[0])
            assert np.all(words[1:][rows, first] > words[:-1][rows, first]), h


class TestVoidKeys:
    def test_orders_lexicographically(self):
        coords = np.array([[0, 5], [1, 0], [0, 2]])
        keys = void_keys(coords)
        order = np.argsort(keys)
        assert order.tolist() == [2, 0, 1]

    def test_rows_of_vectorised_lookup(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0, 1, size=(200, 3))
        tree = _tree(points)
        level = tree.level(2)
        rows = level.rows_of(level.coords)
        assert np.array_equal(rows, np.arange(level.n_cells))
        missing = level.rows_of(np.full((1, 3), 3, dtype=np.int64) + 10)
        assert missing[0] == -1


class TestUint32KeyGuard:
    """The `>u4` key packing must reject coordinates it cannot hold."""

    U4_MAX = 2**32 - 1

    def test_boundary_coordinate_is_accepted(self):
        coords = np.array([[self.U4_MAX, 0], [0, self.U4_MAX]], dtype=np.int64)
        keys = void_keys(coords)
        assert keys.shape == (2,)
        assert keys[0] != keys[1]

    def test_coordinate_past_uint32_raises_contract_error(self):
        coords = np.array([[self.U4_MAX + 1, 0]], dtype=np.int64)
        with pytest.raises(ContractError, match="uint32"):
            void_keys(coords)

    def test_negative_coordinate_raises_contract_error(self):
        with pytest.raises(ContractError, match="uint32"):
            void_keys(np.array([[-1, 0]], dtype=np.int64))

    def test_boundary_values_do_not_alias(self):
        # Without the guard, 2**32 would wrap to the same key as 0.
        wrapped = np.array([[2**32, 0]], dtype=np.int64)
        with pytest.raises(ContractError):
            void_keys(wrapped)
        zero_key = void_keys(np.array([[0, 0]], dtype=np.int64))
        max_key = void_keys(np.array([[self.U4_MAX, 0]], dtype=np.int64))
        assert zero_key[0] != max_key[0]

    def test_tree_rejects_high_resolutions(self):
        with pytest.raises(ContractError, match="n_resolutions"):
            _tree([[0.5, 0.5]], H=33)

    def test_tree_disabled_contracts_still_guard_keys(self):
        # The guard is a correctness invariant, not a data-scan option.
        from repro.core import contracts

        with contracts.disabled():
            with pytest.raises(ContractError):
                void_keys(np.array([[2**32, 0]], dtype=np.int64))

    def test_streaming_build_rejects_high_resolutions(self):
        from repro.core.streaming import build_tree_from_chunks

        chunks = [np.array([[0.25, 0.75]], dtype=np.float64)]
        with pytest.raises(ContractError, match="n_resolutions"):
            build_tree_from_chunks(chunks, n_resolutions=33)


class TestComplexityProxies:
    def test_cells_bounded_by_points_per_level(self):
        rng = np.random.default_rng(6)
        points = rng.uniform(0, 1, size=(250, 8))
        tree = _tree(points, H=5)
        for h in tree.levels:
            assert tree.level(h).n_cells <= 250

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 120), st.integers(1, 5)),
            elements=st.floats(0.0, 0.999, allow_nan=False),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_invariants_hold_for_random_data(self, points):
        tree = _tree(points)
        n = points.shape[0]
        for h in tree.levels:
            level = tree.level(h)
            assert int(level.n.sum()) == n
            assert np.all(level.half_counts <= level.n[:, None])
            assert np.all(level.coords >= 0)
            assert np.all(level.coords < (1 << h))


@st.composite
def binned_points(draw):
    """``(base, H)``: finest-resolution coordinates of η points in ``d`` axes.

    Coordinates are drawn on the ``2^H`` grid directly, half of the
    draws pinning one coordinate at the grid's top so the level-``H-1``
    fields are as wide as ``H`` allows; one draw in four repeats a
    single row (all-duplicate points).
    """
    n_resolutions = draw(st.integers(3, 32))
    d = draw(st.integers(1, 40))
    n_points = draw(st.integers(1, 40))
    top = (1 << n_resolutions) - 1
    base = draw(
        arrays(np.int64, (n_points, d), elements=st.integers(0, top))
    )
    if draw(st.booleans()):
        base[0, 0] = top
    if draw(st.integers(0, 3)) == 0:
        base[:] = base[0]
    return base, n_resolutions


@st.composite
def permuted_binned_points(draw):
    """``(base, H, order)``: a :func:`binned_points` draw and a row order."""
    base, n_resolutions = draw(binned_points())
    order = draw(st.permutations(range(base.shape[0])))
    return base, n_resolutions, np.array(order, dtype=np.int64)


def _on_grid(base, n_resolutions):
    """Unit-box points that bin exactly to ``base`` (``k / 2^H`` is exact)."""
    return base / float(1 << n_resolutions)


def _constant_base(n_points, d, n_resolutions, value):
    return np.full((n_points, d), value, dtype=np.int64), n_resolutions


def _spread_base(n_points, d, n_resolutions, seed):
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1 << n_resolutions, size=(n_points, d))
    base[0, 0] = (1 << n_resolutions) - 1
    return base, n_resolutions


def _words_at_finest_level(base, n_resolutions):
    # The tree packs level H-1 in fixed (H-1)-bit fields.
    n_words, _, _ = _field_layout(base.shape[1], n_resolutions - 1)
    return n_words


def _assert_levels_identical(actual, expected):
    assert sorted(actual) == sorted(expected)
    for h in expected:
        a, e = actual[h], expected[h]
        assert a.width == e.width, h
        for name in ("words", "n", "half_counts", "coords"):
            got, want = getattr(a, name), getattr(e, name)
            assert got.dtype == want.dtype, (h, name)
            assert np.array_equal(got, want), (h, name)
        assert a.keys.tobytes() == e.keys.tobytes(), h


class TestPackedWordGrouping:
    """The packed-word cascade must equal the per-level rescan exactly."""

    MULTI_WORD = _spread_base(300, 40, 32, seed=7)
    SHALLOW_MULTI_WORD = _spread_base(500, 20, 6, seed=8)

    def test_examples_cover_multi_word_layouts(self):
        assert _words_at_finest_level(*self.MULTI_WORD) > 1
        assert _words_at_finest_level(*self.SHALLOW_MULTI_WORD) > 1

    @given(binned_points())
    @example(MULTI_WORD)
    @example(SHALLOW_MULTI_WORD)
    @example(_spread_base(200, 1, 32, seed=9))
    @example(_constant_base(50, 7, 5, value=13))
    @example(_constant_base(1, 5, 4, value=0))
    @example(_constant_base(1, 40, 32, value=(1 << 32) - 1))
    @settings(max_examples=60, deadline=None)
    def test_aggregate_levels_equal_reference(self, drawn):
        base, n_resolutions = drawn
        _assert_levels_identical(
            aggregate_levels(_on_grid(base, n_resolutions), n_resolutions),
            reference_levels(base, n_resolutions, base.shape[1]),
        )

    @given(permuted_binned_points())
    @example((*SHALLOW_MULTI_WORD, np.arange(500)[::-1].copy()))
    @settings(max_examples=40, deadline=None)
    def test_row_permutation_leaves_levels_unchanged(self, drawn):
        base, n_resolutions, order = drawn
        points = _on_grid(base, n_resolutions)
        original = aggregate_levels(points, n_resolutions)
        permuted = aggregate_levels(points[order], n_resolutions)
        for h in original:
            for name in ("words", "n", "half_counts"):
                assert np.array_equal(
                    getattr(permuted[h], name), getattr(original[h], name)
                ), (h, name)

    def test_zero_axis_points_share_one_cell(self):
        base = np.zeros((5, 0), dtype=np.int64)
        _assert_levels_identical(
            aggregate_levels(_on_grid(base, 4), 4), reference_levels(base, 4, 0)
        )

    def test_negative_coordinates_raise_contract_error(self):
        # Binning clamps into the grid, so negative coordinates can only
        # arrive as hand-built levels; the word packer rejects them.
        with pytest.raises(ContractError, match="non-negative"):
            Level.from_coords(
                2,
                np.array([[-2, 0]], dtype=np.int64),
                np.array([1], dtype=np.uint32),
                np.array([[1, 1]], dtype=np.uint32),
            )


COMPILED_BACKENDS = [
    name for name in available_backends() if get_backend(name).compiled
]


@pytest.mark.parametrize("backend", COMPILED_BACKENDS or [None])
class TestCompiledTreeBuild:
    """The compiled tree kernels against the numpy oracle and the rescan."""

    @pytest.fixture(autouse=True)
    def _require_compiled(self, backend):
        if backend is None:
            pytest.skip("no compiled backend loads on this machine")

    @staticmethod
    def _levels(backend, monkeypatch, build):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        tree = build()
        return {h: tree.level(h) for h in tree.levels}

    @given(drawn=binned_points())
    @example(TestPackedWordGrouping.MULTI_WORD)
    @settings(max_examples=30, deadline=None)
    def test_levels_equal_numpy_and_rescan(self, backend, drawn):
        base, n_resolutions = drawn
        points = _on_grid(base, n_resolutions)
        expected = reference_levels(base, n_resolutions, base.shape[1])
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_BACKEND", "numpy")
            oracle = aggregate_levels(points, n_resolutions)
            patch.setenv("REPRO_BACKEND", backend)
            compiled = aggregate_levels(points, n_resolutions)
        _assert_levels_identical(compiled, oracle)
        _assert_levels_identical(compiled, expected)

    def test_chunked_and_sharded_builds_equal_serial(self, backend, monkeypatch):
        from repro.core.streaming import build_tree_from_chunks

        rng = np.random.default_rng(11)
        points = np.clip(
            rng.normal(0.4, 0.15, size=(3000, 9)), 0.0, np.nextafter(1.0, 0.0)
        )
        serial = self._levels(
            backend, monkeypatch, lambda: CountingTree(points, 6, n_jobs=1)
        )
        chunked = self._levels(
            backend,
            monkeypatch,
            lambda: build_tree_from_chunks(np.array_split(points, 7), 6),
        )
        sharded = self._levels(
            backend, monkeypatch, lambda: CountingTree(points, 6, n_jobs=2)
        )
        _assert_levels_identical(chunked, serial)
        _assert_levels_identical(sharded, serial)

    def test_non_finite_values_bin_to_a_defined_cell(self, backend, monkeypatch):
        # With contracts off nothing rejects NaN/inf; binning clamps in
        # the float domain, so NaN and -inf land in cell 0, +inf in the
        # last cell, on every backend.
        from repro.core import contracts

        points = np.array(
            [[np.nan, 0.3], [-np.inf, 0.3], [np.inf, 0.3], [0.0, np.nan]]
        )
        clamped = np.array(
            [[0.0, 0.3], [0.0, 0.3], [np.nextafter(1.0, 0.0), 0.3], [0.0, 0.0]]
        )
        with contracts.disabled():
            built = {
                name: self._levels(
                    name, monkeypatch, lambda: CountingTree(points, 6)
                )
                for name in ("numpy", backend)
            }
        expected = self._levels(
            "numpy", monkeypatch, lambda: CountingTree(clamped, 6)
        )
        _assert_levels_identical(built[backend], expected)
        _assert_levels_identical(built["numpy"], expected)
        assert built[backend][5].n.tolist() == [1, 2, 1]


class TestLeanLevel:
    """A level stores its words and uint32 counts, nothing else."""

    @pytest.mark.parametrize("d, H", [(3, 4), (15, 5), (40, 6)])
    def test_level_bytes_are_words_plus_uint32_counts(self, d, H):
        rng = np.random.default_rng(d)
        tree = _tree(rng.random((500, d)), H=H)
        n_words = _field_layout(d, H - 1)[0]
        for h in tree.levels:
            level = tree.level(h)
            m = level.n_cells
            assert level.n.dtype == level.half_counts.dtype == np.uint32
            stored = level.words.nbytes + level.n.nbytes + level.half_counts.nbytes
            assert stored == m * (8 * n_words + 4 + 4 * d)
            # The oracle views are derived only on demand.
            assert level._coords is None and level._keys is None

    def test_derived_views_are_cached_and_read_only(self):
        level = _tree(np.random.default_rng(1).random((50, 3))).level(2)
        coords = level.coords
        assert coords is level.coords
        assert level.keys is level.keys
        assert not coords.flags.writeable

    @pytest.mark.parametrize("d, H", [(3, 4), (40, 6)])
    def test_word_lookups_agree_with_coordinates(self, d, H):
        rng = np.random.default_rng(2)
        tree = _tree(rng.random((400, d)) * 0.5 + 0.25, H=H)
        for h in tree.levels:
            level = tree.level(h)
            coords = level.coords
            np.testing.assert_array_equal(
                level.rows_of(coords), np.arange(level.n_cells)
            )
            some = np.arange(3) % level.n_cells
            np.testing.assert_array_equal(level.coords_of(some), coords[some])
            row = int(rng.integers(0, level.n_cells))
            axes = np.arange(d)
            lower, upper = level.neighbor_rows(row, axes)
            for axis in axes:
                probe = coords[row].copy()
                probe[axis] -= 1
                assert lower[axis] == level.row_of(probe)
                probe[axis] += 2
                assert upper[axis] == level.row_of(probe)
            if h >= 2:
                parent = tree.parent_row(h, row)
                np.testing.assert_array_equal(
                    tree.level(h - 1).coords[parent], coords[row] >> 1
                )

    def test_out_of_grid_queries_find_no_cell(self):
        # Level 2 of an H=5 tree packs 4-bit fields: coordinate 4 fits a
        # field but lies off the 4x4 grid, and 16 would wrap a field.
        tree = _tree(np.array([[0.1, 0.1], [0.9, 0.9]]), H=5)
        level = tree.level(2)
        assert level.width == 4
        queries = np.array([[3, 3], [4, 3], [16, 3], [-1, 3], [0, 0]])
        assert level.rows_of(queries).tolist() == [1, -1, -1, -1, 0]


class TestPointLimit:
    """Counts are uint32: past MAX_POINTS points every builder refuses."""

    @pytest.fixture()
    def limit_of_five(self, monkeypatch):
        monkeypatch.setattr(counting_tree, "MAX_POINTS", 5)

    def test_tree_refuses_more_points(self, limit_of_five):
        points = np.random.default_rng(0).random((6, 2))
        with pytest.raises(ContractError, match="at most 5 points"):
            CountingTree(points, n_resolutions=3)
        assert CountingTree(points[:5], n_resolutions=3).n_points == 5

    def test_stream_absorb_refuses_and_stays_unchanged(self, limit_of_five):
        from repro.core.streaming import TreeStreamBuilder

        rng = np.random.default_rng(1)
        builder = TreeStreamBuilder(n_resolutions=3)
        builder.absorb(rng.random((4, 2)))
        before = builder.build()
        with pytest.raises(ContractError, match="at most 5 points"):
            builder.absorb(rng.random((2, 2)))
        assert (builder.n_points, builder.n_chunks) == (4, 1)
        _assert_levels_identical(
            {h: builder.build().level(h) for h in before.levels},
            {h: before.level(h) for h in before.levels},
        )

    def test_stream_absorb_arrays_refuses_and_stays_unchanged(
        self, limit_of_five
    ):
        from repro.core.streaming import TreeStreamBuilder

        rng = np.random.default_rng(2)
        builder = TreeStreamBuilder(n_resolutions=3)
        builder.absorb_arrays(level_arrays(rng.random((3, 2)), 3), n_points=3)
        before = builder.build()
        partial = level_arrays(rng.random((3, 2)), 3)
        with pytest.raises(ContractError, match="at most 5 points"):
            builder.absorb_arrays(partial, n_points=3)
        assert (builder.n_points, builder.n_chunks) == (3, 1)
        _assert_levels_identical(
            {h: builder.build().level(h) for h in before.levels},
            {h: before.level(h) for h in before.levels},
        )

    def test_hand_built_counts_past_the_limit_are_refused(self, limit_of_five):
        with pytest.raises(ContractError, match="uint32"):
            Level.from_coords(
                1,
                np.array([[0, 1]], dtype=np.int64),
                np.array([6], dtype=np.int64),
                np.array([[3, 3]], dtype=np.int64),
            )
