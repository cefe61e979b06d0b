"""Tests for the β-cluster search (Algorithm 2)."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import beta_cluster, kernels
from repro.core.beta_cluster import (
    BetaCluster,
    _grow_bounds,
    find_beta_clusters,
    reference_find_beta_clusters,
)
from repro.core.convolution import convolve_level, level_responses, overlap_mask
from repro.core.counting_tree import CountingTree, Level
from repro.core.mrcc import MrCC
from repro.core.soft import find_beta_clusters_soft
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.serve import load_model, save_model

AVAILABLE = kernels.available_backends()


def _tree(points, H=4):
    return CountingTree(np.asarray(points, dtype=np.float64), n_resolutions=H)


def _planted(rng, n, d, axes, means, std=0.01):
    points = rng.uniform(0, 1, size=(n, d))
    for axis, mean in zip(axes, means):
        points[:, axis] = rng.normal(mean, std, size=n)
    return points


class TestBetaClusterRecord:
    def test_relevant_axes_from_mask(self):
        beta = BetaCluster(
            lower=np.zeros(3),
            upper=np.ones(3),
            relevant=np.array([True, False, True]),
            level=2,
            center_row=0,
            relevances=np.array([80.0, 15.0, 70.0]),
        )
        assert beta.relevant_axes == frozenset({0, 2})

    def test_shares_space_requires_positive_overlap(self):
        a = BetaCluster(
            np.array([0.0, 0.0]), np.array([0.5, 1.0]),
            np.array([True, False]), 2, 0, np.zeros(2),
        )
        touching = BetaCluster(
            np.array([0.5, 0.0]), np.array([0.75, 1.0]),
            np.array([True, False]), 2, 1, np.zeros(2),
        )
        overlapping = BetaCluster(
            np.array([0.4, 0.0]), np.array([0.75, 1.0]),
            np.array([True, False]), 2, 2, np.zeros(2),
        )
        assert not a.shares_space_with(touching)
        assert a.shares_space_with(overlapping)
        assert overlapping.shares_space_with(a)


class TestFindBetaClusters:
    def test_single_planted_cluster_found(self, single_cluster_points):
        points, _ = single_cluster_points
        tree = _tree(points)
        betas = find_beta_clusters(tree, alpha=1e-10)
        assert len(betas) >= 1
        # The strongest beta-cluster pins the two planted axes.
        assert {1, 3} <= betas[0].relevant_axes

    def test_bounds_cover_cluster_mass(self, single_cluster_points):
        points, labels = single_cluster_points
        tree = _tree(points)
        beta = find_beta_clusters(tree, alpha=1e-10)[0]
        members = points[labels == 0]
        inside = np.all(
            (members >= beta.lower) & (members <= beta.upper), axis=1
        )
        assert inside.mean() > 0.9

    def test_irrelevant_axes_span_unit_interval(self, single_cluster_points):
        points, _ = single_cluster_points
        beta = find_beta_clusters(_tree(points), alpha=1e-10)[0]
        for axis in range(points.shape[1]):
            if axis not in beta.relevant_axes:
                assert beta.lower[axis] == 0.0
                assert beta.upper[axis] == 1.0

    def test_uniform_noise_yields_nothing(self):
        rng = np.random.default_rng(123)
        points = rng.uniform(0, 1, size=(3000, 4))
        betas = find_beta_clusters(_tree(points), alpha=1e-10)
        assert betas == []

    def test_two_separated_clusters(self):
        rng = np.random.default_rng(5)
        a = _planted(rng, 500, 6, axes=(0, 1, 2), means=(0.2, 0.2, 0.2))
        b = _planted(rng, 500, 6, axes=(0, 1, 2), means=(0.8, 0.8, 0.8))
        noise = rng.uniform(0, 1, size=(200, 6))
        points = np.clip(np.vstack([a, b, noise]), 0, np.nextafter(1.0, 0))
        betas = find_beta_clusters(_tree(points), alpha=1e-10)
        assert len(betas) >= 2
        # The two strongest finds must not share space.
        assert not betas[0].shares_space_with(betas[1])

    def test_max_beta_clusters_cap(self):
        rng = np.random.default_rng(5)
        a = _planted(rng, 500, 6, axes=(0, 1, 2), means=(0.2, 0.2, 0.2))
        b = _planted(rng, 500, 6, axes=(0, 1, 2), means=(0.8, 0.8, 0.8))
        points = np.clip(np.vstack([a, b]), 0, np.nextafter(1.0, 0))
        betas = find_beta_clusters(_tree(points), alpha=1e-10, max_beta_clusters=1)
        assert len(betas) == 1

    def test_alpha_gates_discovery(self):
        """A weak density bump passes a lax test but not a strict one."""
        rng = np.random.default_rng(11)
        bump = _planted(rng, 40, 4, axes=(0,), means=(0.3,), std=0.02)
        noise = rng.uniform(0, 1, size=(400, 4))
        points = np.clip(np.vstack([bump, noise]), 0, np.nextafter(1.0, 0))
        lax = find_beta_clusters(_tree(points), alpha=1e-2)
        strict = find_beta_clusters(_tree(points), alpha=1e-40)
        assert len(lax) >= len(strict)

    def test_deterministic(self, single_cluster_points):
        points, _ = single_cluster_points
        a = find_beta_clusters(_tree(points), alpha=1e-10)
        b = find_beta_clusters(_tree(points), alpha=1e-10)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.lower, y.lower)
            assert np.array_equal(x.upper, y.upper)
            assert np.array_equal(x.relevant, y.relevant)

    def test_relevances_recorded(self, single_cluster_points):
        points, _ = single_cluster_points
        beta = find_beta_clusters(_tree(points), alpha=1e-10)[0]
        assert beta.relevances.shape == (points.shape[1],)
        planted = sorted({1, 3} & beta.relevant_axes)
        others = [j for j in range(points.shape[1]) if j not in beta.relevant_axes]
        if planted and others:
            assert beta.relevances[planted].min() > beta.relevances[others].max()


class TestGrowBounds:
    def test_fine_level_of_a_wide_tree_does_not_overflow(self):
        # h * min(d, 62) = 27 * 40 >= 1024, where the grid size
        # (2**h)**d overflows a float; the occupancy is still ~0.
        rng = np.random.default_rng(0)
        tree = CountingTree(rng.random((200, 40)), n_resolutions=28)
        lower, upper = _grow_bounds(tree, 27, 0, np.ones(40, bool))
        cell_lower, cell_upper = tree.level(27).bounds(0)
        assert np.all(lower <= cell_lower) and np.all(upper >= cell_upper)


def _same_betas(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        np.testing.assert_array_equal(a.lower, b.lower)
        np.testing.assert_array_equal(a.upper, b.upper)
        np.testing.assert_array_equal(a.relevant, b.relevant)
        np.testing.assert_array_equal(a.relevances, b.relevances)
        assert (a.level, a.center_row) == (b.level, b.center_row)


@pytest.mark.parametrize(
    "backend", [name for name in ("numpy", "cext") if name in AVAILABLE]
)
class TestSearchLeavesTreeUnchanged:
    """The search's usedCell flags are its own: the tree is read-only."""

    @pytest.fixture(autouse=True)
    def _pin_backend(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)

    def test_repeated_search_agrees(self):
        rng = np.random.default_rng(3)
        parts = [
            _planted(rng, 400, 6, axes=(0, 1, 2), means=(0.2, 0.3, 0.7)),
            _planted(rng, 400, 6, axes=(2, 3, 4), means=(0.6, 0.8, 0.1)),
            _planted(rng, 400, 6, axes=(1, 5), means=(0.55, 0.35)),
            rng.uniform(0, 1, size=(300, 6)),
        ]
        points = np.clip(np.vstack(parts), 0, np.nextafter(1.0, 0))
        tree = _tree(points, H=5)
        first = find_beta_clusters(tree, alpha=1e-10)
        assert len(first) >= 2
        _same_betas(find_beta_clusters(tree, alpha=1e-10), first)

    def test_memmapped_model_tree_reproduces_its_betas(self, tmp_path):
        rng = np.random.default_rng(4)
        parts = [
            _planted(rng, 500, 5, axes=(0, 1), means=(0.25, 0.75)),
            _planted(rng, 500, 5, axes=(2, 3), means=(0.6, 0.15)),
            rng.uniform(0, 1, size=(200, 5)),
        ]
        estimator = MrCC(n_resolutions=5)
        estimator.fit(np.vstack(parts))
        path = save_model(estimator, tmp_path / "m.model")
        model = load_model(path, mmap=True)
        assert model.betas
        _same_betas(
            find_beta_clusters(model.tree(), alpha=model.meta["alpha"]),
            model.betas,
        )


BACKENDS = [name for name in ("numpy", "cext") if name in AVAILABLE]

small_datasets = st.builds(
    SyntheticDatasetSpec,
    dimensionality=st.integers(2, 7),
    n_points=st.integers(300, 1200),
    n_clusters=st.integers(1, 4),
    noise_fraction=st.floats(0.0, 0.3),
    max_irrelevant=st.integers(1, 2),
    seed=st.integers(0, 500),
)


@st.composite
def small_levels(draw):
    """A key-sorted level on a small grid with counts 1..3 (many ties)."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    d = draw(st.integers(1, 4))
    h = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    coords = np.unique(rng.integers(0, 1 << h, size=(m, d)), axis=0)
    counts = rng.integers(1, 4, size=coords.shape[0]).astype(np.int64)
    halves = np.zeros(coords.shape, dtype=np.int64)
    return Level.from_coords(h, coords, counts, halves)


def _picks_of_the_whole_level(level, n_picks, seed):
    """Masked argmaxes over every response, taking each pick and a few
    random cells after it: what the unpruned search would pick."""
    responses = level_responses(level)
    taken = np.zeros(level.n_cells, dtype=bool)
    rng = np.random.default_rng(seed)
    picks, masks = [], []
    for _ in range(n_picks):
        masks.append(taken.copy())
        row = convolve_level(responses, taken)
        picks.append(row)
        if row >= 0:
            taken[row] = True
        taken[rng.random(level.n_cells) < 0.1] = True
    return picks, masks


@pytest.mark.parametrize("backend", BACKENDS)
class TestBoundOrderedSearch:
    """The pruned search picks exactly what the unpruned search picks."""

    @given(level=small_levels(), first_block=st.integers(1, 3), seed=st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_level_picks_equal_the_masked_argmax(
        self, backend, level, first_block, seed
    ):
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            picks, masks = _picks_of_the_whole_level(level, 8, seed)
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", first_block):
                search = beta_cluster._LevelSearch(level)
            for expected, taken in zip(picks, masks):
                assert search.best_row(taken) == expected

    @given(spec=small_datasets, first_block=st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_equals_the_reference_search(self, backend, spec, first_block):
        points = generate_dataset(spec).points
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            tree = _tree(points)
            expected = reference_find_beta_clusters(tree, alpha=1e-10)
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", first_block):
                _same_betas(find_beta_clusters(tree, alpha=1e-10), expected)

    @pytest.mark.parametrize("first_block", [1, 2])
    def test_tie_at_the_bound_goes_to_the_lower_row(self, backend, first_block):
        # Level 2 of a 4x4 grid: row 0 is cell (0, 0), isolated, 3
        # points: response 2d·n = 12, its own bound.  Rows 1 and 2 are
        # cells (3, 2) and (3, 3), face neighbours with 4 points each:
        # responses 16 - 4 = 12.  They come first in bound order, so
        # the first blocks hold a winner whose response equals the next
        # bound while its row is higher; the lower row must still win.
        points = np.array(
            [[0.1, 0.1]] * 3 + [[0.9, 0.6]] * 4 + [[0.9, 0.9]] * 4
        )
        tree = _tree(points, H=3)
        level = tree.level(2)
        assert level.coords.tolist() == [[0, 0], [3, 2], [3, 3]]
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            assert level_responses(level).tolist() == [12, 12, 12]
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", first_block):
                search = beta_cluster._LevelSearch(level)
                taken = np.zeros(3, dtype=bool)
                assert search.best_row(taken) == 0
                taken[0] = True
                assert search.best_row(taken) == 1
        assert search.evaluated == 3

    def test_one_cell_level(self, backend):
        tree = _tree(np.array([[0.1, 0.2]] * 5), H=3)
        level = tree.level(2)
        assert level.n_cells == 1
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", 1):
                search = beta_cluster._LevelSearch(level)
                taken = np.zeros(1, dtype=bool)
                assert search.best_row(taken) == 0
                taken[0] = True
                assert search.best_row(taken) == -1
        assert search.evaluated == 1

    def test_fully_taken_level(self, backend):
        rng = np.random.default_rng(8)
        level = _tree(rng.random((300, 3)), H=4).level(2)
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", 2):
                search = beta_cluster._LevelSearch(level)
                taken = np.ones(level.n_cells, dtype=bool)
                assert search.best_row(taken) == -1
                assert search.best_row(taken) == -1

    @pytest.mark.parametrize("first_block", [1, 2])
    def test_soft_search_equals_the_unpruned_soft_search(
        self, backend, first_block
    ):
        rng = np.random.default_rng(6)
        parts = [
            _planted(rng, 500, 5, axes=(0, 1), means=(0.4, 0.2)),
            _planted(rng, 500, 5, axes=(0, 1), means=(0.4, 0.8)),
            rng.uniform(0, 1, size=(300, 5)),
        ]
        tree = _tree(np.clip(np.vstack(parts), 0, np.nextafter(1.0, 0)))
        with mock.patch.dict(os.environ, {"REPRO_BACKEND": backend}):
            # A first block past every level's size evaluates it whole.
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", 1 << 40):
                unpruned = find_beta_clusters_soft(tree, alpha=1e-10)
            with mock.patch.object(beta_cluster, "_FIRST_BLOCK", first_block):
                pruned = find_beta_clusters_soft(tree, alpha=1e-10)
        assert len(unpruned) >= 2
        _same_betas(pruned, unpruned)


def _many_cluster_points(seed, eta=4000, d=10, n_clusters=40):
    """The perf baseline's β-search shape (40 Gaussian clusters, sd
    0.02, 10 % uniform noise) at small η: 20-30 β-clusters at H=4, so
    the search restarts often against many found boxes."""
    rng = np.random.default_rng(seed)
    n_noise = eta // 10
    per_cluster = (eta - n_noise) // n_clusters
    parts = [
        rng.normal(rng.uniform(0.15, 0.85, size=d), 0.02, size=(per_cluster, d))
        for _ in range(n_clusters)
    ]
    parts.append(rng.uniform(0, 1, size=(eta - n_clusters * per_cluster, d)))
    return np.clip(np.vstack(parts), 0.0, np.nextafter(1.0, 0.0))


def _search_with(tree, first_block, first_chunk, soft=False):
    """β-clusters and counters of one search with shrunken blocks."""
    search = find_beta_clusters_soft if soft else find_beta_clusters
    with mock.patch.object(beta_cluster, "_FIRST_BLOCK", first_block):
        with mock.patch.object(beta_cluster, "_FIRST_CHUNK", first_chunk):
            with obs.capture() as tracer:
                betas = search(tree, alpha=1e-10)
    return betas, dict(tracer.counters)


@pytest.mark.parametrize("backend", BACKENDS)
class TestLazyExclusion:
    """Found boxes are tested only at the cursor, yet exclude exactly
    the cells the seed search masks over every level."""

    @pytest.fixture(autouse=True)
    def _pin_backend(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)

    @given(
        seed=st.integers(0, 1000),
        first_block=st.integers(1, 3),
        first_chunk=st.integers(1, 3),
    )
    @settings(max_examples=8, deadline=None)
    def test_equals_the_reference_search_with_many_boxes(
        self, backend, seed, first_block, first_chunk
    ):
        tree = _tree(_many_cluster_points(seed))
        expected = reference_find_beta_clusters(tree, alpha=1e-10)
        assume(len(expected) >= 20)
        betas, counters = _search_with(tree, first_block, first_chunk)
        _same_betas(betas, expected)
        # The cursor passes the same rows whatever its chunk size, so
        # the count of covered rows it passed does not depend on it.
        _, default = _search_with(tree, first_block, beta_cluster._FIRST_CHUNK)
        assert counters["search.excluded_cells"] > 0
        assert counters == default

    @pytest.mark.parametrize("first_chunk", [1, 2, 16])
    def test_covered_rows_are_taken_only_up_to_the_pick(self, backend, first_chunk):
        tree = _tree(_many_cluster_points(3))
        betas = reference_find_beta_clusters(tree, alpha=1e-10)
        level = tree.level(3)
        covered = np.zeros(level.n_cells, dtype=bool)
        for beta in betas:
            covered |= overlap_mask(level, beta.lower, beta.upper)
        responses = level_responses(level)
        with mock.patch.object(beta_cluster, "_FIRST_CHUNK", first_chunk):
            search = beta_cluster._LevelSearch(level)
            taken = np.zeros(level.n_cells, dtype=bool)
            for _ in range(5):
                before = taken.copy()
                row = search.best_row(taken, betas)
                assert row == convolve_level(responses, before | covered)
                # Only covered rows became taken, and only rows ranked
                # ahead of the pick.
                newly = taken & ~before
                assert np.all(covered[newly])
                best = responses[row]
                ties = (responses == best) & (np.arange(level.n_cells) < row)
                ahead = (responses > best) | ties
                assert np.all(ahead[newly])
                taken[row] = True

    def test_soft_search_excludes_nothing(self, backend):
        tree = _tree(_many_cluster_points(5))
        hard, hard_counters = _search_with(tree, 2, 2)
        soft, soft_counters = _search_with(tree, 2, 2, soft=True)
        assert hard_counters["search.excluded_cells"] > 0
        assert "search.excluded_cells" not in soft_counters
        # Without exclusion a later pivot may sit inside an earlier box.
        inside_earlier = [
            any(
                overlap_mask(tree.level(b.level), a.lower, a.upper)[b.center_row]
                for a in soft[:i]
            )
            for i, b in enumerate(soft)
        ]
        assert any(inside_earlier)
