"""Tests for chunked/streaming Counting-tree construction."""

import numpy as np
import pytest

from repro.core.contracts import ContractError
from repro.core.counting_tree import CountingTree
from repro.core.mrcc import MrCC
from repro.core.streaming import (
    TreeStreamBuilder,
    build_tree_from_chunks,
    fit_stream,
    label_stream,
    shard_level_arrays,
)
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset


@pytest.fixture(scope="module")
def stream_dataset():
    return generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=7,
            n_points=3000,
            n_clusters=3,
            noise_fraction=0.1,
            max_irrelevant=2,
            seed=23,
        )
    )


def _levels_equal(a, b):
    order_a = np.lexsort(a.coords.T[::-1])
    order_b = np.lexsort(b.coords.T[::-1])
    return (
        np.array_equal(a.coords[order_a], b.coords[order_b])
        and np.array_equal(a.n[order_a], b.n[order_b])
        and np.array_equal(a.half_counts[order_a], b.half_counts[order_b])
    )


class TestBuildTreeFromChunks:
    def test_identical_to_batch_tree(self, stream_dataset):
        chunks = np.array_split(stream_dataset.points, 9)
        streamed = build_tree_from_chunks(chunks)
        batch = CountingTree(stream_dataset.points)
        assert streamed.n_points == batch.n_points
        for h in batch.levels:
            assert _levels_equal(streamed.level(h), batch.level(h))

    def test_chunking_is_irrelevant(self, stream_dataset):
        one = build_tree_from_chunks([stream_dataset.points])
        many = build_tree_from_chunks(np.array_split(stream_dataset.points, 50))
        for h in one.levels:
            assert _levels_equal(one.level(h), many.level(h))

    def test_chunk_order_is_irrelevant(self, stream_dataset):
        chunks = np.array_split(stream_dataset.points, 7)
        forward = build_tree_from_chunks(chunks)
        backward = build_tree_from_chunks(chunks[::-1])
        for h in forward.levels:
            assert _levels_equal(forward.level(h), backward.level(h))

    def test_empty_chunks_are_skipped(self, stream_dataset):
        chunks = [np.empty((0, 7)), stream_dataset.points, np.empty((0, 7))]
        tree = build_tree_from_chunks(chunks)
        assert tree.n_points == stream_dataset.n_points

    def test_rejects_empty_stream(self):
        with pytest.raises(ValueError, match="no points"):
            build_tree_from_chunks([])

    def test_rejects_mismatched_dimensionality(self):
        with pytest.raises(ValueError, match="dimensionality"):
            build_tree_from_chunks([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_rejects_unnormalised_chunk(self):
        with pytest.raises(ValueError, match="normalise"):
            build_tree_from_chunks([np.full((2, 3), 1.5)])


class TestStreamFailurePaths:
    """A bad chunk mid-stream must not corrupt already-absorbed state."""

    def test_contract_violation_leaves_absorbed_state_intact(self, stream_dataset):
        halves = np.array_split(stream_dataset.points, 2)
        builder = TreeStreamBuilder()
        builder.absorb(halves[0])
        points_before = builder.n_points

        bad = halves[1].copy()
        bad[0, 0] = 1.5  # outside the unit box -> contract violation
        with pytest.raises(ContractError):
            builder.absorb(bad)

        # The rejected chunk changed nothing...
        assert builder.n_points == points_before
        # ...and a subsequent valid chunk still works: the final tree is
        # identical to a never-interrupted build over the same points.
        builder.absorb(halves[1])
        resumed = builder.build()
        clean = build_tree_from_chunks(halves)
        assert resumed.n_points == clean.n_points
        for h in clean.levels:
            assert _levels_equal(resumed.level(h), clean.level(h))

    def test_dimensionality_mismatch_leaves_absorbed_state_intact(
        self, stream_dataset
    ):
        builder = TreeStreamBuilder()
        builder.absorb(stream_dataset.points)
        with pytest.raises(ValueError, match="dimensionality"):
            builder.absorb(np.zeros((5, 3)))
        assert builder.n_points == stream_dataset.n_points
        tree = builder.build()
        batch = CountingTree(stream_dataset.points)
        for h in batch.levels:
            assert _levels_equal(tree.level(h), batch.level(h))

    def test_nan_chunk_rejected_before_mutation(self, stream_dataset):
        builder = TreeStreamBuilder()
        builder.absorb(stream_dataset.points)
        bad = np.full((4, stream_dataset.dimensionality), np.nan)
        with pytest.raises(ContractError):
            builder.absorb(bad)
        assert builder.n_points == stream_dataset.n_points

    def test_nan_chunk_rejected_by_label_stream(self, stream_dataset):
        _, betas = fit_stream(np.array_split(stream_dataset.points, 2))
        bad = stream_dataset.points[:8].copy()
        bad[3, 0] = np.nan
        with pytest.raises(ContractError, match=r"chunks\[1\]"):
            label_stream([stream_dataset.points[:8], bad], betas)

    @pytest.mark.parametrize("chunks", [[], [np.empty((0, 7))]], ids=["none", "empty"])
    def test_label_stream_of_no_points(self, stream_dataset, chunks):
        _, betas = fit_stream(np.array_split(stream_dataset.points, 2))
        result = label_stream(chunks, betas)
        assert result.labels.shape == (0,)
        assert result.labels.dtype == np.int64
        assert result.n_clusters >= 1
        assert all(cluster.size == 0 for cluster in result.clusters)

    def test_build_requires_points(self):
        with pytest.raises(ValueError, match="no points"):
            TreeStreamBuilder().build()

    def test_build_reflects_later_chunks(self, stream_dataset):
        halves = np.array_split(stream_dataset.points, 2)
        builder = TreeStreamBuilder()
        builder.absorb(halves[0])
        partial = builder.build()
        builder.absorb(halves[1])
        full = builder.build()
        assert partial.n_points == len(halves[0])
        assert full.n_points == stream_dataset.n_points


class TestStreamingPipeline:
    def test_fit_and_label_match_batch_mrcc(self, stream_dataset):
        chunks = np.array_split(stream_dataset.points, 6)
        _, betas = fit_stream(chunks)
        streamed = label_stream(chunks, betas)
        batch = MrCC(normalize=False).fit(stream_dataset.points)
        assert np.array_equal(streamed.labels, batch.labels)
        assert streamed.n_clusters == batch.n_clusters
        for a, b in zip(streamed.clusters, batch.clusters):
            assert np.array_equal(a.indices, b.indices)
            assert a.relevant_axes == b.relevant_axes

    def test_label_stream_concatenates_in_order(self, stream_dataset):
        chunks = np.array_split(stream_dataset.points, 4)
        _, betas = fit_stream(chunks)
        result = label_stream(chunks, betas)
        assert result.labels.shape == (stream_dataset.n_points,)


def _levels_bit_identical(a, b):
    """Element-wise equality — canonical key order, not just set equality."""
    return (
        np.array_equal(a.coords, b.coords)
        and np.array_equal(a.n, b.n)
        and np.array_equal(a.half_counts, b.half_counts)
    )


class TestShardedBuild:
    """The process-sharded tree build must be bit-identical to serial.

    An explicit ``n_jobs`` bypasses the point-count floor, so these
    small datasets genuinely fan out over worker processes.
    """

    def test_sharded_tree_identical_to_serial(self, stream_dataset):
        serial = CountingTree(stream_dataset.points, n_jobs=1)
        sharded = CountingTree(stream_dataset.points, n_jobs=4)
        assert sharded.n_points == serial.n_points
        for h in serial.levels:
            assert _levels_bit_identical(sharded.level(h), serial.level(h))

    def test_shard_count_is_irrelevant(self, stream_dataset):
        two = CountingTree(stream_dataset.points, n_jobs=2)
        five = CountingTree(stream_dataset.points, n_jobs=5)
        for h in two.levels:
            assert _levels_bit_identical(two.level(h), five.level(h))

    def test_fit_labels_bit_identical_across_n_jobs(self, stream_dataset):
        serial = MrCC(normalize=False, n_jobs=1).fit(stream_dataset.points)
        sharded = MrCC(normalize=False, n_jobs=4).fit(stream_dataset.points)
        assert sharded.n_clusters == serial.n_clusters
        assert np.array_equal(sharded.labels, serial.labels)

    def test_deep_tree_coordinates_survive_the_merge(self):
        # Levels with coordinates >= 256 exercise the multi-byte cell
        # keys: the shard merge must order them numerically, exactly
        # like the serial build.
        rng = np.random.default_rng(41)
        points = rng.uniform(0.0, 1.0, size=(4000, 2))
        serial = CountingTree(points, n_resolutions=10, n_jobs=1)
        sharded = CountingTree(points, n_resolutions=10, n_jobs=3)
        deepest = max(serial.levels)
        assert int(serial.level(deepest).coords.max()) >= 256
        for h in serial.levels:
            assert _levels_bit_identical(sharded.level(h), serial.level(h))

    def test_multi_word_cells_merge_like_the_serial_build(self):
        # d=20 at H=6 packs 12 five-bit fields per uint64 word, so the
        # finer levels' cells span two words: the chunked and sharded
        # merges must group them exactly like the serial build.
        rng = np.random.default_rng(43)
        points = rng.uniform(0.0, 1.0, size=(3000, 20))
        points[::3] = rng.uniform(0.40, 0.45, size=(1000, 20))
        serial = CountingTree(points, n_resolutions=6, n_jobs=1)
        assert int(serial.level(5).coords.max()) >= 16
        chunked = build_tree_from_chunks(
            np.array_split(points, 7), n_resolutions=6
        )
        sharded = CountingTree(points, n_resolutions=6, n_jobs=2)
        for h in serial.levels:
            assert _levels_bit_identical(chunked.level(h), serial.level(h))
            assert _levels_bit_identical(sharded.level(h), serial.level(h))

    def test_rejects_non_positive_n_jobs(self, stream_dataset):
        with pytest.raises(ValueError, match="n_jobs"):
            CountingTree(stream_dataset.points, n_jobs=0)


class TestAbsorbArrays:
    """The reduce primitive: validation precedes every mutation."""

    def _partial(self, points, n_resolutions=4):
        return shard_level_arrays(points, n_resolutions)

    def test_matches_chunk_absorb(self, stream_dataset):
        halves = np.array_split(stream_dataset.points, 2)
        via_chunks = TreeStreamBuilder()
        via_arrays = TreeStreamBuilder()
        for half in halves:
            via_chunks.absorb(half)
            via_arrays.absorb_arrays(
                self._partial(half), n_points=int(half.shape[0])
            )
        a, b = via_chunks.build(), via_arrays.build()
        for h in a.levels:
            assert _levels_bit_identical(a.level(h), b.level(h))

    def test_wrong_level_coverage_leaves_builder_unchanged(
        self, stream_dataset
    ):
        builder = TreeStreamBuilder()
        builder.absorb(stream_dataset.points)
        partial = self._partial(stream_dataset.points)
        del partial[max(partial)]
        with pytest.raises(ValueError, match="levels"):
            builder.absorb_arrays(partial, n_points=stream_dataset.n_points)
        assert builder.n_points == stream_dataset.n_points
        batch = CountingTree(stream_dataset.points)
        tree = builder.build()
        for h in batch.levels:
            assert _levels_bit_identical(tree.level(h), batch.level(h))

    def test_dimensionality_mismatch_rejected(self, stream_dataset):
        builder = TreeStreamBuilder()
        builder.absorb(stream_dataset.points)
        alien = self._partial(np.zeros((8, 3)))
        with pytest.raises(ValueError, match="dimensionality"):
            builder.absorb_arrays(alien, n_points=8)
        assert builder.n_points == stream_dataset.n_points

    def test_non_positive_point_count_rejected(self, stream_dataset):
        builder = TreeStreamBuilder()
        with pytest.raises(ValueError, match="point"):
            builder.absorb_arrays(
                self._partial(stream_dataset.points), n_points=0
            )
        assert builder.n_points == 0
