"""Single-scan, chunked Counting-tree construction (out-of-core input).

Algorithm 1 reads every point exactly once, which means the
Counting-tree can be built from a *stream*: only the per-level cell
aggregates — at most ``η`` cells per level, usually far fewer — stay in
memory while the raw points never need to be resident at once.  This
module implements that pattern for datasets delivered in chunks (files,
database cursors, generators), matching the paper's "very large
datasets" ambition.

The resulting tree is bit-identical to building
:class:`~repro.core.counting_tree.CountingTree` over the concatenated
data, so phases two and three of MrCC run on it unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

import numpy as np

from repro import obs
from repro.core.contracts import ContractError, check_array
from repro.fabric.faults import fire
from repro.core.counting_tree import (
    MAX_RESOLUTIONS,
    MIN_RESOLUTIONS,
    CountingTree,
    Level,
    LevelArrays,
    _field_layout,
    check_point_count,
    level_arrays,
    level_from_arrays,
    merge_level_arrays,
    tree_from_levels,
)
from repro.types import ClusteringResult, FloatArray


class TreeStreamBuilder:
    """Incremental Counting-tree construction with transactional absorb.

    :meth:`absorb` validates a chunk *completely* — contracts, shape,
    unit box, dimensionality — before any aggregate is touched, so a
    rejected chunk leaves the builder exactly as it was: the stream
    source can repair or skip the offending chunk and keep absorbing.
    That validate-then-mutate ordering is what makes mid-stream failure
    survivable instead of silently corrupting the tree.

    Aggregates are held per level as key-sorted structure-of-arrays
    triples of packed cell words and uint32 counts
    (:data:`~repro.core.counting_tree.LevelArrays`), the same
    canonical form every tree builder produces; each absorb is a
    key-grouped sum (:func:`~repro.core.counting_tree.merge_level_arrays`),
    which makes the builder double as the reduce primitive of the
    sharded build (:func:`sharded_levels`).
    """

    def __init__(self, n_resolutions: int = 4) -> None:
        if n_resolutions < MIN_RESOLUTIONS:
            raise ValueError(f"n_resolutions must be >= {MIN_RESOLUTIONS}")
        if n_resolutions > MAX_RESOLUTIONS:
            raise ContractError(
                f"n_resolutions must be <= {MAX_RESOLUTIONS}: cell "
                f"words hold one (n_resolutions - 1)-bit field per axis"
            )
        self._n_resolutions = n_resolutions
        self._stores: dict[int, LevelArrays] = {}
        self._d: int | None = None
        self._n_points = 0
        self._n_chunks = 0

    @property
    def n_points(self) -> int:
        """Points absorbed so far."""
        return self._n_points

    @property
    def n_chunks(self) -> int:
        """Non-empty chunks absorbed so far."""
        return self._n_chunks

    def absorb(self, chunk: FloatArray) -> None:
        """Merge one ``(m_i, d)`` chunk with values in ``[0, 1)``.

        Raises (``ContractError``/``ValueError``) *before* mutating any
        state when the chunk is invalid, or when it would take the tree
        past :data:`~repro.core.counting_tree.MAX_POINTS` points.
        """
        chunk = np.asarray(chunk, dtype=np.float64)
        check_array(
            f"chunks[{self._n_chunks}]",
            chunk,
            dtype=np.float64,
            ndim=2,
            unit_box=True,
        )
        if chunk.shape[0] == 0:
            return
        if self._d is not None and chunk.shape[1] != self._d:
            raise ValueError("all chunks must share the same dimensionality")
        check_point_count(self._n_points + chunk.shape[0])
        obs.incr("stream.chunks")
        obs.incr("stream.points", int(chunk.shape[0]))
        arrays = level_arrays(chunk, self._n_resolutions)
        self.absorb_arrays(arrays, n_points=int(chunk.shape[0]))

    def absorb_arrays(
        self, arrays: dict[int, LevelArrays], n_points: int
    ) -> None:
        """Merge pre-aggregated per-level SoA arrays (the reduce primitive).

        ``arrays`` is one partial tree — what
        :func:`shard_level_arrays` returns for a point shard or
        :func:`~repro.core.counting_tree.level_arrays` for a chunk —
        and must cover exactly levels ``1 .. H-1``.  Validation happens
        before any store is touched and the merged stores are committed
        only after every level merged, so a failing merge leaves the
        builder unchanged (the same transactional contract as
        :meth:`absorb`).
        """
        expected = set(range(1, self._n_resolutions))
        if set(arrays) != expected:
            raise ValueError(
                f"partial tree covers levels {sorted(arrays)}, "
                f"expected {sorted(expected)}"
            )
        d = int(arrays[1][2].shape[1])
        if self._d is not None and d != self._d:
            raise ValueError("all chunks must share the same dimensionality")
        if n_points <= 0:
            raise ValueError("a partial tree must cover at least one point")
        n_words = _field_layout(d, self._n_resolutions - 1)[0]
        if any(arrays[h][0].shape[1:] != (n_words,) for h in expected):
            raise ValueError(
                f"partial tree words must be {n_words} uint64 words a cell "
                f"for {d} axes at n_resolutions={self._n_resolutions}"
            )
        check_point_count(self._n_points + n_points)
        merged = {
            h: (
                merge_level_arrays(self._stores[h], arrays[h])
                if h in self._stores
                else arrays[h]
            )
            for h in expected
        }
        self._stores = merged
        self._d = d
        self._n_points += n_points
        self._n_chunks += 1

    def build_levels(self) -> dict[int, Level]:
        """Materialise the absorbed aggregates as ``Level`` objects."""
        if self._d is None or self._n_points == 0:
            raise ValueError("the stream delivered no points")
        levels: dict[int, Level] = {}
        for h in range(1, self._n_resolutions):
            levels[h] = level_from_arrays(
                h, self._n_resolutions - 1, self._stores[h]
            )
            obs.incr(f"tree.level{h}.cells", levels[h].n_cells)
        return levels

    def build(self) -> CountingTree:
        """Finalize the absorbed aggregates into a Counting-tree.

        The stores are read, not consumed: more chunks can be absorbed
        afterwards and a later :meth:`build` reflects them.
        """
        levels = self.build_levels()
        assert self._d is not None
        return tree_from_levels(
            levels, self._d, self._n_points, self._n_resolutions
        )


def build_tree_from_chunks(
    chunks: Iterable[FloatArray], n_resolutions: int = 4
) -> CountingTree:
    """Build a Counting-tree from an iterable of point chunks.

    Every chunk is a ``(m_i, d)`` array with values in ``[0, 1)``; all
    chunks must share the same dimensionality.  Aggregates are merged
    chunk by chunk (via :class:`TreeStreamBuilder`), so peak memory is
    one chunk plus the per-level cell tables.
    """
    builder = TreeStreamBuilder(n_resolutions=n_resolutions)
    with obs.span("stream.build"):
        for chunk in chunks:
            builder.absorb(chunk)
        return builder.build()


def shard_level_arrays(
    shard: FloatArray, n_resolutions: int
) -> dict[int, LevelArrays]:
    """One shard worker's partial tree (pure — runs in worker processes).

    Bin the shard's points into packed cell words and cascade them into
    per-level SoA aggregates (:func:`~repro.core.counting_tree.level_arrays`).
    Deliberately free of validation and observability: contracts run
    once in the parent over the whole dataset, and worker output must
    depend on nothing but the argument values (the backend the worker
    picks cannot change it — every backend is bit-identical).
    """
    return level_arrays(shard, n_resolutions)


def _shard_task(
    shard: FloatArray,
    n_resolutions: int,
    *,
    attempt: int,
    fault: str | None,
    in_worker: bool,
) -> dict[str, Any]:
    """One fabric task of the sharded build (pure — runs in workers).

    The fault hook is what lets the chaos suite SIGKILL a tree worker
    mid-build and prove the lease/retry machinery reproduces the tree
    bit-identically; a fault-free call is just
    :func:`shard_level_arrays` wrapped into a result row.
    """
    if fault is not None:
        fire(fault, in_worker)
    return {
        "arrays": shard_level_arrays(shard, n_resolutions),
        "n_points": int(shard.shape[0]),
    }


def sharded_levels(
    points: FloatArray, n_resolutions: int, n_jobs: int
) -> dict[int, Level]:
    """Build all tree levels by fanning point shards over the fabric.

    The points are split into ``n_jobs`` contiguous shards; each fabric
    task cascades its shard into per-level SoA aggregates
    (:func:`shard_level_arrays`) and the parent reduces the partial
    trees through :meth:`TreeStreamBuilder.absorb_arrays` in **task
    order** — worker *completion* order never influences the reduction,
    and the merge itself is an associative key-grouped sum, so the
    result is bit-identical to the serial build (the ``n_jobs``
    equivalence suite asserts it).

    Dispatch goes through :func:`repro.fabric.run_supervised`, the one
    supervised execution path in the repo: a worker death or hang costs
    one shard retry (``REPRO_RETRIES``/``REPRO_TASK_TIMEOUT``), never
    the build, and ``REPRO_FAULTS`` directives can target shard tasks
    by their ``tree|shard<i>`` keys (directives aimed at other grids
    are ignored — the experiment suite plans them strictly against its
    own cells).
    """
    from repro.fabric import Task, run_supervised

    shards = [
        shard
        for shard in np.array_split(points, max(1, n_jobs))
        if shard.shape[0]
    ]
    builder = TreeStreamBuilder(n_resolutions=n_resolutions)
    obs.incr("tree.shards", len(shards))
    tasks = [
        Task(key=f"tree|shard{index}", args=(shard, n_resolutions))
        for index, shard in enumerate(shards)
    ]
    outcomes = run_supervised(
        _shard_task,
        tasks,
        n_jobs=min(n_jobs, len(shards)),
        strict_faults=False,
    )
    for outcome in outcomes:
        if outcome.row is None:
            raise RuntimeError(
                f"tree shard {outcome.key} {outcome.status} after "
                f"{outcome.attempts} attempt(s): {outcome.error}"
            )
        builder.absorb_arrays(
            outcome.row["arrays"], n_points=outcome.row["n_points"]
        )
    return builder.build_levels()


def fit_stream(
    chunks: Iterable[np.ndarray],
    alpha: float = 1e-10,
    n_resolutions: int = 4,
) -> tuple[CountingTree, list]:
    """Phase 1+2 of MrCC over a stream: tree plus β-clusters.

    Labelling (phase 3) needs the points themselves, so callers either
    re-scan the stream through
    :func:`label_stream`, or work with the
    β-cluster boxes directly.
    """
    from repro.core.beta_cluster import find_beta_clusters

    tree = build_tree_from_chunks(chunks, n_resolutions=n_resolutions)
    betas = find_beta_clusters(tree, alpha)
    return tree, betas


def label_stream(
    chunks: Iterable[np.ndarray],
    betas: list,
    groups: list[list[int]] | None = None,
) -> ClusteringResult:
    """Phase 3 over a second scan: label every streamed point.

    Uses the same box semantics as
    :func:`repro.core.correlation_cluster.build_correlation_clusters`,
    processing one chunk at a time.  ``groups`` lets a caller that has
    already merged the β-clusters — a persisted serving model labels
    many batches against one fixed grouping — skip the union-find
    rerun; ``None`` recomputes it, which yields the identical grouping
    because the merge is deterministic.
    """
    from repro.core.correlation_cluster import (
        assemble_result,
        label_points,
        merge_beta_clusters,
    )

    if groups is None:
        groups = merge_beta_clusters(betas)
    label_parts = []
    for chunk_index, chunk in enumerate(chunks):
        chunk = np.asarray(chunk, dtype=np.float64)
        check_array(
            f"chunks[{chunk_index}]", chunk, dtype=np.float64, ndim=2, finite=True
        )
        if chunk.shape[0]:
            label_parts.append(label_points(chunk, betas, groups))
    labels = (
        np.concatenate(label_parts) if label_parts else np.empty(0, dtype=np.int64)
    )
    return assemble_result(labels, betas, groups)

