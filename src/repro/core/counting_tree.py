"""The Counting-tree (Section III-A, Algorithm 1, Figure 3).

The Counting-tree represents a dataset embedded in ``[0, 1)^d`` as a
stack of hyper-grids in ``H`` resolutions.  Level ``h`` partitions each
axis into ``2^h`` intervals of side ``1 / 2^h``; a cell stores

* ``n`` — the number of points it covers,
* ``P[j]`` — the *half-space count*: how many of those points fall in
  the lower half of the cell along axis ``e_j``.

The paper's third cell field, ``usedCell``, is search bookkeeping: it
lives in the β-cluster search (:mod:`repro.core.beta_cluster`), so a
built tree is a read-only index that any number of searches, and any
number of serving processes sharing one memory-mapped model file, can
query.

Only non-empty cells are materialised, so each level holds at most
``η`` cells regardless of the ``O(2^{dh})`` nominal grid size — the
paper's "linked list of cells per node" economy.  Levels are stored
column-wise in numpy arrays: each cell is its packed uint64 cell words
(the one cell key) plus uint32 ``n`` and ``P[j]``, rows in the order of
the words, and a ``searchsorted`` over the words gives the cell and
face-neighbour lookup phase two depends on.

Construction is a single scan in the paper, and a single pass over the
points here: the backend's ``cell_words`` kernel bins each row at the
finest half-resolution ``2^H`` and writes its level-``H-1`` cell as one
or a few uint64 words (a fixed ``H-1``-bit field per axis) plus a
parity word holding each axis's lowest coordinate bit, straight from
the unit-box floats — no ``(η, d)`` integer coordinate matrix is ever
built.  One sort of the cell words groups the points into level-``H-1``
cells, and the ``half_counts`` kernel turns the group-ordered parity
words into the half-space counts.  Every coarser level is derived by
*aggregating cells* — shifting the finer level's unique words right by
one bit per field and summing counts over equal parents, with
``half_counts`` reading the children's parities from the same words —
so the per-point work is O(η) total instead of O(η·H), and no sort ever
compares more than a few machine words per cell.  The result is
bit-identical to re-scanning the points per level (the seed behaviour,
kept as :func:`_reference_build` for the equivalence tests and the perf
baseline): each point still contributes one count to every level and
one half-space count per axis, exactly as Algorithm 1 lines 4-10.
"""

from __future__ import annotations

import functools
import multiprocessing
from dataclasses import dataclass, field
import numpy as np

from repro import env, obs
from repro.core.contracts import ContractError, check_array
from repro.types import AnyArray, FloatArray, IntArray

MIN_RESOLUTIONS = 3
"""Algorithm 1 requires ``H >= 3``."""

MAX_RESOLUTIONS = 32
"""Cell words hold one ``H-1``-bit field per axis, so ``H - 1`` must fit
a 64-bit word with room to spare, and the oracle's :func:`void_keys`
hold level coordinates in ``>u4`` fields; both bound ``H`` at 32."""

MAX_POINTS = (1 << 32) - 1
"""Largest point count a tree holds: cell counts and half-space counts
are stored as uint32.  :class:`CountingTree` and the streaming builder
refuse more points before they touch any store."""

_KEY_COORD_MAX = (1 << 32) - 1
"""Largest coordinate the big-endian ``>u4`` key packing can hold."""

SHARD_MIN_POINTS = 200_000
"""Below this many points the env-driven sharded build stays serial:
the process fan-out costs more than the binning it parallelises.  An
explicit ``n_jobs`` argument overrides the floor."""


def check_point_count(n_points: int) -> None:
    """Refuse a tree over more than :data:`MAX_POINTS` points.

    Always on: a count that wraps in uint32 is a wrong tree, not a slow
    one.
    """
    if n_points > MAX_POINTS:
        raise ContractError(
            f"a Counting-tree holds at most {MAX_POINTS} points (uint32 "
            f"cell counts), got {n_points}"
        )


def void_keys(coords: IntArray) -> AnyArray:
    """Encode coordinate rows as comparable fixed-size binary keys.

    Big-endian unsigned encoding makes the bytewise comparison of the
    void view coincide with lexicographic numeric order, so the keys
    support ``np.searchsorted`` joins — the vectorised equivalent of a
    per-cell hash lookup.  Only the numpy oracle's joins use them
    (:attr:`Level.keys`); everything else searches the packed words.

    The ``>u4`` packing holds coordinates in ``[0, 2**32)``; anything
    outside would wrap silently and alias distinct cells, so the range
    is enforced here with a :class:`ContractError` (always on — a wrong
    key is a wrong clustering, not a slow one).
    """
    coords = np.ascontiguousarray(coords)
    if coords.size and (
        int(coords.min()) < 0 or int(coords.max()) > _KEY_COORD_MAX
    ):
        raise ContractError(
            f"coords must lie in [0, {_KEY_COORD_MAX}] to fit the uint32 "
            f"key packing (observed range [{int(coords.min())}, "
            f"{int(coords.max())}]); Counting-trees support "
            f"n_resolutions <= {MAX_RESOLUTIONS}"
        )
    # int64 -> >u4 narrows on purpose: the range guard above makes the
    # cast lossless for every representable cell coordinate.
    big_endian = np.ascontiguousarray(coords.astype(">u4"))
    width = big_endian.shape[1] * big_endian.dtype.itemsize
    return big_endian.view(np.dtype((np.void, width))).ravel()


@dataclass
class Level:
    """One resolution level of the Counting-tree, rows in key order.

    A level is a read-only index of packed cell words: the builders and
    the model loader emit its rows in the numeric order of the words,
    which is the lexicographic order of the cell coordinates, and the
    kernels, the lookups and the model writer all read it in that
    order.  Search bookkeeping (the paper's ``usedCell``) lives in the
    β-cluster search, not here.

    Attributes
    ----------
    h:
        Level number; cells have side ``1 / 2**h``.
    width:
        Bits per axis field of ``words``: the tree-wide ``H - 1`` at
        every level, so a parent's words are its child's shifted right
        by one bit per field.  Coordinates at level ``h`` use only the
        low ``h`` bits of each field.
    words:
        ``(m, n_words)`` uint64 packed cell coordinates, one ``width``-bit
        field per axis in the :func:`_field_layout` layout, axis 0 most
        significant, rows in strictly increasing order (first word most
        significant).
    n:
        ``(m,)`` uint32 point count per cell.
    half_counts:
        ``(m, d)`` uint32 half-space counts (the paper's ``P[]``).

    The oracle views :attr:`coords` (``(m, d)`` int64 coordinates) and
    :attr:`keys` (their sorted :func:`void_keys`) are derived from
    ``words`` on first use and cached; the β-search on the compiled
    backend and the serving paths never build them.  Build a level from
    coordinates with :meth:`from_coords`.
    """

    h: int
    width: int
    words: AnyArray
    n: AnyArray
    half_counts: AnyArray
    _coords: IntArray | None = field(default=None, repr=False, compare=False)
    _keys: AnyArray | None = field(default=None, repr=False, compare=False)

    @classmethod
    def from_coords(
        cls,
        h: int,
        coords: IntArray,
        n: AnyArray,
        half_counts: AnyArray,
        width: int | None = None,
    ) -> "Level":
        """Pack key-sorted coordinate rows into a level.

        ``width`` defaults to ``h``, the narrowest field that holds the
        level's coordinates; tree levels use the tree-wide ``H - 1``.
        Counts must lie in ``[0, MAX_POINTS]``.  Rows out of key order
        would silently corrupt every lookup, so callers must hold the
        canonical-order invariant.
        """
        coords = np.asarray(coords)
        width = h if width is None else width
        if coords.size and int(coords.max()) >= 1 << h:
            raise ContractError(
                f"coords exceed the level-{h} grid [0, {(1 << h) - 1}]"
            )
        return cls(
            h=h,
            width=width,
            words=_pack_words(coords, width),
            n=_as_counts("n", n),
            half_counts=_as_counts("half_counts", half_counts),
        )

    @property
    def n_cells(self) -> int:
        """Number of non-empty cells stored at this level."""
        return int(self.words.shape[0])

    @property
    def d(self) -> int:
        """Embedding dimensionality of the cells."""
        return int(self.half_counts.shape[1])

    @property
    def side(self) -> float:
        """Cell side length ``ξ_h = 1 / 2**h``."""
        return 1.0 / (1 << self.h)

    @property
    def coords(self) -> IntArray:
        """``(m, d)`` int64 cell coordinates (derived, cached, read-only)."""
        if self._coords is None:
            coords = _unpack_words(self.words, self.d, self.width)
            coords.flags.writeable = False
            self._coords = coords
        return self._coords

    @property
    def keys(self) -> AnyArray:
        """Sorted :func:`void_keys` of :attr:`coords` (derived, cached).

        The index of the numpy oracle's ``searchsorted`` joins.
        """
        if self._keys is None:
            self._keys = void_keys(self.coords)
        return self._keys

    def coords_of(self, rows: IntArray | int) -> IntArray:
        """int64 coordinates of the cells at ``rows`` (unpacked on demand)."""
        return _unpack_words(self.words[rows], self.d, self.width)

    def search_words(self, probes: AnyArray) -> IntArray:
        """Insertion row of each packed probe row (``searchsorted`` left).

        ``probes`` is ``(k, n_words)`` uint64 in this level's layout.
        Rows compare as records of their words, first word first, so
        one ``searchsorted`` over a record view of :attr:`words` serves
        every word count without copying the level.
        """
        record = _word_record(self.words.shape[1])
        probes = np.ascontiguousarray(probes, dtype=np.uint64)
        table = self.words.view(record).reshape(self.n_cells)
        return np.searchsorted(table, probes.view(record).reshape(-1))

    def find_words(self, probes: AnyArray) -> IntArray:
        """Row of each packed probe row, or ``-1`` where no cell matches."""
        k, m = probes.shape[0], self.n_cells
        if k == 0 or m == 0:
            return np.full(k, -1, dtype=np.int64)
        rows = np.minimum(self.search_words(probes), m - 1)
        found = np.all(self.words[rows] == probes, axis=1)
        return np.where(found, rows, -1)

    def row_of(self, coords: IntArray) -> int:
        """Row index of the cell at ``coords``, or ``-1`` if empty."""
        rows = self.rows_of(np.asarray(coords).reshape(1, -1))
        return int(rows[0])

    def rows_of(self, coords: IntArray) -> IntArray:
        """Vectorised cell lookup: one row index (or -1) per query row.

        Queries outside the level's grid find no cell.
        """
        coords = np.asarray(coords, dtype=np.int64)
        rows = np.full(coords.shape[0], -1, dtype=np.int64)
        inside = np.all((coords >= 0) & (coords < (1 << self.h)), axis=1)
        rows[inside] = self.find_words(_pack_words(coords[inside], self.width))
        return rows

    def neighbor_rows(
        self, row: int, axes: IntArray
    ) -> tuple[IntArray, IntArray]:
        """Rows of the lower/upper face neighbours along each of ``axes``.

        Each probe is the cell's words with one field moved by one;
        probes past the grid's border find no cell (``-1``).  Covers
        both the paper's *internal* and *external* neighbours: the
        word index does not care whether the neighbour lives in the
        same tree node or a sibling node.
        """
        axes = np.asarray(axes, dtype=np.int64)
        k = axes.shape[0]
        _, word, shift = _field_layout(self.d, self.width)
        word, shift = word[axes], shift[axes]
        step = np.uint64(1) << shift
        coordinate = self.coords_of(row)[axes]
        probes = np.repeat(self.words[row : row + 1], 2 * k, axis=0)
        lower, upper = probes[:k], probes[k:]
        index = np.arange(k, dtype=np.int64)
        has_lower = coordinate > 0
        has_upper = coordinate < (1 << self.h) - 1
        lower[index[has_lower], word[has_lower]] -= step[has_lower]
        upper[index[has_upper], word[has_upper]] += step[has_upper]
        rows = np.full(2 * k, -1, dtype=np.int64)
        valid = np.concatenate((has_lower, has_upper))
        rows[valid] = self.find_words(probes[valid])
        return rows[:k], rows[k:]

    def bounds(self, row: int) -> tuple[FloatArray, FloatArray]:
        """Lower/upper bounds ``(l_j, u_j)`` of the cell in data space."""
        lower = self.coords_of(row) * self.side
        return lower, lower + self.side


class CountingTree:
    """Multi-resolution grid counts over a dataset in ``[0, 1)^d``.

    Parameters
    ----------
    points:
        Array of shape ``(η, d)`` with values in ``[0, 1)``.
    n_resolutions:
        The paper's ``H``; levels ``1 .. H-1`` are materialised (level 0
        is the root hyper-cube, kept implicitly).  Must be ≥ 3.
    n_jobs:
        Worker count for the sharded build.  ``None`` (default) reads
        ``REPRO_JOBS`` and shards only when the dataset is large enough
        to amortise the process fan-out (``SHARD_MIN_POINTS``); an
        explicit value ≥ 2 always shards.  The sharded build reduces
        per-shard cell aggregates in deterministic shard order and is
        bit-identical to the serial build.

    Notes
    -----
    Time ``O(η d + cells·H·d)`` — the η points are touched exactly once
    (binning and packing into ``ceil(d / (64 // (H-1)))`` uint64 words
    with an ``(H-1)``-bit field per axis, in one compiled pass, and one
    sort of those words at level ``H-1``); every coarser level sorts
    the previous level's at-most-η unique words.  Working memory beyond
    the input is a few words per point — the cell words, the parity
    words, the sort permutation and the group-ordered copies of both —
    and no ``(η, d)`` int64 coordinate matrix or float64 temporary of
    the input's size (the numpy oracle backend still bins into one);
    the levels themselves take ``O(H η d)``, matching Algorithm 1's
    stated complexity: each stored cell is its ``n_words`` uint64 words
    plus ``1 + d`` uint32 counts.
    """

    def __init__(
        self,
        points: FloatArray,
        n_resolutions: int = 4,
        n_jobs: int | None = None,
    ):
        points = np.asarray(points, dtype=np.float64)
        check_array("points", points, dtype=np.float64, ndim=2, unit_box=True)
        if points.shape[0] == 0:
            raise ValueError("cannot build a Counting-tree over zero points")
        if n_resolutions < MIN_RESOLUTIONS:
            raise ValueError(f"n_resolutions must be >= {MIN_RESOLUTIONS}")
        if n_resolutions > MAX_RESOLUTIONS:
            raise ContractError(
                f"n_resolutions must be <= {MAX_RESOLUTIONS}: cell "
                f"words hold one (n_resolutions - 1)-bit field per axis"
            )
        if n_jobs is not None and n_jobs < 1:
            raise ValueError("n_jobs must be a positive worker count")
        check_point_count(points.shape[0])

        self._n_points, self._d = points.shape
        self._H = int(n_resolutions)

        with obs.span("tree.build"):
            if n_jobs is not None:
                jobs = n_jobs
            elif multiprocessing.parent_process() is None:
                jobs = env.jobs_from_env()
            else:
                # Already inside a worker process (e.g. an experiment
                # cell): never nest a process pool implicitly.
                jobs = 1
            shard = jobs > 1 and (
                n_jobs is not None or self._n_points >= SHARD_MIN_POINTS
            )
            if shard:
                from repro.core.streaming import sharded_levels

                self._levels = sharded_levels(points, self._H, jobs)
            else:
                self._levels = aggregate_levels(points, self._H)

    @property
    def n_resolutions(self) -> int:
        """The paper's ``H``."""
        return self._H

    @property
    def dimensionality(self) -> int:
        """Embedding dimensionality ``d``."""
        return self._d

    @property
    def n_points(self) -> int:
        """Number of points counted (``η``)."""
        return self._n_points

    @property
    def levels(self) -> range:
        """Materialised level numbers (``1 .. H-1``)."""
        return range(1, self._H)

    def level(self, h: int) -> Level:
        """Return level ``h`` (raises ``KeyError`` for level 0 or ≥ H)."""
        return self._levels[h]

    def parent_row(self, h: int, row: int) -> int:
        """Row index (at level ``h-1``) of the parent of cell ``row`` at level ``h``.

        Every level packs the tree-wide ``H-1``-bit fields, so the
        parent's words are the child's shifted right by one bit per
        field (:func:`_parent_masks`).
        """
        if h <= 1:
            raise ValueError("level-1 cells have the implicit root as parent")
        level = self.level(h)
        masks = _parent_masks(self._d, level.width)
        parent_words = (level.words[row : row + 1] >> np.uint64(1)) & masks
        parent = int(self.level(h - 1).find_words(parent_words)[0])
        if parent < 0:
            raise RuntimeError("corrupt tree: populated cell with empty parent")
        return parent

    def loc_bits(self, h: int, row: int) -> IntArray:
        """The cell's relative position ``loc`` inside its parent (d bits)."""
        return self.level(h).coords_of(row) & 1

    def total_cells(self) -> int:
        """Total number of stored cells, for memory accounting."""
        return sum(level.n_cells for level in self._levels.values())


def bin_points(points: FloatArray, n_resolutions: int) -> IntArray:
    """Integer coordinates at the finest half-resolution ``2^H``.

    Every coarser level (and every half-space bit) is a right shift of
    these coordinates.  The clamp to the grid runs in the float domain,
    so the int64 cast is always defined: NaN and negative values bin to
    0, values at or past 1.0 to ``2^H - 1``.
    """
    scaled = points * float(1 << n_resolutions)
    np.floor(scaled, out=scaled)
    np.fmax(scaled, 0.0, out=scaled)
    np.fmin(scaled, float((1 << n_resolutions) - 1), out=scaled)
    return scaled.astype(np.int64)


LevelArrays = tuple[AnyArray, AnyArray, AnyArray]
"""One level's structure-of-arrays cell aggregate: key-sorted
``(words, counts, half_counts)`` — ``(m, n_words)`` uint64 cell words
in ``H-1``-bit fields, ``(m,)`` uint32 counts and ``(m, d)`` uint32
half-space counts.  The canonical exchange format between the builders
— the streaming store, the shard workers and the merge all speak it,
and none of them ever unpacks a coordinate."""


def level_arrays(points: FloatArray, n_resolutions: int) -> dict[int, LevelArrays]:
    """Per-level SoA cell aggregates from unit-box points (pure).

    The active backend's ``cell_words`` kernel bins the η points and
    packs each one's level ``H-1`` coordinates into uint64 cell words
    with a fixed ``H-1``-bit field per axis (axis 0 most significant),
    plus a parity word holding each axis's lowest coordinate bit.  One
    sort of the cell words groups the points into level-``H-1`` cells;
    a point whose parity along ``e_j`` is even sits in the lower half
    of its cell and credits ``half_counts[j]``, which the backend's
    ``half_counts`` kernel sums from the group-ordered parity words.
    Levels ``H-2`` down to ``1`` are derived from the next-finer
    level's unique *words*: ``(word >> 1) & field_mask`` is the packed
    parent coordinate and the bit shifted out of each field is the
    child's parity, so every sort after the first sorts at most
    ``cells`` words, not ``η`` rows, and nothing is repacked or
    unpacked: every level keeps the same ``H-1``-bit fields.

    The words' numeric order is the numeric-lexicographic cell order,
    which is canonical: any split of the points into chunks yields,
    after :func:`merge_level_arrays`, element-identical arrays.  The
    caller bounds η by :data:`MAX_POINTS`, so the uint32 counts cannot
    wrap.  This function is deliberately free of observability and
    environment access beyond the backend choice, which cannot change a
    result (every backend is bit-identical) — it is the body shard
    workers run, and workers must be pure.
    """
    from repro.core.kernels import active_backend

    backend = active_backend()
    n_points, d = points.shape
    width = n_resolutions - 1
    words, parity = backend.cell_words(points, n_resolutions)
    order, starts, cell_words = _group_words(words)
    del words
    counts = _as_counts("counts", np.diff(np.append(starts, n_points)))
    halves = backend.half_counts(parity[order], None, starts, counts, d, 1)
    del parity, order

    masks = _parent_masks(d, width)
    arrays = {n_resolutions - 1: (cell_words, counts, halves)}
    for h in range(n_resolutions - 2, 0, -1):
        fine_words, fine_counts = cell_words, counts
        order, starts, cell_words = _group_words(
            (fine_words >> np.uint64(1)) & masks
        )
        child_counts = fine_counts[order]
        counts = np.add.reduceat(child_counts, starts, dtype=np.uint32)
        halves = backend.half_counts(
            fine_words[order], child_counts, starts, counts, d, width
        )
        arrays[h] = (cell_words, counts, halves)
    return {h: arrays[h] for h in range(1, n_resolutions)}


def merge_level_arrays(left: LevelArrays, right: LevelArrays) -> LevelArrays:
    """Key-grouped sum of two SoA aggregates of the same level (pure).

    Cell counts and half-space counts are sums over points, so merging
    two disjoint point sets' aggregates is an integer sum grouped by
    cell word; the output is again in canonical key order.  The merge
    is associative and commutative, which is what lets the sharded
    build reduce partial trees in deterministic shard order regardless
    of worker completion order.  Both sides must share one word layout
    (one ``d`` and one ``H``), and the caller bounds the merged point
    count by :data:`MAX_POINTS`.
    """
    words = np.concatenate([left[0], right[0]])
    counts = np.concatenate([left[1], right[1]])
    halves = np.concatenate([left[2], right[2]])
    order, starts, cells = _group_words(words)
    merged_counts = np.add.reduceat(counts[order], starts, dtype=np.uint32)
    merged_halves = np.add.reduceat(halves[order], starts, axis=0, dtype=np.uint32)
    return cells, merged_counts, merged_halves


def level_from_arrays(h: int, width: int, arrays: LevelArrays) -> Level:
    """Wrap one key-sorted SoA aggregate as a ``Level``."""
    words, counts, halves = arrays
    return Level(h=h, width=width, words=words, n=counts, half_counts=halves)


def aggregate_levels(points: FloatArray, n_resolutions: int) -> dict[int, Level]:
    """Build all levels from one binning pass, coarse levels by aggregation.

    Thin observability wrapper over :func:`level_arrays` — cell words,
    counts and half-space counts are element-identical to
    :func:`_reference_build` over :func:`bin_points` of the same
    points; the property tests assert it.
    """
    arrays = level_arrays(points, n_resolutions)
    levels: dict[int, Level] = {}
    for h in range(1, n_resolutions):
        levels[h] = level_from_arrays(h, n_resolutions - 1, arrays[h])
        obs.incr(f"tree.level{h}.cells", levels[h].n_cells)
    return levels


# Packed cell words.  A cell's coordinates are packed into uint64 words
# with a fixed field of ``width`` bits per axis, ``64 // width`` axes to
# a word and axis 0 in the most significant field, so the numeric order
# of the words (first word most significant) is the lexicographic order
# of the coordinates — the canonical order of the big-endian
# :func:`void_keys`.  Sorting, merging and searching one or a few
# machine words per cell is what keeps the tree small and its lookups
# cheap; the void keys remain only the numpy oracle's join index.

_PACK_ROWS = 8192
"""Rows packed per block: small enough that the block's temporaries
stay in cache while the strided ``(m, d)`` input is read once."""


def _as_counts(name: str, values: AnyArray) -> AnyArray:
    """``values`` as a uint32 count array, refusing what uint32 cannot hold."""
    values = np.asarray(values)
    if values.dtype == np.uint32:
        return values
    if values.size and (int(values.min()) < 0 or int(values.max()) > MAX_POINTS):
        raise ContractError(
            f"{name} must lie in [0, {MAX_POINTS}] to be stored as uint32 "
            f"counts (observed range [{int(values.min())}, "
            f"{int(values.max())}])"
        )
    return values.astype(np.uint32)


@functools.lru_cache(maxsize=None)
def _word_record(n_words: int) -> np.dtype:
    """A record of ``n_words`` uint64 fields: one packed cell row.

    Records compare field by field, first field first, which is the
    rows' key order — so ``searchsorted`` over a record view of a
    level's words is its cell lookup, at any word count.
    """
    return np.dtype([(f"w{k}", np.uint64) for k in range(n_words)])


def _field_layout(d: int, width: int) -> tuple[int, IntArray, AnyArray]:
    """Word count, and word index and bit shift of each axis's field."""
    per_word = 64 // width
    slots = [divmod(axis, per_word) for axis in range(d)]
    word = np.array([w for w, _ in slots], dtype=np.int64)
    shift = np.array(
        [(min(per_word, d - w * per_word) - 1 - slot) * width for w, slot in slots],
        dtype=np.uint64,
    )
    # Zero axes still get one (all-zero) word: every point shares a cell.
    return max(1, -(-d // per_word)), word, shift


def _pack_words(coords: IntArray, width: int, drop: int = 0) -> AnyArray:
    """Pack coordinate rows into ``(m, words)`` uint64 cell words.

    Field ``j`` holds ``(coords[:, j] >> drop) mod 2**width``.  The
    fields are disjoint, so each word is a plain dot product of the
    block with per-axis powers of two.
    """
    m, d = coords.shape
    n_words, word, shift = _field_layout(d, width)
    scale = np.zeros((d, n_words), dtype=np.uint64)
    scale[np.arange(d, dtype=np.int64), word] = np.uint64(1) << shift
    field = np.uint64((1 << width) - 1)
    words = np.empty((m, n_words), dtype=np.uint64)
    for lo in range(0, m, _PACK_ROWS):
        block = coords[lo : lo + _PACK_ROWS]
        low = int(block.min(initial=0))
        if low < 0:
            raise ContractError(
                f"coords must be non-negative to pack into uint64 cell "
                f"words (observed minimum {low})"
            )
        # int64 -> uint64 is lossless: the guard above rejects negatives.
        fields = block.astype(np.uint64)
        fields >>= drop
        fields &= field
        np.dot(fields, scale, out=words[lo : lo + _PACK_ROWS])
    return words


def _unpack_words(words: AnyArray, d: int, width: int) -> IntArray:
    """The int64 coordinates packed in ``words`` (``(..., n_words)`` rows)."""
    _, word, shift = _field_layout(d, width)
    fields = words[..., word] >> shift
    fields &= np.uint64((1 << width) - 1)
    return fields.view(np.int64)


def _parent_masks(d: int, width: int) -> AnyArray:
    """Per-word mask clearing each field's top bit after ``word >> 1``.

    The shift moves every field's coordinate one bit down, and the top
    bit of each field receives the parity bit of the field above it;
    masking that bit leaves exactly the parent coordinates.
    """
    n_words, word, shift = _field_layout(d, width)
    masks = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.at(masks, word, np.uint64((1 << (width - 1)) - 1) << shift)
    return masks


def _group_words(words: AnyArray) -> tuple[IntArray, IntArray, AnyArray]:
    """Sort packed cell words and find the groups of equal cells.

    Returns ``(order, starts, unique_words)``: the permutation sorting
    the rows of ``words`` into numeric order (one word: a plain
    argsort; more: a lexsort with the first word most significant),
    the start offset of each group within that order, and the unique
    words.  Order within a group is unspecified — callers only sum
    over groups.
    """
    if words.shape[1] == 1:
        order = np.argsort(words[:, 0])
    else:
        order = np.lexsort(words.T[::-1])
    ordered = words[order]
    if ordered.shape[0] > 1:
        changed = np.any(ordered[1:] != ordered[:-1], axis=1)
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
    else:
        starts = np.zeros(ordered.shape[0], dtype=np.int64)
    return order, starts, ordered[starts]


def _reference_build(base: IntArray, h: int, n_resolutions: int, d: int) -> Level:
    """The seed per-level rescan build of one level (kept as reference).

    Re-derives level ``h`` straight from the η per-point coordinates —
    one ``np.unique`` sort of all points per level.  No longer used by
    :class:`CountingTree` itself; the equivalence tests and the perf
    baseline compare :func:`aggregate_levels` against it.
    """
    shift = n_resolutions - h
    coords_h = base >> shift
    cells, inverse = np.unique(coords_h, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    counts = np.bincount(inverse, minlength=cells.shape[0]).astype(np.int64)

    # Half-space bit: the next-finer coordinate's parity along each
    # axis; bit 0 means the point is in the lower half of this cell.
    half_bits = (base >> (shift - 1)) & 1
    half_counts = np.zeros((cells.shape[0], d), dtype=np.int64)
    np.add.at(half_counts, inverse, (half_bits == 0).astype(np.int64))

    return Level.from_coords(
        h, cells, counts, half_counts, width=n_resolutions - 1
    )


def reference_levels(
    base: IntArray, n_resolutions: int, d: int
) -> dict[int, Level]:
    """All levels via the seed per-level rescan (reference path)."""
    return {
        h: _reference_build(base, h, n_resolutions, d)
        for h in range(1, n_resolutions)
    }


def tree_from_levels(
    levels: dict[int, Level], d: int, n_points: int, n_resolutions: int
) -> CountingTree:
    """Assemble a CountingTree around pre-built levels.

    Used by the streaming builder, the model loader and the perf
    baseline's reference path; callers guarantee the levels are
    mutually consistent.  Every level must pack the tree-wide
    ``H-1``-bit fields, which the parent lookups rely on.
    """
    widths = {level.width for level in levels.values()}
    if widths - {n_resolutions - 1}:
        raise ValueError(
            f"tree levels must pack {n_resolutions - 1}-bit fields, got "
            f"widths {sorted(widths)}"
        )
    tree = CountingTree.__new__(CountingTree)
    tree._n_points = n_points
    tree._d = d
    tree._H = n_resolutions
    tree._levels = levels
    return tree
