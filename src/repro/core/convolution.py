"""Laplacian convolution over a Counting-tree level (Section III-B, Fig. 2).

MrCC spots candidate cluster centres by convolving each tree level with
an integer approximation of the Laplacian filter.  The paper restricts
the mask to order 3 with non-zero weights only at the centre (``2d``)
and the ``2d`` face elements (``-1``), so one cell's response is

    response(c) = 2d * n(c) - Σ_j [ n(c - e_j) + n(c + e_j) ]

computable in ``O(d)`` per cell instead of the ``O(3^d)`` a full mask
would need.  Cells outside the grid or not materialised (empty space)
contribute zero, exactly like zero-padding in image processing.

The responses of a level never change while the tree is fixed, so each
is computed at most once; the β-cluster search then only re-applies its
one dynamic mask per level (the cells already taken: tried pivots, the
paper's ``usedCell``, and the space claimed by previous β-clusters).
Counts are never negative, so ``response(c) <= 2d * n(c)``, and the
search evaluates only the cells whose bound can still win
(:class:`~repro.core.beta_cluster._LevelSearch`).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core import kernels
from repro.core.contracts import ContractError, check_array
from repro.core.counting_tree import Level, _field_layout
from repro.types import BoolArray, FloatArray, IntArray


def level_responses(level: Level, rows: IntArray | None = None) -> IntArray:
    """Convolved values of the cells at ``rows`` (default: every cell).

    ``rows`` must be strictly increasing, which is key order; the result
    holds one response per requested row.  Delegates to the active
    compute backend (:func:`repro.core.kernels.active_backend`), which
    reads the key-ordered level directly.  Empty neighbours
    (unmaterialised space or the grid border) contribute zero, like
    zero-padding a convolution; every backend is bit-identical here.
    """
    if rows is None:
        rows = np.arange(level.n_cells, dtype=np.int64)
    check_array("rows", rows, dtype=np.int64, ndim=1)
    if rows.size and (
        rows[0] < 0 or rows[-1] >= level.n_cells or np.any(rows[1:] <= rows[:-1])
    ):
        raise ContractError(
            f"rows must be strictly increasing in [0, {level.n_cells})"
        )
    k = int(rows.shape[0])
    obs.incr("convolution.responses")
    obs.incr("convolution.cells", k)
    obs.incr(f"convolution.level{level.h}.responses")
    obs.incr(f"convolution.level{level.h}.cells", k)
    return kernels.active_backend().level_responses(level, rows)


def cell_bounds(level: Level) -> tuple[FloatArray, FloatArray]:
    """Lower/upper bounds of every cell at ``level`` in data space."""
    lower = level.coords * level.side
    return lower, lower + level.side


def overlap_mask(
    level: Level, box_lower: FloatArray, box_upper: FloatArray
) -> BoolArray:
    """Boolean mask of cells sharing data space with one β-cluster box.

    A cell with bounds ``[l, u]`` shares space with box ``[L, U]`` iff
    ``u_j >= L_j and l_j <= U_j`` for *every* axis (Section III-B).
    """
    lower, upper = cell_bounds(level)
    return np.all((upper >= box_lower) & (lower <= box_upper), axis=1)


def overlap_rows(
    level: Level, box_lower: FloatArray, box_upper: FloatArray
) -> IntArray:
    """Rows of cells sharing data space with one β-cluster box.

    Flags exactly the rows :func:`overlap_mask` flags, at a fraction of
    the work, by exploiting two facts about β-cluster boxes:

    * an axis whose box bounds span all of ``[0, 1]`` (every irrelevant
      axis) can never reject a cell, so the per-axis predicate runs
      only over *binding* axes — the handful the MDL cut kept;
    * the sorted-key order is lexicographic, so when axis 0 binds, a
      ``searchsorted`` over the packed cell words, whose first word's
      top field is axis 0, bounds the candidate rows to the box's
      axis-0 cell range.
    """
    n_coords = 1 << level.h
    interval = _axis_intervals(level, box_lower, box_upper)
    if interval is None:
        return np.empty(0, dtype=np.int64)
    lo, hi = interval
    binding = (lo > 0) | (hi < n_coords - 1)
    if not np.any(binding):
        return np.arange(level.n_cells, dtype=np.int64)

    if binding[0]:
        # Axis 0 binds: the key order is lexicographic, so its cells
        # sit in one contiguous run of the rows.  Axis 0 is the top
        # field of the first word, so a probe holding only that field
        # bounds the run; past the field's last value ``(hi + 1) <<
        # shift`` can reach 2**64, so a run to the grid's end ends at m.
        shift = _field_layout(level.d, level.width)[2][0]
        probe = np.zeros((1, level.words.shape[1]), dtype=np.uint64)
        probe[0, 0] = np.uint64(lo[0]) << shift
        start = int(level.search_words(probe)[0])
        if hi[0] == n_coords - 1:
            stop = level.n_cells
        else:
            probe[0, 0] = np.uint64(hi[0] + 1) << shift
            stop = int(level.search_words(probe)[0])
    else:
        start, stop = 0, level.n_cells
    if start >= stop:
        return np.empty(0, dtype=np.int64)
    # No cell lies past the grid's last coordinate, so an interval that
    # reaches it may reach the field's last value: the scan then skips
    # that axis as unbound when fields are wider than the grid.
    hi[hi == n_coords - 1] = (1 << level.width) - 1
    return kernels.active_backend().box_scan(level, lo, hi, start, stop)


def _axis_intervals(
    level: Level, box_lower: FloatArray, box_upper: FloatArray
) -> tuple[IntArray, IntArray] | None:
    """Per-axis coordinate interval ``[lo, hi]`` of the cells a box meets.

    Cell ``c`` meets the box along an axis iff ``c·side + side >= L``
    and ``c·side <= U`` — :func:`overlap_mask`'s float test.  The first
    holds from some coordinate on and the second up to some coordinate,
    so each axis admits one contiguous interval; ``None`` when an axis
    admits none.  ``side`` is ``2^-h`` and ``c < 2^31``, so both sides
    of each comparison are exact: the test reads ``c >= ⌈L·2^h⌉ − 1``
    and ``c <= ⌊U·2^h⌋``, whose ends are computed here in O(d) whatever
    the level's ``2^h``.
    """
    last = (1 << level.h) - 1
    side = level.side
    scale = float(1 << level.h)
    # The last cell must reach L and the first start within U, or the
    # axis admits no cell at all (this also rejects NaN bounds).
    if not (
        np.all(last * side + side >= box_lower) and np.all(0.0 <= box_upper)
    ):
        return None
    lo = np.fmin(np.fmax(np.ceil(box_lower * scale) - 1.0, 0.0), last)
    hi = np.fmin(np.fmax(np.floor(box_upper * scale), 0.0), last)
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    if np.any(lo > hi):
        return None
    return lo, hi


def convolve_level(responses: IntArray, taken: BoolArray) -> int:
    """Pick the best convolution pivot of one level.

    Returns the row of the cell with the largest response among cells
    not ``taken`` — already tried as a pivot (the paper's ``usedCell``)
    or claimed by an earlier β-cluster — or ``-1`` when every cell is
    taken.  Ties resolve to the lowest row, keeping MrCC deterministic.
    """
    check_array("responses", responses, dtype=np.int64, ndim=1)
    check_array("taken", taken, dtype=np.bool_, ndim=1)
    if np.all(taken):
        return -1
    masked = np.where(taken, np.iinfo(np.int64).min, responses)
    return int(np.argmax(masked))
