"""Finding β-clusters (Section III-B, Algorithm 2).

A β-cluster is a candidate correlation cluster: a dense,
hyper-rectangular region in a subspace of the data space, described by
per-axis lower/upper bounds (the paper's ``L``/``U`` matrices) and a
boolean relevance vector (``V``).

The search loop follows Algorithm 2 literally:

* starting from level 2 (coarse) down to ``H-1`` (fine), take the cell
  with the largest Laplacian face-mask response among the cells not yet
  used and not overlapping a previously found β-cluster — evaluating
  only the responses whose bound ``2d·n`` can still win;
* the per-level winner is marked used (whether or not it passes the
  test) — the paper's ``usedCell``, kept here in the search's own state
  so the Counting-tree stays a read-only index and repeated searches
  over one tree agree;
* the winner's parent-level neighbourhood feeds the six-region binomial
  test; one significant axis confirms a β-cluster, otherwise the next
  finer level is tried;
* on a find, relevances are cut with MDL into relevant/irrelevant axes,
  the bounds are grown by populated face neighbours, and the whole scan
  restarts at level 2;
* the search ends when a full pass over every level finds nothing.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.contracts import check_probability
from repro.core.convolution import (
    _axis_intervals,
    convolve_level,
    level_responses,
    overlap_mask,
    rows_covered,
)
from repro.core.counting_tree import CountingTree, Level
from repro.core.hypothesis_test import (
    neighborhood_counts,
    significant_axes,
)
from repro.core.mdl import mdl_cut_threshold
from repro.types import BoolArray, FloatArray


@dataclass(frozen=True)
class BetaCluster:
    """One β-cluster: bounds, relevant axes and provenance.

    ``lower``/``upper`` are the rows of the paper's ``L``/``U``
    matrices (irrelevant axes span ``[0, 1]``), ``relevant`` the ``V``
    row.  ``level`` and ``center_row`` record the tree cell that seeded
    the cluster, and ``relevances`` the pre-MDL relevance array — both
    useful for diagnostics and tests.
    """

    lower: FloatArray
    upper: FloatArray
    relevant: BoolArray
    level: int
    center_row: int
    relevances: FloatArray

    @property
    def relevant_axes(self) -> frozenset[int]:
        """Relevant axes as an index set."""
        return frozenset(int(a) for a in np.flatnonzero(self.relevant))

    def shares_space_with(self, other: "BetaCluster") -> bool:
        """True when the two boxes overlap along *every* axis (Section III-C).

        The overlap must have positive measure: β-cluster bounds are
        grid-aligned binary fractions, so boxes of *different* clusters
        frequently touch at a shared cell edge; treating a zero-measure
        touch as "sharing space" would chain-merge unrelated clusters.
        Boxes of the *same* underlying cluster properly overlap because
        bound growth (Algorithm 2 line 24) stretches each box over its
        populated face neighbours.
        """
        return bool(
            np.all((self.upper > other.lower) & (self.lower < other.upper))
        )


_FIRST_BLOCK = 1024
"""Cells in the first block of responses a level evaluates; each later
block of the same level is twice the size of the one before."""

_FIRST_CHUNK = 16
"""Ranked rows in the first chunk the cursor tests for being taken or
under a found box; each later chunk of the same advance is twice the
size of the one before, up to :data:`_FIRST_BLOCK`."""


class _LevelSearch:
    """One level's best untaken cell, evaluating as few responses as it can.

    The face mask weighs the centre ``2d`` and each face neighbour
    ``-1``, and counts are never negative, so ``response(c) <= 2d·n(c)``.
    Cells are evaluated in bound order ``(-n, row)``, in blocks whose
    size doubles, and the exact responses found so far are kept ranked
    by ``(-response, row)`` with a cursor that only moves forward past
    rows that became taken — responses are static for a fixed tree, and
    a taken cell stays taken.  The best untaken evaluated cell
    ``(r*, row*)`` is the level's masked argmax once it beats the bound
    of the next unevaluated cell ``u``: ``r* > 2d·n(u)``, or
    ``r* == 2d·n(u)`` and ``row* < u`` — every later cell has a lower
    bound, or the same bound and a higher row, so the lowest-row tie
    rule of :func:`~repro.core.convolution.convolve_level` still holds.

    Exclusion is lazy: the found boxes are kept as this level's integer
    coordinate intervals (:func:`~repro.core.convolution._axis_intervals`,
    O(d) per box), and only the ranked rows the cursor reaches are
    tested against them (:func:`~repro.core.convolution.rows_covered`),
    in chunks that double from :data:`_FIRST_CHUNK`.  A covered row is
    marked taken for good, since a box never leaves, so one advance
    costs about chunk × boxes × d instead of a scan of every cell of
    every level per find.
    """

    def __init__(self, level: Level) -> None:
        self.level = level
        self.bounds = np.multiply(level.n, 2 * level.d, dtype=np.int64)
        # A stable sort of -n ranks equal counts by row: (-n, row).
        self.order = np.argsort(-self.bounds, kind="stable")
        self.responses = np.zeros(level.n_cells, dtype=np.int64)
        self.evaluated = 0
        self.block = _FIRST_BLOCK
        self.ranked = np.empty(0, dtype=np.int64)
        self.cursor = 0
        self.n_boxes = 0
        self.box_lo = np.empty((0, level.d), dtype=np.int64)
        self.box_hi = np.empty((0, level.d), dtype=np.int64)

    def best_row(self, taken: BoolArray, boxes: Sequence[BetaCluster] = ()) -> int:
        """Row of the best cell neither taken nor under one of ``boxes``,
        or -1 when there is none."""
        self._add_boxes(boxes)
        m = self.order.shape[0]
        while True:
            row = self._first_untaken(taken)
            if self.evaluated == m:
                return row
            if row >= 0:
                u = int(self.order[self.evaluated])
                best, bound = self.responses[row], self.bounds[u]
                if best > bound or (best == bound and row < u):
                    return row
            self._evaluate_block()

    def _add_boxes(self, boxes: Sequence[BetaCluster]) -> None:
        # Boxes only accumulate, so only the new ones are converted.
        for beta in boxes[self.n_boxes :]:
            interval = _axis_intervals(self.level, beta.lower, beta.upper)
            if interval is not None:
                self.box_lo = np.vstack((self.box_lo, interval[0]))
                self.box_hi = np.vstack((self.box_hi, interval[1]))
        self.n_boxes = len(boxes)

    def _first_untaken(self, taken: BoolArray) -> int:
        # Skip the rows taken or covered since the last pick, in chunks
        # that double so the scan stays vectorised but a pick near the
        # cursor tests only a few rows against the boxes.
        ranked, cursor = self.ranked, self.cursor
        k = ranked.shape[0]
        chunk = _FIRST_CHUNK
        while cursor < k:
            rows = ranked[cursor : cursor + chunk]
            free = ~taken[rows]
            covered = np.zeros(rows.shape[0], dtype=bool)
            if self.box_lo.shape[0]:
                covered[free] = rows_covered(
                    self.level, rows[free], self.box_lo, self.box_hi
                )
                free &= ~covered
            eligible = np.flatnonzero(free)
            passed = int(eligible[0]) if eligible.size else rows.shape[0]
            # Only the covered rows the cursor passes are marked, so the
            # count does not depend on the chunk size.
            excluded = rows[:passed][covered[:passed]]
            if excluded.size:
                taken[excluded] = True
                obs.incr("search.excluded_cells", int(excluded.size))
            cursor += passed
            if eligible.size:
                break
            chunk = min(2 * chunk, _FIRST_BLOCK)
        self.cursor = cursor
        return int(ranked[cursor]) if cursor < k else -1

    def _evaluate_block(self) -> None:
        start = self.evaluated
        rows = np.sort(self.order[start : start + self.block])
        self.responses[rows] = level_responses(self.level, rows)
        obs.incr(f"search.level{self.level.h}.cells_visited", int(rows.size))
        self.evaluated += rows.size
        self.block *= 2
        pending = np.concatenate((self.ranked[self.cursor :], rows))
        self.ranked = pending[np.lexsort((pending, -self.responses[pending]))]
        self.cursor = 0


class _SearchState:
    """Per-level caches reused across Algorithm 2's restarts.

    The search keeps one *taken* mask per level: the pivots already
    tried (the paper's ``usedCell``) plus the cells its level search
    has found under the boxes in :attr:`boxes`.  Each level's best
    untaken cell comes from a :class:`_LevelSearch`, which computes
    only the responses that can still win and tests only the rows it
    reaches against the boxes, so the pick equals the masked argmax
    :func:`~repro.core.convolution.convolve_level` would recompute over
    the whole level, every box's cells masked, on every restart,
    lowest-row ties included.
    """

    def __init__(self, tree: CountingTree) -> None:
        self.tree = tree
        self.boxes: list[BetaCluster] = []
        self._taken: dict[int, BoolArray] = {}
        self._levels: dict[int, _LevelSearch] = {}

    def taken(self, h: int) -> BoolArray:
        if h not in self._taken:
            self._taken[h] = np.zeros(self.tree.level(h).n_cells, dtype=bool)
        return self._taken[h]

    def best_row(self, h: int) -> int:
        """Best convolution pivot at level ``h``, or -1 when all taken."""
        if h not in self._levels:
            self._levels[h] = _LevelSearch(self.tree.level(h))
        return self._levels[h].best_row(self.taken(h), self.boxes)

    def count_bounded(self) -> None:
        """Count each searched level's cells that were never evaluated."""
        for h, search in self._levels.items():
            bounded = search.order.shape[0] - search.evaluated
            # No zero counts: worker trace deltas drop them (REPRO_JOBS).
            if bounded:
                obs.incr(f"convolution.level{h}.bounded", bounded)

    def exclude_box(self, beta: BetaCluster) -> None:
        """Exclude the new β-cluster's space from every later pick."""
        self.boxes.append(beta)


_GROWTH_SHARE = 0.5
"""In *dense* grids a face neighbour must hold at least this share of
the centre cell's count for the β-cluster box to stretch over it."""

_DENSE_OCCUPANCY = 0.01
"""Grid-occupancy fraction above which the share rule applies.  In the
sparse grids of higher-dimensional data (the paper's 5-30 axis target,
where occupancy is ~1e-5) any populated face neighbour signals a
cluster tail and the paper's literal "at least one point" rule is
right.  In a dense low-dimensional grid the background populates every
neighbour, so the literal rule would make every box three cells wide
and chain all β-clusters into one; there, growth demands a neighbour
with a substantial share of the centre's mass — a meaningful straddle
leaves comparable mass on both sides of the boundary."""


def _grow_bounds(
    tree: CountingTree, h: int, row: int, relevant: BoolArray
) -> tuple[FloatArray, FloatArray]:
    """Derive the β-cluster's ``L``/``U`` rows from the centre cell.

    Relevant axes start at the centre cell's bounds and are stretched by
    one cell width towards face neighbours that carry a substantial
    share of the centre's mass (see ``_GROWTH_SHARE``); irrelevant axes
    span the full ``[0, 1]`` range (Algorithm 2 lines 21-28).
    """
    level = tree.level(h)
    d = tree.dimensionality
    lower = np.zeros(d, dtype=np.float64)
    upper = np.ones(d, dtype=np.float64)
    cell_lower, cell_upper = level.bounds(row)
    side = level.side
    occupancy = math.ldexp(level.n_cells, -level.h * min(d, 62))
    if occupancy > _DENSE_OCCUPANCY:
        floor = max(1.0, _GROWTH_SHARE * float(level.n[row]))
    else:
        floor = 1.0
    axes = np.flatnonzero(relevant)
    lower_rows, upper_rows = level.neighbor_rows(row, axes)
    for axis, lower_row, upper_row in zip(axes, lower_rows, upper_rows):
        lo, up = cell_lower[axis], cell_upper[axis]
        if lower_row >= 0 and level.n[lower_row] >= floor:
            lo -= side
        if upper_row >= 0 and level.n[upper_row] >= floor:
            up += side
        lower[axis] = max(0.0, lo)
        upper[axis] = min(1.0, up)
    return lower, upper


def find_beta_clusters(
    tree: CountingTree, alpha: float, max_beta_clusters: int | None = None
) -> list[BetaCluster]:
    """Run Algorithm 2 over a Counting-tree.

    Parameters
    ----------
    tree:
        The phase-one Counting-tree.
    alpha:
        Statistical significance of the binomial test (the paper fixes
        ``1e-10`` for all experiments).
    max_beta_clusters:
        Optional safety valve for pathological inputs; ``None`` (the
        default and the paper's behaviour) lets the search run until a
        full pass finds nothing.

    Returns
    -------
    β-clusters in discovery order.
    """
    check_probability("alpha", alpha)
    state = _SearchState(tree)
    found: list[BetaCluster] = []
    search_levels = [h for h in tree.levels if h >= 2]
    if not search_levels:
        return found

    with obs.span("search"):
        while True:
            new_cluster = _search_pass(state, alpha)
            if new_cluster is None:
                break
            found.append(new_cluster)
            state.exclude_box(new_cluster)
            if max_beta_clusters is not None and len(found) >= max_beta_clusters:
                break
        state.count_bounded()
    return found


def _search_pass(state: _SearchState, alpha: float) -> BetaCluster | None:
    """One inner pass of Algorithm 2 (lines 3-18): scan levels 2..H-1."""
    tree = state.tree
    obs.incr("search.passes")
    for h in tree.levels:
        if h < 2:
            continue
        row = state.best_row(h)
        if row < 0:
            continue
        state.taken(h)[row] = True
        obs.incr("search.pivots")
        obs.incr(f"search.level{h}.cells_visited")
        counts = neighborhood_counts(tree, h, row)
        if not np.any(significant_axes(counts, alpha)):
            obs.incr("search.beta_rejected")
            continue
        obs.incr("search.beta_accepted")
        relevances = counts.relevances()
        threshold = mdl_cut_threshold(relevances)
        relevant = relevances >= threshold
        lower, upper = _grow_bounds(tree, h, row, relevant)
        return BetaCluster(
            lower=lower,
            upper=upper,
            relevant=relevant,
            level=h,
            center_row=row,
            relevances=relevances,
        )
    return None


def reference_find_beta_clusters(
    tree: CountingTree, alpha: float
) -> list[BetaCluster]:
    """The seed β-cluster search (kept as reference).

    A full masked argmax per level per restart and a full-level overlap
    mask per found box.  No longer used by :class:`~repro.core.mrcc.MrCC`
    itself; the equivalence tests and the perf baseline compare
    :func:`find_beta_clusters` against it.
    """
    responses = {h: level_responses(tree.level(h)) for h in tree.levels if h >= 2}
    taken = {
        h: np.zeros(tree.level(h).n_cells, dtype=bool)
        for h in tree.levels
        if h >= 2
    }
    found: list[BetaCluster] = []
    while True:
        new_cluster = None
        for h in tree.levels:
            if h < 2:
                continue
            row = convolve_level(responses[h], taken[h])
            if row < 0:
                continue
            taken[h][row] = True
            counts = neighborhood_counts(tree, h, row)
            if not np.any(significant_axes(counts, alpha)):
                continue
            relevances = counts.relevances()
            threshold = mdl_cut_threshold(relevances)
            relevant = relevances >= threshold
            lower, upper = _grow_bounds(tree, h, row, relevant)
            new_cluster = BetaCluster(
                lower=lower, upper=upper, relevant=relevant,
                level=h, center_row=row, relevances=relevances,
            )
            break
        if new_cluster is None:
            return found
        found.append(new_cluster)
        for h in taken:
            taken[h] |= overlap_mask(
                tree.level(h), new_cluster.lower, new_cluster.upper
            )
