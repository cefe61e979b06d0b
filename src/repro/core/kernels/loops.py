"""Loop-form kernel bodies: the executable specification of the C code.

Every function here is written in a restricted, C-shaped dialect — flat
``for`` loops over contiguous int64/float64 buffers, no helper calls,
no Python objects — and the C backend
(:mod:`repro.core.kernels.cext_backend`) mirrors these algorithms
statement for statement.  No production path calls this module; it
exists to be checked.  The test suite runs it interpreted as a
pseudo-backend against the numpy oracle, and the analyzer's A502/A503
passes compare the C loop skeletons and ``#define`` constants against
it, so a C edit that drifts from the spec fails statically even before
the Hypothesis bit-identity suite runs.

Four structural facts the kernels exploit:

* a packed cell word keeps one fixed-width field per axis, axis 0 most
  significant, so a row is binned and packed in one pass over its
  axes, and a child's parity along every axis is the lowest bit of
  its field (see :func:`cell_words` and :func:`half_counts`);
* a level's rows arrive in key order and its packed cell words
  (the tree-wide ``H-1``-bit fields, axis 0 most significant) compare
  in that same order, one word at a time; adding or subtracting ``1 << shift``
  moves a cell one step along that axis and keeps the order, so the
  face-neighbour probes of a key-ordered subset of cells are found by
  forward galloping searches over one or a few uint64 words per cell,
  not per-probe binary searches over ``d`` columns (see
  :func:`level_responses`);
* the binomial tail ``P(X > t)`` is a monotone function of ``t``, so
  the critical value is a binary search over stable log-space tail
  sums, with a relative guard band that routes borderline cases back
  to the scipy oracle (see :func:`binom_thetas`);
* correlation-cluster boxes, flattened in group order, make labelling
  a first-match search: the first box containing a row belongs to the
  lowest group id that claims it (see :func:`label_rows`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.types import NOISE_LABEL, AnyArray, FloatArray, IntArray

SF_GUARD_BAND = 1e-6
"""Relative distance from ``alpha`` below which a tail sum is treated
as borderline and the axis flagged for scipy adjudication.  The tail
summation's relative error is dominated by the ``lgamma`` ulp error of
the log-space first term, which grows with ``n`` — measured ~1e-10 at
``n`` ≈ 2·10³ and bounded by ~1e-8 at the largest tree populations
(``n`` ≈ 10⁶) — so the band keeps two orders of magnitude of margin:
a decision the kernel *keeps* can never disagree with the oracle,
while the flag probability (tail sums landing within 1e-6 of ``alpha``)
stays negligible."""

_SF_TOLERANCE = 1e-18
"""Early-termination threshold for the geometric tail remainder."""


def cell_words(
    points: FloatArray,
    n_resolutions: int,
    lo: FloatArray,
    span: FloatArray,
    below_one: float,
) -> tuple[AnyArray, AnyArray]:
    """Bin every row at ``2^H`` and pack it: cell word and parity word.

    Returns ``(words, parity)``.  ``words`` holds each row's level
    ``H-1`` cell, ``floor(x·2^H) >> 1`` per axis, in fixed ``H-1``-bit
    fields, ``64 // (H-1)`` axes to a word with axis 0 in the most
    significant field (the layout of
    :func:`repro.core.counting_tree._field_layout`).  ``parity`` holds
    the dropped bit, ``floor(x·2^H) & 1``, in one-bit fields.  The
    clamp runs in the float domain before the integer cast, so the cast
    is always defined: NaN and negative values bin to cell 0, values at
    or past 1.0 to the last cell.  Truncating the clamped non-negative
    value equals flooring it.

    ``lo``/``span`` are a fitted min-max map of shape ``(d,)``, or two
    empty arrays for points already in the unit box.  A mapped value is
    ``(x − lo[k]) / span[k]`` on a positive span and exactly 0.0 on a
    zero span, then clipped to ``[0, below_one]`` with NaN passing
    through — :func:`~repro.data.normalize.apply_minmax`'s operations
    in its order, one value at a time as the loop reads it.
    """
    n, d = points.shape
    n_norm = lo.shape[0]
    width = n_resolutions - 1
    per_word = 64 // width
    n_words = -(-d // per_word) if d > 0 else 1
    n_parity = -(-d // 64) if d > 0 else 1
    scale = float(1 << n_resolutions)
    limit = scale - 1.0
    words = np.zeros((n, n_words), dtype=np.uint64)
    parity = np.zeros((n, n_parity), dtype=np.uint64)
    for i in range(n):
        w = 0
        last = per_word if per_word < d else d
        p = 0
        p_last = 64 if 64 < d else d
        for k in range(d):
            if k == last:
                w += 1
                last += per_word
                if last > d:
                    last = d
            if k == p_last:
                p += 1
                p_last += 64
                if p_last > d:
                    p_last = d
            v = points[i, k]
            if n_norm > 0:
                if span[k] > 0.0:
                    v = (v - lo[k]) / span[k]
                else:
                    v = 0.0
                if v < 0.0:
                    v = 0.0
                if v > below_one:
                    v = below_one
            v = v * scale
            if not v >= 0.0:
                v = 0.0
            if v > limit:
                v = limit
            c = int(v)
            words[i, w] |= np.uint64((c >> 1) << ((last - 1 - k) * width))
            parity[i, p] |= np.uint64((c & 1) << (p_last - 1 - k))
    return words, parity


def half_counts(
    child_words: AnyArray,
    child_counts: AnyArray,
    starts: IntArray,
    counts: AnyArray,
    d: int,
    width: int,
) -> AnyArray:
    """Half-space counts ``P[j]`` of every group from its children's words.

    ``child_words`` are the children's packed words (``width``-bit
    fields) in group order, group ``g`` starting at row ``starts[g]``;
    the lowest bit of a field is the child's parity along that axis.
    An odd child sits in the upper half of its parent, so ``P[j]`` is
    the group count ``counts[g]`` minus the weights of the odd
    children.  ``child_counts`` weighs each child; an empty array
    weighs every child 1 (the children are points).  The groups are
    walked with a counter, so no subscript is read out of the data.
    Counts are uint32: a group's odd weights never exceed its count,
    so the difference cannot wrap.
    """
    m, n_words = child_words.shape
    n_groups = counts.shape[0]
    per_word = 64 // width
    out = np.empty((n_groups, d), dtype=np.uint32)
    for g in range(n_groups):
        for k in range(d):
            out[g, k] = counts[g]
    if n_groups == 0:
        return out
    group = 0
    for i in range(m):
        if group + 1 < n_groups and i == starts[group + 1]:
            group += 1
        weight = 1
        if child_counts.shape[0] > 0:
            weight = int(child_counts[i])
        w = 0
        last = per_word if per_word < d else d
        for k in range(d):
            if k == last:
                w += 1
                last += per_word
                if last > d:
                    last = d
            odd = (int(child_words[i, w]) >> ((last - 1 - k) * width)) & 1
            out[group, k] -= odd * weight
    return out


def level_responses(
    words: AnyArray,
    counts: AnyArray,
    row_words: AnyArray,
    row_counts: AnyArray,
    d: int,
    width: int,
) -> IntArray:
    """Laplacian face-mask responses of a key-ordered subset of cells.

    ``response(c) = 2d·n(c) − Σ_j [n(c−e_j) + n(c+e_j)]`` with empty or
    out-of-grid neighbours contributing zero.  ``words``/``counts`` are
    the whole level's packed cell words (``width``-bit fields, axis 0
    most significant) and uint32 counts; ``row_words``/``row_counts`` are the
    same arrays gathered at the cells to evaluate, in key order.  The
    probe of row ``i`` along ``axis`` is its words with ``1 << shift``
    added to (``+1``) or subtracted from (``−1``) the word holding that
    axis's field — skipped when the field is already ``2^width − 1``
    or ``0`` — and one non-saturated field moved by one keeps the key
    order, so each of the ``2d`` probe sequences is sorted.  Each probe
    is found by a forward search over the level that starts at the
    previous probe's position: it gallops (steps 1, 2, 4, …) past rows
    below the probe, then binary-searches the last step, so a subset
    of ``k`` cells costs ``O(k·log(m/k))`` row compares per search and
    the whole level ``O(m)``.  Rows are unique, so the compare that
    finds a row equal to the probe marks the match.  A field may be
    wider than the level's grid; a probe past the grid's last cell then
    stays inside its field and finds no cell, which is zero-padding.
    Responses accumulate in int64.
    """
    m, n_words = words.shape
    k_rows = row_words.shape[0]
    per_word = 64 // width
    field = (1 << width) - 1
    responses = np.empty(k_rows, dtype=np.int64)
    for i in range(k_rows):
        responses[i] = 2 * d * int(row_counts[i])
    w = 0
    last = per_word if per_word < d else d
    for axis in range(d):
        if axis == last:
            w += 1
            last += per_word
            if last > d:
                last = d
        shift = (last - 1 - axis) * width
        step = 1 << shift
        for delta in (1, -1):
            edge = field if delta > 0 else 0
            j = 0
            for i in range(k_rows):
                if (int(row_words[i, w]) >> shift) & field == edge:
                    continue
                # Gallop from j: rows below ``low`` are below the probe,
                # and row ``high`` (when < m) is at or above it.  Rows
                # are unique, so a compare that finds the probe equal
                # has found the match.
                low = j
                high = j
                span = 1
                hit = False
                while high < m:
                    comparison = 0
                    for k in range(n_words):
                        b = int(row_words[i, k])
                        if k == w:
                            b += step * delta
                        a = int(words[high, k])
                        if a < b:
                            comparison = -1
                            break
                        if a > b:
                            comparison = 1
                            break
                    if comparison == 0:
                        hit = True
                        low = high
                    if comparison >= 0:
                        break
                    low = high + 1
                    high += span
                    span *= 2
                if high > m:
                    high = m
                while low < high:
                    mid = (low + high) // 2
                    comparison = 0
                    for k in range(n_words):
                        b = int(row_words[i, k])
                        if k == w:
                            b += step * delta
                        a = int(words[mid, k])
                        if a < b:
                            comparison = -1
                            break
                        if a > b:
                            comparison = 1
                            break
                    if comparison == 0:
                        hit = True
                    if comparison < 0:
                        low = mid + 1
                    else:
                        high = mid
                j = low
                if hit:
                    responses[i] -= int(counts[j])
                if j >= m:
                    break
    return responses


def label_rows(
    points: FloatArray,
    lower: FloatArray,
    upper: FloatArray,
    box_group: IntArray,
    lo: FloatArray,
    span: FloatArray,
    below_one: float,
) -> IntArray:
    """Correlation-cluster label of every row (Alg. 3, phase 3).

    ``lower``/``upper`` are the ``(n_boxes, d)`` β-box bounds flattened
    in group order — group by group, members in order — and
    ``box_group`` the nondecreasing group id of each box.  Each row
    takes the group of the first box containing it, so where two
    groups' boxes share a face the lowest group id wins; a row no box
    contains is ``NOISE_LABEL``.  The containment test is the closed float test
    ``lo <= x <= hi``, negated as a whole so a NaN coordinate fails it
    and the row stays noise.  Each row is read once into a ``d``-long
    scratch ``row``, its raw coordinates mapped by
    ``lo``/``span``/``below_one`` exactly as in :func:`cell_words`
    (empty ``lo``/``span`` copy them as given), and every box is tested
    against that row, so no coordinate is mapped twice.
    """
    n, d = points.shape
    n_norm = lo.shape[0]
    n_boxes = lower.shape[0]
    row = np.empty(d, dtype=np.float64)
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        for k in range(d):
            x = points[i, k]
            if n_norm > 0:
                if span[k] > 0.0:
                    x = (x - lo[k]) / span[k]
                else:
                    x = 0.0
                if x < 0.0:
                    x = 0.0
                if x > below_one:
                    x = below_one
            row[k] = x
        label = NOISE_LABEL
        for b in range(n_boxes):
            inside = True
            for k in range(d):
                if not (row[k] >= lower[b, k] and row[k] <= upper[b, k]):
                    inside = False
                    break
            if inside:
                label = box_group[b]
                break
        out[i] = label
    return out


def six_region(
    words: AnyArray,
    counts: AnyArray,
    half_counts: AnyArray,
    d: int,
    width: int,
    position: int,
    bits: IntArray,
) -> tuple[IntArray, IntArray]:
    """Six-region counts ``(cP_j, nP_j)`` around one parent cell.

    ``position`` indexes the pivot's *parent* cell in the parent
    level's key-ordered packed ``words``; ``bits`` is the pivot's
    ``loc`` bit per axis.  Each face neighbour's words are the
    parent's with one field replaced, resolved with a lower-bound
    binary search over the word rows (log m row compares of at most
    ``n_words`` words, early-exiting at the first differing word).
    """
    m, n_words = words.shape
    per_word = 64 // width
    field = (1 << width) - 1
    center = np.empty(d, dtype=np.int64)
    total = np.empty(d, dtype=np.int64)
    parent_n = int(counts[position])
    w = 0
    last = per_word if per_word < d else d
    for axis in range(d):
        if axis == last:
            w += 1
            last += per_word
            if last > d:
                last = d
        shift = (last - 1 - axis) * width
        coordinate = (int(words[position, w]) >> shift) & field
        neighbors = 0
        for delta in (-1, 1):
            target = coordinate + delta
            if target < 0 or target > field:
                continue
            low = 0
            high = m
            while low < high:
                mid = (low + high) // 2
                comparison = 0
                for k in range(n_words):
                    b = int(words[position, k])
                    if k == w:
                        b = (b & ~(field << shift)) | (target << shift)
                    a = int(words[mid, k])
                    if a < b:
                        comparison = -1
                        break
                    if a > b:
                        comparison = 1
                        break
                if comparison < 0:
                    low = mid + 1
                else:
                    high = mid
            if low < m:
                equal = True
                for k in range(n_words):
                    b = int(words[position, k])
                    if k == w:
                        b = (b & ~(field << shift)) | (target << shift)
                    if int(words[low, k]) != b:
                        equal = False
                        break
                if equal:
                    neighbors += int(counts[low])
        total[axis] = parent_n + neighbors
        half = int(half_counts[position, axis])
        if bits[axis] == 0:
            center[axis] = half
        else:
            center[axis] = parent_n - half
    return center, total


def binom_sf(n: int, p: float, t: int) -> float:
    """Upper tail ``P(X > t)`` for ``X ~ Binomial(n, p)``.

    Log-space first term plus a multiplicative recurrence over the
    remaining terms; terminates once the geometric remainder is below
    ``1e-18`` of the accumulated sum *and* the summation has passed the
    mode (before the mode terms still grow).  Exact at the boundaries.
    """
    if t < 0:
        return 1.0
    if t >= n:
        return 0.0
    q = 1.0 - p
    k = t + 1
    log_term = (
        math.lgamma(n + 1.0)
        - math.lgamma(k + 1.0)
        - math.lgamma(n - k + 1.0)
        + k * math.log(p)
        + (n - k) * math.log(q)
    )
    # Below exp(-708) the first term is subnormal and the recurrence
    # would propagate its truncated mantissa (relative error ~1e-6)
    # into every later term.  Left of the mode the sum is dominated by
    # the near-mode terms, so an underflowing start means the *left*
    # tail is negligible (< n·1e-300) and P(X > t) is 1.0 to the last
    # bit; right of the mode the whole upper tail is below 1e-300 and
    # only its absolute size (≈ 0) can matter to a caller.
    if log_term < -708.0 and k <= math.floor((n + 1) * p):
        return 1.0
    term = math.exp(log_term)
    total = term
    mean = n * p
    while k < n:
        term *= (n - k) * p / ((k + 1.0) * q)
        k += 1
        total += term
        if term <= total * _SF_TOLERANCE and k > mean:
            break
    return total


def binom_thetas(
    totals: IntArray, probs: FloatArray, alpha: float
) -> tuple[IntArray, IntArray]:
    """Critical values ``θ^α`` per axis, plus borderline flags.

    For each axis, the smallest integer ``t`` with
    ``P(X > t) <= alpha`` for ``X ~ Binomial(totals[j], probs[j])`` —
    the same contract as the scipy-backed
    :func:`repro.core.hypothesis_test.critical_values`.  The returned
    ``flags`` mark axes whose tail sum came within ``SF_GUARD_BAND``
    (relative) of ``alpha`` at either side of the cut; the caller must
    recompute those axes with the scipy oracle so kernel decisions are
    bit-identical to the numpy backend by construction.
    """
    d = totals.shape[0]
    thetas = np.empty(d, dtype=np.int64)
    flags = np.zeros(d, dtype=np.uint8)
    for axis in range(d):
        n = int(totals[axis])
        p = float(probs[axis])
        if n <= 0:
            thetas[axis] = 0
            continue
        # sf is ≥ 1/2 at or below the median, which is within one of
        # n·p, so for small alpha the search can start just under the
        # mean without evaluating (and underflowing) the deep left tail.
        if alpha < 0.4:
            low = int(math.floor(n * p)) - 2
            if low < -1:
                low = -1
        else:
            low = -1
        high = n
        # Invariant: sf(low) > alpha >= sf(high).
        while high - low > 1:
            mid = (low + high) // 2
            if binom_sf(n, p, mid) <= alpha:
                high = mid
            else:
                low = mid
        thetas[axis] = high
        upper = binom_sf(n, p, high)
        lower = binom_sf(n, p, high - 1)
        if abs(upper - alpha) <= SF_GUARD_BAND * alpha:
            flags[axis] = 1
        if abs(lower - alpha) <= SF_GUARD_BAND * alpha:
            flags[axis] = 1
    return thetas, flags
