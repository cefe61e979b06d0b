"""The interpreted loop bodies as a pseudo-backend for the test suite.

:mod:`repro.core.kernels.loops` is the executable spec of the C code and
takes the C argument conventions (an empty array for "no weights", for
"no normalizer"); :class:`LoopsBackend` wraps it with the signatures of
:class:`repro.core.kernels.Backend`, so the spec runs through the same
tests as the real backends.
"""

import numpy as np

from repro.core.kernels import loops
from repro.data.normalize import _BELOW_ONE

_EMPTY = np.empty(0, dtype=np.float64)


def _norm_args(normalizer):
    """``(lo, span, below_one)`` as the loop bodies take them."""
    lo, span = (_EMPTY, _EMPTY) if normalizer is None else normalizer
    return lo, span, _BELOW_ONE


class LoopsBackend:
    """The interpreted loop bodies, wrapped with the backend signature."""

    name = "loops"

    @staticmethod
    def cell_words(points, n_resolutions, normalizer=None):
        return loops.cell_words(points, n_resolutions, *_norm_args(normalizer))

    @staticmethod
    def half_counts(child_words, child_counts, starts, counts, d, width):
        if child_counts is None:
            child_counts = np.empty(0, dtype=np.uint32)
        return loops.half_counts(
            child_words, child_counts, starts, counts, d, width
        )

    @staticmethod
    def level_responses(level, rows):
        return loops.level_responses(
            level.words, level.n, level.words[rows], level.n[rows],
            level.d, level.width,
        )

    @staticmethod
    def label_rows(points, lower, upper, box_group, normalizer=None):
        return loops.label_rows(
            points, lower, upper, box_group, *_norm_args(normalizer)
        )

    @staticmethod
    def six_region(level, row, bits):
        return loops.six_region(
            level.words, level.n, level.half_counts, level.d,
            level.width, row, bits,
        )

    @staticmethod
    def binom_thetas(totals, probs, alpha):
        return loops.binom_thetas(totals, probs, alpha)
