"""Normalisation helpers.

The paper (Definition 1) assumes every dataset is embedded in the
half-open unit hyper-cube ``[0, 1)^d``.  All generators and the MrCC
front-end route raw feature matrices through
:func:`minmax_normalize` to establish that invariant.
"""

from __future__ import annotations

import numpy as np

_BELOW_ONE = np.nextafter(1.0, 0.0)
"""Largest float strictly below 1.0; keeps normalised data in [0, 1)."""


def minmax_params(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis ``(lo, span)`` of the min-max map fitted on ``points``.

    The pair fully describes the affine transform
    :func:`minmax_normalize` applies, so it can be persisted (the
    serving layer stores it inside model files) and replayed on unseen
    query points with :func:`apply_minmax` — bit-identically to
    normalising the training data in place.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (n_points, d)")
    if points.shape[0] == 0:
        d = points.shape[1]
        return np.zeros(d, dtype=np.float64), np.ones(d, dtype=np.float64)
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    return lo, span


def apply_minmax(
    points: np.ndarray, lo: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """Apply a fitted min-max map to ``points`` (new array, in ``[0, 1)``).

    Constant axes (zero fitted span) map to 0.0; values outside the
    fitted range — expected for query points a model never saw — clip
    into the half-open unit interval.

    The fit and the serving paths never call this on their input: the
    ``cell_words`` and ``label_rows`` kernels of every backend
    (:mod:`repro.core.kernels`) take the same ``(lo, span)`` and replay
    this map value by value as they read each raw coordinate, in this
    order — ``(x − lo) / span`` on a positive span (a true division),
    exactly 0.0 on a zero span, then the clip to ``[0, _BELOW_ONE]`` —
    so no normalised copy of the data is ever made and every label is
    bit-identical to normalising first.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (n_points, d)")
    if points.shape[0] == 0:
        return points.copy()
    safe_span = np.where(span > 0.0, span, 1.0)
    # One fresh array, then in place: the same float operations as
    # ``np.clip((points - lo) / safe_span, ...)`` without two more
    # input-sized temporaries.  ``points`` itself is never written.
    scaled = points - lo
    scaled /= safe_span
    # Exact zero span marks a constant column (hi - lo of identical
    # float64 values is exactly 0.0); a tolerance would squash
    # near-constant but informative axes.
    scaled[:, span == 0.0] = 0.0  # repro-lint: disable=R002
    return np.clip(scaled, 0.0, _BELOW_ONE, out=scaled)


def minmax_normalize(points: np.ndarray) -> np.ndarray:
    """Min-max normalise each axis of ``points`` into ``[0, 1)``.

    Constant axes (zero range) map to 0.0.  The maximum of each axis is
    mapped to the largest representable float below 1.0 so the result
    honours the half-open interval of Definition 1.  Equivalent to
    :func:`apply_minmax` with :func:`minmax_params` fitted on the same
    array.

    Parameters
    ----------
    points:
        Array of shape ``(n_points, d)``.

    Returns
    -------
    A new float64 array of the same shape with values in ``[0, 1)``.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-d array of shape (n_points, d)")
    if points.shape[0] == 0:
        return points.copy()
    lo, span = minmax_params(points)
    return apply_minmax(points, lo, span)


def clip_unit_cube(points: np.ndarray) -> np.ndarray:
    """Clip ``points`` into ``[0, 1)`` without rescaling.

    Used by generators whose samples already target the unit cube but
    whose Gaussian tails may stray slightly outside it.
    """
    return np.clip(np.asarray(points, dtype=np.float64), 0.0, _BELOW_ONE)
