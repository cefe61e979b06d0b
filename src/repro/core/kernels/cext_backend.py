"""The cext backend: the loop kernels as C, built with the system cc.

The package's one compiled backend, for any machine with a C compiler
on ``PATH`` (gcc/cc/clang): the kernel bodies from
:mod:`repro.core.kernels.loops` are transliterated statement for
statement into C, compiled once into a content-addressed shared object
under the system temporary directory, and bound through :mod:`ctypes`.
Everything about the algorithms — the galloping forward searches and
the binary search over a level's packed uint64 cell words
(:attr:`~repro.core.counting_tree.Level.words`), the box test on the
fields a box binds, the guard-banded binomial tail — is identical to
the loops module; only the executor differs.

Compilation failures of any kind (no compiler, sandboxed tmpdir,
unlinkable toolchain) make the backend report itself unavailable with
the captured reason; they never propagate to callers, because ``auto``
selection must degrade to numpy silently-but-observably.
"""

from __future__ import annotations

import ctypes
import hashlib
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.counting_tree import Level, _field_layout
from repro.data.normalize import _BELOW_ONE
from repro.env import cext_sanitize_from_env
from repro.types import AnyArray, FloatArray, IntArray, Normalizer

NAME = "cext"
COMPILED = True

_BASE_CFLAGS = (
    "-O3", "-shared", "-fPIC", "-Wall", "-Wextra", "-Werror",
    # No fused multiply-adds: each float operation rounds as numpy's does.
    "-ffp-contract=off",
)
_SANITIZE_CFLAGS = ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")

_C_SOURCE = r"""
#include <stdint.h>
#include <math.h>

#define SF_TOLERANCE 1e-18
#define SF_GUARD_BAND 1e-6

/* Bin each row at 2^H and pack it in one pass: the level-(H-1) cell
 * word ((H-1)-bit fields, axis 0 most significant) and the parity word
 * (one bit per axis).  n_norm > 0 maps each raw value as it is read,
 * apply_minmax's operations in its order: (x - lo) / span on a
 * positive span, 0.0 on a zero span, then the clip to [0, below_one]
 * (NaN passes).  The clamp runs in the float domain so the cast is
 * always defined: NaN and negatives bin to 0, values at or past 1.0
 * to the last cell; truncating the clamped value equals floor. */
void cell_words(const double *points, int64_t n, int64_t d,
                int64_t n_resolutions, const double *lo, const double *span,
                int64_t n_norm, double below_one, int64_t n_words,
                int64_t n_parity, uint64_t *words, uint64_t *parity) {
    int64_t width = n_resolutions - 1;
    int64_t per_word = 64 / width;
    double scale = (double)((int64_t)1 << n_resolutions);
    double limit = scale - 1.0;
    for (int64_t i = 0; i < n; i++) {
        int64_t w = 0;
        int64_t last = per_word < d ? per_word : d;
        int64_t p = 0;
        int64_t p_last = 64 < d ? 64 : d;
        for (int64_t k = 0; k < d; k++) {
            if (k == last) {
                w += 1;
                last += per_word;
                if (last > d) last = d;
            }
            if (k == p_last) {
                p += 1;
                p_last += 64;
                if (p_last > d) p_last = d;
            }
            double v = points[i * d + k];
            if (n_norm > 0) {
                if (span[k] > 0.0) v = (v - lo[k]) / span[k]; else v = 0.0;
                if (v < 0.0) v = 0.0;
                if (v > below_one) v = below_one;
            }
            v = v * scale;
            if (!(v >= 0.0)) v = 0.0;
            if (v > limit) v = limit;
            uint64_t c = (uint64_t)v;
            words[i * n_words + w] |= (c >> 1) << ((last - 1 - k) * width);
            parity[i * n_parity + p] |= (c & 1) << (p_last - 1 - k);
        }
    }
}

/* P[j] per group: the group count minus the weights of the children
 * whose field along j is odd (upper half).  Children arrive in group
 * order and a counter walks the groups, so every subscript is a loop
 * or group counter; n_weights == 0 weighs each child 1.  The odd
 * weights of a group never exceed its count, so the uint32 difference
 * cannot wrap. */
void half_counts(const uint64_t *child_words, int64_t m, int64_t n_words,
                 const uint32_t *child_counts, int64_t n_weights,
                 const int64_t *starts, const uint32_t *counts,
                 int64_t n_groups, int64_t d, int64_t width, uint32_t *out) {
    int64_t per_word = 64 / width;
    for (int64_t g = 0; g < n_groups; g++) {
        for (int64_t k = 0; k < d; k++) out[g * d + k] = counts[g];
    }
    if (n_groups == 0) return;
    int64_t group = 0;
    for (int64_t i = 0; i < m; i++) {
        if (group + 1 < n_groups && i == starts[group + 1]) group += 1;
        uint32_t weight = 1;
        if (n_weights > 0) weight = child_counts[i];
        int64_t w = 0;
        int64_t last = per_word < d ? per_word : d;
        for (int64_t k = 0; k < d; k++) {
            if (k == last) {
                w += 1;
                last += per_word;
                if (last > d) last = d;
            }
            uint64_t odd =
                (child_words[i * n_words + w] >> ((last - 1 - k) * width)) & 1;
            out[group * d + k] -= (uint32_t)odd * weight;
        }
    }
}

/* Responses of a key-ordered subset: row_words/row_counts are the
 * level's words and counts gathered at the cells to evaluate.  Per axis
 * and per delta the probes (one field moved by one, skipped at the
 * field's edge) are sorted, so each is found by galloping forward from
 * the previous probe's position and binary-searching the last step;
 * rows compare word by word, first word most significant, and rows are
 * unique, so a compare that finds the probe equal marks the match.
 * Fields may be wider than the level's grid: a probe past the grid's
 * last cell stays inside its field and finds no cell (zero-padding). */
void level_responses(const uint64_t *words, const uint32_t *counts,
                     int64_t m, int64_t n_words,
                     const uint64_t *row_words, const uint32_t *row_counts,
                     int64_t k_rows, int64_t d, int64_t width,
                     int64_t *out) {
    int64_t per_word = 64 / width;
    uint64_t field = ((uint64_t)1 << width) - 1;
    for (int64_t i = 0; i < k_rows; i++)
        out[i] = 2 * d * (int64_t)row_counts[i];
    int64_t w = 0;
    int64_t last = per_word < d ? per_word : d;
    for (int64_t axis = 0; axis < d; axis++) {
        if (axis == last) {
            w += 1;
            last += per_word;
            if (last > d) last = d;
        }
        int64_t shift = (last - 1 - axis) * width;
        uint64_t step = (uint64_t)1 << shift;
        for (int64_t delta = 1; delta >= -1; delta -= 2) {
            uint64_t edge = delta > 0 ? field : 0;
            int64_t j = 0;
            for (int64_t i = 0; i < k_rows; i++) {
                if (((row_words[i * n_words + w] >> shift) & field) == edge)
                    continue;
                int64_t low = j, high = j, span = 1;
                int hit = 0;
                while (high < m) {
                    int comparison = 0;
                    for (int64_t k = 0; k < n_words; k++) {
                        uint64_t b = row_words[i * n_words + k];
                        if (k == w) b = delta > 0 ? b + step : b - step;
                        uint64_t a = words[high * n_words + k];
                        if (a < b) { comparison = -1; break; }
                        if (a > b) { comparison = 1; break; }
                    }
                    if (comparison == 0) { hit = 1; low = high; }
                    if (comparison >= 0) break;
                    low = high + 1;
                    high += span;
                    span *= 2;
                }
                if (high > m) high = m;
                while (low < high) {
                    int64_t mid = (low + high) / 2;
                    int comparison = 0;
                    for (int64_t k = 0; k < n_words; k++) {
                        uint64_t b = row_words[i * n_words + k];
                        if (k == w) b = delta > 0 ? b + step : b - step;
                        uint64_t a = words[mid * n_words + k];
                        if (a < b) { comparison = -1; break; }
                        if (a > b) { comparison = 1; break; }
                    }
                    if (comparison == 0) hit = 1;
                    if (comparison < 0) low = mid + 1; else high = mid;
                }
                j = low;
                if (hit) out[i] -= (int64_t)counts[j];
                if (j >= m) break;
            }
        }
    }
}

/* Only the fields the box binds are unpacked and tested: an axis
 * whose interval is the whole field cannot reject a cell. */
int64_t box_scan(const uint64_t *words, int64_t m, int64_t n_words,
                 int64_t d, int64_t width, const int64_t *lo,
                 const int64_t *hi, int64_t start, int64_t stop,
                 int64_t *out) {
    if (stop > m) stop = m;
    if (start < 0) start = 0;
    int64_t per_word = 64 / width;
    int64_t field = ((int64_t)1 << width) - 1;
    int64_t found = 0;
    for (int64_t position = start; position < stop; position++) {
        int inside = 1;
        int64_t w = 0;
        int64_t last = per_word < d ? per_word : d;
        for (int64_t axis = 0; axis < d; axis++) {
            if (axis == last) {
                w += 1;
                last += per_word;
                if (last > d) last = d;
            }
            if (lo[axis] > 0 || hi[axis] < field) {
                int64_t c = (int64_t)((words[position * n_words + w]
                                       >> ((last - 1 - axis) * width))
                                      & (uint64_t)field);
                if (c < lo[axis] || c > hi[axis]) { inside = 0; break; }
            }
        }
        if (inside) out[found++] = position;
    }
    return found;
}

/* First-match labelling over boxes flattened in group order; the
 * negated closed test keeps NaN rows noise (-1, NOISE_LABEL).  n_norm
 * > 0 maps each raw value as it is read, exactly as in cell_words. */
void label_rows(const double *points, int64_t n, int64_t d,
                const double *lower, const double *upper,
                const int64_t *box_group, int64_t n_boxes,
                const double *lo, const double *span, int64_t n_norm,
                double below_one, int64_t *out) {
    for (int64_t i = 0; i < n; i++) {
        int64_t label = -1;
        for (int64_t b = 0; b < n_boxes; b++) {
            int inside = 1;
            for (int64_t k = 0; k < d; k++) {
                double x = points[i * d + k];
                if (n_norm > 0) {
                    if (span[k] > 0.0) x = (x - lo[k]) / span[k]; else x = 0.0;
                    if (x < 0.0) x = 0.0;
                    if (x > below_one) x = below_one;
                }
                if (!(x >= lower[b * d + k] && x <= upper[b * d + k])) {
                    inside = 0;
                    break;
                }
            }
            if (inside) { label = box_group[b]; break; }
        }
        out[i] = label;
    }
}

/* Each face neighbour is the parent's words with the axis's field
 * replaced by target, found by a lower-bound binary search over the
 * word rows. */
void six_region(const uint64_t *words, const uint32_t *counts,
                const uint32_t *half_counts, int64_t m, int64_t n_words,
                int64_t d, int64_t width, int64_t position,
                const int64_t *bits, int64_t *center, int64_t *total) {
    int64_t per_word = 64 / width;
    uint64_t field = ((uint64_t)1 << width) - 1;
    int64_t parent_n = (int64_t)counts[position];
    int64_t w = 0;
    int64_t last = per_word < d ? per_word : d;
    for (int64_t axis = 0; axis < d; axis++) {
        if (axis == last) {
            w += 1;
            last += per_word;
            if (last > d) last = d;
        }
        int64_t shift = (last - 1 - axis) * width;
        int64_t coordinate =
            (int64_t)((words[position * n_words + w] >> shift) & field);
        int64_t neighbors = 0;
        for (int64_t delta = -1; delta <= 1; delta += 2) {
            int64_t target = coordinate + delta;
            if (target < 0 || target > (int64_t)field) continue;
            int64_t low = 0, high = m;
            while (low < high) {
                int64_t mid = (low + high) / 2;
                int comparison = 0;
                for (int64_t k = 0; k < n_words; k++) {
                    uint64_t b = words[position * n_words + k];
                    if (k == w)
                        b = (b & ~(field << shift))
                            | ((uint64_t)target << shift);
                    uint64_t a = words[mid * n_words + k];
                    if (a < b) { comparison = -1; break; }
                    if (a > b) { comparison = 1; break; }
                }
                if (comparison < 0) low = mid + 1; else high = mid;
            }
            if (low < m) {
                int equal = 1;
                for (int64_t k = 0; k < n_words; k++) {
                    uint64_t b = words[position * n_words + k];
                    if (k == w)
                        b = (b & ~(field << shift))
                            | ((uint64_t)target << shift);
                    if (words[low * n_words + k] != b) { equal = 0; break; }
                }
                if (equal) neighbors += (int64_t)counts[low];
            }
        }
        total[axis] = parent_n + neighbors;
        int64_t half = (int64_t)half_counts[position * d + axis];
        center[axis] = (bits[axis] == 0) ? half : parent_n - half;
    }
}

/* Upper tail P(X > t) for X ~ Binomial(n, p): log-space first term
 * plus multiplicative recurrence, terminating past the mode. */
static double binom_sf(int64_t n, double p, int64_t t) {
    if (t < 0) return 1.0;
    if (t >= n) return 0.0;
    double q = 1.0 - p;
    int64_t k = t + 1;
    double log_term = lgamma((double)n + 1.0) - lgamma((double)k + 1.0)
                    - lgamma((double)(n - k) + 1.0)
                    + (double)k * log(p) + (double)(n - k) * log(q);
    /* A subnormal first term would poison the recurrence (relative
     * error ~1e-6); left of the mode that means the left tail is
     * negligible and the upper tail is 1.0 to the last bit. */
    if (log_term < -708.0 && (double)k <= floor(((double)n + 1.0) * p))
        return 1.0;
    double term = exp(log_term);
    double total = term;
    double mean = (double)n * p;
    while (k < n) {
        term *= (double)(n - k) * p / (((double)k + 1.0) * q);
        k += 1;
        total += term;
        if (term <= total * SF_TOLERANCE && (double)k > mean) break;
    }
    return total;
}

void binom_thetas(const int64_t *totals, const double *probs, int64_t d,
                  double alpha, int64_t *thetas, uint8_t *flags) {
    for (int64_t axis = 0; axis < d; axis++) {
        int64_t n = totals[axis];
        double p = probs[axis];
        flags[axis] = 0;
        if (n <= 0) { thetas[axis] = 0; continue; }
        int64_t low;
        if (alpha < 0.4) {
            low = (int64_t)floor((double)n * p) - 2;
            if (low < -1) low = -1;
        } else {
            low = -1;
        }
        int64_t high = n;
        while (high - low > 1) {
            int64_t mid = (low + high) / 2;
            if (binom_sf(n, p, mid) <= alpha) high = mid; else low = mid;
        }
        thetas[axis] = high;
        double upper = binom_sf(n, p, high);
        double lower = binom_sf(n, p, high - 1);
        if (fabs(upper - alpha) <= SF_GUARD_BAND * alpha) flags[axis] = 1;
        if (fabs(lower - alpha) <= SF_GUARD_BAND * alpha) flags[axis] = 1;
    }
}
"""

_LOADED: dict[str, Any] | None = None
_UNAVAILABLE_REASON: str | None = None

_I64P = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_F64P = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_U8P = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")
_U64P = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
_U32P = np.ctypeslib.ndpointer(dtype=np.uint32, flags="C_CONTIGUOUS")


_NO_NORMALIZER = np.empty(0, dtype=np.float64)


def _norm_arrays(
    normalizer: Normalizer | None, d: int
) -> tuple[FloatArray, FloatArray]:
    """``(lo, span)`` for the C loop: empty when there is no map.

    The loop reads ``lo[k]``/``span[k]`` for every axis ``k < d``
    whenever their length is non-zero, so that length must be ``d``.
    """
    if normalizer is None:
        return _NO_NORMALIZER, _NO_NORMALIZER
    lo, span = normalizer
    if lo.shape != (d,) or span.shape != (d,):
        raise ValueError(
            f"normalizer {lo.shape}/{span.shape} does not match {d} axes"
        )
    return lo, span


def _compiler() -> str | None:
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


def _cflags(sanitize: bool) -> tuple[str, ...]:
    return _BASE_CFLAGS + (_SANITIZE_CFLAGS if sanitize else ())


def _compiler_identity(compiler: str) -> str:
    """First ``--version`` line, or the resolved path when it has none.

    Part of the content-address: a toolchain upgrade must miss the .so
    cache even when the C source is byte-identical, because the compiled
    artifact (instruction selection, libasan soname) is not.
    """
    try:
        probe = subprocess.run(
            [compiler, "--version"],
            capture_output=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        # A compiler that cannot even print its version will fail the
        # build proper with a captured reason; hash on the path alone.
        return compiler
    first_line = probe.stdout.decode(errors="replace").splitlines()
    return first_line[0].strip() if first_line else compiler


def _shared_object(compiler: str, sanitize: bool) -> Path:
    """Compile (once) into a content-addressed .so in the tmp dir.

    The address covers everything that shapes the artifact: the C
    source, the resolved compiler path, its ``--version`` banner, and
    the exact flag list — so sanitized builds, plain builds and builds
    by different toolchains each get their own cache slot.
    """
    flags = _cflags(sanitize)
    identity = "\x00".join(
        [_C_SOURCE, compiler, _compiler_identity(compiler), *flags]
    )
    digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16]
    cache_dir = Path(tempfile.gettempdir())
    target = cache_dir / f"repro_cext_{digest}.so"
    if target.exists():
        return target
    with tempfile.TemporaryDirectory(dir=cache_dir) as workdir:
        source = Path(workdir) / "repro_kernels.c"
        source.write_text(_C_SOURCE, encoding="utf-8")
        built = Path(workdir) / "repro_kernels.so"
        subprocess.run(
            [compiler, *flags, str(source), "-o", str(built), "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        # Atomic publish: concurrent processes race benignly to the
        # same content-addressed name.
        shutil.move(str(built), str(target))
    return target


def load() -> dict[str, Any]:
    """Bind the C kernels; raises ``ImportError`` with the build reason."""
    global _LOADED, _UNAVAILABLE_REASON
    if _LOADED is not None:
        return _LOADED
    if _UNAVAILABLE_REASON is not None:
        raise ImportError(_UNAVAILABLE_REASON)

    compiler = _compiler()
    if compiler is None:
        _UNAVAILABLE_REASON = "no C compiler (cc/gcc/clang) on PATH"
        raise ImportError(_UNAVAILABLE_REASON)
    sanitize = cext_sanitize_from_env()
    try:
        lib = ctypes.CDLL(str(_shared_object(compiler, sanitize)))
    except (OSError, subprocess.SubprocessError) as error:
        detail = ""
        if isinstance(error, subprocess.CalledProcessError):
            detail = f": {error.stderr.decode(errors='replace')[:500]}"
        _UNAVAILABLE_REASON = (
            f"C kernel build failed ({type(error).__name__}{detail})"
        )
        raise ImportError(_UNAVAILABLE_REASON) from error

    lib.cell_words.restype = None
    lib.cell_words.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _F64P, _F64P,
        ctypes.c_int64, ctypes.c_double, ctypes.c_int64, ctypes.c_int64,
        _U64P, _U64P,
    ]
    lib.half_counts.restype = None
    lib.half_counts.argtypes = [
        _U64P, ctypes.c_int64, ctypes.c_int64, _U32P, ctypes.c_int64,
        _I64P, _U32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _U32P,
    ]
    lib.level_responses.restype = None
    lib.level_responses.argtypes = [
        _U64P, _U32P, ctypes.c_int64, ctypes.c_int64, _U64P, _U32P,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64, _I64P,
    ]
    lib.box_scan.restype = ctypes.c_int64
    lib.box_scan.argtypes = [
        _U64P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, _I64P, _I64P, ctypes.c_int64, ctypes.c_int64, _I64P,
    ]
    lib.label_rows.restype = None
    lib.label_rows.argtypes = [
        _F64P, ctypes.c_int64, ctypes.c_int64, _F64P, _F64P, _I64P,
        ctypes.c_int64, _F64P, _F64P, ctypes.c_int64, ctypes.c_double, _I64P,
    ]
    lib.six_region.restype = None
    lib.six_region.argtypes = [
        _U64P, _U32P, _U32P, ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_int64, _I64P, _I64P, _I64P,
    ]
    lib.binom_thetas.restype = None
    lib.binom_thetas.argtypes = [
        _I64P, _F64P, ctypes.c_int64, ctypes.c_double, _I64P, _U8P,
    ]

    def cell_words(
        points: FloatArray,
        n_resolutions: int,
        normalizer: Normalizer | None = None,
    ) -> tuple[AnyArray, AnyArray]:
        n, d = points.shape
        if not 2 <= n_resolutions <= 32:
            raise ValueError(
                f"n_resolutions must lie in [2, 32] to bin into uint64 "
                f"cell words, got {n_resolutions}"
            )
        lo, span = _norm_arrays(normalizer, d)
        n_words = _field_layout(d, n_resolutions - 1)[0]
        n_parity = _field_layout(d, 1)[0]
        words = np.zeros((n, n_words), dtype=np.uint64)
        parity = np.zeros((n, n_parity), dtype=np.uint64)
        lib.cell_words(
            np.ascontiguousarray(points, dtype=np.float64), n, d,
            n_resolutions,
            np.ascontiguousarray(lo, dtype=np.float64),
            np.ascontiguousarray(span, dtype=np.float64),
            lo.shape[0], _BELOW_ONE, n_words, n_parity, words, parity,
        )
        return words, parity

    def half_counts(
        child_words: AnyArray,
        child_counts: AnyArray | None,
        starts: IntArray,
        counts: AnyArray,
        d: int,
        width: int,
    ) -> AnyArray:
        m, n_words = child_words.shape
        n_groups = counts.shape[0]
        weights = (
            np.empty(0, dtype=np.uint32) if child_counts is None else child_counts
        )
        # The C loop trusts these shapes for its indexing.
        if not (
            1 <= width <= 63
            and n_words >= _field_layout(d, width)[0]
            and starts.shape[0] == n_groups
            and weights.shape[0] in (0, m)
            and (n_groups > 0 or m == 0)
        ):
            raise ValueError(
                f"half_counts inputs do not match: {m} children in "
                f"{n_words} words, {weights.shape[0]} weights, "
                f"{starts.shape[0]} starts, {n_groups} groups, {d} axes "
                f"of width {width}"
            )
        out = np.empty((n_groups, d), dtype=np.uint32)
        lib.half_counts(
            np.ascontiguousarray(child_words, dtype=np.uint64), m, n_words,
            np.ascontiguousarray(weights, dtype=np.uint32), weights.shape[0],
            np.ascontiguousarray(starts, dtype=np.int64),
            np.ascontiguousarray(counts, dtype=np.uint32),
            n_groups, d, width, out,
        )
        return out

    def level_responses(level: Level, rows: IntArray) -> IntArray:
        m, n_words = level.words.shape
        # Gathered here, so every C subscript is a loop or search counter.
        row_words = level.words[rows]
        row_counts = level.n[rows]
        k_rows = row_words.shape[0]
        out = np.empty(k_rows, dtype=np.int64)
        lib.level_responses(
            np.ascontiguousarray(level.words, dtype=np.uint64),
            np.ascontiguousarray(level.n, dtype=np.uint32),
            m, n_words,
            np.ascontiguousarray(row_words, dtype=np.uint64),
            np.ascontiguousarray(row_counts, dtype=np.uint32),
            k_rows, level.d, level.width, out,
        )
        return out

    def box_scan(
        level: Level, lo: IntArray, hi: IntArray, start: int, stop: int
    ) -> IntArray:
        m, n_words = level.words.shape
        span = max(0, min(stop, m) - max(start, 0))
        out = np.empty(span, dtype=np.int64)
        if span == 0:
            return out
        found = lib.box_scan(
            np.ascontiguousarray(level.words, dtype=np.uint64), m, n_words,
            level.d, level.width,
            np.ascontiguousarray(lo, dtype=np.int64),
            np.ascontiguousarray(hi, dtype=np.int64),
            start, stop, out,
        )
        return out[:found]

    def label_rows(
        points: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
        box_group: IntArray,
        normalizer: Normalizer | None = None,
    ) -> IntArray:
        n, d = points.shape
        if lower.shape != (box_group.shape[0], d) or upper.shape != lower.shape:
            raise ValueError(
                f"box bounds {lower.shape}/{upper.shape} do not match "
                f"{box_group.shape[0]} boxes over {d} axes"
            )
        lo, span = _norm_arrays(normalizer, d)
        out = np.empty(n, dtype=np.int64)
        lib.label_rows(
            np.ascontiguousarray(points, dtype=np.float64), n, d,
            np.ascontiguousarray(lower, dtype=np.float64),
            np.ascontiguousarray(upper, dtype=np.float64),
            np.ascontiguousarray(box_group, dtype=np.int64),
            box_group.shape[0],
            np.ascontiguousarray(lo, dtype=np.float64),
            np.ascontiguousarray(span, dtype=np.float64),
            lo.shape[0], _BELOW_ONE, out,
        )
        return out

    def six_region(
        level: Level, row: int, bits: IntArray
    ) -> tuple[IntArray, IntArray]:
        m, n_words = level.words.shape
        d = level.d
        center = np.empty(d, dtype=np.int64)
        total = np.empty(d, dtype=np.int64)
        lib.six_region(
            np.ascontiguousarray(level.words, dtype=np.uint64),
            np.ascontiguousarray(level.n, dtype=np.uint32),
            np.ascontiguousarray(level.half_counts, dtype=np.uint32),
            m, n_words, d, level.width,
            row, np.ascontiguousarray(bits, dtype=np.int64),
            center, total,
        )
        return center, total

    def binom_thetas(
        totals: IntArray, probs: FloatArray, alpha: float
    ) -> tuple[IntArray, IntArray]:
        d = totals.shape[0]
        thetas = np.empty(d, dtype=np.int64)
        flags = np.zeros(d, dtype=np.uint8)
        lib.binom_thetas(
            np.ascontiguousarray(totals, dtype=np.int64),
            np.ascontiguousarray(probs, dtype=np.float64),
            d, float(alpha), thetas, flags,
        )
        return thetas, flags

    _LOADED = {
        "name": NAME,
        "compiled": COMPILED,
        "version": Path(compiler).name + ("+asan" if sanitize else ""),
        "cell_words": cell_words,
        "half_counts": half_counts,
        "level_responses": level_responses,
        "box_scan": box_scan,
        "label_rows": label_rows,
        "six_region": six_region,
        "binom_thetas": binom_thetas,
    }
    return _LOADED
