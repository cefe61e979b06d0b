"""Persisted MrCC models: save, load, and label against them.

A :class:`FittedModel` is the read path of the fit-once/label-many
estimator: everything phase 3 needs to label unseen points (β-cluster
boxes, their merged correlation-cluster grouping, the fitted
normalisation map) plus the phase-one Counting-tree levels, persisted
so the tree remains a reusable statistical index — diagnostics, refits
and future online updates read the same artifact the labellers serve
from.

:func:`save_model` writes the schema-versioned file described in
:mod:`repro.serve.store`; :func:`load_model` reconstitutes the model
either as process-private copies (``mmap=False``) or as read-only
``np.memmap`` views (the serving default), in which case any number of
worker processes share one page-cache copy of the level arrays.
Labels computed by a loaded model are bit-identical to the labels the
in-memory ``MrCC.fit`` produced — the serialization carries exact
float64/int64 bytes and the label path is the same
:func:`~repro.core.correlation_cluster.label_points` kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from repro import obs
from repro.core.beta_cluster import BetaCluster
from repro.core.contracts import ContractError, check_array, check_labels
from repro.core.correlation_cluster import (
    assemble_result,
    label_points,
    merge_beta_clusters,
)
from repro.core.counting_tree import (
    CountingTree,
    Level,
    _field_layout,
    tree_from_levels,
)
from repro.core.mrcc import MrCC
from repro.serve.store import ModelFormatError, read_model, write_model
from repro.types import ClusteringResult, FloatArray, IntArray

__all__ = [
    "FittedModel",
    "load_model",
    "model_from_estimator",
    "save_model",
]


@dataclass
class FittedModel:
    """One loaded (or about-to-be-saved) serving model.

    Attributes
    ----------
    meta:
        Scalar fit metadata (``alpha``, ``n_resolutions``, ``d``,
        ``n_points``, ``normalize``, producer version).
    betas:
        The β-cluster records, exactly as the fit produced them.
    groups:
        Merged correlation-cluster grouping (derived deterministically
        from ``betas`` at load, so it is never trusted from disk).
    levels:
        Counting-tree levels ``1 .. H-1``; possibly memmap-backed.
    normalizer:
        Fitted per-axis min-max ``(lo, span)``, or ``None`` when the
        model was fitted on data already in the unit cube.
    source:
        The file the model was loaded from, or ``None`` for in-memory
        models built straight from an estimator.
    """

    meta: dict[str, Any]
    betas: list[BetaCluster]
    groups: list[list[int]]
    levels: dict[int, Level]
    normalizer: tuple[FloatArray, FloatArray] | None
    source: Path | None = None

    @property
    def dimensionality(self) -> int:
        """Embedding dimensionality ``d``."""
        return int(self.meta["d"])

    @property
    def n_resolutions(self) -> int:
        """The paper's ``H``."""
        return int(self.meta["n_resolutions"])

    def tree(self) -> CountingTree:
        """The persisted phase-one Counting-tree (shares this model's
        level arrays — zero-copy over a memmap-backed model)."""
        return tree_from_levels(
            self.levels,
            self.dimensionality,
            int(self.meta["n_points"]),
            self.n_resolutions,
        )

    def label(self, points: FloatArray) -> IntArray:
        """Label one batch of raw query points (phase 3 only).

        Applies the model's fitted normalisation map (when present) and
        assigns each point to the correlation cluster whose member box
        contains it, :data:`~repro.types.NOISE_LABEL` otherwise —
        bit-identical to what ``MrCC.fit`` labelled for the training
        points.  Row-wise pure: labels never depend on how queries are
        batched.
        """
        points = np.asarray(points, dtype=np.float64)
        check_array("points", points, dtype=np.float64, ndim=2, finite=True)
        if points.shape[1] != self.dimensionality:
            raise ValueError(
                f"query points have {points.shape[1]} axes, the model "
                f"was fitted on {self.dimensionality}"
            )
        labels = label_points(points, self.betas, self.groups, self.normalizer)
        return check_labels("labels", labels, n_points=points.shape[0])

    def label_result(self, points: FloatArray) -> ClusteringResult:
        """Like :meth:`label` but wrapped as a full
        :class:`~repro.types.ClusteringResult` with cluster records."""
        return assemble_result(self.label(points), self.betas, self.groups)

    def label_stream(self, chunks: Iterable[FloatArray]) -> ClusteringResult:
        """Label a stream of chunks against the persisted grouping.

        Thin wrapper over :func:`repro.core.streaming.label_stream`
        with this model's precomputed groups and normalisation.
        """
        from repro.core.streaming import label_stream

        return label_stream(
            chunks, self.betas, groups=self.groups, normalizer=self.normalizer
        )


def model_from_estimator(estimator: MrCC) -> FittedModel:
    """Snapshot a fitted :class:`~repro.core.mrcc.MrCC` as a model.

    Raises ``ValueError`` when the estimator has not been fitted.
    """
    if estimator.tree_ is None or estimator.beta_clusters_ is None:
        raise ValueError("cannot snapshot an unfitted MrCC estimator")
    tree = estimator.tree_
    betas = list(estimator.beta_clusters_)
    meta = {
        "alpha": float(estimator.alpha),
        "n_resolutions": int(tree.n_resolutions),
        "d": int(tree.dimensionality),
        "n_points": int(tree.n_points),
        "normalize": bool(estimator.normalize),
        "n_betas": len(betas),
        "version": _package_version(),
    }
    return FittedModel(
        meta=meta,
        betas=betas,
        groups=merge_beta_clusters(betas),
        levels={h: tree.level(h) for h in tree.levels},
        normalizer=estimator.normalizer_,
    )


def _package_version() -> str:
    from repro import __version__

    return __version__


def save_model(model: FittedModel | MrCC, path: str | Path) -> Path:
    """Persist a fitted model (or estimator) to ``path``.

    The byte layout is deterministic — same model, same bytes — so the
    golden fixtures can assert byte stability.  Returns the path
    written.
    """
    if isinstance(model, MrCC):
        model = model_from_estimator(model)
    path = Path(path)

    arrays: list[tuple[str, np.ndarray]] = []
    if model.normalizer is not None:
        lo, span = model.normalizer
        arrays.append(("norm/lo", np.asarray(lo, dtype="<f8")))
        arrays.append(("norm/span", np.asarray(span, dtype="<f8")))

    d = model.dimensionality
    betas = model.betas
    arrays.extend(
        [
            ("betas/lower", _stack(betas, "lower", d, "<f8")),
            ("betas/upper", _stack(betas, "upper", d, "<f8")),
            ("betas/relevant", _stack(betas, "relevant", d, "|b1")),
            ("betas/relevances", _stack(betas, "relevances", d, "<f8")),
            (
                "betas/level",
                np.array([b.level for b in betas], dtype="<i8"),
            ),
            (
                "betas/center_row",
                np.array([b.center_row for b in betas], dtype="<i8"),
            ),
        ]
    )
    for h in sorted(model.levels):
        level = model.levels[h]
        arrays.append((f"level{h}/words", np.asarray(level.words, dtype="<u8")))
        arrays.append((f"level{h}/counts", np.asarray(level.n, dtype="<u4")))
        arrays.append(
            (f"level{h}/half_counts", np.asarray(level.half_counts, dtype="<u4"))
        )

    with obs.span("serve.save"):
        write_model(path, model.meta, arrays)
    obs.incr("serve.models_saved")
    return path


def _stack(
    betas: list[BetaCluster], field: str, d: int, dtype: str
) -> np.ndarray:
    rows = [np.asarray(getattr(b, field)) for b in betas]
    if not rows:
        return np.empty((0, d), dtype=dtype)
    return np.stack(rows).astype(dtype, copy=False)


_META_KEYS = frozenset(
    {"alpha", "n_resolutions", "d", "n_points", "normalize", "n_betas", "version"}
)


def load_model(path: str | Path, mmap: bool = True) -> FittedModel:
    """Load one model file into a :class:`FittedModel`.

    ``mmap=True`` keeps the level arrays as read-only memmap views —
    the per-worker resident cost of the tree is near zero and N
    processes opening the same file share one page-cache copy.  All
    structural facts (grouping, axis sets) are re-derived from the
    loaded β-clusters, never trusted from the header.

    Raises :class:`~repro.serve.store.ModelFormatError` on any missing,
    corrupt, truncated or version-skewed file.
    """
    path = Path(path)
    with obs.span("serve.load"):
        header, data = read_model(path, mmap=mmap)
        meta = header["meta"]
        if set(meta) != _META_KEYS:
            raise ModelFormatError(
                f"{path}: model meta keys mismatch: expected "
                f"{sorted(_META_KEYS)}, got {sorted(meta)}"
            )
        d = _meta_int(path, meta, "d", minimum=1)
        n_resolutions = _meta_int(path, meta, "n_resolutions", minimum=3)
        _meta_int(path, meta, "n_points", minimum=1)
        n_betas = _meta_int(path, meta, "n_betas", minimum=0)

        expected = _expected_arrays(meta, n_resolutions, header["schema"])
        if set(data) != set(expected):
            missing = sorted(set(expected) - set(data))
            extra = sorted(set(data) - set(expected))
            raise ModelFormatError(
                f"{path}: model arrays mismatch: missing {missing}, "
                f"unexpected {extra}"
            )

        betas = _betas_from_arrays(path, data, n_betas, d)
        if header["schema"] == 1:
            levels = _levels_from_v1_arrays(path, data, n_resolutions, d)
        else:
            levels = _levels_from_arrays(path, data, n_resolutions, d)
        normalizer = None
        if meta["normalize"]:
            lo, span = data["norm/lo"], data["norm/span"]
            if lo.shape != (d,) or span.shape != (d,):
                raise ModelFormatError(
                    f"{path}: normalizer arrays must have shape ({d},)"
                )
            normalizer = (np.asarray(lo), np.asarray(span))
        model = FittedModel(
            meta=dict(meta),
            betas=betas,
            groups=merge_beta_clusters(betas),
            levels=levels,
            normalizer=normalizer,
            source=path,
        )
    obs.incr("serve.models_loaded")
    return model


def _meta_int(path: Path, meta: dict[str, Any], key: str, minimum: int) -> int:
    value = meta.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ModelFormatError(
            f"{path}: model meta[{key!r}] must be an integer >= {minimum}, "
            f"got {value!r}"
        )
    return value


def _expected_arrays(
    meta: dict[str, Any], n_resolutions: int, schema: int
) -> list[str]:
    names = []
    if meta["normalize"]:
        names += ["norm/lo", "norm/span"]
    names += [
        "betas/lower",
        "betas/upper",
        "betas/relevant",
        "betas/relevances",
        "betas/level",
        "betas/center_row",
    ]
    fields = (
        ("coords", "counts", "half_counts", "keys")
        if schema == 1
        else ("words", "counts", "half_counts")
    )
    for h in range(1, n_resolutions):
        names += [f"level{h}/{name}" for name in fields]
    return names


def _betas_from_arrays(
    path: Path, data: dict[str, np.ndarray], n_betas: int, d: int
) -> list[BetaCluster]:
    shapes = {
        "betas/lower": (n_betas, d),
        "betas/upper": (n_betas, d),
        "betas/relevant": (n_betas, d),
        "betas/relevances": (n_betas, d),
        "betas/level": (n_betas,),
        "betas/center_row": (n_betas,),
    }
    for name, shape in shapes.items():
        if data[name].shape != shape:
            raise ModelFormatError(
                f"{path}: array {name!r} must have shape {shape}, got "
                f"{data[name].shape}"
            )
    betas = []
    for k in range(n_betas):
        betas.append(
            BetaCluster(
                lower=np.asarray(data["betas/lower"][k]),
                upper=np.asarray(data["betas/upper"][k]),
                relevant=np.asarray(data["betas/relevant"][k]),
                level=int(data["betas/level"][k]),
                center_row=int(data["betas/center_row"][k]),
                relevances=np.asarray(data["betas/relevances"][k]),
            )
        )
    return betas


def _levels_from_arrays(
    path: Path, data: dict[str, np.ndarray], n_resolutions: int, d: int
) -> dict[int, Level]:
    """Schema-v2 levels: the stored words and counts, as they are.

    Over a memmap the level arrays stay read-only views of the file.
    """
    width = n_resolutions - 1
    n_words = _field_layout(d, width)[0]
    levels: dict[int, Level] = {}
    for h in range(1, n_resolutions):
        words = data[f"level{h}/words"]
        counts = data[f"level{h}/counts"]
        halves = data[f"level{h}/half_counts"]
        m = words.shape[0]
        if words.dtype != np.uint64 or words.shape[1:] != (n_words,):
            raise ModelFormatError(
                f"{path}: level{h}/words must be (m, {n_words}) uint64, got "
                f"{words.shape} {words.dtype}"
            )
        if counts.dtype != np.uint32 or halves.dtype != np.uint32:
            raise ModelFormatError(
                f"{path}: level{h} counts/half_counts must be uint32"
            )
        _check_level_shapes(path, h, m, d, counts, halves)
        levels[h] = Level(
            h=h, width=width, words=words, n=counts, half_counts=halves
        )
    return levels


def _levels_from_v1_arrays(
    path: Path, data: dict[str, np.ndarray], n_resolutions: int, d: int
) -> dict[int, Level]:
    """Schema-v1 levels: int64 coordinates and counts, packed once.

    The coordinates are packed into the tree-wide ``H-1``-bit words and
    the counts narrowed to uint32; a coordinate off the level's grid or
    a count uint32 cannot hold is a corrupt file.  The stored void keys
    are not read: the oracle derives its own.
    """
    levels: dict[int, Level] = {}
    for h in range(1, n_resolutions):
        coords = data[f"level{h}/coords"]
        counts = data[f"level{h}/counts"]
        halves = data[f"level{h}/half_counts"]
        m = coords.shape[0]
        if coords.dtype != np.int64 or coords.ndim != 2 or coords.shape[1] != d:
            raise ModelFormatError(
                f"{path}: level{h}/coords must be (m, {d}) int64, got "
                f"{coords.shape} {coords.dtype}"
            )
        _check_level_shapes(path, h, m, d, counts, halves)
        try:
            levels[h] = Level.from_coords(
                h, coords, counts, halves, width=n_resolutions - 1
            )
        except ContractError as error:
            raise ModelFormatError(f"{path}: level{h}: {error}") from error
    return levels


def _check_level_shapes(
    path: Path, h: int, m: int, d: int, counts: np.ndarray, halves: np.ndarray
) -> None:
    if counts.shape != (m,) or halves.shape != (m, d):
        raise ModelFormatError(
            f"{path}: level{h} counts/half_counts rows disagree with "
            f"its {m} cells"
        )
    if m == 0:
        raise ModelFormatError(
            f"{path}: level{h} stores zero cells (a fitted tree "
            f"always has at least one populated cell per level)"
        )
