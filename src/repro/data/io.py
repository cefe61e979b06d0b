"""Dataset file I/O: CSV and NPZ round-trips.

Downstream users bring their own feature matrices; these helpers load
them (with optional label columns and min-max normalisation) and save
generated datasets — ground truth included — so experiments can be
shared and replayed byte-for-byte.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from repro.data.normalize import minmax_normalize
from repro.types import Dataset, records_from_labels


def load_points_csv(
    path: str | Path,
    delimiter: str = ",",
    skip_header: bool = True,
    label_column: int | None = None,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Load a feature matrix (and optional label column) from CSV.

    Returns ``(points, labels)``; ``labels`` is ``None`` unless
    ``label_column`` selects one (negative indices count from the end).
    """
    path = Path(path)
    rows: list[list[str]] = []
    lines: list[int] = []
    width: int | None = None
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for i, row in enumerate(reader):
            if i == 0 and skip_header:
                continue
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{reader.line_num}: ragged row with "
                    f"{len(row)} columns, expected {width}"
                )
            rows.append(row)
            lines.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path} holds no data rows")

    raw = np.asarray(rows, dtype=object)
    labels = None
    if label_column is not None:
        column = label_column % raw.shape[1]
        labels = _parse_column(
            raw[:, column], lines, path, column, np.int64, "integer label"
        )
        raw = np.delete(raw, column, axis=1)
    columns = [
        _parse_column(raw[:, j], lines, path, j, np.float64, "numeric value")
        for j in range(raw.shape[1])
    ]
    points = np.stack(columns, axis=1) if columns else raw.astype(np.float64)
    bad = ~np.isfinite(points)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(
            f"{path}:{lines[i]}: non-finite value {points[i, j]!r} in "
            f"column {j} (NaN/inf cells are not valid feature values)"
        )
    if normalize:
        points = minmax_normalize(points)
    return points, labels


def _parse_column(
    values: np.ndarray,
    lines: list[int],
    path: Path,
    column: int,
    dtype: type,
    expected: str,
) -> np.ndarray:
    """Parse one CSV column, pointing at the offending cell on failure.

    A bulk ``astype`` over the whole matrix would report a raw NumPy
    conversion error with no location; parsing per column keeps the
    fast path vectorised while a failure is re-walked cell by cell to
    name the file, line and column.
    """
    try:
        return values.astype(dtype)
    except (ValueError, OverflowError):
        for i, cell in enumerate(values):
            try:
                dtype(cell)
            except (ValueError, OverflowError):
                raise ValueError(
                    f"{path}:{lines[i]}: expected {expected} in column "
                    f"{column}, got {str(cell)!r}"
                ) from None
        raise


def save_dataset_npz(dataset: Dataset, path: str | Path) -> None:
    """Persist a dataset with its full ground truth to ``.npz``."""
    path = Path(path)
    axes_arrays = [
        np.asarray(sorted(cluster.relevant_axes), dtype=np.int64)
        for cluster in dataset.clusters
    ]
    payload = {
        "points": dataset.points,
        "labels": dataset.labels,
        "name": np.asarray(dataset.name),
        "n_clusters": np.asarray(len(dataset.clusters)),
    }
    for k, axes in enumerate(axes_arrays):
        payload[f"axes_{k}"] = axes
    np.savez_compressed(path, **payload)


def load_dataset_npz(path: str | Path) -> Dataset:
    """Load a dataset previously saved by :func:`save_dataset_npz`."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        points = archive["points"]
        labels = archive["labels"]
        name = str(archive["name"])
        n_clusters = int(archive["n_clusters"])
        clusters = records_from_labels(
            labels, [archive[f"axes_{k}"] for k in range(n_clusters)]
        )
    return Dataset(points=points, labels=labels, clusters=clusters, name=name)
