"""The model file store: one binary format, one module that touches it.

A *model file* is the durable serving artifact of a fitted MrCC
estimator: the Counting-tree level arrays (the key-sorted
structure-of-arrays layout every builder produces: packed uint64 cell
words and uint32 counts), the β-cluster records, the normalisation
parameters and the fit metadata.  The layout
is designed for ``np.memmap``: a tiny JSON header followed by raw
little-endian array sections, each aligned to 64 bytes, so N serving
workers can open the same file read-only and share one page cache copy
of the tree — near-zero per-worker resident set.

Layout (schema v2; v1 shares it)::

    offset 0   magic  b"REPROMDL"            (8 bytes)
    offset 8   header length, uint64 LE      (8 bytes)
    offset 16  JSON header, UTF-8            (header length bytes)
    ...        zero padding to the next 64-byte boundary
    data       array sections, each starting on a 64-byte boundary

The header is a JSON object with exactly five keys — ``schema``,
``generated_by`` (``"repro.serve"``), ``byte_order`` (``"little"``),
``meta`` (scalar fit metadata) and ``arrays`` (name, dtype string,
shape, offset relative to the data section, byte count per array).
Array offsets are relative to the data section — whose start the reader
derives as the first 64-byte boundary at or after the header — so the
header never has to describe its own length.

Schema v2 stores each tree level as ``level{h}/words`` (``<u8``,
``(m, n_words)``), ``level{h}/counts`` and ``level{h}/half_counts``
(``<u4``).  Schema v1 stored ``<i8`` coordinates and counts plus
``|V{4d}`` void keys; the reader still admits v1 files and
:func:`repro.serve.model.load_model` packs their coordinates into
words once.  The writer always writes the current schema.

Like ``obs.schema`` and the fabric journal, the format is strictly
validated: wrong magic, a foreign schema version, a non-little byte
order, an unexpected dtype, a truncated section or a malformed header
all raise :class:`ModelFormatError` naming the problem, never a raw
``struct``/numpy traceback.  Every ``open``/``np.memmap`` of a model
file in the package happens in this module (repro-lint rule R012
enforces the funnel).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import numpy as np

__all__ = [
    "MODEL_MAGIC",
    "MODEL_SCHEMA_VERSION",
    "READABLE_SCHEMAS",
    "ArraySection",
    "ModelFormatError",
    "read_model",
    "write_model",
]

MODEL_MAGIC = b"REPROMDL"
MODEL_SCHEMA_VERSION = 2

READABLE_SCHEMAS = frozenset({1, 2})
"""Schema versions :func:`read_model` accepts: the current one and v1."""

_ALIGNMENT = 64
"""Array sections start on cache-line boundaries so memmapped views are
aligned for every dtype the format carries."""

_HEADER_KEYS = frozenset({"schema", "generated_by", "byte_order", "meta", "arrays"})
_ARRAY_KEYS = frozenset({"name", "dtype", "shape", "offset", "nbytes"})

_SCALAR_DTYPES = frozenset({"<i8", "<u8", "<u4", "<f8", "|b1"})
"""Fixed little-endian dtypes the format admits, plus ``|V{n}`` void
rows for the packed cell keys of v1 files (validated separately)."""


class ModelFormatError(ValueError):
    """A model file is missing, corrupt, truncated or version-skewed."""


def _fail(message: str) -> None:
    raise ModelFormatError(message)


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def _dtype_token(dtype: np.dtype) -> str:
    """Canonical header token for an admissible array dtype."""
    if dtype.kind == "V" and dtype.names is None:
        return f"|V{dtype.itemsize}"
    token = dtype.str
    if token == "|i8" or token == "=i8":  # pragma: no cover - platform spelling
        token = "<i8"
    if token not in _SCALAR_DTYPES:
        raise ModelFormatError(
            f"model arrays must be little-endian int64/uint64/uint32/"
            f"float64/bool or void keys, got dtype {dtype.str!r}"
        )
    return token


def _parse_dtype(token: str, name: str) -> np.dtype:
    """Validated numpy dtype for one header dtype token."""
    if not isinstance(token, str):
        _fail(f"array {name!r}: dtype must be a string, got {token!r}")
    if token in _SCALAR_DTYPES:
        return np.dtype(token)
    if token.startswith("|V"):
        try:
            width = int(token[2:])
        except ValueError:
            width = 0
        if width > 0:
            return np.dtype((np.void, width))
    _fail(
        f"array {name!r}: dtype {token!r} is not an admissible model "
        f"dtype (little-endian <i8/<u8/<u4/<f8, |b1, or |V<width> keys); a "
        f"big-endian or foreign dtype means the file was written by an "
        f"incompatible producer"
    )
    raise AssertionError("unreachable")


class ArraySection:
    """One named array inside a model file (header row + data view)."""

    def __init__(self, name: str, array: np.ndarray) -> None:
        self.name = name
        self.array = np.ascontiguousarray(array)
        self.dtype_token = _dtype_token(self.array.dtype)

    @property
    def nbytes(self) -> int:
        return int(self.array.nbytes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(int(s) for s in self.array.shape)


def write_model(
    path: str | Path,
    meta: Mapping[str, Any],
    arrays: list[tuple[str, np.ndarray]],
) -> None:
    """Write one model file atomically (tmp file + rename).

    ``meta`` must be JSON-scalar valued; ``arrays`` is an ordered list
    of ``(name, array)`` pairs — the order is preserved and becomes part
    of the byte-stable layout, so two writes of the same model are
    byte-identical (the golden-model fixtures assert it).
    """
    path = Path(path)
    sections = [ArraySection(name, array) for name, array in arrays]
    names = [section.name for section in sections]
    if len(set(names)) != len(names):
        raise ModelFormatError(f"duplicate array names in model: {names}")
    for key, value in meta.items():
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            raise ModelFormatError(
                f"meta[{key!r}] must be a JSON scalar, "
                f"got {type(value).__name__}"
            )

    rows = []
    offset = 0
    for section in sections:
        offset = _align(offset)
        rows.append(
            {
                "name": section.name,
                "dtype": section.dtype_token,
                "shape": list(section.shape),
                "offset": offset,
                "nbytes": section.nbytes,
            }
        )
        offset += section.nbytes

    header = {
        "schema": MODEL_SCHEMA_VERSION,
        "generated_by": "repro.serve",
        "byte_order": "little",
        "meta": dict(meta),
        "arrays": rows,
    }
    header_bytes = json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    data_start = _align(len(MODEL_MAGIC) + 8 + len(header_bytes))

    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(MODEL_MAGIC)
        handle.write(len(header_bytes).to_bytes(8, "little"))
        handle.write(header_bytes)
        handle.write(b"\x00" * (data_start - 16 - len(header_bytes)))
        cursor = 0
        for section, row in zip(sections, rows):
            handle.write(b"\x00" * (row["offset"] - cursor))
            handle.write(section.array.tobytes())
            cursor = row["offset"] + row["nbytes"]
        handle.flush()
    tmp.replace(path)


def _validate_header(payload: Any, path: Path) -> dict[str, Any]:
    if not isinstance(payload, dict):
        _fail(f"{path}: model header must be a JSON object")
    if set(payload) != _HEADER_KEYS:
        _fail(
            f"{path}: model header keys mismatch: expected "
            f"{sorted(_HEADER_KEYS)}, got {sorted(payload)}"
        )
    if payload["schema"] not in READABLE_SCHEMAS or isinstance(
        payload["schema"], bool
    ):
        _fail(
            f"{path}: model schema must be one of "
            f"{sorted(READABLE_SCHEMAS)}, got {payload['schema']!r} "
            f"(written by an incompatible version)"
        )
    if payload["generated_by"] != "repro.serve":
        _fail(
            f"{path}: generated_by must be 'repro.serve', "
            f"got {payload['generated_by']!r}"
        )
    if payload["byte_order"] != "little":
        _fail(
            f"{path}: model byte order must be 'little', got "
            f"{payload['byte_order']!r} (cross-endian files are rejected)"
        )
    if not isinstance(payload["meta"], dict):
        _fail(f"{path}: model meta must be an object")
    rows = payload["arrays"]
    if not isinstance(rows, list):
        _fail(f"{path}: model arrays must be a list")
    seen: set[str] = set()
    previous_end = 0
    for index, row in enumerate(rows):
        if not isinstance(row, dict) or set(row) != _ARRAY_KEYS:
            _fail(
                f"{path}: arrays[{index}] keys mismatch: expected "
                f"{sorted(_ARRAY_KEYS)}"
            )
        name = row["name"]
        if not isinstance(name, str) or not name:
            _fail(f"{path}: arrays[{index}].name must be a non-empty string")
        if name in seen:
            _fail(f"{path}: duplicate array name {name!r}")
        seen.add(name)
        dtype = _parse_dtype(row["dtype"], name)
        shape = row["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0
            for s in shape
        ):
            _fail(f"{path}: array {name!r} shape must be non-negative ints")
        expected_nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        offset, nbytes = row["offset"], row["nbytes"]
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            _fail(f"{path}: array {name!r} offset must be a non-negative int")
        if nbytes != expected_nbytes:
            _fail(
                f"{path}: array {name!r} declares {nbytes!r} bytes but "
                f"shape {shape} x {row['dtype']} needs {expected_nbytes}"
            )
        if offset % _ALIGNMENT:
            _fail(f"{path}: array {name!r} offset {offset} is unaligned")
        if offset < previous_end:
            _fail(f"{path}: array {name!r} overlaps the previous section")
        previous_end = offset + nbytes
    return payload


def read_model(
    path: str | Path, mmap: bool = True
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Read one model file: ``(header, name -> array)``.

    ``mmap=True`` (the serving default) maps the data section read-only
    with :class:`np.memmap`, so the returned arrays are OS-shared pages
    — concurrent readers of the same file pay for the tree once.
    ``mmap=False`` copies every array into process-private memory and
    releases the file immediately (the fit/tooling path).

    Raises :class:`ModelFormatError` for anything that is not a valid
    model file of a readable schema, including a vanished or truncated
    file.
    """
    path = Path(path)
    try:
        file_size = path.stat().st_size
        with path.open("rb") as handle:
            prefix = handle.read(16)
            if len(prefix) < 16:
                _fail(f"{path}: truncated model file ({file_size} bytes)")
            if prefix[:8] != MODEL_MAGIC:
                _fail(
                    f"{path}: bad magic {prefix[:8]!r} "
                    f"(not a repro model file)"
                )
            header_len = int.from_bytes(prefix[8:16], "little")
            if 16 + header_len > file_size:
                _fail(
                    f"{path}: truncated model header (declares "
                    f"{header_len} bytes, file has {file_size})"
                )
            header_bytes = handle.read(header_len)
        try:
            payload = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            _fail(f"{path}: corrupt model header (not valid JSON)")
        payload = _validate_header(payload, path)
        data_start = _align(16 + header_len)

        arrays: dict[str, np.ndarray] = {}
        buffer: np.ndarray | None = None
        for row in payload["arrays"]:
            dtype = _parse_dtype(row["dtype"], row["name"])
            shape = tuple(row["shape"])
            start = data_start + row["offset"]
            end = start + row["nbytes"]
            if end > file_size:
                _fail(
                    f"{path}: truncated model file (array "
                    f"{row['name']!r} needs bytes [{start}, {end}), file "
                    f"has {file_size})"
                )
            if row["nbytes"] == 0:
                arrays[row["name"]] = np.empty(shape, dtype=dtype)
                continue
            if buffer is None:
                if mmap:
                    buffer = np.memmap(path, dtype=np.uint8, mode="r")
                else:
                    buffer = np.frombuffer(path.read_bytes(), dtype=np.uint8)
            view = buffer[start:end].view(dtype).reshape(shape)
            arrays[row["name"]] = view if mmap else view.copy()
        return payload, arrays
    except OSError as error:
        raise ModelFormatError(
            f"{path}: model file unreadable ({error.__class__.__name__}: "
            f"{error})"
        ) from error
