"""Pluggable compute backends for the MrCC hot-path kernels.

The measured bottlenecks of a fit and of serving run through one of two
interchangeable backends, six entry points each:

* the Counting-tree build — ``cell_words`` bins the points (unit-box
  points, or raw points it maps through a fitted min-max
  ``normalizer`` as it reads them) and packs each row's level ``H-1``
  cell word and parity word, and
  ``half_counts`` turns group-ordered child words into the half-space
  counts ``P[j]`` of every level;
* the Laplacian convolution responses (``level_responses``) and the
  six-region binomial significance test (``six_region`` and
  ``binom_thetas``), on the key-ordered
  :class:`~repro.core.counting_tree.Level` itself (the cext kernels
  read its packed cell words and uint32 counts, the numpy oracle the
  void keys and coordinates it derives from them);
* the labelling pass that assigns each point its correlation cluster
  (``label_rows``), on the points — mapped through the same optional
  ``normalizer`` — and the β-boxes flattened in group order.

The two backends are:

``numpy``
    The vectorised reference implementation and the reproduction's
    **bit-identity oracle** (:mod:`repro.core.kernels.reference`).
    Always available; always correct.
``cext``
    The one compiled backend: the loop bodies of
    :mod:`repro.core.kernels.loops` as C, compiled on first use with
    the system C compiler (:mod:`repro.core.kernels.cext_backend`).

Selection is driven by ``REPRO_BACKEND`` (parsed by
:func:`repro.env.backend_from_env`): ``auto`` — the default — picks
cext when it builds and numpy otherwise; naming a backend demands exactly
that one and raises a :class:`BackendUnavailableError` carrying the
probe's reason when it cannot load.  The oracle policy is structural:
compiled backends either compute integer quantities exactly (cell
words, half-space counts, responses, region counts), repeat the
oracle's float arithmetic and comparisons exactly (binning, labelling),
or flag borderline binomial tails back to the scipy
oracle, so every backend yields bit-identical clusterings and
obs counter streams — the cross-backend equivalence suite and the
golden traces assert it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro import env
from repro.core.counting_tree import Level
from repro.core.kernels import cext_backend, reference
from repro.types import AnyArray, FloatArray, IntArray, Normalizer

__all__ = [
    "Backend",
    "BackendUnavailableError",
    "active_backend",
    "available_backends",
    "backend_info",
    "get_backend",
    "reset_backends",
    "warm_up",
]


class BackendUnavailableError(RuntimeError):
    """A named backend cannot load on this machine (reason included)."""


class _SixRegionKernel(Protocol):
    def __call__(
        self, level: Level, row: int, bits: IntArray
    ) -> tuple[IntArray, IntArray]: ...


class _CellWordsKernel(Protocol):
    def __call__(
        self,
        points: FloatArray,
        n_resolutions: int,
        normalizer: Normalizer | None = None,
    ) -> tuple[AnyArray, AnyArray]: ...


class _LabelRowsKernel(Protocol):
    def __call__(
        self,
        points: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
        box_group: IntArray,
        normalizer: Normalizer | None = None,
    ) -> IntArray: ...


class _HalfCountsKernel(Protocol):
    def __call__(
        self,
        child_words: AnyArray,
        child_counts: AnyArray | None,
        starts: IntArray,
        counts: AnyArray,
        d: int,
        width: int,
    ) -> AnyArray: ...


class _BinomThetasKernel(Protocol):
    def __call__(
        self, totals: IntArray, probs: FloatArray, alpha: float
    ) -> tuple[IntArray, IntArray]: ...


@dataclass(frozen=True)
class Backend:
    """One loaded backend: metadata plus the six kernel entry points."""

    name: str
    compiled: bool
    version: str
    cell_words: _CellWordsKernel
    half_counts: _HalfCountsKernel
    level_responses: Callable[[Level, IntArray], IntArray]
    label_rows: _LabelRowsKernel
    six_region: _SixRegionKernel
    binom_thetas: _BinomThetasKernel


def _load_numpy() -> Backend:
    return Backend(
        name=reference.NAME,
        compiled=reference.COMPILED,
        version=reference.version(),
        cell_words=reference.cell_words,
        half_counts=reference.half_counts,
        level_responses=reference.level_responses,
        label_rows=reference.label_rows,
        six_region=reference.six_region,
        binom_thetas=reference.binom_thetas,
    )


def _load_cext() -> Backend:
    return Backend(**cext_backend.load())  # type: ignore[arg-type]


_LOADERS: dict[str, Callable[[], Backend]] = {
    "numpy": _load_numpy,
    "cext": _load_cext,
}

_AUTO_ORDER = ("cext", "numpy")

_loaded: dict[str, Backend] = {}
_probe_failures: dict[str, str] = {}
_active: tuple[str, Backend] | None = None


def get_backend(name: str) -> Backend:
    """Load backend ``name``, raising with the probe reason on failure."""
    if name in _loaded:
        return _loaded[name]
    if name not in _LOADERS:
        raise BackendUnavailableError(
            f"unknown backend {name!r}; expected one of "
            f"{'/'.join(sorted(_LOADERS))}"
        )
    if name in _probe_failures:
        raise BackendUnavailableError(
            f"backend {name!r} is unavailable: {_probe_failures[name]}"
        )
    try:
        backend = _LOADERS[name]()
    except ImportError as error:
        _probe_failures[name] = str(error) or "import failed"
        raise BackendUnavailableError(
            f"backend {name!r} is unavailable: {_probe_failures[name]}"
        ) from error
    _loaded[name] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Names of the backends that load on this machine, probe order."""
    names = []
    for name in _AUTO_ORDER:
        try:
            get_backend(name)
        except BackendUnavailableError:
            continue
        names.append(name)
    return tuple(names)


def active_backend() -> Backend:
    """The backend the ``REPRO_BACKEND`` knob selects (cached).

    ``auto`` degrades from cext to numpy; an explicit name must
    load or the error names the backend and the reason.  The resolution
    is cached per requested value, so flipping the environment variable
    mid-process takes effect on the next kernel call.
    """
    global _active
    requested = env.backend_from_env()
    if _active is not None and _active[0] == requested:
        return _active[1]
    if requested == "auto":
        backend: Backend | None = None
        for name in _AUTO_ORDER:
            try:
                backend = get_backend(name)
            except BackendUnavailableError:
                continue
            break
        assert backend is not None  # numpy always loads
    else:
        backend = get_backend(requested)
    _active = (requested, backend)
    return backend


def reset_backends() -> None:
    """Forget probe results and the active selection (test hook)."""
    global _active
    _active = None
    _loaded.clear()
    _probe_failures.clear()


def backend_info() -> dict[str, object]:
    """Metadata about the active backend, for benchmarks and traces."""
    backend = active_backend()
    return {
        "requested": env.backend_from_env(),
        "name": backend.name,
        "compiled": backend.compiled,
        "version": backend.version,
        "available": list(available_backends()),
    }


def warm_up(backend: Backend) -> None:
    """Exercise every kernel once on tiny inputs (build warm-up).

    Benchmarks call this before timing so one-off compilation cost is
    reported separately instead of polluting the measured runs.
    """
    level = Level.from_coords(
        1,
        np.array([[0, 0], [0, 1], [1, 1]], dtype=np.int64),
        np.array([2, 3, 4], dtype=np.uint32),
        np.array([[1, 1], [2, 1], [2, 2]], dtype=np.uint32),
    )
    words, parity = backend.cell_words(
        np.array([[0.1, 0.6], [0.9, 0.3]], dtype=np.float64), 3
    )
    backend.half_counts(
        parity,
        None,
        np.array([0, 1], dtype=np.int64),
        np.array([1, 1], dtype=np.uint32),
        2,
        1,
    )
    backend.half_counts(
        words,
        np.array([2, 3], dtype=np.uint32),
        np.array([0], dtype=np.int64),
        np.array([5], dtype=np.uint32),
        2,
        2,
    )
    backend.level_responses(level, np.array([0, 2], dtype=np.int64))
    backend.label_rows(
        np.array([[0.25, 0.5], [0.75, 0.5]], dtype=np.float64),
        np.array([[0.0, 0.0], [0.5, 0.0]], dtype=np.float64),
        np.array([[0.5, 1.0], [1.0, 1.0]], dtype=np.float64),
        np.array([0, 1], dtype=np.int64),
    )
    backend.six_region(level, 1, np.array([0, 1], dtype=np.int64))
    backend.binom_thetas(
        np.array([30, 0], dtype=np.int64),
        np.array([1.0 / 6.0, 1.0 / 6.0], dtype=np.float64),
        1e-10,
    )
