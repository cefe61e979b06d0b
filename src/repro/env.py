"""Single home for the reproduction's environment knobs.

Several environment variables steer the package without changing any
result row: ``REPRO_JOBS`` (worker count for the experiment fan-out and
the sharded Counting-tree build), ``REPRO_BACKEND`` (compute backend
for the hot-path kernels — see :mod:`repro.core.kernels`),
``REPRO_CEXT_SANITIZE`` (rebuild the C backend under ASan/UBSan),
``REPRO_PROFILE`` (``quick``/``full`` tuning grids), ``REPRO_CONTRACTS``
(toggle for the O(n) data-scan half of the runtime contracts),
``REPRO_TRACE`` (the observability layer: off, on, or on plus a JSON
export path), the fabric knobs ``REPRO_RETRIES`` /
``REPRO_TASK_TIMEOUT`` / ``REPRO_BACKOFF`` / ``REPRO_FAULTS`` (per-cell
retry budget, per-attempt deadline in seconds, exponential-backoff base
and the deterministic fault-injection spec consumed by
``repro.fabric``) and the serving knobs ``REPRO_MODEL_DIR`` /
``REPRO_SERVE_BATCH`` / ``REPRO_SERVE_DELAY`` / ``REPRO_SERVE_CACHE``
(model lookup directory, micro-batch point budget, batching delay
window and per-process model LRU capacity for ``repro.serve``).  Every read goes through this module so that bad
values produce one friendly, named error instead of a raw ``int()``
traceback, and so the static layer can enforce the funnel:
``repro_lint`` rule R007 flags ``os.environ`` access anywhere else in
the package, and the ``repro_analyze`` purity pass treats these helpers
as the only sanctioned ambient reads.
"""

from __future__ import annotations

import os

__all__ = [
    "KNOWN_BACKENDS",
    "backend_from_env",
    "backoff_from_env",
    "cext_sanitize_from_env",
    "contracts_from_env",
    "faults_from_env",
    "heartbeat_from_env",
    "jobs_from_env",
    "model_dir_from_env",
    "profile_from_env",
    "propagate_trace_env",
    "retries_from_env",
    "serve_batch_from_env",
    "serve_cache_from_env",
    "serve_delay_from_env",
    "task_timeout_from_env",
    "trace_from_env",
]

_TRUE_VALUES = frozenset({"1", "true", "on", "yes"})
_FALSE_VALUES = frozenset({"0", "false", "off", "no"})


def _int_from_env(
    name: str, default: int, *, positive: bool, noun: str, example: int
) -> int:
    """Integer knob ``name``: at least 1 when ``positive``, else at least 0.

    Unset or blank means ``default``; anything else that is not such an
    integer raises a ``ValueError`` naming the variable, the expected
    ``noun`` with an ``example`` setting, and the offending value.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    kind = "positive" if positive else "non-negative"
    error = ValueError(
        f"{name} must be a {kind} integer {noun} (e.g. {name}={example}), "
        f"got {raw!r}"
    )
    try:
        value = int(raw)
    except ValueError:
        raise error from None
    if value < (1 if positive else 0):
        raise error
    return value


def _seconds_from_env(
    name: str,
    default: float,
    *,
    positive: bool,
    noun: str,
    example: str,
    off: bool = False,
) -> float:
    """Seconds knob ``name``: above 0 when ``positive``, else at least 0.

    Unset or blank means ``default``; with ``off``, a false value
    (``0/false/off/no``) reads as ``0.0``.  Anything else that is not
    such a number raises a ``ValueError`` like :func:`_int_from_env`'s.
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    if off and raw.lower() in _FALSE_VALUES:
        return 0.0
    kind = "positive" if positive else "non-negative"
    error = ValueError(
        f"{name} must be a {kind} {noun} (e.g. {name}={example}), got {raw!r}"
    )
    try:
        seconds = float(raw)
    except ValueError:
        raise error from None
    if seconds <= 0 if positive else seconds < 0:
        raise error
    return seconds


def _flag_from_env(name: str, default: bool) -> bool:
    """Boolean knob ``name``: ``1/true/on/yes`` or ``0/false/off/no``.

    Case-insensitive; unset or blank means ``default``.
    """
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return default
    if raw in _TRUE_VALUES:
        return True
    if raw in _FALSE_VALUES:
        return False
    raise ValueError(
        f"{name} must be one of 1/0, true/false, on/off, yes/no; got {raw!r}"
    )


def jobs_from_env(default: int = 1) -> int:
    """Worker count for the experiment fan-out (``REPRO_JOBS``).

    Unset or blank means ``default`` (serial).  Anything that is not a
    positive integer raises a ``ValueError`` naming the variable and
    the offending value.
    """
    return _int_from_env(
        "REPRO_JOBS", default, positive=True, noun="worker count", example=4
    )


def profile_from_env(default: str = "quick") -> str:
    """Active tuning profile (``REPRO_PROFILE``): ``quick`` or ``full``."""
    profile = os.environ.get("REPRO_PROFILE", "").strip() or default
    if profile not in ("quick", "full"):
        raise ValueError(
            f"REPRO_PROFILE must be 'quick' or 'full', got {profile!r}"
        )
    return profile


KNOWN_BACKENDS = ("auto", "numpy", "cext")
"""Values ``REPRO_BACKEND`` accepts; everything else is a named error."""


def backend_from_env(default: str = "auto") -> str:
    """Requested compute backend for the hot-path kernels (``REPRO_BACKEND``).

    ``auto`` (the default) lets :mod:`repro.core.kernels` pick the
    compiled C extension when it builds on this machine and numpy
    otherwise; ``numpy`` forces the bit-identity oracle; ``cext``
    demands the compiled backend and fails loudly at selection time
    when it is unavailable.  Values are case-insensitive and
    whitespace-tolerant; unset or blank means ``default``.
    """
    raw = os.environ.get("REPRO_BACKEND", "").strip().lower()
    if not raw:
        return default
    if raw not in KNOWN_BACKENDS:
        raise ValueError(
            f"REPRO_BACKEND must be one of {'/'.join(KNOWN_BACKENDS)} "
            f"(e.g. REPRO_BACKEND=cext), got {raw!r}"
        )
    return raw


def contracts_from_env(default: bool = True) -> bool:
    """Whether the O(n) data-scan contracts are on (``REPRO_CONTRACTS``).

    Accepts ``1/true/on/yes`` and ``0/false/off/no`` (case-insensitive);
    unset or blank means ``default``.
    """
    return _flag_from_env("REPRO_CONTRACTS", default)


def cext_sanitize_from_env(default: bool = False) -> bool:
    """Whether the C backend builds under ASan/UBSan (``REPRO_CEXT_SANITIZE``).

    A true value rebuilds the shared object with
    ``-fsanitize=address,undefined -fno-omit-frame-pointer`` so the
    kernel and streaming suites can run the transliterated loops under
    the sanitizers; the flags participate in the content-address, so
    sanitized and plain builds never collide in the cache.  Accepts
    ``1/true/on/yes`` and ``0/false/off/no`` (case-insensitive); unset
    or blank means ``default``.
    """
    return _flag_from_env("REPRO_CEXT_SANITIZE", default)


def trace_from_env(default: str | None = None) -> str | None:
    """Observability toggle/export target (``REPRO_TRACE``).

    Three shapes, mirroring the knob's documentation:

    * unset, blank or a false value (``0/false/off/no``) — tracing off,
      returns ``default`` (``None``);
    * a true value (``1/true/on/yes``) — tracing on with no automatic
      export; returns ``""``;
    * anything else is an export path — tracing on, and the CLI writes
      the JSON trace there on exit; returns the path unchanged.
    """
    raw = os.environ.get("REPRO_TRACE", "").strip()
    if not raw:
        return default
    lowered = raw.lower()
    if lowered in _FALSE_VALUES:
        return None
    if lowered in _TRUE_VALUES:
        return ""
    return raw


def retries_from_env(default: int = 0) -> int:
    """Retry budget per experiment cell (``REPRO_RETRIES``).

    A cell is attempted ``1 + retries`` times before its failure becomes
    a structured error row.  Unset or blank means ``default`` (no
    retries); anything that is not a non-negative integer raises a
    ``ValueError`` naming the variable and the offending value.
    """
    return _int_from_env(
        "REPRO_RETRIES", default, positive=False, noun="retry count", example=2
    )


def task_timeout_from_env(default: float | None = None) -> float | None:
    """Per-attempt deadline in seconds (``REPRO_TASK_TIMEOUT``).

    Unset, blank, ``0`` or a false value (``off``/``no``/``false``)
    means ``default`` (no deadline).  Anything else must be a positive
    number of seconds (fractions allowed).
    """
    seconds = _seconds_from_env(
        "REPRO_TASK_TIMEOUT",
        0.0,
        positive=True,
        noun="number of seconds",
        example="300",
        off=True,
    )
    return seconds or default


def backoff_from_env(default: float = 0.05) -> float:
    """Exponential-backoff base in seconds (``REPRO_BACKOFF``).

    Retry ``k`` of a cell sleeps ``backoff * 2**(k-1)`` seconds (plus a
    small deterministic jitter derived from the cell key).  Unset or
    blank means ``default``; the value must be a non-negative number.
    """
    return _seconds_from_env(
        "REPRO_BACKOFF",
        default,
        positive=False,
        noun="number of seconds",
        example="0.5",
    )


def faults_from_env(default: str = "") -> str:
    """Raw deterministic fault-injection spec (``REPRO_FAULTS``).

    The grammar (``kind:match:cell[:attempts]``, comma-separated) is
    owned by :mod:`repro.fabric.faults`; this helper only funnels
    the ambient read so R007 keeps every ``os.environ`` access here.
    """
    return os.environ.get("REPRO_FAULTS", "").strip() or default


def heartbeat_from_env(default: float = 5.0) -> float:
    """Fabric heartbeat interval in seconds (``REPRO_HEARTBEAT``).

    A journaled run appends a liveness heartbeat (progress counts for
    ``fabric status``) every this-many seconds.  Unset or blank means
    ``default``; ``0`` or any false value disables heartbeats; the
    value must otherwise be a non-negative number.
    """
    return _seconds_from_env(
        "REPRO_HEARTBEAT",
        default,
        positive=False,
        noun="number of seconds or a false value",
        example="10",
        off=True,
    )


def model_dir_from_env(default: str = ".") -> str:
    """Directory that resolves relative model names (``REPRO_MODEL_DIR``).

    The serving layer and the ``save-model``/``serve`` CLI subcommands
    look up bare model names here, so deployments can point every
    worker at one read-only model volume.  Unset or blank means
    ``default`` (the current directory); the value is returned verbatim
    — existence is checked at open time by the model store, which turns
    a vanished directory into a typed :class:`ModelFormatError`.
    """
    return os.environ.get("REPRO_MODEL_DIR", "").strip() or default


def serve_batch_from_env(default: int = 4096) -> int:
    """Micro-batch point budget for the batch labeller (``REPRO_SERVE_BATCH``).

    The asyncio front end coalesces queued label requests until their
    combined point count reaches this budget (or the delay window
    closes).  Unset or blank means ``default``; anything that is not a
    positive integer raises a ``ValueError`` naming the variable.
    """
    return _int_from_env(
        "REPRO_SERVE_BATCH",
        default,
        positive=True,
        noun="point budget",
        example=4096,
    )


def serve_delay_from_env(default: float = 0.002) -> float:
    """Micro-batch delay window in seconds (``REPRO_SERVE_DELAY``).

    How long the batch labeller waits for more requests after the first
    one arrives before closing the batch; ``0`` serves every request
    the moment it is dequeued.  Unset or blank means ``default``; the
    value must be a non-negative number of seconds.
    """
    return _seconds_from_env(
        "REPRO_SERVE_DELAY",
        default,
        positive=False,
        noun="number of seconds",
        example="0.005",
    )


def serve_cache_from_env(default: int = 4) -> int:
    """Per-process model LRU capacity (``REPRO_SERVE_CACHE``).

    How many loaded models the serving cache keeps resident before
    evicting the least recently used one.  Unset or blank means
    ``default``; anything that is not a positive integer raises a
    ``ValueError`` naming the variable.
    """
    return _int_from_env(
        "REPRO_SERVE_CACHE", default, positive=True, noun="model count", example=4
    )


def propagate_trace_env(target: str = "") -> None:
    """Mirror an in-process tracing enable into ``REPRO_TRACE``.

    ``obs.set_enabled(True)`` (e.g. from the CLI ``--trace`` flag) only
    installs a tracer in the *current* process.  ``REPRO_JOBS`` workers
    started with the ``spawn``/``forkserver`` methods re-import the
    package and decide whether to trace from the environment alone, so
    the enable must be mirrored there or worker counters and spans are
    silently dropped.  ``target`` is the export path to advertise; the
    empty string means "on, no automatic export" and is stored as
    ``1``.
    """
    os.environ["REPRO_TRACE"] = target or "1"
