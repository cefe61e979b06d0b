"""The JSONL run journal: append-only record of fabric execution.

A long run writes one record per journal-worthy event to a single
file, flushed and fsynced per line so a crash loses at most the
in-flight cells.  Schema v2 writes three kinds beyond the header:

``cell``
    A *terminal* cell outcome (ok, retried, failed, timeout or
    crashed) — the commit record.  Exactly-once semantics hang off
    these: a committed result always wins over any late duplicate or
    dangling lease.
``lease``
    An attempt was dispatched: the cell key, the 0-based attempt, the
    slot that ran it (as ``pool``) and the per-attempt deadline
    (seconds, or null).
    A lease with no later ``cell`` record for its key is *expired* —
    the worker died or the run was interrupted mid-cell — and the cell
    is re-issued on resume.
``heartbeat``
    Periodic liveness from the supervisor loop (``REPRO_HEARTBEAT``):
    committed/running/total counts plus a snapshot of the ``fabric.*``
    obs counters when tracing is on.  ``fabric status`` tails these.
``steal``
    Legacy and read-only: journals written while the work queue still
    stole between per-slot pools carry these (the key and both pool
    indices).  Nothing writes them now; the reader still validates
    them so those journals keep loading.

Operational records (lease/heartbeat/steal) never influence a resumed
table — :func:`load_journal` indexes commits only — so the resumed
rows stay bit-identical to an uninterrupted run exactly as under
schema v1, whose journals remain loadable (v1 read-compat).

Two appenders pointed at one journal would interleave torn records,
so the writer takes an exclusive-create lock file (``<path>.lock``
holding pid and host); a second opener fails fast with a clear error
instead of corrupting the file.  A lock whose pid is dead on the same
host is stale (the expected leftover of a ``kill -9``) and is broken
automatically.

Like ``repro.obs.schema``, the record shape is versioned and strictly
validated: a journal written by a future incompatible version fails
loudly instead of silently resuming garbage.
"""

from __future__ import annotations

import errno
import json
import os
import socket
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalLockError",
    "RunJournal",
    "load_journal",
    "load_records",
    "pending_leases",
    "validate_record",
]

JOURNAL_SCHEMA_VERSION = 2

_V1_RECORD_KINDS = frozenset({"header", "cell"})
_RECORD_KINDS = frozenset({"header", "cell", "lease", "heartbeat", "steal"})
_CELL_KEYS = frozenset({"schema", "kind", "key", "status", "attempts", "row", "error"})
_HEADER_KEYS = frozenset({"schema", "kind", "meta"})
_LEASE_KEYS = frozenset({"schema", "kind", "key", "attempt", "pool", "deadline"})
_HEARTBEAT_KEYS = frozenset(
    {"schema", "kind", "done", "running", "total", "counters"}
)
_STEAL_KEYS = frozenset({"schema", "kind", "key", "from_pool", "to_pool"})
_STATUSES = frozenset({"ok", "retried", "failed", "timeout", "crashed"})


class JournalError(ValueError):
    """A journal file or record broke the stable schema."""


class JournalLockError(JournalError):
    """A second live writer already holds the journal's lock."""


def _fail(message: str) -> None:
    raise JournalError(message)


def _check_count(record: dict[str, Any], key: str) -> None:
    value = record[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        _fail(f"{record['kind']} {key} must be a non-negative integer, got {value!r}")


def validate_record(record: Any) -> dict[str, Any]:
    """Validate one journal record; returns it for call-site chaining.

    Accepts the current schema (v2) and read-compatible v1 records
    (header/cell only — v1 never wrote operational kinds).
    """
    if not isinstance(record, dict):
        _fail(f"journal record must be a JSON object, got {type(record).__name__}")
    schema = record.get("schema")
    if schema not in (1, JOURNAL_SCHEMA_VERSION):
        _fail(
            f"journal schema must be 1 or {JOURNAL_SCHEMA_VERSION}, "
            f"got {schema!r}"
        )
    kinds = _V1_RECORD_KINDS if schema == 1 else _RECORD_KINDS
    kind = record.get("kind")
    if kind not in kinds:
        _fail(
            f"schema {schema} record kind must be one of "
            f"{'/'.join(sorted(kinds))}, got {kind!r}"
        )
    if kind == "header":
        if set(record) != _HEADER_KEYS:
            _fail(
                f"header record keys mismatch: expected "
                f"{sorted(_HEADER_KEYS)}, got {sorted(record)}"
            )
        if not isinstance(record["meta"], dict):
            _fail("header meta must be an object")
        return record
    if kind == "cell":
        if set(record) != _CELL_KEYS:
            _fail(
                f"cell record keys mismatch: expected {sorted(_CELL_KEYS)}, "
                f"got {sorted(record)}"
            )
        if not isinstance(record["key"], str) or not record["key"]:
            _fail("cell key must be a non-empty string")
        if record["status"] not in _STATUSES:
            _fail(
                f"cell status must be one of {sorted(_STATUSES)}, "
                f"got {record['status']!r}"
            )
        attempts = record["attempts"]
        if not isinstance(attempts, int) or isinstance(attempts, bool) or attempts < 1:
            _fail(f"cell attempts must be a positive integer, got {attempts!r}")
        if record["row"] is not None and not isinstance(record["row"], dict):
            _fail("cell row must be an object or null")
        if record["error"] is not None and not isinstance(record["error"], dict):
            _fail("cell error must be an object or null")
        return record
    if kind == "lease":
        if set(record) != _LEASE_KEYS:
            _fail(
                f"lease record keys mismatch: expected {sorted(_LEASE_KEYS)}, "
                f"got {sorted(record)}"
            )
        if not isinstance(record["key"], str) or not record["key"]:
            _fail("lease key must be a non-empty string")
        attempt = record["attempt"]
        if not isinstance(attempt, int) or isinstance(attempt, bool) or attempt < 0:
            _fail(f"lease attempt must be a non-negative integer, got {attempt!r}")
        _check_count(record, "pool")
        deadline = record["deadline"]
        if deadline is not None and not isinstance(deadline, (int, float)):
            _fail(f"lease deadline must be a number of seconds or null, got {deadline!r}")
        return record
    if kind == "heartbeat":
        if set(record) != _HEARTBEAT_KEYS:
            _fail(
                f"heartbeat record keys mismatch: expected "
                f"{sorted(_HEARTBEAT_KEYS)}, got {sorted(record)}"
            )
        for key in ("done", "running", "total"):
            _check_count(record, key)
        if not isinstance(record["counters"], dict):
            _fail("heartbeat counters must be an object")
        return record
    # steal: legacy, read-only (see the module docstring)
    if set(record) != _STEAL_KEYS:
        _fail(
            f"steal record keys mismatch: expected {sorted(_STEAL_KEYS)}, "
            f"got {sorted(record)}"
        )
    if not isinstance(record["key"], str) or not record["key"]:
        _fail("steal key must be a non-empty string")
    _check_count(record, "from_pool")
    _check_count(record, "to_pool")
    return record


class _JournalLock:
    """Exclusive-create ``<path>.lock`` guarding a journal's writer.

    The lock file holds ``pid host``; a conflicting lock from a dead
    pid on the same host is stale (a crashed or ``kill -9``-ed run)
    and is broken so resume works without manual cleanup.  A live pid
    — or any pid on another host, which cannot be probed — fails fast
    with :class:`JournalLockError`.
    """

    def __init__(self, journal_path: Path) -> None:
        self.path = Path(f"{journal_path}.lock")
        self._acquired = False
        try:
            self._create()
        except FileExistsError:
            self._break_if_stale(journal_path)
            try:
                self._create()
            except FileExistsError:  # lost the race to another writer
                self._refuse(journal_path)

    def _create(self) -> None:
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, f"{os.getpid()} {socket.gethostname()}\n".encode())
        finally:
            os.close(fd)
        self._acquired = True

    def _holder(self) -> tuple[int, str] | None:
        try:
            raw = self.path.read_text(encoding="utf-8").split()
        except (OSError, UnicodeDecodeError):
            return None
        if len(raw) != 2 or not raw[0].isdigit():
            return None
        return int(raw[0]), raw[1]

    def _break_if_stale(self, journal_path: Path) -> None:
        holder = self._holder()
        if holder is None:
            # Unreadable or torn lock: treat as stale debris.
            self.path.unlink(missing_ok=True)
            return
        pid, host = holder
        if host == socket.gethostname() and not _pid_alive(pid):
            self.path.unlink(missing_ok=True)
            return
        self._refuse(journal_path)

    def _refuse(self, journal_path: Path) -> None:
        holder = self._holder()
        detail = (
            f"held by pid {holder[0]} on {holder[1]}"
            if holder
            else "holder unreadable"
        )
        raise JournalLockError(
            f"journal {journal_path} is locked ({detail}; lock file "
            f"{self.path}) — a second writer would interleave torn "
            f"records; point each run at its own journal, or remove the "
            f"lock file if you are sure the other run is gone"
        )

    def release(self) -> None:
        if self._acquired:
            self.path.unlink(missing_ok=True)
            self._acquired = False


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError as error:
        return error.errno != errno.ESRCH
    return True


class RunJournal:
    """Append-fsync JSONL journal of fabric execution records.

    Opening a fresh file writes a header record; opening an existing
    file (resume) appends below the previous run's records.  The
    writer holds an exclusive lock file for its lifetime, so two
    processes pointed at one journal fail fast instead of interleaving
    torn records.  Use as a context manager or call :meth:`close`
    explicitly.
    """

    def __init__(
        self, path: str | Path, meta: Mapping[str, Any] | None = None
    ) -> None:
        self.path = Path(path)
        self._lock = _JournalLock(self.path)
        try:
            existed = self.path.exists() and self.path.stat().st_size > 0
            self._handle = self.path.open("a", encoding="utf-8")
        except BaseException:
            self._lock.release()
            raise
        if not existed:
            self._append(
                {
                    "schema": JOURNAL_SCHEMA_VERSION,
                    "kind": "header",
                    "meta": dict(meta or {}),
                }
            )

    def record_cell(
        self,
        key: str,
        status: str,
        attempts: int,
        row: Mapping[str, Any] | None,
        error: Mapping[str, Any] | None,
    ) -> None:
        """Append one terminal cell outcome (validated before writing)."""
        record = validate_record(
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "kind": "cell",
                "key": key,
                "status": status,
                "attempts": attempts,
                "row": dict(row) if row is not None else None,
                "error": dict(error) if error is not None else None,
            }
        )
        self._append(record)

    def record_lease(
        self, key: str, attempt: int, pool: int, deadline: float | None
    ) -> None:
        """Append a lease record: ``attempt`` of ``key`` was dispatched."""
        record = validate_record(
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "kind": "lease",
                "key": key,
                "attempt": attempt,
                "pool": pool,
                "deadline": deadline,
            }
        )
        self._append(record)

    def record_heartbeat(
        self, done: int, running: int, total: int, counters: Mapping[str, int]
    ) -> None:
        """Append a liveness heartbeat with progress counts."""
        record = validate_record(
            {
                "schema": JOURNAL_SCHEMA_VERSION,
                "kind": "heartbeat",
                "done": done,
                "running": running,
                "total": total,
                "counters": dict(counters),
            }
        )
        self._append(record)

    def _append(self, record: dict[str, Any]) -> None:
        if self._handle.closed:
            raise JournalError(f"journal {self.path} is closed")
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()
        self._lock.release()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def load_records(path: str | Path) -> list[dict[str, Any]]:
    """Every validated record of a journal, in append order.

    A torn *final* line — the expected leftover of a crash mid-append —
    is dropped; a torn or malformed line anywhere else means the file
    was corrupted (most likely by a second writer) and raises
    :class:`JournalError` naming the line and the byte offset where
    the damage starts.
    """
    path = Path(path)
    data = path.read_bytes()
    records: list[dict[str, Any]] = []
    offset = 0
    lines = data.split(b"\n")
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                record = json.loads(line.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                if number == len(lines) and not data.endswith(b"\n"):
                    break  # torn final line from an interrupted append
                raise JournalError(
                    f"{path}:{number}: torn journal record at byte offset "
                    f"{offset} — the file was corrupted mid-stream "
                    f"(interleaved writers?), not merely interrupted"
                ) from None
            records.append(validate_record(record))
        offset += len(line) + 1
    return records


def load_journal(path: str | Path) -> dict[str, dict[str, Any]]:
    """Load a journal into a ``key -> cell record`` resume index.

    Only committed ``cell`` records reach the index — leases,
    heartbeats and steals are operational — so a resumed table is a
    pure function of the committed outcomes.  When a key appears twice
    (a resumed run appended below an older one) the last record wins.
    """
    index: dict[str, dict[str, Any]] = {}
    for record in load_records(path):
        if record["kind"] == "cell":
            index[record["key"]] = record
    return index


def pending_leases(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Leases with no later commit: cells in flight when the run died.

    The returned map is ``key -> last lease record``; on resume these
    are exactly the cells whose lease expired and which the fabric
    re-issues.
    """
    leases: dict[str, dict[str, Any]] = {}
    for record in records:
        if record["kind"] == "lease":
            leases[record["key"]] = record
        elif record["kind"] == "cell":
            leases.pop(record["key"], None)
    return leases
