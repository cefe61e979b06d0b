"""Task supervision: leases, deadlines, retries, resume.

The experiment grid is a long list of independent cells; one cell
raising, hanging or taking its worker process down must cost exactly
that cell, never the suite.  The supervisor owns that guarantee for
both execution paths:

Serial (``n_jobs == 1``)
    Cells run inline.  Exceptions are caught per cell; the per-attempt
    deadline is enforced with a ``SIGALRM`` interval timer (POSIX main
    thread — elsewhere the deadline is skipped, never mis-enforced).

Parallel (``n_jobs > 1``)
    ``n_jobs`` *independent single-worker pools* ("slots").  A worker
    death breaks only its own slot's ``ProcessPoolExecutor`` — the
    resulting ``BrokenProcessPool`` is attributed unambiguously to the
    one cell that slot was running, the slot is rebuilt, and no other
    in-flight cell is disturbed.  A cell past its deadline gets its
    slot's worker killed the same way.  (A single shared pool cannot do
    this: one ``os._exit`` breaks every in-flight future at once.)
    Pending attempts wait in one shared
    :class:`~repro.fabric.queue.WorkQueue` FIFO that every idle slot
    pulls from, so a run of slow cells cannot strand the other slots.

Exactly-once cells are enforced through the journal's lease protocol:
every dispatched attempt appends a ``lease`` record (key, attempt, the
slot index as ``pool``, deadline) before running, and every terminal
outcome appends a ``cell`` commit.  A lease with no commit — the run
was killed mid-cell — is *expired*: on resume the cell is simply absent
from the resume index and re-issued, while a committed record always
wins over any late duplicate (resume replays it without re-executing).
Periodic ``heartbeat`` records (``REPRO_HEARTBEAT`` seconds) carry
progress counts for ``fabric status``.

Failed attempts retry up to ``retries`` times with exponential backoff
(``backoff * 2**k`` seconds plus a deterministic jitter derived from
the cell key, so reruns are bit-reproducible).  Terminal outcomes are
one of ``ok`` (first attempt succeeded), ``retried`` (a retry
succeeded), ``failed`` (exception), ``timeout`` (deadline) or
``crashed`` (worker death) — and are appended to an optional
:class:`~repro.fabric.journal.RunJournal`, enabling checkpoint-resume.

The worker function is called as ``fn(*args, attempt=k, fault=kind,
in_worker=flag)`` — the fault directive travels as a plain argument so
worker closures stay free of ambient reads (the ``repro_analyze``
purity pass roots every function dispatched through
:func:`run_supervised` exactly like a raw ``pool.submit``).
"""

from __future__ import annotations

import signal
import threading
import time
import zlib
from collections.abc import Callable, Iterator, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.env import (
    backoff_from_env,
    faults_from_env,
    heartbeat_from_env,
    retries_from_env,
    task_timeout_from_env,
)
from repro.fabric.faults import (
    FaultSpec,
    SimulatedKill,
    fire,
    parse_faults,
    plan_faults,
)
from repro.fabric.journal import RunJournal
from repro.fabric.queue import QueueEntry, WorkQueue

__all__ = [
    "CellTimeout",
    "CellOutcome",
    "Task",
    "run_supervised",
]

_MAX_ERROR_CHARS = 500

_KILL_GRACE_SECONDS = 10.0
"""How long to wait for a killed slot's future to resolve before
abandoning it; the executor's management thread normally breaks the
future within milliseconds of the worker dying."""

_MIN_WAIT_SECONDS = 0.01


class CellTimeout(Exception):
    """A task attempt exceeded its per-attempt deadline."""


@dataclass(frozen=True)
class Task:
    """One supervised unit of work.

    ``key`` is the stable identity used for journaling, resume and
    fault matching; ``args`` are the positional arguments forwarded to
    the worker function (picklable under ``n_jobs > 1``).
    """

    key: str
    args: tuple[Any, ...]


@dataclass
class CellOutcome:
    """Terminal result of one supervised task."""

    key: str
    status: str  # ok | retried | failed | timeout | crashed
    attempts: int
    row: dict[str, Any] | None
    error: dict[str, Any] | None
    resumed: bool = False


def run_supervised(
    worker: Callable[..., dict[str, Any]],
    tasks: Sequence[Task],
    *,
    n_jobs: int = 1,
    retries: int | None = None,
    timeout: float | None = None,
    backoff: float | None = None,
    faults: Sequence[FaultSpec] | str | None = None,
    strict_faults: bool = True,
    journal: RunJournal | None = None,
    resume: Mapping[str, Mapping[str, Any]] | None = None,
    heartbeat: float | None = None,
) -> list[CellOutcome]:
    """Run every task under supervision; outcomes in task order.

    ``worker`` must be a module-level function (picklable) accepting
    ``fn(*task.args, attempt=k, fault=kind_or_None, in_worker=bool)``.
    ``retries`` / ``timeout`` / ``backoff`` / ``heartbeat`` default to
    the ``REPRO_RETRIES`` / ``REPRO_TASK_TIMEOUT`` / ``REPRO_BACKOFF``
    / ``REPRO_HEARTBEAT`` environment knobs; ``faults`` accepts a
    parsed spec, a raw spec string, or ``None`` to read
    ``REPRO_FAULTS`` (``strict_faults=False`` lets a secondary task
    grid ignore directives aimed at another grid).  ``resume`` maps
    task keys to journaled cell records whose outcomes are replayed
    without re-executing — a key absent from ``resume`` because only a
    lease was journaled is exactly an expired lease, and re-runs.
    """
    if isinstance(faults, str):
        fault_specs: Sequence[FaultSpec] = parse_faults(faults)
    elif faults is None:
        fault_specs = parse_faults(faults_from_env())
    else:
        fault_specs = tuple(faults)
    heartbeat_every = heartbeat_from_env() if heartbeat is None else float(heartbeat)
    supervisor = _Supervisor(
        worker=worker,
        tasks=list(tasks),
        retries=retries_from_env() if retries is None else int(retries),
        timeout=task_timeout_from_env() if timeout is None else (timeout or None),
        backoff=backoff_from_env() if backoff is None else float(backoff),
        fault_plan=plan_faults(
            [task.key for task in tasks], fault_specs, strict=strict_faults
        ),
        journal=journal,
        resume=resume or {},
        heartbeat=heartbeat_every if heartbeat_every > 0 else None,
    )
    if n_jobs <= 1:
        supervisor.run_serial()
    else:
        supervisor.run_parallel(int(n_jobs))
    return supervisor.outcomes()


def _error_summary(exc: BaseException) -> dict[str, Any]:
    """Picklable, journalable one-line summary of an exception."""
    message = str(exc)
    if len(message) > _MAX_ERROR_CHARS:
        message = message[: _MAX_ERROR_CHARS - 3] + "..."
    return {"type": type(exc).__name__, "message": message}


def _backoff_delay(base: float, attempt: int, key: str) -> float:
    """Deterministic exponential backoff before retry ``attempt``.

    ``base * 2**(attempt-1)`` seconds scaled by a jitter in ``[1, 1.25)``
    seeded from the cell key — stable across reruns and processes
    (``zlib.crc32``, not the salted builtin ``hash``).
    """
    if base <= 0.0 or attempt <= 0:
        return 0.0
    jitter = 1.0 + (zlib.crc32(f"{key}#{attempt}".encode()) % 1024) / 4096.0
    return base * (2.0 ** (attempt - 1)) * jitter


@contextmanager
def _deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CellTimeout` after ``seconds`` of the body.

    Uses a ``SIGALRM`` interval timer, which only works on POSIX main
    threads; anywhere else the deadline is skipped (a wrongly-armed
    alarm in a thread would kill an unrelated frame).
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(f"attempt exceeded its {seconds:g}s deadline")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class _Slot:
    """One single-worker pool; broken slots rebuild lazily."""

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=1)
        try:
            return self._pool.submit(fn, *args, **kwargs)
        except BrokenExecutor:
            # The previous task broke the pool after its future resolved;
            # rebuild once and resubmit.
            self.discard()
            self._pool = ProcessPoolExecutor(max_workers=1)
            return self._pool.submit(fn, *args, **kwargs)

    def kill(self) -> None:
        """Kill the slot's worker process and drop the pool."""
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            process.kill()
        pool.shutdown(wait=True, cancel_futures=True)

    def discard(self) -> None:
        """Drop a broken pool (its worker is already gone)."""
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        pool = self._pool
        self._pool = None
        if pool is not None:
            pool.shutdown(wait=True)


@dataclass
class _InFlight:
    """A submitted attempt bound to its slot and deadline."""

    entry: QueueEntry
    slot_index: int
    future: Future
    deadline_at: float | None


class _Supervisor:
    """Shared retry/outcome bookkeeping for both execution paths."""

    def __init__(
        self,
        worker: Callable[..., dict[str, Any]],
        tasks: list[Task],
        retries: int,
        timeout: float | None,
        backoff: float,
        fault_plan: dict[int, FaultSpec],
        journal: RunJournal | None,
        resume: Mapping[str, Mapping[str, Any]],
        heartbeat: float | None = None,
    ) -> None:
        self._worker = worker
        self._tasks = tasks
        self._retries = retries
        self._timeout = timeout
        self._backoff = backoff
        self._fault_plan = fault_plan
        self._journal = journal
        self._resume = resume
        self._heartbeat = heartbeat
        self._heartbeat_due = (
            obs.perf_clock() + heartbeat if heartbeat is not None else None
        )
        self._outcomes: list[CellOutcome | None] = [None] * len(tasks)
        self._slots: list[_Slot] = []

    def outcomes(self) -> list[CellOutcome]:
        assert all(outcome is not None for outcome in self._outcomes)
        return [outcome for outcome in self._outcomes if outcome is not None]

    # -- shared bookkeeping -------------------------------------------

    def _fault_kind(self, task_index: int, attempt: int) -> str | None:
        fault = self._fault_plan.get(task_index)
        if fault is not None and fault.sabotages(attempt):
            return fault.kind
        return None

    def _resume_outcome(self, task_index: int) -> bool:
        """Replay a journaled outcome; True when the task is covered."""
        record = self._resume.get(self._tasks[task_index].key)
        if record is None:
            return False
        self._outcomes[task_index] = CellOutcome(
            key=self._tasks[task_index].key,
            status=str(record["status"]),
            attempts=int(record["attempts"]),
            row=dict(record["row"]) if record["row"] is not None else None,
            error=dict(record["error"]) if record["error"] is not None else None,
            resumed=True,
        )
        obs.incr("fabric.cells_resumed")
        return True

    def _lease(self, entry: QueueEntry, pool: int) -> None:
        """Journal a lease: this attempt is now dispatched."""
        if self._journal is not None:
            self._journal.record_lease(
                key=self._tasks[entry.task_index].key,
                attempt=entry.attempt,
                pool=pool,
                deadline=self._timeout,
            )

    def _maybe_heartbeat(self, running: int) -> None:
        """Journal a liveness heartbeat when the interval elapsed."""
        if self._journal is None or self._heartbeat_due is None:
            return
        now = obs.perf_clock()
        if now < self._heartbeat_due:
            return
        assert self._heartbeat is not None
        self._heartbeat_due = now + self._heartbeat
        done = sum(1 for outcome in self._outcomes if outcome is not None)
        self._journal.record_heartbeat(
            done=done,
            running=running,
            total=len(self._tasks),
            counters=obs.counters_snapshot(),
        )

    def _finish(self, task_index: int, outcome: CellOutcome) -> None:
        """Record a terminal outcome: counters plus the journal commit."""
        self._outcomes[task_index] = outcome
        if outcome.status == "retried":
            obs.incr("fabric.cells_recovered")
        elif outcome.status != "ok":
            obs.incr(f"fabric.cells_{outcome.status}")
        if self._journal is not None:
            self._journal.record_cell(
                key=outcome.key,
                status=outcome.status,
                attempts=outcome.attempts,
                row=_journal_view(outcome.row),
                error=outcome.error,
            )

    def _handle_failure(
        self,
        entry: QueueEntry,
        status: str,
        error: dict[str, Any],
    ) -> QueueEntry | None:
        """Retry the attempt or settle the terminal outcome.

        Returns the next pending attempt when the retry budget allows
        one, ``None`` when the failure is terminal.
        """
        task = self._tasks[entry.task_index]
        if entry.attempt < self._retries:
            obs.incr("fabric.retries")
            delay = _backoff_delay(self._backoff, entry.attempt + 1, task.key)
            return QueueEntry(
                task_index=entry.task_index,
                attempt=entry.attempt + 1,
                not_before=obs.perf_clock() + delay,
            )
        self._finish(
            entry.task_index,
            CellOutcome(
                key=task.key,
                status=status,
                attempts=entry.attempt + 1,
                row=None,
                error=error,
            ),
        )
        return None

    def _handle_success(self, entry: QueueEntry, row: dict[str, Any]) -> None:
        self._finish(
            entry.task_index,
            CellOutcome(
                key=self._tasks[entry.task_index].key,
                status="ok" if entry.attempt == 0 else "retried",
                attempts=entry.attempt + 1,
                row=row,
                error=None,
            ),
        )

    # -- serial path ---------------------------------------------------

    def run_serial(self) -> None:
        for task_index in range(len(self._tasks)):
            if self._resume_outcome(task_index):
                continue
            entry: QueueEntry | None = QueueEntry(task_index=task_index, attempt=0)
            while entry is not None:
                delay = entry.not_before - obs.perf_clock()
                if delay > 0:
                    time.sleep(delay)
                entry = self._run_serial_attempt(entry)
                self._maybe_heartbeat(running=0 if entry is None else 1)

    def _run_serial_attempt(self, entry: QueueEntry) -> QueueEntry | None:
        task = self._tasks[entry.task_index]
        fault = self._fault_kind(entry.task_index, entry.attempt)
        self._lease(entry, pool=0)
        try:
            with _deadline(self._timeout):
                row = self._worker(
                    *task.args,
                    attempt=entry.attempt,
                    fault=fault,
                    in_worker=False,
                )
        except CellTimeout as exc:
            return self._handle_failure(entry, "timeout", _error_summary(exc))
        except SimulatedKill as exc:
            return self._handle_failure(entry, "crashed", _error_summary(exc))
        except Exception as exc:
            return self._handle_failure(entry, "failed", _error_summary(exc))
        self._handle_success(entry, row)
        return None

    # -- parallel path -------------------------------------------------

    def run_parallel(self, n_jobs: int) -> None:
        queue = WorkQueue()
        for task_index in range(len(self._tasks)):
            if not self._resume_outcome(task_index):
                queue.push(QueueEntry(task_index=task_index, attempt=0))
        slots = self._slots = [_Slot() for _ in range(n_jobs)]
        idle = list(range(n_jobs - 1, -1, -1))  # pop() takes slot 0 first
        in_flight: list[_InFlight] = []
        try:
            while len(queue) or in_flight:
                self._fill_slots(queue, slots, idle, in_flight)
                self._maybe_heartbeat(running=len(in_flight))
                if not in_flight:
                    # Every runnable attempt is in backoff; sleep to the
                    # earliest release.
                    release = queue.earliest_release()
                    assert release is not None
                    time.sleep(
                        max(_MIN_WAIT_SECONDS, release - obs.perf_clock())
                    )
                    continue
                wait(
                    [flight.future for flight in in_flight],
                    timeout=self._wait_budget(queue, in_flight),
                    return_when=FIRST_COMPLETED,
                )
                self._reap(queue, idle, in_flight)
        finally:
            for slot in slots:
                slot.close()

    def _fill_slots(
        self,
        queue: WorkQueue,
        slots: list[_Slot],
        idle: list[int],
        in_flight: list[_InFlight],
    ) -> None:
        now = obs.perf_clock()
        while idle:
            entry = queue.take(now)
            if entry is None:
                return
            slot_index = idle.pop()
            task = self._tasks[entry.task_index]
            self._lease(entry, pool=slot_index)
            future = slots[slot_index].submit(
                self._worker,
                *task.args,
                attempt=entry.attempt,
                fault=self._fault_kind(entry.task_index, entry.attempt),
                in_worker=True,
            )
            deadline_at = (
                None if self._timeout is None else obs.perf_clock() + self._timeout
            )
            in_flight.append(
                _InFlight(
                    entry=entry,
                    slot_index=slot_index,
                    future=future,
                    deadline_at=deadline_at,
                )
            )

    def _wait_budget(
        self, queue: WorkQueue, in_flight: list[_InFlight]
    ) -> float | None:
        """Sleep until the next deadline, backoff release or heartbeat,
        whichever comes first (``None`` when none is armed)."""
        horizons = [
            flight.deadline_at
            for flight in in_flight
            if flight.deadline_at is not None
        ]
        release = queue.earliest_release()
        if release is not None and release > 0:
            horizons.append(release)
        if self._heartbeat_due is not None:
            horizons.append(self._heartbeat_due)
        if not horizons:
            return None
        return max(_MIN_WAIT_SECONDS, min(horizons) - obs.perf_clock())

    def _reap(
        self,
        queue: WorkQueue,
        idle: list[int],
        in_flight: list[_InFlight],
    ) -> None:
        now = obs.perf_clock()
        still_running: list[_InFlight] = []
        for flight in in_flight:
            if flight.future.done():
                retry = self._settle(flight)
            elif flight.deadline_at is not None and now >= flight.deadline_at:
                retry = self._reap_timeout(flight)
            else:
                still_running.append(flight)
                continue
            idle.append(flight.slot_index)
            if retry is not None:
                queue.push(retry)
        in_flight[:] = still_running

    def _settle(self, flight: _InFlight) -> QueueEntry | None:
        """Classify a completed future into the outcome machinery."""
        try:
            row = flight.future.result()
        except BrokenExecutor as exc:
            self._slot_of(flight).discard()
            return self._handle_failure(
                flight.entry, "crashed", _error_summary(exc)
            )
        except Exception as exc:
            return self._handle_failure(
                flight.entry, "failed", _error_summary(exc)
            )
        self._handle_success(flight.entry, row)
        return None

    def _reap_timeout(self, flight: _InFlight) -> QueueEntry | None:
        """Kill a slot whose attempt blew its deadline."""
        self._slot_of(flight).kill()
        # The management thread breaks the future once the worker dies;
        # bounded wait so a pathological platform cannot wedge the loop.
        wait([flight.future], timeout=_KILL_GRACE_SECONDS)
        timeout = self._timeout if self._timeout is not None else 0.0
        return self._handle_failure(
            flight.entry,
            "timeout",
            _error_summary(
                CellTimeout(f"attempt exceeded its {timeout:g}s deadline")
            ),
        )

    def _slot_of(self, flight: _InFlight) -> _Slot:
        return self._slots[flight.slot_index]


def _journal_view(row: dict[str, Any] | None) -> dict[str, Any] | None:
    """Journaled copy of a result row.

    Underscore-prefixed keys are volatile side channels (the ``_trace``
    observability delta) — process-relative, non-deterministic, and
    meaningless on resume — so they never reach the journal.
    """
    if row is None:
        return None
    return {key: value for key, value in row.items() if not key.startswith("_")}
