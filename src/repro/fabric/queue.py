"""The fabric work queue: one shared FIFO of pending task attempts.

Tasks enter the queue as plain integer ids (indices into the caller's
task list — the queue never sees payloads) in task order, and any idle
consumer slot takes the oldest runnable entry.  Which slot runs which
cell is an execution detail, never a result: the supervisor reduces
outcomes in task order, so every schedule yields the same table.

Entries carry a ``not_before`` release time for retry backoff; an
entry still in backoff is invisible to ``take`` until it is released,
and the entries behind it keep flowing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueueEntry", "WorkQueue"]


@dataclass(frozen=True)
class QueueEntry:
    """A task attempt waiting to run (possibly in backoff)."""

    task_index: int
    attempt: int
    not_before: float = 0.0


class WorkQueue:
    """Shared pending-attempt FIFO that skips entries in backoff.

    The queue is single-threaded by design — the supervisor's event
    loop is the only caller — so no locking.
    """

    def __init__(self) -> None:
        self._entries: list[QueueEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, entry: QueueEntry) -> None:
        """Queue an attempt at the back of the FIFO."""
        self._entries.append(entry)

    def take(self, now: float) -> QueueEntry | None:
        """The oldest entry released by ``now``, or ``None`` when every
        queued entry is still in backoff (or the queue is empty)."""
        for position, entry in enumerate(self._entries):
            if entry.not_before <= now:
                del self._entries[position]
                return entry
        return None

    def earliest_release(self) -> float | None:
        """Soonest ``not_before`` across every queued entry."""
        times = [entry.not_before for entry in self._entries]
        return min(times) if times else None
