"""Live progress view: summarize a run journal for ``fabric status``.

A long sharded run is opaque without this: the journal is the single
source of truth for what a (possibly remote, possibly dead) run has
done, and ``fabric status`` renders it without touching the run —
committed cells by status, in-flight leases (a lease with no commit)
and the most recent heartbeat with its progress counts.  Legacy
``steal`` records in older journals load but are not shown.

Everything here is read-only and tolerant of a live writer: the
journal loader already drops a torn final line, which is exactly the
race a concurrent ``status`` against an active appender can observe.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.fabric.journal import load_records, pending_leases

__all__ = ["format_status", "journal_status"]

_STATUS_ORDER = ("ok", "retried", "failed", "timeout", "crashed")


def journal_status(path: str | Path) -> dict[str, Any]:
    """Summarize one journal: progress, leases, last heartbeat."""
    path = Path(path)
    records = load_records(path)
    meta: dict[str, Any] = {}
    statuses = dict.fromkeys(_STATUS_ORDER, 0)
    committed: set[str] = set()
    last_heartbeat: dict[str, Any] | None = None
    for record in records:
        kind = record["kind"]
        if kind == "header":
            meta = dict(record["meta"])
        elif kind == "cell":
            if record["key"] in committed:
                # A resumed run replays nothing, but an older record of
                # the same key is superseded — count the final one only.
                continue
            committed.add(record["key"])
            statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        elif kind == "heartbeat":
            last_heartbeat = record
    leases = pending_leases(records)
    total = meta.get("n_cells")
    return {
        "path": str(path),
        "meta": meta,
        "total": total if isinstance(total, int) else None,
        "committed": len(committed),
        "statuses": statuses,
        "in_flight": sorted(leases),
        "heartbeat": last_heartbeat,
    }


def format_status(status: dict[str, Any]) -> str:
    """Human-readable multi-line rendering of a status summary."""
    lines = [f"journal: {status['path']}"]
    shard = status["meta"].get("shard")
    if shard:
        lines.append(f"shard:   {shard}")
    total = status["total"]
    done = status["committed"]
    if total:
        percent = 100.0 * done / total if total else 0.0
        lines.append(f"cells:   {done}/{total} committed ({percent:.0f}%)")
    else:
        lines.append(f"cells:   {done} committed")
    counts = ", ".join(
        f"{name}={count}"
        for name, count in status["statuses"].items()
        if count
    )
    lines.append(f"status:  {counts or 'none yet'}")
    in_flight = status["in_flight"]
    if in_flight:
        shown = ", ".join(in_flight[:4])
        more = f" (+{len(in_flight) - 4} more)" if len(in_flight) > 4 else ""
        lines.append(f"leased:  {shown}{more}")
    beat = status["heartbeat"]
    if beat is not None:
        lines.append(
            f"beat:    done={beat['done']} running={beat['running']} "
            f"total={beat['total']}"
        )
    return "\n".join(lines)
