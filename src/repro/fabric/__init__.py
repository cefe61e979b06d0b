"""Job fabric: supervised, shardable, crash-tolerant task execution.

The generic work-queue executor behind every supervised run in the
repo (the experiment grid, the sharded tree build, and any future
offline tier).  Six pieces, each usable on its own:

* :mod:`repro.fabric.supervisor` — per-cell isolation (exceptions,
  deadlines, worker deaths), lease-based exactly-once dispatch,
  seeded retry with deterministic backoff, and graceful degradation
  into structured error rows;
* :mod:`repro.fabric.queue` — the shared FIFO work queue every idle
  ``REPRO_JOBS`` slot pulls from;
* :mod:`repro.fabric.journal` — the append-fsync JSONL run journal
  (schema v2: cell/lease/heartbeat) behind checkpoint-resume,
  with a writer lock against concurrent appenders;
* :mod:`repro.fabric.sharding` — ``--shard i/n`` deterministic grid
  slicing and the ``fabric merge`` journal combiner;
* :mod:`repro.fabric.status` — the read-only progress view behind
  ``fabric status``;
* :mod:`repro.fabric.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) the chaos tests drive.

``experiments.runner`` wires these under ``run_suite``.
"""

from repro.fabric.faults import (
    FaultSpec,
    InjectedFault,
    SimulatedKill,
    parse_faults,
    plan_faults,
)
from repro.fabric.journal import (
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    JournalLockError,
    RunJournal,
    load_journal,
    load_records,
    pending_leases,
    validate_record,
)
from repro.fabric.queue import QueueEntry, WorkQueue
from repro.fabric.sharding import (
    ShardSpec,
    merge_journals,
    parse_shard,
    shard_tasks,
)
from repro.fabric.status import format_status, journal_status
from repro.fabric.supervisor import (
    CellOutcome,
    CellTimeout,
    Task,
    run_supervised,
)

__all__ = [
    "CellOutcome",
    "CellTimeout",
    "FaultSpec",
    "InjectedFault",
    "JOURNAL_SCHEMA_VERSION",
    "JournalError",
    "JournalLockError",
    "QueueEntry",
    "RunJournal",
    "ShardSpec",
    "SimulatedKill",
    "Task",
    "WorkQueue",
    "format_status",
    "journal_status",
    "load_journal",
    "load_records",
    "merge_journals",
    "parse_faults",
    "parse_shard",
    "pending_leases",
    "plan_faults",
    "run_supervised",
    "shard_tasks",
    "validate_record",
]
