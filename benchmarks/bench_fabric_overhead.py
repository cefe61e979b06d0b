"""Fabric-overhead guard: supervision must stay cheap per cell.

The job fabric wraps every grid cell in lease journaling, fault
planning, retry bookkeeping and (in parallel mode) the shared
work-queue machinery.  None of that may cost meaningful time against the cells it
supervises — a suite of thousands of sub-second cells would otherwise
pay a visible tax.  This module times a batch of trivially small tasks
three ways:

* **bare** — the worker called in a plain loop, the floor;
* **supervised** — the same tasks through ``run_supervised``
  (``n_jobs=1``, no journal), isolating the supervision machinery;
* **journaled** — supervision plus a live ``RunJournal``, bounding the
  fsync-per-record cost of the lease/commit protocol.

The gate asserts the per-cell supervision overhead (without journal)
stays under a millisecond-scale budget; the journaled figure is
reported, not gated — fsync latency is storage-dependent, and a
journaled run buys crash-recoverable exactly-once semantics with
those syncs.
"""

import time

from repro.fabric import RunJournal, Task, run_supervised

from _harness import bench_scale, emit

_ROUNDS = 3
_PER_CELL_BUDGET_SECONDS = 0.002


def _worker(value, *, attempt, fault, in_worker):
    return {"value": value}


def _run_bare(n_cells: int) -> float:
    start = time.perf_counter()
    for index in range(n_cells):
        _worker(index, attempt=0, fault=None, in_worker=False)
    return time.perf_counter() - start


def _run_supervised(n_cells: int, journal: RunJournal | None) -> float:
    tasks = [Task(key=f"bench|cell{i}", args=(i,)) for i in range(n_cells)]
    start = time.perf_counter()
    run_supervised(
        _worker, tasks, retries=0, faults="", journal=journal, heartbeat=0.0
    )
    return time.perf_counter() - start


def test_supervision_overhead_per_cell(tmp_path):
    n_cells = max(50, int(2_000 * bench_scale()))
    bare = min(_run_bare(n_cells) for _ in range(_ROUNDS))
    supervised = min(
        _run_supervised(n_cells, journal=None) for _ in range(_ROUNDS)
    )
    with RunJournal(tmp_path / "bench.jsonl") as journal:
        journaled = _run_supervised(n_cells, journal=journal)

    per_cell = (supervised - bare) / n_cells
    emit(
        "fabric_overhead",
        "\n".join(
            [
                f"cells                 {n_cells}",
                f"bare loop             {bare:.4f}s",
                f"supervised            {supervised:.4f}s"
                f"  ({per_cell * 1e6:.1f}us/cell over bare)",
                f"supervised+journal    {journaled:.4f}s"
                f"  ({(journaled - bare) / n_cells * 1e6:.1f}us/cell,"
                f" 2 fsyncs/cell)",
            ]
        ),
    )
    assert per_cell < _PER_CELL_BUDGET_SECONDS, (
        f"fabric supervision costs {per_cell * 1e3:.3f}ms per cell "
        f"(budget {_PER_CELL_BUDGET_SECONDS * 1e3:.1f}ms) — the "
        f"supervisor grew a per-cell tax"
    )
