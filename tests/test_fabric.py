"""Tests for the job fabric: queue, leases, locks, shards, chaos.

The chaos classes formalize the exactly-once acceptance criteria of
PR 10: a fabric worker SIGKILL-ed mid-cell (and mid-tree-shard) leaves
an expired lease, the cell is re-issued exactly once, and the final
report/tree is bit-identical to an undisturbed run — serially and
under ``REPRO_JOBS=2``.  The sharding class proves that ``--shard
0/2`` + ``--shard 1/2`` + ``fabric merge`` reproduces the unsharded
report bit-identically, including after an interrupt + resume on one
shard.
"""

import json
import socket
import subprocess

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.counting_tree import CountingTree
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.env import heartbeat_from_env
from repro.experiments.runner import _load_resume_index, run_suite
from repro.fabric import (
    JournalLockError,
    QueueEntry,
    RunJournal,
    ShardSpec,
    SimulatedKill,
    Task,
    WorkQueue,
    format_status,
    journal_status,
    load_journal,
    load_records,
    merge_journals,
    parse_shard,
    pending_leases,
    run_supervised,
    shard_tasks,
)
from repro.fabric.faults import fire
from repro.fabric.journal import JournalError


def _unit_worker(value, *, attempt, fault, in_worker):
    if fault is not None:
        fire(fault, in_worker)
    return {"value": value}


def _tasks(*values):
    return [Task(key=f"cell|{value}", args=(value,)) for value in values]


def _kinds(path):
    return [record["kind"] for record in load_records(path)]


class TestWorkQueue:
    def test_entries_leave_in_task_order(self):
        queue = WorkQueue()
        for index in (0, 1, 2):
            queue.push(QueueEntry(task_index=index, attempt=0))
        assert queue.take(now=0.0) == QueueEntry(0, 0)
        assert queue.take(now=0.0) == QueueEntry(1, 0)
        assert len(queue) == 1

    def test_backoff_entries_are_invisible_until_release(self):
        queue = WorkQueue()
        queue.push(QueueEntry(task_index=0, attempt=1, not_before=50.0))
        queue.push(QueueEntry(task_index=1, attempt=0))
        # The entry in backoff is skipped; the one behind it still runs.
        assert queue.take(now=0.0) == QueueEntry(1, 0)
        assert queue.take(now=0.0) is None
        assert queue.earliest_release() == 50.0
        assert queue.take(now=50.0) == QueueEntry(0, 1, 50.0)
        assert len(queue) == 0


class TestJournalLock:
    def test_second_writer_fails_fast(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path):
            with pytest.raises(JournalLockError, match="locked"):
                RunJournal(path)
        # Releasing the lock (close) lets the next writer in.
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, None, None)

    def test_dead_pid_lock_is_broken_automatically(self, tmp_path):
        # The expected leftover of a kill -9: a lock naming a pid that
        # no longer exists on this host.  Resume must not need manual
        # cleanup.
        path = tmp_path / "run.jsonl"
        probe = subprocess.Popen(["true"])
        probe.wait()
        (tmp_path / "run.jsonl.lock").write_text(
            f"{probe.pid} {socket.gethostname()}\n"
        )
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, None, None)
        assert load_journal(path)["a"]["status"] == "ok"

    def test_unreadable_lock_is_treated_as_stale(self, tmp_path):
        path = tmp_path / "run.jsonl"
        (tmp_path / "run.jsonl.lock").write_text("<torn garbage>")
        with RunJournal(path):
            pass

    def test_foreign_host_lock_is_refused(self, tmp_path):
        # A pid on another host cannot be probed, so the lock must be
        # honoured even if that pid happens to be dead over there.
        path = tmp_path / "run.jsonl"
        (tmp_path / "run.jsonl.lock").write_text("12345 some-other-host\n")
        with pytest.raises(JournalLockError, match="some-other-host"):
            RunJournal(path)

    def test_crash_before_open_releases_the_lock(self, tmp_path):
        # Opening a journal whose path is a directory fails after the
        # lock was taken; the lock must not leak.
        path = tmp_path / "run.jsonl"
        path.mkdir()
        with pytest.raises(OSError):
            RunJournal(path)
        assert not (tmp_path / "run.jsonl.lock").exists()


class TestTornRecords:
    def test_mid_file_error_names_the_byte_offset(self, tmp_path):
        path = tmp_path / "run.jsonl"
        first = '{"kind": "header", "meta": {}, "schema": 2}\n'
        path.write_text(first + "<garbage>\n" + first)
        with pytest.raises(JournalError) as excinfo:
            load_records(path)
        assert f"byte offset {len(first)}" in str(excinfo.value)
        assert "run.jsonl:2" in str(excinfo.value)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_lease("a", 0, 0, None)
        path.write_text(path.read_text() + '{"kind": "le')
        assert _kinds(path) == ["header", "lease"]


class TestLeaseProtocol:
    def test_every_attempt_is_leased_before_it_commits(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            run_supervised(_unit_worker, _tasks("a", "b"), journal=journal)
        records = load_records(path)
        assert [r["kind"] for r in records] == [
            "header", "lease", "cell", "lease", "cell",
        ]
        leases = [r for r in records if r["kind"] == "lease"]
        assert [r["key"] for r in leases] == ["cell|a", "cell|b"]
        assert all(r["attempt"] == 0 for r in leases)
        assert pending_leases(records) == {}

    def test_lease_without_commit_is_expired(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_lease("cell|a", 0, 0, 30.0)
            journal.record_cell("cell|b", "ok", 1, {"value": "b"}, None)
        with obs.capture() as tracer:
            index = _load_resume_index(path)
        # The committed cell resumes; the expired lease stays out of the
        # index, so the fabric re-issues exactly that cell.
        assert set(index) == {"cell|b"}
        assert tracer.counters["fabric.leases_expired"] == 1
        outcomes = run_supervised(
            _unit_worker, _tasks("a", "b"), resume=index
        )
        assert [(o.key, o.resumed) for o in outcomes] == [
            ("cell|a", False), ("cell|b", True),
        ]

    def test_committed_record_wins_over_a_late_duplicate(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_cell("cell|a", "ok", 1, {"value": "first"}, None)
            journal.record_lease("cell|a", 0, 0, None)
        index = _load_resume_index(path)
        outcomes = run_supervised(_unit_worker, _tasks("a"), resume=index)
        assert outcomes[0].resumed is True
        assert outcomes[0].row == {"value": "first"}


class TestHeartbeat:
    def test_heartbeats_reach_the_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            run_supervised(
                _slow_worker,
                _tasks("a", "b", "c"),
                journal=journal,
                heartbeat=0.001,
            )
        records = load_records(path)
        beats = [r for r in records if r["kind"] == "heartbeat"]
        assert beats
        assert all(
            0 <= beat["done"] <= beat["total"] == 3 for beat in beats
        )

    def test_heartbeat_disabled_writes_none(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            run_supervised(
                _slow_worker, _tasks("a"), journal=journal, heartbeat=0.0
            )
        assert "heartbeat" not in _kinds(path)

    @pytest.mark.parametrize(
        "raw,expected",
        [("", 5.0), ("false", 0.0), ("0", 0.0), ("2.5", 2.5)],
    )
    def test_env_knob(self, monkeypatch, raw, expected):
        monkeypatch.setenv("REPRO_HEARTBEAT", raw)
        assert heartbeat_from_env() == expected

    def test_env_knob_rejects_negatives(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "-1")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            heartbeat_from_env()


def _slow_worker(value, *, attempt, fault, in_worker):
    import time

    if fault is not None:
        fire(fault, in_worker)
    time.sleep(0.01)
    return {"value": value}


class TestSigkillChaos:
    """kill -9 a fabric worker mid-cell: exactly-once, bit-identical."""

    def test_sigkill_is_simulated_on_the_serial_path(self):
        with pytest.raises(SimulatedKill, match="SIGKILL"):
            fire("sigkill", in_worker=False)

    def _assert_exactly_once(self, path, key):
        records = load_records(path)
        leases = [
            r for r in records if r["kind"] == "lease" and r["key"] == key
        ]
        commits = [
            r for r in records if r["kind"] == "cell" and r["key"] == key
        ]
        assert [r["attempt"] for r in leases] == [0, 1]
        assert len(commits) == 1  # re-run exactly once, committed once
        assert commits[0]["status"] == "retried"
        assert commits[0]["attempts"] == 2
        assert pending_leases(records) == {}

    def test_sigkill_mid_cell_serial(self, tmp_path):
        undisturbed = run_supervised(_unit_worker, _tasks("a", "b", "c"))
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            outcomes = run_supervised(
                _unit_worker,
                _tasks("a", "b", "c"),
                retries=1,
                backoff=0.0,
                faults="sigkill:cell|b:0:1",
                journal=journal,
            )
        assert [o.status for o in outcomes] == ["ok", "retried", "ok"]
        assert [o.row for o in outcomes] == [o.row for o in undisturbed]
        self._assert_exactly_once(path, "cell|b")

    def test_sigkill_mid_cell_parallel(self, tmp_path):
        # A real kill -9: the worker process delivers SIGKILL to itself
        # mid-cell, the slot's pool breaks, the lease expires, and the
        # cell is re-issued exactly once.
        undisturbed = run_supervised(
            _unit_worker, _tasks("a", "b", "c", "d"), n_jobs=2
        )
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            outcomes = run_supervised(
                _unit_worker,
                _tasks("a", "b", "c", "d"),
                n_jobs=2,
                retries=1,
                backoff=0.0,
                faults="sigkill:cell|c:0:1",
                journal=journal,
            )
        by_key = {o.key: o for o in outcomes}
        assert by_key["cell|c"].status == "retried"
        assert by_key["cell|c"].attempts == 2
        assert [o.row for o in outcomes] == [o.row for o in undisturbed]
        self._assert_exactly_once(path, "cell|c")

    def test_sigkill_without_retry_budget_is_a_crashed_row(self):
        outcomes = run_supervised(
            _unit_worker,
            _tasks("a", "b"),
            n_jobs=2,
            retries=0,
            faults="sigkill:cell|a:0",
        )
        assert outcomes[0].status == "crashed"
        assert outcomes[0].error["type"].startswith("Broken")
        assert outcomes[1].status == "ok"

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_sigkill_mid_tree_shard_keeps_the_tree_bit_identical(
        self, monkeypatch, n_jobs
    ):
        # SIGKILL the worker cascading shard 0 mid-``absorb_arrays``
        # pipeline; the retried shard must leave the merged tree
        # bit-identical to a fault-free serial build.
        rng = np.random.default_rng(17)
        points = rng.uniform(0.0, 1.0, size=(1200, 3))
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        serial = CountingTree(points, n_jobs=1)
        monkeypatch.setenv("REPRO_FAULTS", "sigkill:tree|shard0:0:1")
        monkeypatch.setenv("REPRO_RETRIES", "1")
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        chaotic = CountingTree(points, n_jobs=max(2, n_jobs))
        assert chaotic.n_points == serial.n_points
        for h in serial.levels:
            a, b = serial.level(h), chaotic.level(h)
            assert np.array_equal(a.coords, b.coords)
            assert np.array_equal(a.n, b.n)
            assert np.array_equal(a.half_counts, b.half_counts)


class TestShardSpec:
    def test_parse_round_trip(self):
        shard = parse_shard("1/3")
        assert shard == ShardSpec(index=1, count=3)
        assert str(shard) == "1/3"
        assert [shard.owns(i) for i in range(6)] == [
            False, True, False, False, True, False,
        ]

    @pytest.mark.parametrize(
        "spec", ["", "1", "a/b", "2/2", "-1/2", "0/0", "1/2/3"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError, match="shard spec"):
            parse_shard(spec)

    def test_shard_tasks_is_a_disjoint_cover(self):
        tasks = _tasks(*"abcdefg")
        slices = [
            shard_tasks(tasks, ShardSpec(index, 3)) for index in range(3)
        ]
        flat = [task for piece in slices for task in piece]
        assert sorted(t.key for t in flat) == sorted(t.key for t in tasks)
        assert shard_tasks(tasks, None) == list(tasks)


def _shard_journal(tmp_path, name, shard, cells, meta=None):
    path = tmp_path / name
    full_meta = {"profile": "quick", "n_cells": 4, "shard": shard}
    full_meta.update(meta or {})
    with RunJournal(path, meta=full_meta) as journal:
        for key in cells:
            journal.record_lease(key, 0, 0, None)
            journal.record_cell(key, "ok", 1, {"value": key}, None)
    return path


class TestMergeJournals:
    def test_merge_is_order_insensitive_and_sorted(self, tmp_path):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["c", "a"])
        s1 = _shard_journal(tmp_path, "s1.jsonl", "1/2", ["b", "d"])
        out_a = tmp_path / "merged_a.jsonl"
        out_b = tmp_path / "merged_b.jsonl"
        summary = merge_journals([s0, s1], out_a)
        merge_journals([s1, s0], out_b)
        assert summary == {"shards": 2, "cells": 4, "path": str(out_a)}
        assert out_a.read_bytes() == out_b.read_bytes()
        records = load_records(out_a)
        # Operational records are dropped; cells are sorted by key; the
        # header no longer carries a shard spec.
        assert [r["kind"] for r in records] == ["header"] + ["cell"] * 4
        assert "shard" not in records[0]["meta"]
        assert [r["key"] for r in records[1:]] == ["a", "b", "c", "d"]

    def test_missing_shard_is_an_incomplete_partition(self, tmp_path):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/3", ["a"])
        s2 = _shard_journal(tmp_path, "s2.jsonl", "2/3", ["c"])
        with pytest.raises(JournalError, match="missing shard.*1/3"):
            merge_journals([s0, s2], tmp_path / "out.jsonl")

    def test_duplicate_shard_rejected(self, tmp_path):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["a"])
        dup = _shard_journal(tmp_path, "dup.jsonl", "0/2", ["b"])
        with pytest.raises(JournalError, match="appears twice"):
            merge_journals([s0, dup], tmp_path / "out.jsonl")

    def test_metadata_disagreement_rejected(self, tmp_path):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["a"])
        s1 = _shard_journal(
            tmp_path, "s1.jsonl", "1/2", ["b"], meta={"profile": "full"}
        )
        with pytest.raises(JournalError, match="disagrees"):
            merge_journals([s0, s1], tmp_path / "out.jsonl")

    def test_overlapping_cells_rejected(self, tmp_path):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["a"])
        s1 = _shard_journal(tmp_path, "s1.jsonl", "1/2", ["a"])
        with pytest.raises(JournalError, match="not a disjoint partition"):
            merge_journals([s0, s1], tmp_path / "out.jsonl")

    def test_unsharded_journal_rejected(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        with RunJournal(path, meta={"profile": "quick"}):
            pass
        with pytest.raises(JournalError, match="no shard spec"):
            merge_journals([path], tmp_path / "out.jsonl")


class TestStatusView:
    def _journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(
            path, meta={"profile": "quick", "n_cells": 3, "shard": "0/2"}
        ) as journal:
            journal.record_lease("a", 0, 0, None)
            journal.record_cell("a", "ok", 1, {"value": "a"}, None)
            journal.record_lease("b", 0, 1, None)
            journal.record_heartbeat(1, 1, 3, {"fabric.retries": 0})
        return path

    def test_journal_status_summarizes_progress(self, tmp_path):
        status = journal_status(self._journal(tmp_path))
        assert status["total"] == 3
        assert status["committed"] == 1
        assert status["statuses"]["ok"] == 1
        assert status["in_flight"] == ["b"]
        assert status["heartbeat"]["done"] == 1

    def test_format_status_renders_every_section(self, tmp_path):
        text = format_status(journal_status(self._journal(tmp_path)))
        assert "shard:   0/2" in text
        assert "1/3 committed (33%)" in text
        assert "ok=1" in text
        assert "leased:  b" in text
        assert "done=1 running=1 total=3" in text


#: A shard journal written while the work queue still stole between
#: per-slot pools: schema v2 with ``steal`` records, which nothing
#: writes any more but the reader must keep accepting.
LEGACY_STEAL_JOURNAL = """\
{"kind": "header", "meta": {"n_cells": 4, "profile": "quick", "shard": "0/2"}, "schema": 2}
{"attempt": 0, "deadline": null, "key": "cell|a", "kind": "lease", "pool": 0, "schema": 2}
{"from_pool": 0, "key": "cell|b", "kind": "steal", "schema": 2, "to_pool": 1}
{"attempt": 0, "deadline": null, "key": "cell|b", "kind": "lease", "pool": 1, "schema": 2}
{"attempts": 1, "error": null, "key": "cell|a", "kind": "cell", "row": {"value": "a"}, "schema": 2, "status": "ok"}
{"attempts": 1, "error": null, "key": "cell|b", "kind": "cell", "row": {"value": "b"}, "schema": 2, "status": "ok"}
{"from_pool": 1, "key": "cell|c", "kind": "steal", "schema": 2, "to_pool": 0}
{"attempt": 0, "deadline": null, "key": "cell|c", "kind": "lease", "pool": 0, "schema": 2}
{"counters": {}, "done": 2, "kind": "heartbeat", "running": 1, "schema": 2, "total": 4}
"""


class TestLegacyStealRecords:
    """Old v2 journals with ``steal`` lines load, resume, show, merge."""

    def _write(self, tmp_path, name, text=LEGACY_STEAL_JOURNAL):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_loads_and_resumes_bit_identically(self, tmp_path):
        path = self._write(tmp_path, "legacy.jsonl")
        assert _kinds(path).count("steal") == 2
        index = _load_resume_index(path)
        assert set(index) == {"cell|a", "cell|b"}
        undisturbed = run_supervised(_unit_worker, _tasks("a", "b", "c"))
        outcomes = run_supervised(
            _unit_worker, _tasks("a", "b", "c"), resume=index
        )
        assert [o.resumed for o in outcomes] == [True, True, False]
        assert [o.row for o in outcomes] == [o.row for o in undisturbed]

    def test_status_renders_without_a_steal_line(self, tmp_path):
        status = journal_status(self._write(tmp_path, "legacy.jsonl"))
        assert status["committed"] == 2
        assert status["in_flight"] == ["cell|c"]
        assert "steals" not in status
        text = format_status(status)
        assert "2/4 committed (50%)" in text
        assert "leased:  cell|c" in text
        assert "steal" not in text

    def test_merge_drops_steal_records(self, tmp_path):
        legacy = self._write(tmp_path, "legacy.jsonl")
        stripped = self._write(
            tmp_path,
            "stripped.jsonl",
            "".join(
                line
                for line in LEGACY_STEAL_JOURNAL.splitlines(keepends=True)
                if '"kind": "steal"' not in line
            ),
        )
        s1 = _shard_journal(tmp_path, "s1.jsonl", "1/2", ["cell|d"])
        merged = tmp_path / "from_legacy.jsonl"
        reference = tmp_path / "from_stripped.jsonl"
        merge_journals([legacy, s1], merged)
        merge_journals([stripped, s1], reference)
        assert merged.read_bytes() == reference.read_bytes()
        assert _kinds(merged) == ["header"] + ["cell"] * 3


SUITE_METHODS = ("MrCC", "LAC")


@pytest.fixture(scope="module")
def shard_dataset():
    return generate_dataset(
        SyntheticDatasetSpec(
            dimensionality=4,
            n_points=400,
            n_clusters=2,
            noise_fraction=0.1,
            max_irrelevant=1,
            seed=7,
        )
    )


def _stable(row):
    return {k: v for k, v in row.items() if k not in ("seconds", "peak_kb")}


def _run(dataset, **kwargs):
    return run_suite(
        [dataset],
        methods=SUITE_METHODS,
        profile="quick",
        track_memory=False,
        **kwargs,
    )


class TestShardedSuite:
    """--shard 0/2 + --shard 1/2 + merge == the unsharded run, bitwise."""

    def test_merge_reproduces_the_unsharded_report(
        self, shard_dataset, tmp_path
    ):
        unsharded_journal = tmp_path / "full.jsonl"
        full = _run(shard_dataset, journal=unsharded_journal)
        for spec in ("0/2", "1/2"):
            _run(
                shard_dataset,
                journal=tmp_path / f"s{spec[0]}.jsonl",
                shard=spec,
            )
        merged = tmp_path / "merged.jsonl"
        summary = merge_journals(
            [tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"], merged
        )
        assert summary["cells"] == 5  # the full quick grid
        # The merged header is byte-identical to the unsharded one...
        full_header = json.loads(
            unsharded_journal.read_text().splitlines()[0]
        )
        merged_header = json.loads(merged.read_text().splitlines()[0])
        assert merged_header == full_header
        # ...and resuming from the merged journal replays the entire
        # unsharded table without recomputing anything.
        with obs.capture() as tracer:
            resumed = _run(shard_dataset, journal=merged, resume=True)
        assert tracer.counters["fabric.cells_resumed"] == 5
        assert [_stable(r) for r in resumed] == [_stable(r) for r in full]

    def test_interrupted_shard_resumes_then_merges_bit_identically(
        self, shard_dataset, tmp_path
    ):
        full = _run(shard_dataset, journal=tmp_path / "full.jsonl")
        s0, s1 = tmp_path / "s0.jsonl", tmp_path / "s1.jsonl"
        _run(shard_dataset, journal=s0, shard="0/2")
        _run(shard_dataset, journal=s1, shard="1/2")
        # Interrupt shard 0 right after its first commit, leaving the
        # next lease dangling — as a kill -9 mid-cell would.
        lines = s0.read_text().splitlines()
        first_commit = next(
            number for number, line in enumerate(lines)
            if json.loads(line)["kind"] == "cell"
        )
        s0.write_text("\n".join(lines[: first_commit + 1]) + "\n")
        with obs.capture() as tracer:
            _run(shard_dataset, journal=s0, shard="0/2", resume=True)
        assert tracer.counters["fabric.cells_resumed"] == 1
        merged = tmp_path / "merged.jsonl"
        merge_journals([s0, s1], merged)
        resumed = _run(shard_dataset, journal=merged, resume=True)
        assert [_stable(r) for r in resumed] == [_stable(r) for r in full]

    def test_shard_headers_record_their_slice(self, shard_dataset, tmp_path):
        path = tmp_path / "s1.jsonl"
        _run(shard_dataset, journal=path, shard="1/2")
        header = json.loads(path.read_text().splitlines()[0])
        assert header["meta"]["shard"] == "1/2"
        assert header["meta"]["n_cells"] == 5  # full grid, not the slice


class TestFabricCli:
    def test_merge_and_status(self, tmp_path, capsys):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["a", "c"])
        s1 = _shard_journal(tmp_path, "s1.jsonl", "1/2", ["b", "d"])
        merged = tmp_path / "merged.jsonl"
        assert main(
            ["fabric", "merge", str(s0), str(s1), "-o", str(merged)]
        ) == 0
        out = capsys.readouterr().out
        assert "merged 2 shard(s), 4 cell(s)" in out
        assert main(["fabric", "status", str(merged)]) == 0
        assert "4/4 committed (100%)" in capsys.readouterr().out

    def test_merge_failure_exits_2(self, tmp_path, capsys):
        s0 = _shard_journal(tmp_path, "s0.jsonl", "0/2", ["a"])
        code = main(
            ["fabric", "merge", str(s0), "-o", str(tmp_path / "out.jsonl")]
        )
        assert code == 2
        assert "missing shard" in capsys.readouterr().err

    def test_status_missing_journal_exits_2(self, tmp_path, capsys):
        assert main(["fabric", "status", str(tmp_path / "nope.jsonl")]) == 2
        assert "no journal" in capsys.readouterr().err

    def test_fig5_shard_requires_a_journal(self, capsys):
        assert main(["fig5", "fig5s", "--shard", "0/2"]) == 2
        assert "--shard needs --journal" in capsys.readouterr().err
