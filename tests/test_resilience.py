"""Tests for the resilience layer: faults, journal, supervisor, suite.

The end-to-end classes formalize the acceptance criteria of the
resilient runner: a suite run with injected ``raise``/``hang``/``kill``
faults completes, emits structured error rows for exactly the faulted
cells, leaves untouched pairs bit-identical to a fault-free run, and an
interrupted run resumed from its journal reproduces the full table —
under both ``n_jobs=1`` and ``n_jobs=2``.
"""

import json
import math

import pytest

from repro import obs
from repro.data.synthetic import SyntheticDatasetSpec, generate_dataset
from repro.experiments.runner import _is_better, run_suite
from repro.fabric import (
    FaultSpec,
    InjectedFault,
    JOURNAL_SCHEMA_VERSION,
    JournalError,
    RunJournal,
    SimulatedKill,
    Task,
    load_journal,
    parse_faults,
    plan_faults,
    run_supervised,
    validate_record,
)
from repro.fabric.faults import fire
from repro.fabric.supervisor import _backoff_delay, _journal_view


def _unit_worker(value, *, attempt, fault, in_worker):
    """Minimal supervised worker: fault hook plus a failure trigger."""
    if fault is not None:
        fire(fault, in_worker)
    if value == "boom":
        raise RuntimeError("configured to fail")
    return {"value": value, "_trace": {"volatile": True}}


def _tasks(*values):
    return [Task(key=f"cell|{value}", args=(value,)) for value in values]


class TestParseFaults:
    def test_blank_spec_parses_empty(self):
        assert parse_faults("") == ()
        assert parse_faults("   ") == ()

    def test_full_grammar(self):
        faults = parse_faults("raise:mrcc:0:1, hang:lac:1 ,kill:clique:2")
        assert faults == (
            FaultSpec(kind="raise", match="mrcc", cell=0, attempts=1),
            FaultSpec(kind="hang", match="lac", cell=1, attempts=None),
            FaultSpec(kind="kill", match="clique", cell=2, attempts=None),
        )

    @pytest.mark.parametrize(
        "spec",
        [
            "explode:mrcc:0",  # unknown kind
            "raise:mrcc",  # missing cell
            "raise::0",  # empty match
            "raise:mrcc:one",  # non-integer cell
            "raise:mrcc:-1",  # negative cell
            "raise:mrcc:0:0",  # attempts < 1
        ],
    )
    def test_bad_directives_raise(self, spec):
        with pytest.raises(ValueError, match="REPRO_FAULTS"):
            parse_faults(spec)

    def test_attempts_window(self):
        fault = parse_faults("raise:x:0:2")[0]
        assert fault.sabotages(0) and fault.sabotages(1)
        assert not fault.sabotages(2)
        always = parse_faults("raise:x:0")[0]
        assert always.sabotages(99)


class TestPlanFaults:
    KEYS = ["18d|MrCC|{}", "18d|LAC|{'h':1}", "18d|LAC|{'h':2}"]

    def test_cell_index_counts_matches_only(self):
        plan = plan_faults(self.KEYS, parse_faults("raise:lac:1"))
        assert plan == {2: FaultSpec(kind="raise", match="lac", cell=1)}

    def test_match_is_case_insensitive(self):
        plan = plan_faults(self.KEYS, parse_faults("kill:MRCC:0"))
        assert list(plan) == [0]

    def test_unmatched_directive_raises(self):
        with pytest.raises(ValueError, match="matches no cell"):
            plan_faults(self.KEYS, parse_faults("raise:lac:2"))
        with pytest.raises(ValueError, match="matches no cell"):
            plan_faults(self.KEYS, parse_faults("raise:clique:0"))

    def test_later_directive_wins_a_shared_cell(self):
        plan = plan_faults(self.KEYS, parse_faults("raise:mrcc:0,kill:mrcc:0"))
        assert plan[0].kind == "kill"


class TestFire:
    def test_raise_kind(self):
        with pytest.raises(InjectedFault):
            fire("raise", in_worker=False)

    def test_kill_is_simulated_on_the_serial_path(self):
        with pytest.raises(SimulatedKill):
            fire("kill", in_worker=False)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            fire("explode", in_worker=False)


class TestBackoffDelay:
    def test_deterministic_across_calls(self):
        assert _backoff_delay(0.1, 2, "k") == _backoff_delay(0.1, 2, "k")

    def test_exponential_envelope_with_bounded_jitter(self):
        base = 0.5
        for attempt in (1, 2, 3):
            delay = _backoff_delay(base, attempt, "cell|x")
            floor = base * 2.0 ** (attempt - 1)
            assert floor <= delay < floor * 1.25

    def test_disabled_backoff(self):
        assert _backoff_delay(0.0, 3, "k") == 0.0
        assert _backoff_delay(0.5, 0, "k") == 0.0


class TestJournalFile:
    def test_fresh_file_writes_header(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path, meta={"profile": "quick"}):
            pass
        record = json.loads(path.read_text().splitlines()[0])
        assert record == {
            "schema": JOURNAL_SCHEMA_VERSION,
            "kind": "header",
            "meta": {"profile": "quick"},
        }

    def test_cell_records_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        row = {"quality": 0.123456789012345, "params": {"alpha": 1e-10}}
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, row, None)
            journal.record_cell("b", "failed", 2, None, {"type": "X", "message": "m"})
        index = load_journal(path)
        assert index["a"]["row"] == row
        assert index["b"] == {
            "schema": JOURNAL_SCHEMA_VERSION,
            "kind": "cell",
            "key": "b",
            "status": "failed",
            "attempts": 2,
            "row": None,
            "error": {"type": "X", "message": "m"},
        }

    def test_reopening_appends_and_last_record_wins(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_cell("a", "failed", 1, None, {"type": "X", "message": ""})
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, {"quality": 1.0}, None)
        assert path.read_text().count('"kind": "header"') == 1
        assert load_journal(path)["a"]["status"] == "ok"

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.record_cell("a", "ok", 1, None, None)

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, {"quality": 1.0}, None)
        path.write_text(path.read_text() + '{"schema": 1, "kind": "ce')
        assert set(load_journal(path)) == {"a"}

    def test_malformed_middle_line_names_the_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_cell("a", "ok", 1, None, None)
            journal.record_cell("b", "ok", 1, None, None)
        # Corrupt the first cell record; the torn-line tolerance only
        # covers the final line, so this must fail loudly.
        path.write_text(path.read_text().replace('"kind": "cell"', "<garbage>", 1))
        with pytest.raises(
            JournalError, match=r"run\.jsonl:2: torn journal record at byte offset"
        ):
            load_journal(path)

    @pytest.mark.parametrize(
        "record",
        [
            [],  # not an object
            {"schema": 99, "kind": "cell"},  # wrong schema version
            {"schema": 1, "kind": "blob"},  # unknown kind
            {"schema": 1, "kind": "header"},  # missing meta
            {  # unknown status
                "schema": 1, "kind": "cell", "key": "a", "status": "maybe",
                "attempts": 1, "row": None, "error": None,
            },
            {  # non-positive attempts
                "schema": 1, "kind": "cell", "key": "a", "status": "ok",
                "attempts": 0, "row": None, "error": None,
            },
            {  # extra key
                "schema": 1, "kind": "cell", "key": "a", "status": "ok",
                "attempts": 1, "row": None, "error": None, "extra": 1,
            },
        ],
    )
    def test_validate_record_rejects_broken_shapes(self, record):
        with pytest.raises(JournalError):
            validate_record(record)

    def test_journal_view_strips_volatile_keys(self):
        assert _journal_view({"quality": 1.0, "_trace": {"spans": []}}) == {
            "quality": 1.0
        }
        assert _journal_view(None) is None


class TestRunSupervisedSerial:
    def test_outcomes_in_task_order(self):
        outcomes = run_supervised(_unit_worker, _tasks("a", "b", "c"), faults="")
        assert [o.key for o in outcomes] == ["cell|a", "cell|b", "cell|c"]
        assert all(o.status == "ok" and o.attempts == 1 for o in outcomes)
        assert outcomes[1].row["value"] == "b"

    def test_exception_costs_exactly_its_cell(self):
        outcomes = run_supervised(
            _unit_worker, _tasks("a", "boom", "c"), retries=0, faults=""
        )
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        failed = outcomes[1]
        assert failed.row is None
        assert failed.error == {"type": "RuntimeError", "message": "configured to fail"}

    def test_retry_recovers_a_transient_fault(self):
        with obs.capture() as tracer:
            outcomes = run_supervised(
                _unit_worker,
                _tasks("a", "b"),
                retries=1,
                backoff=0.0,
                faults="raise:cell|b:0:1",
            )
        assert [o.status for o in outcomes] == ["ok", "retried"]
        assert outcomes[1].attempts == 2
        assert outcomes[1].row["value"] == "b"
        assert tracer.counters["fabric.retries"] == 1
        assert tracer.counters["fabric.cells_recovered"] == 1

    def test_retry_exhaustion_is_terminal(self):
        with obs.capture() as tracer:
            outcomes = run_supervised(
                _unit_worker,
                _tasks("a"),
                retries=2,
                backoff=0.0,
                faults="raise:cell|a:0",
            )
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 3
        assert outcomes[0].error["type"] == "InjectedFault"
        assert tracer.counters["fabric.retries"] == 2
        assert tracer.counters["fabric.cells_failed"] == 1

    def test_hang_is_reaped_by_the_deadline(self):
        outcomes = run_supervised(
            _unit_worker,
            _tasks("a", "b"),
            retries=0,
            timeout=0.3,
            faults="hang:cell|a:0",
        )
        assert [o.status for o in outcomes] == ["timeout", "ok"]
        assert outcomes[0].error["type"] == "CellTimeout"

    def test_kill_is_classified_as_crashed(self):
        outcomes = run_supervised(
            _unit_worker, _tasks("a", "b"), retries=0, faults="kill:cell|b:0"
        )
        assert [o.status for o in outcomes] == ["ok", "crashed"]
        assert outcomes[1].error["type"] == "SimulatedKill"


class TestRunSupervisedParallel:
    def test_outcomes_in_task_order(self):
        outcomes = run_supervised(
            _unit_worker, _tasks("a", "b", "c", "d"), n_jobs=2, faults=""
        )
        assert [o.key for o in outcomes] == [
            "cell|a", "cell|b", "cell|c", "cell|d",
        ]
        assert all(o.status == "ok" for o in outcomes)

    def test_worker_death_costs_exactly_its_cell(self):
        outcomes = run_supervised(
            _unit_worker,
            _tasks("a", "b", "c", "d"),
            n_jobs=2,
            retries=0,
            faults="kill:cell|c:0",
        )
        assert [o.status for o in outcomes] == ["ok", "ok", "crashed", "ok"]
        assert outcomes[2].error["type"].startswith("Broken")

    def test_hung_worker_is_killed_at_the_deadline(self):
        outcomes = run_supervised(
            _unit_worker,
            _tasks("a", "b", "c"),
            n_jobs=2,
            retries=0,
            timeout=1.0,
            faults="hang:cell|b:0",
        )
        assert [o.status for o in outcomes] == ["ok", "timeout", "ok"]
        assert outcomes[1].error["type"] == "CellTimeout"

    def test_retry_recovers_after_a_crash(self):
        outcomes = run_supervised(
            _unit_worker,
            _tasks("a", "b"),
            n_jobs=2,
            retries=1,
            backoff=0.0,
            faults="kill:cell|a:0:1",
        )
        assert [o.status for o in outcomes] == ["retried", "ok"]
        assert outcomes[0].attempts == 2


class TestSupervisorJournal:
    def test_terminal_outcomes_are_journaled_without_volatile_keys(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            run_supervised(
                _unit_worker,
                _tasks("a", "boom"),
                retries=0,
                faults="",
                journal=journal,
            )
        index = load_journal(path)
        assert index["cell|a"]["status"] == "ok"
        assert index["cell|a"]["row"] == {"value": "a"}  # _trace stripped
        assert index["cell|boom"]["status"] == "failed"

    def test_resume_replays_without_executing(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.record_cell("cell|boom", "ok", 1, {"value": "journaled"}, None)
        with obs.capture() as tracer:
            outcomes = run_supervised(
                _unit_worker,
                _tasks("boom", "b"),  # "boom" would fail if executed
                retries=0,
                faults="",
                resume=load_journal(path),
            )
        assert outcomes[0].resumed is True
        assert outcomes[0].status == "ok"
        assert outcomes[0].row == {"value": "journaled"}
        assert outcomes[1].resumed is False
        assert tracer.counters["fabric.cells_resumed"] == 1


class TestIsBetter:
    """Regression tests: NaN quality must never win the tuning grid."""

    def test_nan_candidate_never_displaces_a_number(self):
        assert not _is_better({"quality": math.nan}, {"quality": -1e9})

    def test_numeric_candidate_displaces_a_nan_incumbent(self):
        assert _is_better({"quality": -1e9}, {"quality": math.nan})

    def test_nan_vs_nan_keeps_the_earlier_entry(self):
        assert not _is_better({"quality": math.nan}, {"quality": math.nan})

    def test_tie_keeps_the_earlier_entry(self):
        assert not _is_better({"quality": 0.5}, {"quality": 0.5})

    def test_strictly_greater_wins(self):
        assert _is_better({"quality": 0.6}, {"quality": 0.5})
        assert not _is_better({"quality": 0.4}, {"quality": 0.5})


# -- end-to-end acceptance over the real experiment grid ----------------

SUITE_METHODS = ("MrCC", "LAC")
# Quick grids: MrCC contributes 1 cell, LAC 4 (inv_h 1, 4, 8, 11).
SUITE_CELLS = 5


@pytest.fixture(scope="module")
def suite_dataset():
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


@pytest.fixture(scope="module")
def baseline_rows(suite_dataset):
    """Fault-free reference table (memory pass off: timings only vary)."""
    return run_suite(
        [suite_dataset], methods=SUITE_METHODS, profile="quick", track_memory=False
    )


def _stable(row):
    """Deterministic row fields (timings vary run to run by nature)."""
    return {k: v for k, v in row.items() if k not in ("seconds", "peak_kb")}


class TestSuiteFaultInjection:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_untouched_pairs_are_bit_identical(
        self, suite_dataset, baseline_rows, n_jobs
    ):
        rows = run_suite(
            [suite_dataset],
            methods=SUITE_METHODS,
            profile="quick",
            track_memory=False,
            n_jobs=n_jobs,
            retries=0,
            faults="raise:mrcc:0",
        )
        # MrCC's quick grid is a single cell, so faulting it degrades the
        # whole pair into exactly one structured error row.
        mrcc = [r for r in rows if r["method"] == "MrCC"]
        assert len(mrcc) == 1
        assert _stable(mrcc[0]) == {
            "method": "MrCC",
            "dataset": suite_dataset.name,
            "status": "failed",
            "attempts": 1,
            "error": {
                "type": "InjectedFault",
                "message": "injected fault: planned exception",
            },
            "params": {"alpha": 1e-10, "n_resolutions": 4},
        }
        # The untouched LAC pair reproduces the fault-free run exactly.
        lac = [r for r in rows if r["method"] == "LAC"]
        lac_baseline = [r for r in baseline_rows if r["method"] == "LAC"]
        assert [_stable(r) for r in lac] == [_stable(r) for r in lac_baseline]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_every_failure_mode_lands_on_its_cell(self, suite_dataset, n_jobs):
        rows = run_suite(
            [suite_dataset],
            methods=SUITE_METHODS,
            profile="quick",
            track_memory=False,
            n_jobs=n_jobs,
            retries=0,
            timeout=30.0,
            faults="raise:mrcc:0,hang:lac:0,kill:lac:1",
        )
        errors = {
            (r["method"], json.dumps(r["params"], sort_keys=True)): r
            for r in rows
            if r["status"] not in ("ok", "retried")
        }
        assert {
            (key, row["status"]) for key, row in errors.items()
        } == {
            (("MrCC", '{"alpha": 1e-10, "n_resolutions": 4}'), "failed"),
            (("LAC", '{"inv_h": 1.0}'), "timeout"),
            (("LAC", '{"inv_h": 4.0}'), "crashed"),
        }
        assert all("quality" not in row for row in errors.values())
        # LAC still reports a best row from its two surviving cells.
        lac_ok = [r for r in rows if r["method"] == "LAC" and r["status"] == "ok"]
        assert len(lac_ok) == 1
        assert lac_ok[0]["params"]["inv_h"] in (8.0, 11.0)

    def test_retry_budget_recovers_the_full_table(
        self, suite_dataset, baseline_rows
    ):
        rows = run_suite(
            [suite_dataset],
            methods=SUITE_METHODS,
            profile="quick",
            track_memory=False,
            retries=1,
            backoff=0.0,
            faults="raise:mrcc:0:1",
        )
        mrcc = [r for r in rows if r["method"] == "MrCC"]
        assert [r["status"] for r in mrcc] == ["retried"]
        assert mrcc[0]["attempts"] == 2
        # Modulo the recovery bookkeeping the table matches fault-free.
        def scrub(row):
            return {
                k: v for k, v in _stable(row).items()
                if k not in ("status", "attempts")
            }
        assert [scrub(r) for r in rows] == [scrub(r) for r in baseline_rows]


class TestSuiteResume:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_interrupted_run_resumes_bit_identically(
        self, suite_dataset, baseline_rows, tmp_path, n_jobs
    ):
        journal = tmp_path / f"run{n_jobs}.jsonl"
        full = run_suite(
            [suite_dataset],
            methods=SUITE_METHODS,
            profile="quick",
            track_memory=False,
            n_jobs=n_jobs,
            journal=journal,
        )
        lines = journal.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        cell_lines = [
            number for number, record in enumerate(records)
            if record["kind"] == "cell"
        ]
        assert len(cell_lines) == SUITE_CELLS  # one commit per cell
        # Simulate an interrupt right after the third committed cell;
        # any lease journaled past that point is left dangling, exactly
        # as a real crash would leave it.
        journal.write_text("\n".join(lines[: cell_lines[2] + 1]) + "\n")
        with obs.capture() as tracer:
            resumed = run_suite(
                [suite_dataset],
                methods=SUITE_METHODS,
                profile="quick",
                track_memory=False,
                n_jobs=n_jobs,
                journal=journal,
                resume=True,
            )
        assert tracer.counters["fabric.cells_resumed"] == 3
        assert [_stable(r) for r in resumed] == [_stable(r) for r in full]
        assert [_stable(r) for r in resumed] == [
            _stable(r) for r in baseline_rows
        ]
        # The journal now covers the whole grid; resuming again recomputes
        # nothing and still reproduces the table.
        with obs.capture() as tracer:
            replayed = run_suite(
                [suite_dataset],
                methods=SUITE_METHODS,
                profile="quick",
                track_memory=False,
                journal=journal,
                resume=True,
            )
        assert tracer.counters["fabric.cells_resumed"] == SUITE_CELLS
        assert [_stable(r) for r in replayed] == [_stable(r) for r in full]

    def test_resume_true_requires_a_journal(self, suite_dataset):
        with pytest.raises(ValueError, match="resume=True needs a journal"):
            run_suite(
                [suite_dataset],
                methods=("MrCC",),
                profile="quick",
                track_memory=False,
                resume=True,
            )

    def test_missing_resume_journal_means_a_fresh_run(
        self, suite_dataset, baseline_rows, tmp_path
    ):
        rows = run_suite(
            [suite_dataset],
            methods=SUITE_METHODS,
            profile="quick",
            track_memory=False,
            journal=tmp_path / "fresh.jsonl",
            resume=True,
        )
        assert [_stable(r) for r in rows] == [_stable(r) for r in baseline_rows]
