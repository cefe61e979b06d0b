"""The benchmark's three workloads, driven only through public ``repro`` calls.

Each workload gives one phase full size; its trace run adds the other
layers as small probes, so every layer is measured on every workload but
does most of its work on one:

==================  ==========================  ===========================
workload            end-to-end run measures     trace run adds (probes)
==================  ==========================  ===========================
``fit_1m_d15``      1M x 15 fits (cext)         base-model serve, tiny suite
``fit_14d_numpy``   base_14d fits (numpy)       base-model serve, tiny suite
``serve_open_loop`` open loop + backlog         base-model fit, tiny suite
==================  ==========================  ===========================

The end-to-end run (``trace=False``) measures with nothing but its own
clocks around the timed calls.  The trace run (``trace=True``) times
every public stage call separately and resets the peak-RSS mark around
each, and reports the per-layer metrics.

Serial work (a fit, a backlog of labelling, set-up) is timed in process
CPU seconds: the program runs on one thread there, so CPU time is its
wall time minus what the hypervisor steals from the vCPU, and on a
shared VM the steal is most of the run-to-run spread.  Latency is wall
time, since waiting is part of it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

import numpy as np

from helpers import (
    canonical_labels,
    cpu_seconds,
    labels_digest,
    measured,
    open_loop_schedule,
    peak_rss_kb,
    percentile,
    request_sizes,
    reset_peak_rss,
    row_permutation,
)
from repro.core import kernels
from repro.core.beta_cluster import find_beta_clusters
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.counting_tree import CountingTree
from repro.core.mrcc import MrCC
from repro.data import suites
from repro.data.normalize import apply_minmax, minmax_params
from repro.experiments.runner import run_suite
from repro.serve import BatchLabeller, FittedModel, ModelCache, load_model, save_model
from repro.types import Dataset, SubspaceCluster

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
"""Pinned outputs, written by ``pin.py``: label digests and suite qualities."""

ALPHA = 1e-10
H = 5
"""Resolutions for the fit workloads and the served model (the suite's
MrCC grid fixes its own H=4)."""

BIG = {"eta": 1_000_000, "d": 15, "n_clusters": 10, "noise": 0.15, "seed": 17}
"""The 1M-point data: ten Gaussian clusters plus 15 % uniform noise."""

PROBE_SUITE_SCALE = 0.05
"""The probe suite is the first Fig. 5 group at 5 % of its points (7 cells)."""

SUITE_JOBS = 2

SERVE_BATCH_POINTS = 4096
SERVE_DELAY_S = 0.002
"""The program's own defaults (``serve_batch_from_env``,
``serve_delay_from_env``), passed explicitly so no ``REPRO_SERVE_*``
variable can change what is measured."""
SERVE_RATE = 1000.0
SERVE_MEDIAN_POINTS = 64
SERVE_SIZE_SIGMA = 1.0
SERVE_MAX_POINTS = 4096
"""Synthetic traffic, not a measured or published trace: Poisson arrivals
at a fixed rate (about a sixth of backlog capacity on a 2-vCPU x86 VM)
and lognormal request sizes (median 64 points, clipped to the batch
budget)."""
SERVE_POOL = 2048
"""Distinct pre-built requests; the schedule draws from them."""
SERVE_OPEN_SHARE = 0.4
"""Share of the run spent in the open loop; the rest is backlog."""
SETUP_REPEATS = 5
MIN_FITS = 3
PROBE_SECONDS = 1.0

RECONCILE_SHARE = 0.10
RECONCILE_FLOOR_S = 0.05
"""Traced stage times must sum to the untraced fit within
``RECONCILE_SHARE`` of its median plus ``RECONCILE_FLOOR_S``: wide
enough for a shared host's speed swings between fits, narrow enough to catch
a stage the trace no longer times (assembly alone is a quarter of the
1M fit)."""


class Tally:
    """Operations attempted and failed, checks that failed, and metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, float] = {}

    def op(self, ok: bool, message: str) -> None:
        """Count one operation; a wrong output counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """A check on the measurement itself rather than on one operation."""
        if not ok:
            self.errors.append(message)

    @property
    def correct(self) -> bool:
        return not self.errors


# ---------------------------------------------------------------- inputs


def clustered_points(eta: int, d: int, n_clusters: int, noise: float, seed: int) -> np.ndarray:
    """Gaussian clusters (sd 0.02) plus uniform noise, the BENCH_core shape."""
    rng = np.random.default_rng(seed)
    n_noise = int(eta * noise)
    per_cluster = (eta - n_noise) // n_clusters
    parts = [
        rng.normal(rng.uniform(0.15, 0.85, size=d), 0.02, size=(per_cluster, d))
        for _ in range(n_clusters)
    ]
    parts.append(rng.uniform(0.0, 1.0, size=(eta - n_clusters * per_cluster, d)))
    return np.vstack(parts)


def permuted(dataset: Dataset, seed: int) -> tuple[Dataset, np.ndarray]:
    """``dataset`` with its rows (and ground truth) in the seed's order."""
    perm = row_permutation(seed, dataset.n_points)
    new_index = np.empty_like(perm)
    new_index[perm] = np.arange(perm.shape[0])
    clusters = [
        SubspaceCluster(
            indices=frozenset(
                new_index[np.fromiter(c.indices, np.int64, len(c.indices))].tolist()
            ),
            relevant_axes=c.relevant_axes,
        )
        for c in dataset.clusters
    ]
    moved = dataclasses.replace(
        dataset, points=dataset.points[perm], labels=dataset.labels[perm], clusters=clusters
    )
    return moved, perm


def suite_datasets(seed: int) -> list[Dataset]:
    """The probe suite in the seed's row order."""
    return [permuted(d, seed)[0] for d in suites.first_group(scale=PROBE_SUITE_SCALE)]


# ------------------------------------------------------------------ set-up


def setup_seconds(mode: str, extra: list[str] | None = None) -> float:
    """Median set-up CPU time over ``SETUP_REPEATS`` fresh interpreters.

    This process has already imported (so written the bytecode of)
    everything a child imports; loading the backend here first compiles
    the C backend on a fresh checkout, a once-per-install cost that the
    children must not see.
    """
    kernels.active_backend()
    command = [sys.executable, str(BENCH_DIR / "setup_probe.py"), mode, *(extra or [])]
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return median(samples)


# --------------------------------------------------------------------- fit


def check_fit(tally: Tally, labels: np.ndarray, perm: np.ndarray, pin: str, what: str) -> None:
    digest = labels_digest(canonical_labels(labels, perm))
    tally.op(digest == pin, f"{what}: label digest {digest} != pinned {pin}")


def fit_timed(points: np.ndarray) -> tuple[Any, float, int]:
    gc.collect()
    return measured(lambda: MrCC(alpha=ALPHA, n_resolutions=H).fit(points))


def fit_e2e(tally: Tally, points: np.ndarray, perm: np.ndarray, pin: str, seconds: float) -> None:
    """One warm-up fit, then timed fits while the next fits in ``seconds``.

    At least ``MIN_FITS``, so a slow host does not turn the median of
    three 1M fits into the mean of two.
    """
    check_fit(tally, fit_timed(points)[0].labels, perm, pin, "warm-up fit")
    times, peaks = [], []
    start = time.perf_counter()
    last_wall = 0.0
    while len(times) < MIN_FITS or time.perf_counter() - start + last_wall <= seconds:
        begin = time.perf_counter()
        result, cpu, peak = fit_timed(points)
        last_wall = time.perf_counter() - begin
        check_fit(tally, result.labels, perm, pin, f"fit {len(times)}")
        del result
        times.append(cpu)
        peaks.append(peak)
    tally.metrics["points_per_s"] = points.shape[0] / median(times)
    tally.metrics["latency_p50_ms"] = 1e3 * median(times)
    tally.metrics["peak_rss_mb"] = median(peaks) / 1024.0


def staged_fit(points: np.ndarray) -> tuple[np.ndarray, dict[str, tuple[float, int]], dict[str, int]]:
    """``MrCC.fit``'s stages as separate public calls, each timed."""
    stages: dict[str, tuple[float, int]] = {}

    def stage(name: str, fn):
        value, seconds, peak = measured(fn)
        stages[name] = (seconds, peak)
        return value

    unit = stage("normalize", lambda: apply_minmax(points, *minmax_params(points)))
    tree = stage("counting_tree", lambda: CountingTree(unit, n_resolutions=H))
    betas = stage("beta_cluster", lambda: find_beta_clusters(tree, ALPHA))
    result = stage("correlation_cluster", lambda: build_correlation_clusters(unit, betas))
    counts = {
        "counting_tree.cells": tree.total_cells(),
        "beta_cluster.found": len(betas),
        "correlation_cluster.clusters": result.n_clusters,
    }
    return result.labels, stages, counts


def fit_trace(tally: Tally, points: np.ndarray, perm: np.ndarray, pin: str, seconds: float) -> None:
    """Alternate untraced and staged fits; reconcile them pair by pair.

    Differences are taken within each back-to-back pair and then the
    median over pairs, so a shift in the host's speed between pairs
    cancels out of the reconciliation.
    """
    check_fit(tally, fit_timed(points)[0].labels, perm, pin, "warm-up fit")
    untraced, untraced_wall, traced, unaccounted = [], [], [], []
    stage_samples: dict[str, list[tuple[float, int]]] = {}
    start = time.perf_counter()
    pair_wall = 0.0
    while not traced or time.perf_counter() - start + pair_wall <= seconds:
        begin_pair = time.perf_counter()
        result, cpu, _ = fit_timed(points)
        untraced_wall.append(time.perf_counter() - begin_pair)
        check_fit(tally, result.labels, perm, pin, "untraced fit")
        del result
        gc.collect()
        begin = cpu_seconds()
        labels, stages, counts = staged_fit(points)
        traced.append(cpu_seconds() - begin)
        pair_wall = time.perf_counter() - begin_pair
        untraced.append(cpu)
        unaccounted.append(cpu - sum(s for s, _ in stages.values()))
        check_fit(tally, labels, perm, pin, "staged fit")
        for name, sample in stages.items():
            stage_samples.setdefault(name, []).append(sample)
    m = tally.metrics
    for name, samples in stage_samples.items():
        m[f"{name}.s"] = median([s for s, _ in samples])
    for name in ("counting_tree", "correlation_cluster"):
        m[f"{name}.peak_rss_mb"] = median([kb for _, kb in stage_samples[name]]) / 1024.0
    m.update(counts)
    m["fit.unaccounted_s"] = median(unaccounted)
    m["fit.wall_s"] = median(untraced_wall)
    m["trace.overhead_s"] = median([t - u for t, u in zip(traced, untraced)])
    fit_s = median(untraced)
    tolerance = RECONCILE_SHARE * fit_s + RECONCILE_FLOOR_S
    tally.expect(
        abs(m["fit.unaccounted_s"]) <= tolerance,
        f"stage CPU times leave {m['fit.unaccounted_s']:.4f}s of the untraced fit "
        f"median {fit_s:.4f}s unaccounted: outside the {tolerance:.4f}s tolerance",
    )


# ------------------------------------------------------------------- serve


@dataclasses.dataclass
class ServeInputs:
    """A saved model plus a seeded request pool and its direct labels."""

    model_dir: Path
    name: str
    model: FittedModel
    pool: list[np.ndarray]
    direct: list[np.ndarray]
    seed: int


def prepare_serve(tally: Tally, seed: int, workdir: Path, pin: str) -> ServeInputs:
    """Fit the base model, save it once and build the request pool."""
    base, perm = permuted(suites.base_14d(), seed)
    estimator = MrCC(alpha=ALPHA, n_resolutions=H)
    check_fit(tally, estimator.fit(base.points).labels, perm, pin, "served model fit")
    name = "base14d.model"
    save_model(estimator, workdir / name)
    model = load_model(workdir / name, mmap=False)
    rng = np.random.default_rng([seed, 3])
    sizes = request_sizes(seed, SERVE_POOL, SERVE_MEDIAN_POINTS, SERVE_SIZE_SIGMA, SERVE_MAX_POINTS)
    pool = [base.points[rng.integers(0, base.n_points, size=int(n))] for n in sizes]
    direct = [model.label(points) for points in pool]
    return ServeInputs(workdir, name, model, pool, direct, seed)


async def _request(labeller: BatchLabeller, name: str, points: np.ndarray, due: float):
    try:
        labels = await labeller.label(name, points)
    except Exception as exc:  # a failed request is counted, not fatal
        return exc, time.perf_counter() - due
    return labels, time.perf_counter() - due


async def _open_loop(labeller, inputs: ServeInputs, offsets, choices):
    """Send each request when due; latency runs from the due time."""
    tasks = []
    lags = np.empty(offsets.shape[0])
    zero = time.perf_counter()
    for i, offset in enumerate(offsets):
        due = zero + offset
        # Poll rather than sleep, so the loop never halts its vCPU: on a
        # shared VM a halted vCPU wakes milliseconds late, and a sleeping
        # generator put that wake-up delay, not the labeller, into the
        # median.  ``time.sleep(0)`` hands over the GIL on every turn, so
        # the poll does not starve a labelling thread either.
        while time.perf_counter() < due:
            time.sleep(0)
            await asyncio.sleep(0)
        lags[i] = time.perf_counter() - due
        points = inputs.pool[choices[i]]
        tasks.append(asyncio.create_task(_request(labeller, inputs.name, points, due)))
    return await asyncio.gather(*tasks), lags


async def _backlog(labeller, inputs: ServeInputs, choices):
    """Queue a whole round at once; the labeller always has work waiting.

    Returns the results and the round's CPU and wall seconds: the
    labeller never waits here, so the loop's one thread is busy for the
    whole round and the two differ only by time the vCPU did not run.
    """
    start, start_cpu = time.perf_counter(), cpu_seconds()
    tasks = [
        asyncio.create_task(_request(labeller, inputs.name, inputs.pool[j], start))
        for j in choices
    ]
    results = await asyncio.gather(*tasks)
    return results, cpu_seconds() - start_cpu, time.perf_counter() - start


def _check_served(tally: Tally, inputs: ServeInputs, results, choices, phase: str) -> list[float]:
    latencies = []
    for (labels, latency), j in zip(results, choices):
        if isinstance(labels, Exception):
            tally.op(False, f"{phase} request raised {labels!r}")
            continue
        tally.op(
            np.array_equal(labels, inputs.direct[j]),
            f"{phase} request on pool entry {j}: served labels differ from FittedModel.label",
        )
        latencies.append(latency)
    return latencies


def serve_phase(tally: Tally, inputs: ServeInputs, open_seconds: float, backlog_seconds: float, trace: bool) -> None:
    offsets, choices = open_loop_schedule(inputs.seed, SERVE_RATE, open_seconds, SERVE_POOL)
    round_rng = np.random.default_rng([inputs.seed, 4])

    async def session():
        cache = ModelCache(root=inputs.model_dir, capacity=1, mmap=True)
        async with BatchLabeller(cache, batch_points=SERVE_BATCH_POINTS, delay=SERVE_DELAY_S) as labeller:
            await labeller.label(inputs.name, inputs.pool[0])
            reset_peak_rss()
            batches = labeller.batches
            open_results, lags = await _open_loop(labeller, inputs, offsets, choices)
            open_batches = labeller.batches - batches
            # Each round is checked, and its results dropped, outside its
            # timed span, so the peak RSS does not grow with the round count.
            backlog_points = backlog_cpu = backlog_wall = 0.0
            start = time.perf_counter()
            while not backlog_cpu or time.perf_counter() - start < backlog_seconds:
                round_choices = round_rng.permutation(SERVE_POOL)
                results, cpu, wall = await _backlog(labeller, inputs, round_choices)
                _check_served(tally, inputs, results, round_choices, "backlog")
                backlog_points += sum(inputs.pool[j].shape[0] for j in round_choices)
                backlog_cpu += cpu
                backlog_wall += wall
            rates = backlog_points / backlog_cpu, backlog_points / backlog_wall
            return open_results, lags, open_batches, rates, peak_rss_kb()

    open_results, lags, open_batches, (backlog_rate, backlog_wall_rate), peak = asyncio.run(session())
    latencies = _check_served(tally, inputs, open_results, choices, "open-loop")
    m = tally.metrics
    if not trace:
        # Points per CPU second over the whole backlog phase, not a median
        # of rounds: the long-window figure repeats better than any round.
        m["points_per_s"] = backlog_rate
        m["latency_p50_ms"] = 1e3 * median(latencies)
        m["peak_rss_mb"] = peak / 1024.0
        return

    replay = []
    replay_cpu = cpu_seconds()
    for j in choices:
        start = time.perf_counter()
        labels = inputs.model.label(inputs.pool[j])
        replay.append(time.perf_counter() - start)
        tally.op(np.array_equal(labels, inputs.direct[j]), "replayed labels differ")
    replay_cpu = cpu_seconds() - replay_cpu
    open_points = sum(inputs.pool[j].shape[0] for j in choices)
    loads = [measured(lambda: load_model(inputs.model_dir / inputs.name))[1] for _ in range(5)]
    served = [
        latency - direct
        for (labels, latency), direct in zip(open_results, replay)
        if not isinstance(labels, Exception)
    ]
    m["serve.model.load_s"] = median(loads)
    m["serve.model_bytes"] = (inputs.model_dir / inputs.name).stat().st_size
    m["serve.label_points_per_s"] = open_points / replay_cpu
    m["serve.backlog_wall_points_per_s"] = backlog_wall_rate
    m["serve.service.batches"] = open_batches
    m["serve.service.points_per_batch"] = open_points / open_batches
    m["serve.service.wait_ms"] = 1e3 * median(served)
    m["serve.latency_p99_ms"] = 1e3 * percentile(latencies, 99)[0]
    m["serve.generator_lag_p99_ms"] = 1e3 * percentile(list(lags), 99)[0]
    m["serve.requests"] = len(choices)
    m["serve.failed"] = len(choices) - len(latencies)


# ------------------------------------------------------------------- suite


def _suite_pass(tally: Tally, datasets, pinned, journal: Path | None, track_memory: bool):
    begin = time.perf_counter()
    rows = run_suite(
        datasets, methods=("MrCC",), n_jobs=SUITE_JOBS, journal=journal, track_memory=track_memory
    )
    wall = time.perf_counter() - begin
    for row, (name, quality) in zip(rows, pinned, strict=True):
        tally.op(
            row["status"] == "ok" and row["dataset"] == name and row["quality"] == quality,
            f"suite row {row['dataset']}: status {row['status']}, quality "
            f"{row.get('quality')!r} (pinned {name} {quality!r})",
        )
    return rows, wall


def suite_probe(tally: Tally, seed: int, pinned: list, workdir: Path) -> None:
    """The probe suite through ``run_suite`` on two fabric slots, twice.

    The journaled pass skips the runner's serial memory pass, so its
    slot time is the fabric's and the cells' own; a second pass with
    the memory pass on gives the runner's peak.
    """
    datasets = suite_datasets(seed)
    journal = workdir / "journal.jsonl"
    journal.unlink(missing_ok=True)
    rows, wall = _suite_pass(tally, datasets, pinned, journal, track_memory=False)
    memory_rows, _ = _suite_pass(tally, datasets, pinned, None, track_memory=True)
    fit_sum = sum(row["seconds"] for row in rows)
    kinds: dict[str, int] = {}
    with open(journal) as handle:
        for line in handle:
            kind = json.loads(line)["kind"]
            kinds[kind] = kinds.get(kind, 0) + 1
    m = tally.metrics
    m["runner.fit_s_sum"] = fit_sum
    m["runner.peak_kb_max"] = max(row["peak_kb"] for row in memory_rows)
    m["fabric.non_fit_slot_s"] = SUITE_JOBS * wall - fit_sum
    for kind in ("lease", "cell", "steal"):
        m[f"fabric.journal_records.{kind}"] = kinds.get(kind, 0)
    m["fabric.journal_bytes"] = journal.stat().st_size


# --------------------------------------------------------------- workloads


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Tally:
    """Run one workload and return its tally of operations and metrics."""
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_BACKEND"] = "numpy" if workload == "fit_14d_numpy" else "auto"
    pins = json.loads(PINS_PATH.read_text())
    tally = Tally()
    m = tally.metrics
    if workload in ("fit_1m_d15", "fit_14d_numpy"):
        if workload == "fit_1m_d15":
            points = clustered_points(**BIG)
        else:
            points = suites.base_14d().points
        perm = row_permutation(seed, points.shape[0])
        points = points[perm]
        if not trace:
            m["setup_s"] = setup_seconds("fit")
            fit_e2e(tally, points, perm, pins[workload], seconds)
            return tally
        fit_trace(tally, points, perm, pins[workload], seconds)
        del points
        serve_phase(tally, prepare_serve(tally, seed, workdir, pins["fit_14d_numpy"]), PROBE_SECONDS, PROBE_SECONDS, True)
    elif workload == "serve_open_loop":
        inputs = prepare_serve(tally, seed, workdir, pins["fit_14d_numpy"])
        if not trace:
            m["setup_s"] = setup_seconds(
                "serve",
                [str(workdir), inputs.name, str(SERVE_BATCH_POINTS), str(SERVE_DELAY_S)],
            )
            serve_phase(
                tally, inputs, SERVE_OPEN_SHARE * seconds, (1 - SERVE_OPEN_SHARE) * seconds, False
            )
            return tally
        base, perm = permuted(suites.base_14d(), seed)
        fit_trace(tally, base.points, perm, pins["fit_14d_numpy"], PROBE_SECONDS)
        serve_phase(
            tally, inputs, SERVE_OPEN_SHARE * seconds, (1 - SERVE_OPEN_SHARE) * seconds, True
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    suite_probe(tally, seed, pins["probe_suite"], workdir)
    return tally
