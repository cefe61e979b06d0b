#!/usr/bin/env python
"""Time the MrCC hot paths on pinned workloads; write ``BENCH_core.json``.

Three hot paths are measured against the seed (pre-optimisation)
reference implementations that the core keeps for exactly this purpose:

* **tree build** — :func:`repro.core.counting_tree.aggregate_levels`
  (bin and pack the points once, aggregate coarser levels from finer
  cells; its timing includes the binning) versus
  :func:`repro.core.counting_tree.reference_levels` (one full rescan of
  the pre-binned η points per level);
* **β-cluster search** — the incremental cursor/exclusion search of
  :func:`repro.core.beta_cluster.find_beta_clusters` versus the seed's
  full masked argmax + full-level overlap masks per restart;
* **end-to-end ``MrCC.fit``** — whose labels must not change versus the
  all-reference pipeline.

Results are written as a machine-readable JSON trajectory at the repo
root (``BENCH_core.json``), keyed by workload, so future PRs can extend
or compare against it.  Exit status is non-zero when a regression gate
fails (aggregated build must beat the rescan; on the full profile by
the ≥ 2× acceptance bar at H=5, d=15, η=100k).

Usage::

    PYTHONPATH=src python scripts/perf_baseline.py           # full profile
    PYTHONPATH=src python scripts/perf_baseline.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.beta_cluster import (
    find_beta_clusters,
    reference_find_beta_clusters,
)
from repro.core.correlation_cluster import build_correlation_clusters
from repro.core.counting_tree import (
    CountingTree,
    aggregate_levels,
    bin_points,
    reference_levels,
    tree_from_levels,
)
from repro.core.mrcc import MrCC
from repro.obs import perf_clock

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_VERSION = 2
TREE_SPEEDUP_FLOOR_FULL = 2.0
BETA_COMPILED_SPEEDUP_FLOOR = 5.0


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[kernels.Backend]:
    """Pin ``REPRO_BACKEND`` to ``name`` for the duration of one arm.

    ``kernels.active_backend`` re-resolves whenever the requested value
    changes, so flipping the variable is the complete switch.
    """
    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = name
    try:
        yield kernels.active_backend()
    finally:
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def collect_backends() -> dict[str, dict]:
    """Metadata plus measured warm-up time per loadable backend.

    Warm-up (the one-off C build of the cext backend) runs here, once,
    before any timed arm, so the timed runs never include it; the cost
    is recorded instead of hidden.
    """
    rows: dict[str, dict] = {}
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        start = perf_clock()
        kernels.warm_up(backend)
        rows[name] = {
            "compiled": backend.compiled,
            "version": backend.version,
            "warmup_seconds": perf_clock() - start,
        }
    return rows


def clustered_points(
    eta: int, d: int, n_clusters: int, noise_fraction: float, seed: int
) -> np.ndarray:
    """Pinned synthetic workload: Gaussian clusters plus uniform noise."""
    rng = np.random.default_rng(seed)
    n_noise = int(eta * noise_fraction)
    per_cluster = (eta - n_noise) // n_clusters
    parts = []
    for _ in range(n_clusters):
        center = rng.uniform(0.15, 0.85, size=d)
        parts.append(rng.normal(center, 0.02, size=(per_cluster, d)))
    parts.append(rng.uniform(0, 1, size=(eta - n_clusters * per_cluster, d)))
    return np.clip(np.vstack(parts), 0.0, np.nextafter(1.0, 0.0))


def best_of(repeats: int, fn):
    """Minimum wall-clock over ``repeats`` calls, plus the last result."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = perf_clock()
        value = fn()
        best = min(best, perf_clock() - start)
    return best, value


def bench_obs_overhead(eta: int) -> dict:
    """Observability overhead on the fit workload (see the benchmark).

    Reuses :func:`bench_obs_overhead.measure_obs_overhead` so the perf
    trajectory and the pytest guard report the same numbers.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    try:
        from bench_obs_overhead import measure_obs_overhead
    finally:
        sys.path.pop(0)
    return measure_obs_overhead(eta)


def bench_tree_build(eta: int, d: int, h: int, repeats: int, seed: int) -> dict:
    points = clustered_points(eta, d, n_clusters=10, noise_fraction=0.15, seed=seed)
    base = bin_points(points, h)
    aggregated_s, aggregated = best_of(repeats, lambda: aggregate_levels(points, h))
    reference_s, reference = best_of(repeats, lambda: reference_levels(base, h, d))
    for level in aggregated:
        a, b = aggregated[level], reference[level]
        if not (
            np.array_equal(a.coords, b.coords)
            and np.array_equal(a.n, b.n)
            and np.array_equal(a.half_counts, b.half_counts)
        ):
            raise AssertionError(f"aggregated level {level} differs from rescan")
    return {
        "params": {"eta": eta, "d": d, "H": h},
        "aggregated_seconds": aggregated_s,
        "reference_seconds": reference_s,
        "speedup": reference_s / aggregated_s,
    }


def _same_betas(left: list, right: list) -> bool:
    return len(left) == len(right) and all(
        np.array_equal(a.lower, b.lower)
        and np.array_equal(a.upper, b.upper)
        and np.array_equal(a.relevant, b.relevant)
        for a, b in zip(left, right)
    )


def bench_beta_search(
    eta: int,
    d: int,
    h: int,
    repeats: int,
    seed: int,
    backends: dict[str, dict],
    n_clusters: int = 40,
) -> dict:
    # Many clusters make the search restart-heavy, which is where the
    # incremental cursor/exclusion machinery earns its keep.
    points = clustered_points(
        eta, d, n_clusters=n_clusters, noise_fraction=0.10, seed=seed
    )
    alpha = 1e-10
    # All arms search the same pre-built tree (trees are identical by
    # the build equivalence), so only the search itself is timed; the
    # search leaves the tree unchanged, so repeats reuse it.
    tree = CountingTree(points, n_resolutions=h)
    reference_tree = tree_from_levels(
        reference_levels(bin_points(points, h), h, d), d, eta, h
    )

    def incremental():
        return find_beta_clusters(tree, alpha)

    def reference():
        return reference_find_beta_clusters(reference_tree, alpha)

    # The seed search arm is a numpy-era yardstick; pin it to the
    # oracle backend so the reference number means the same everywhere.
    with use_backend("numpy"):
        reference_s, reference_betas = best_of(repeats, reference)

    row = {
        "params": {"eta": eta, "d": d, "H": h, "alpha": alpha},
        "reference_seconds": reference_s,
        "n_beta_clusters": len(reference_betas),
        "backends": {},
    }
    for name in backends:
        with use_backend(name):
            incremental_s, betas = best_of(repeats, incremental)
        if not _same_betas(betas, reference_betas):
            raise AssertionError(
                f"{name} search differs from the seed search"
            )
        row["backends"][name] = {
            "incremental_seconds": incremental_s,
            "speedup": reference_s / incremental_s,
        }
    numpy_s = row["backends"]["numpy"]["incremental_seconds"]
    for name, arm in row["backends"].items():
        arm["speedup_vs_numpy_incremental"] = numpy_s / arm["incremental_seconds"]
    return row


def bench_fit(
    eta: int,
    d: int,
    h: int,
    repeats: int,
    seed: int,
    backends: dict[str, dict],
    reference_repeats: int | None = None,
    n_clusters: int = 8,
) -> dict:
    points = clustered_points(
        eta, d, n_clusters=n_clusters, noise_fraction=0.15, seed=seed
    )
    alpha = 1e-10

    def optimised():
        return MrCC(alpha=alpha, n_resolutions=h, normalize=False).fit(points)

    def reference():
        tree = tree_from_levels(
            reference_levels(bin_points(points, h), h, d), d, eta, h
        )
        betas = reference_find_beta_clusters(tree, alpha)
        return build_correlation_clusters(points, betas)

    with use_backend("numpy"):
        reference_s, reference_result = best_of(
            reference_repeats or repeats, reference
        )

    row = {
        "params": {"eta": eta, "d": d, "H": h, "alpha": alpha},
        "reference_seconds": reference_s,
        "n_clusters": reference_result.n_clusters,
        "backends": {},
    }
    for name in backends:
        with use_backend(name):
            fit_s, result = best_of(repeats, optimised)
        labels_match = bool(
            np.array_equal(result.labels, reference_result.labels)
        )
        if not labels_match:
            raise AssertionError(
                f"MrCC.fit labels changed versus the reference pipeline "
                f"under the {name} backend"
            )
        row["backends"][name] = {
            "seconds": fit_s,
            "speedup": reference_s / fit_s,
            "labels_match_reference": labels_match,
        }
    return row


def bench_serve(
    eta: int,
    d: int,
    h: int,
    repeats: int,
    seed: int,
    backends: dict[str, dict],
    n_clusters: int = 8,
    n_requests: int = 32,
) -> dict:
    """The serving arm: model save/load cost plus batched label latency.

    One model is fitted and persisted, then for each backend the async
    front end labels the full workload split into ``n_requests``
    concurrent requests; the served labels must equal the fit's.
    """
    import asyncio
    import tempfile

    from repro.serve import (
        BatchLabeller,
        ModelCache,
        latency_quantiles,
        load_model,
        save_model,
    )

    points = clustered_points(
        eta, d, n_clusters=n_clusters, noise_fraction=0.15, seed=seed
    )
    alpha = 1e-10
    with use_backend("numpy"):
        estimator = MrCC(alpha=alpha, n_resolutions=h, normalize=False)
        reference_result = estimator.fit(points)

    with tempfile.TemporaryDirectory() as tmp:
        model_path = Path(tmp) / "bench.model"
        save_s, _ = best_of(repeats, lambda: save_model(estimator, model_path))
        load_mmap_s, _ = best_of(repeats, lambda: load_model(model_path))
        load_copy_s, _ = best_of(
            repeats, lambda: load_model(model_path, mmap=False)
        )
        row = {
            "params": {
                "eta": eta, "d": d, "H": h, "alpha": alpha,
                "n_requests": n_requests,
            },
            "model_bytes": model_path.stat().st_size,
            "save_seconds": save_s,
            "load_mmap_seconds": load_mmap_s,
            "load_copy_seconds": load_copy_s,
            "backends": {},
        }
        chunks = [
            chunk
            for chunk in np.array_split(points, n_requests)
            if chunk.shape[0]
        ]

        def serve_once() -> tuple[np.ndarray, list[float]]:
            cache = ModelCache(root=tmp, capacity=2)

            async def run():
                async with BatchLabeller(
                    cache, batch_points=max(eta // 4, 1), delay=0.001
                ) as labeller:
                    parts = await asyncio.gather(
                        *[
                            labeller.label("bench.model", chunk)
                            for chunk in chunks
                        ]
                    )
                    return np.concatenate(parts), list(labeller.latencies)

            return asyncio.run(run())

        for name in backends:
            with use_backend(name):
                wall_s, (labels, latencies) = best_of(repeats, serve_once)
            if not np.array_equal(labels, reference_result.labels):
                raise AssertionError(
                    f"served labels differ from MrCC.fit labels under the "
                    f"{name} backend"
                )
            row["backends"][name] = {
                "wall_seconds": wall_s,
                "points_per_second": eta / wall_s,
                "latency_s": latency_quantiles(latencies),
                "labels_match_fit": True,
            }
    return row


def merge_serve_workloads(output: Path, serve_rows: dict[str, dict]) -> dict:
    """Update only the ``serve/`` workload keys of an existing trajectory.

    The committed ``BENCH_core.json`` holds full-profile numbers for
    every arm; a serve-only rerun must not clobber them with nothing or
    with quick-profile values.  Missing file falls back to a minimal
    payload that carries just the serve rows.
    """
    if output.exists():
        payload = json.loads(output.read_text())
    else:
        payload = {
            "schema": SCHEMA_VERSION,
            "profile": "full",
            "generated_by": "scripts/perf_baseline.py",
            "backends": {},
            "workloads": {},
        }
    stale = [
        key for key in payload["workloads"] if key.startswith("serve/")
    ]
    for key in stale:
        del payload["workloads"][key]
    payload["workloads"].update(serve_rows)
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads for CI smoke runs (no 2x gate)",
    )
    parser.add_argument(
        "--only", choices=("serve",), default=None,
        help="run a single arm and merge its workload keys into the "
        "existing trajectory instead of rewriting the whole file",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_core.json",
        help="where to write the JSON trajectory (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        profile = "quick"
        repeats = 1
        tree_args = dict(eta=20_000, d=10, h=4, seed=7)
        search_args = dict(eta=8_000, d=8, h=4, seed=11, n_clusters=10)
        fit_workloads = [dict(eta=8_000, d=8, h=4, seed=13)]
        serve_args = dict(eta=8_000, d=8, h=4, seed=13)
        speedup_floor = 1.0
        beta_floor = None
    else:
        profile = "full"
        repeats = 3
        # The acceptance workloads: H=5, d=15, eta=100k (plus the
        # production-scale 1M-point fit, timed once per backend).
        tree_args = dict(eta=100_000, d=15, h=5, seed=7)
        search_args = dict(eta=100_000, d=15, h=5, seed=11, n_clusters=40)
        fit_workloads = [
            dict(eta=50_000, d=10, h=4, seed=13),
            dict(
                eta=1_000_000, d=15, h=5, seed=17, n_clusters=20,
                repeats=1, reference_repeats=1,
            ),
        ]
        serve_args = dict(eta=50_000, d=10, h=4, seed=13)
        speedup_floor = TREE_SPEEDUP_FLOOR_FULL
        beta_floor = BETA_COMPILED_SPEEDUP_FLOOR

    backends = collect_backends()
    print("backends:", flush=True)
    for backend_name, info in backends.items():
        print(
            f"  {backend_name:<6} version {info['version']}"
            f"  warm-up {info['warmup_seconds']:.3f}s"
        )
    compiled = [n for n, info in backends.items() if info["compiled"]]

    def run_serve_arm() -> tuple[str, dict]:
        arm_name = "serve/h{h}_d{d}_eta{eta}".format(**serve_args)
        print(f"[{arm_name}] ...", flush=True)
        serve_row = bench_serve(repeats=repeats, backends=backends, **serve_args)
        print(
            f"  save {serve_row['save_seconds']:.3f}s"
            f"  load(mmap) {serve_row['load_mmap_seconds'] * 1e3:.1f}ms"
            f"  load(copy) {serve_row['load_copy_seconds'] * 1e3:.1f}ms"
            f"  ({serve_row['model_bytes']} bytes)"
        )
        for arm_backend, arm in serve_row["backends"].items():
            quantiles = arm["latency_s"]
            print(
                f"  {arm_backend:<6} {arm['points_per_second']:,.0f} pts/s"
                f"  p50 {quantiles['p50'] * 1e3:.2f}ms"
                f"  p99 {quantiles['p99'] * 1e3:.2f}ms"
            )
        return arm_name, serve_row

    if args.only == "serve":
        name, row = run_serve_arm()
        payload = merge_serve_workloads(args.output, {name: row})
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"merged {name} into {args.output}")
        return 0

    workloads = {}
    name = "tree_build/h{h}_d{d}_eta{eta}".format(**tree_args)
    print(f"[{name}] ...", flush=True)
    workloads[name] = row = bench_tree_build(repeats=repeats, **tree_args)
    print(
        f"  aggregated {row['aggregated_seconds']:.3f}s"
        f"  rescan {row['reference_seconds']:.3f}s"
        f"  speedup {row['speedup']:.2f}x"
    )
    tree_speedup = row["speedup"]

    name = "beta_search/h{h}_d{d}_eta{eta}".format(**search_args)
    print(f"[{name}] ...", flush=True)
    workloads[name] = row = bench_beta_search(
        repeats=repeats, backends=backends, **search_args
    )
    print(f"  seed search {row['reference_seconds']:.3f}s")
    for backend_name, arm in row["backends"].items():
        print(
            f"  {backend_name:<6} incremental {arm['incremental_seconds']:.3f}s"
            f"  speedup {arm['speedup']:.2f}x"
            f"  vs numpy incremental"
            f" {arm['speedup_vs_numpy_incremental']:.2f}x"
        )
    beta_row = row

    for fit_args in fit_workloads:
        fit_args = dict(fit_args)
        fit_repeats = fit_args.pop("repeats", repeats)
        name = "fit/h{h}_d{d}_eta{eta}".format(**fit_args)
        print(f"[{name}] ...", flush=True)
        workloads[name] = row = bench_fit(
            repeats=fit_repeats, backends=backends, **fit_args
        )
        print(f"  reference {row['reference_seconds']:.3f}s")
        for backend_name, arm in row["backends"].items():
            print(
                f"  {backend_name:<6} fit {arm['seconds']:.3f}s"
                f"  speedup {arm['speedup']:.2f}x"
                f"  labels match: {arm['labels_match_reference']}"
            )

    name, row = run_serve_arm()
    workloads[name] = row

    obs_eta = 10_000 if args.quick else 100_000
    name = f"obs_overhead/eta{obs_eta}"
    print(f"[{name}] ...", flush=True)
    workloads[name] = row = bench_obs_overhead(obs_eta)
    print(
        f"  disabled {row['fit_disabled_seconds']:.3f}s"
        f"  enabled {row['fit_enabled_seconds']:.3f}s"
        f"  ({row['enabled_relative']:+.2%})"
        f"  disabled-hook estimate {row['disabled_estimate_relative']:+.4%}"
    )

    payload = {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "generated_by": "scripts/perf_baseline.py",
        "backends": backends,
        "workloads": workloads,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failed = False
    if tree_speedup < speedup_floor:
        print(
            f"REGRESSION: tree build speedup {tree_speedup:.2f}x is below the"
            f" {speedup_floor:.1f}x floor",
            file=sys.stderr,
        )
        failed = True
    if beta_floor is not None and compiled:
        best = max(
            beta_row["backends"][n]["speedup_vs_numpy_incremental"]
            for n in compiled
        )
        if best < beta_floor:
            print(
                f"REGRESSION: compiled beta-search speedup {best:.2f}x over"
                f" the numpy incremental path is below the"
                f" {beta_floor:.1f}x floor",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
