#!/usr/bin/env python
"""Time MrCC's optimised core against its seed references; write ``BENCH_core.json``.

Two optimised components are measured against the seed
(pre-optimisation) implementations the core keeps for exactly this
purpose, each under every loadable compute backend:

* **tree build** — :func:`repro.core.counting_tree.aggregate_levels`
  (bin and pack the points once, aggregate coarser levels from finer
  cells; its timing includes the binning) versus
  :func:`repro.core.counting_tree.reference_levels` (one full rescan of
  the pre-binned η points per level);
* **β-cluster search** — the incremental cursor/exclusion search of
  :func:`repro.core.beta_cluster.find_beta_clusters` versus
  :func:`repro.core.beta_cluster.reference_find_beta_clusters`.

The seed arm always runs on the numpy oracle, so its number means the
same on every machine.  Each backend's arm records whether its result
equals the seed's (``matches_reference``).  End-to-end numbers (fit,
serving, tracing overhead) are not measured here: the gated
``mrcc_bench`` workloads declared in ``BENCHMARK.json`` own them.

:func:`gate_failures` reads a payload's speedup floors and equality
flags; the script exits non-zero when it reports any, and
``tests/test_bench_core.py`` applies it to the committed file.

Usage::

    PYTHONPATH=src python scripts/perf_baseline.py           # full profile
    PYTHONPATH=src python scripts/perf_baseline.py --quick   # small smoke profile
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from repro.core import kernels
from repro.core.beta_cluster import (
    find_beta_clusters,
    reference_find_beta_clusters,
)
from repro.core.counting_tree import (
    CountingTree,
    aggregate_levels,
    bin_points,
    reference_levels,
    tree_from_levels,
)
from repro.obs import perf_clock

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA_VERSION = 3
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


def compare_to_reference(
    reference: Callable,
    optimised: Callable,
    same: Callable,
    backends: dict[str, dict],
    repeats: int,
) -> tuple[float, object, dict[str, dict]]:
    """Time the seed arm on numpy and the optimised arm on each backend.

    Each repeat runs the seed arm and then every backend's arm, round
    robin, and each arm keeps its best wall-clock time, so a slow spell
    of a shared machine falls on all arms alike instead of on one.
    Returns the seed seconds, the seed result and one arm per backend:
    its seconds, its speedup over the seed, its speedup over the numpy
    backend's optimised arm (what compilation alone buys), and whether
    its result equals the seed's.
    """
    runs = [("reference", "numpy", reference)] + [
        (name, name, optimised) for name in backends
    ]
    best = {label: float("inf") for label, _, _ in runs}
    results: dict[str, object] = {}
    for _ in range(repeats):
        for label, backend, fn in runs:
            with use_backend(backend):
                start = perf_clock()
                results[label] = fn()
                best[label] = min(best[label], perf_clock() - start)
    reference_s, expected = best["reference"], results["reference"]
    arms: dict[str, dict] = {
        name: {
            "seconds": best[name],
            "speedup": reference_s / best[name],
            "matches_reference": bool(same(results[name], expected)),
        }
        for name in backends
    }
    numpy_s = arms["numpy"]["seconds"]
    for arm in arms.values():
        arm["speedup_vs_numpy"] = numpy_s / arm["seconds"]
    return reference_s, expected, arms


def _same_levels(left: dict, right: dict) -> bool:
    return left.keys() == right.keys() and all(
        np.array_equal(left[h].words, right[h].words)
        and np.array_equal(left[h].n, right[h].n)
        and np.array_equal(left[h].half_counts, right[h].half_counts)
        for h in left
    )


def _same_betas(left: list, right: list) -> bool:
    return len(left) == len(right) and all(
        np.array_equal(a.lower, b.lower)
        and np.array_equal(a.upper, b.upper)
        and np.array_equal(a.relevant, b.relevant)
        for a, b in zip(left, right)
    )


def bench_tree_build(
    eta: int, d: int, h: int, repeats: int, seed: int, backends: dict[str, dict]
) -> dict:
    points = clustered_points(eta, d, n_clusters=10, noise_fraction=0.15, seed=seed)
    base = bin_points(points, h)
    # The aggregated arm bins as well; the rescan gets its binning free.
    reference_s, reference, arms = compare_to_reference(
        lambda: reference_levels(base, h, d),
        lambda: aggregate_levels(points, h),
        _same_levels,
        backends,
        repeats,
    )
    return {
        "params": {"eta": eta, "d": d, "H": h},
        "reference_seconds": reference_s,
        "n_cells": sum(level.n_cells for level in reference.values()),
        "backends": arms,
    }


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
    # Both arms search a pre-built tree (trees are identical by the
    # build equivalence), so only the search itself is timed; a search
    # leaves its tree unchanged, so repeats reuse it.
    tree = CountingTree(points, n_resolutions=h)
    reference_tree = tree_from_levels(
        reference_levels(bin_points(points, h), h, d), d, eta, h
    )
    reference_s, reference, arms = compare_to_reference(
        lambda: reference_find_beta_clusters(reference_tree, alpha),
        lambda: find_beta_clusters(tree, alpha),
        _same_betas,
        backends,
        repeats,
    )
    return {
        "params": {"eta": eta, "d": d, "H": h, "alpha": alpha},
        "reference_seconds": reference_s,
        "n_beta_clusters": len(reference),
        "backends": arms,
    }


def gate_failures(payload: dict) -> list[str]:
    """Every gate a ``BENCH_core.json`` payload misses, as messages.

    Each backend's result must equal the seed's.  The aggregated tree
    build must beat the rescan on every backend, and by at least
    ``TREE_SPEEDUP_FLOOR_FULL`` on the full profile.  On the full
    profile each compiled backend's β-search must also beat the numpy
    backend's by at least ``BETA_COMPILED_SPEEDUP_FLOOR``.
    """
    full = payload["profile"] == "full"
    compiled = {
        name for name, info in payload["backends"].items() if info["compiled"]
    }
    failures = []
    for key, row in payload["workloads"].items():
        workload = key.split("/")[0]
        for name, arm in row["backends"].items():
            if not arm["matches_reference"]:
                failures.append(f"{key} on {name}: result differs from the seed")
            if workload == "tree_build":
                floor = TREE_SPEEDUP_FLOOR_FULL if full else 1.0
                if arm["speedup"] < floor or arm["speedup"] <= 1.0:
                    failures.append(
                        f"{key} on {name}: speedup {arm['speedup']:.2f}x over"
                        f" the rescan does not clear the {floor:.1f}x floor"
                    )
            elif workload == "beta_search" and full and name in compiled:
                ratio = arm["speedup_vs_numpy"]
                if ratio < BETA_COMPILED_SPEEDUP_FLOOR:
                    failures.append(
                        f"{key} on {name}: speedup {ratio:.2f}x over the numpy"
                        f" backend is below the"
                        f" {BETA_COMPILED_SPEEDUP_FLOOR:.1f}x floor"
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small workloads for smoke runs (the build need only beat the"
        " rescan; no compiled-search floor)",
    )
    parser.add_argument(
        "--output", type=Path, default=REPO_ROOT / "BENCH_core.json",
        help="where to write the JSON trajectory (default: repo root)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        profile, repeats = "quick", 1
        tree_args = dict(eta=20_000, d=10, h=4, seed=7)
        search_args = dict(eta=8_000, d=8, h=4, seed=11, n_clusters=10)
    else:
        # The acceptance workloads: H=5, d=15, eta=100k.
        profile, repeats = "full", 5
        tree_args = dict(eta=100_000, d=15, h=5, seed=7)
        search_args = dict(eta=100_000, d=15, h=5, seed=11, n_clusters=40)

    backends = collect_backends()
    print("backends:", flush=True)
    for name, info in backends.items():
        print(
            f"  {name:<6} version {info['version']}"
            f"  warm-up {info['warmup_seconds']:.3f}s"
        )

    workloads = {}
    for prefix, bench, bench_args in (
        ("tree_build", bench_tree_build, tree_args),
        ("beta_search", bench_beta_search, search_args),
    ):
        key = "{}/h{h}_d{d}_eta{eta}".format(prefix, **bench_args)
        print(f"[{key}] ...", flush=True)
        workloads[key] = row = bench(
            repeats=repeats, backends=backends, **bench_args
        )
        print(f"  seed reference {row['reference_seconds']:.3f}s")
        for name, arm in row["backends"].items():
            print(
                f"  {name:<6} {arm['seconds']:.3f}s"
                f"  speedup {arm['speedup']:.2f}x"
                f"  vs numpy {arm['speedup_vs_numpy']:.2f}x"
                f"  matches reference: {arm['matches_reference']}"
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

    failures = gate_failures(payload)
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
