#!/usr/bin/env python3
"""MrCC benchmark: one workload per call, metrics as the last JSON line.

Run from the root of a checkout::

    python3 mrcc_bench/run.py --workload fit_1m_d15 --seed 1 --seconds 20 --trace 0
    python3 mrcc_bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones.  Every metric is printed as
``name value unit`` before the final JSON object.  The program is built
from the checkout's ``src/`` (the C backend compiles on first use into
``.bench_build/``); the exit code is non-zero when any output is wrong
or the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"


def prepare_environment() -> None:
    """Pin the program's knobs and keep every file it writes in the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def _run_all(spec: dict, args: argparse.Namespace) -> int:
    status = 0
    for workload in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload["name"], "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        print(f"== {workload['name']}", flush=True)
        status = max(status, subprocess.run(command, timeout=1800).returncode)
    return status


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    prepare_environment()
    if args.workload == "all":
        return _run_all(spec, args)

    import workloads

    workdir = BUILD / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tally = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = tally.metrics[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} {value:.6g} {metric['unit']}")
    for error in tally.errors:
        print(f"ERROR {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
