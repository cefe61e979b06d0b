"""Time the program's own set-up once, in a fresh interpreter, in CPU seconds.

Run by ``workloads.setup_seconds`` as a child process, because an import
can only be timed once per process::

    python3 setup_probe.py fit
    python3 setup_probe.py serve <model-dir> <model-name> <batch-points> <delay-s>

Set-up is the ``repro`` import the workload needs plus the active
compute backend's warm-up; for serving, also the cold ``ModelCache``
load and the batch labeller's start.  Prints ``{"setup_s": ...}``.
"""

import time

_START = time.process_time()

import asyncio  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> float:
    mode = argv[0]
    from repro.core import kernels

    if mode == "fit":
        import repro.core.mrcc  # noqa: F401
    elif mode == "serve":
        from repro.serve import BatchLabeller, ModelCache
    else:
        raise SystemExit(f"unknown set-up mode {mode!r}")
    kernels.warm_up(kernels.active_backend())
    if mode != "serve":
        return time.process_time() - _START

    model_dir, name, batch_points, delay = argv[1:5]
    cache = ModelCache(root=model_dir, capacity=1, mmap=True)
    cache.get(name)

    async def start_labeller() -> float:
        labeller = BatchLabeller(
            cache, batch_points=int(batch_points), delay=float(delay)
        )
        labeller.start()
        ready = time.process_time()
        await labeller.stop()
        return ready

    return asyncio.run(start_labeller()) - _START


if __name__ == "__main__":
    print(json.dumps({"setup_s": main(sys.argv[1:])}))
