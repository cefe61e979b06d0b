"""The serving front end: model cache plus async batch labeller.

Two pieces turn persisted models into a clustering *service*:

:class:`ModelCache`
    A per-process LRU over :func:`repro.serve.load_model`.  Capacity
    and model directory default to the ``REPRO_SERVE_CACHE`` /
    ``REPRO_MODEL_DIR`` knobs (via :mod:`repro.env`); hits, misses and
    evictions are counted both on the cache object and in the
    :mod:`repro.obs` counter registry, so the cache algebra is
    testable (``hits + misses == lookups``).

:class:`BatchLabeller`
    An asyncio front end that micro-batches concurrent label requests:
    requests queue up, and a worker coalesces them until either a
    point budget (``REPRO_SERVE_BATCH``) is reached or a delay window
    (``REPRO_SERVE_DELAY``) closes, then labels each model's share in
    **one** kernel call — one pass of the active backend's
    ``label_rows`` over the batch — and splits the label vector back
    per request.  Because
    :func:`~repro.core.correlation_cluster.label_points` is row-wise
    pure, the labels are bit-identical no matter how requests were
    coalesced — the batch-invariance property suite asserts it.

Failure semantics follow the job fabric: a fault injected via
``REPRO_FAULTS`` (request keys look like ``serve|<model>|request<i>``)
or a model that fails to load poisons only the affected requests —
their futures carry the exception — while the worker loop and every
other in-flight request survive.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import obs
from repro.core.contracts import ContractError, check_array
from repro.core.correlation_cluster import label_points
from repro.data.normalize import apply_minmax
from repro.env import (
    faults_from_env,
    model_dir_from_env,
    serve_batch_from_env,
    serve_cache_from_env,
    serve_delay_from_env,
)
from repro.fabric.faults import FaultSpec, fire, parse_faults
from repro.serve.model import FittedModel, load_model
from repro.types import FloatArray, IntArray

__all__ = [
    "BatchLabeller",
    "LabellerStopped",
    "ModelCache",
    "latency_quantiles",
]


class LabellerStopped(RuntimeError):
    """A label request arrived at a stopping or stopped labeller.

    Raised synchronously by :meth:`BatchLabeller.label` — the request
    is *rejected*, never silently enqueued behind the stop sentinel
    where its future would dangle forever.
    """


class ModelCache:
    """LRU cache of loaded serving models, keyed by file name.

    Parameters
    ----------
    root:
        Directory holding the model files; defaults to the
        ``REPRO_MODEL_DIR`` knob.
    capacity:
        Maximum resident models; defaults to ``REPRO_SERVE_CACHE``.
        The least-recently-used model is dropped when a load would
        exceed it.
    mmap:
        Load models as read-only memmap views (the serving default) or
        as private in-memory copies.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        capacity: int | None = None,
        mmap: bool = True,
    ) -> None:
        self.root = Path(root if root is not None else model_dir_from_env())
        self.capacity = (
            int(capacity) if capacity is not None else serve_cache_from_env()
        )
        if self.capacity < 1:
            raise ValueError("model cache capacity must be >= 1")
        self.mmap = bool(mmap)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._models: OrderedDict[str, FittedModel] = OrderedDict()

    def path_of(self, name: str) -> Path:
        """Resolve a model name to its file inside the cache root.

        Names are plain file names — path separators and parent
        references are rejected so a request can never escape the
        model directory.
        """
        if (
            not name
            or name != Path(name).name
            or name in (".", "..")
        ):
            raise ValueError(f"model name must be a bare file name: {name!r}")
        return self.root / name

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def get(self, name: str) -> FittedModel:
        """The model for ``name``, loading (and possibly evicting) on miss.

        Load failures (missing file, corrupt format) propagate to the
        caller and leave the cache unchanged — a model that cannot be
        loaded is never cached, so a later retry sees the repaired
        file.
        """
        cached = self._models.get(name)
        if cached is not None:
            self._models.move_to_end(name)
            self.hits += 1
            obs.incr("serve.cache.hit")
            return cached
        self.misses += 1
        obs.incr("serve.cache.miss")
        model = load_model(self.path_of(name), mmap=self.mmap)
        self._models[name] = model
        while len(self._models) > self.capacity:
            self._models.popitem(last=False)
            self.evictions += 1
            obs.incr("serve.cache.evict")
        return model

    def invalidate(self, name: str | None = None) -> None:
        """Drop one cached model (or all of them when ``name`` is None)."""
        if name is None:
            self._models.clear()
        else:
            self._models.pop(name, None)


def latency_quantiles(
    latencies: Sequence[float], quantiles: Sequence[float] = (50.0, 99.0)
) -> dict[str, float]:
    """Percentiles (in seconds) of a latency sample, keyed ``p50``-style.

    Empty samples yield an empty dict rather than NaNs so callers can
    serialise the result directly.
    """
    if not latencies:
        return {}
    sample = np.asarray(latencies, dtype=np.float64)
    return {
        f"p{q:g}": float(np.percentile(sample, q)) for q in quantiles
    }


@dataclass
class _Request:
    """One in-flight label request."""

    model: str
    points: FloatArray
    future: asyncio.Future
    key: str
    submitted: float


_STOP = object()


@dataclass
class _FaultState:
    """Streaming re-implementation of :func:`plan_faults` matching.

    The supervisor plans faults against a known key list; the labeller
    sees request keys one at a time, so each directive keeps a count of
    the matching keys seen so far and fires on the ``cell``-th one.
    """

    spec: FaultSpec
    seen: int = 0
    fired: int = 0

    def should_fire(self, key: str) -> bool:
        if self.spec.match.lower() not in key.lower():
            return False
        index = self.seen
        self.seen += 1
        if index != self.spec.cell:
            return False
        if not self.spec.sabotages(self.fired):
            return False
        self.fired += 1
        return True


class BatchLabeller:
    """Asyncio micro-batching front end over a :class:`ModelCache`.

    Use as an async context manager::

        cache = ModelCache(root=model_dir)
        async with BatchLabeller(cache) as labeller:
            labels = await labeller.label("golden_d8.model", points)

    ``label`` coroutines may run concurrently from many tasks; the
    internal worker coalesces whatever is queued (up to the point
    budget, waiting at most the delay window for stragglers) and
    labels each model's share in one kernel call.
    """

    def __init__(
        self,
        cache: ModelCache,
        batch_points: int | None = None,
        delay: float | None = None,
    ) -> None:
        self._cache = cache
        self._batch_points = (
            int(batch_points)
            if batch_points is not None
            else serve_batch_from_env()
        )
        if self._batch_points < 1:
            raise ValueError("batch point budget must be >= 1")
        self._delay = (
            float(delay) if delay is not None else serve_delay_from_env()
        )
        if self._delay < 0.0:
            raise ValueError("batch delay must be >= 0")
        self._faults = [
            _FaultState(spec) for spec in parse_faults(faults_from_env())
        ]
        self._queue: asyncio.Queue | None = None
        self._worker: asyncio.Task | None = None
        self._closing = False
        self._sequence = 0
        self.requests = 0
        self.batches = 0
        self.errors = 0
        self.latencies: list[float] = []

    async def __aenter__(self) -> "BatchLabeller":
        self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    def start(self) -> None:
        """Spawn the batching worker on the running event loop."""
        if self._worker is not None:
            raise RuntimeError("labeller already started")
        self._closing = False
        self._queue = asyncio.Queue()
        self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain and retire the worker, flushing in-flight batches.

        The closing flag flips *synchronously*, so every later
        :meth:`label` call fails fast with :class:`LabellerStopped`
        instead of parking a request behind the stop sentinel.
        Requests that were already queued — including any that slipped
        in between the flag and the sentinel at an await boundary —
        are labelled and resolved before ``stop`` returns: shutdown
        flushes work, it never drops it.
        """
        if self._worker is None or self._queue is None:
            return
        self._closing = True
        queue, worker = self._queue, self._worker
        await queue.put(_STOP)
        await worker
        stragglers: list[_Request] = []
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                stragglers.append(item)
        if stragglers:
            self._process(stragglers)
        self._worker = None
        self._queue = None

    async def label(self, model: str, points: FloatArray) -> IntArray:
        """Label one batch of raw query points against ``model``.

        Returns the per-point label vector (noise = ``-1``), identical
        to :meth:`repro.serve.FittedModel.label` on the same points —
        micro-batching never changes a label.  Raises
        :class:`~repro.core.contracts.ContractError` when the points
        hold NaN or infinite values (as ``FittedModel.label`` does; the
        other requests of its batch are still labelled), whatever the
        model load or an injected fault raised for this request, and
        :class:`LabellerStopped` once :meth:`stop` has begun.
        """
        if self._closing:
            raise LabellerStopped(
                "labeller is stopped: the request was rejected, not "
                "silently dropped"
            )
        if self._queue is None:
            raise RuntimeError("labeller is not started")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("query points must be a 2-d array")
        key = f"serve|{model}|request{self._sequence}"
        self._sequence += 1
        self.requests += 1
        obs.incr("serve.requests")
        obs.incr("serve.points", int(points.shape[0]))
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put(
            _Request(
                model=model,
                points=points,
                future=future,
                key=key,
                submitted=obs.perf_clock(),
            )
        )
        return await future

    def stats(self) -> dict[str, object]:
        """Service-side counters plus latency quantiles (seconds)."""
        return {
            "requests": self.requests,
            "batches": self.batches,
            "errors": self.errors,
            "cache": {
                "hits": self._cache.hits,
                "misses": self._cache.misses,
                "evictions": self._cache.evictions,
            },
            "latency_s": latency_quantiles(self.latencies),
        }

    async def _run(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            head = await self._queue.get()
            if head is _STOP:
                break
            batch = [head]
            total = int(head.points.shape[0])
            deadline = loop.time() + self._delay
            while total < self._batch_points:
                timeout = deadline - loop.time()
                if timeout <= 0:
                    # Window closed: take whatever is already queued,
                    # but never block past the deadline.
                    try:
                        item = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                else:
                    try:
                        item = await asyncio.wait_for(
                            self._queue.get(), timeout
                        )
                    except asyncio.TimeoutError:
                        break
                if item is _STOP:
                    stopping = True
                    break
                batch.append(item)
                total += int(item.points.shape[0])
            self._process(batch)

    def _process(self, batch: list[_Request]) -> None:
        self.batches += 1
        obs.incr("serve.batches")
        with obs.span("serve.batch"):
            healthy: dict[str, list[_Request]] = {}
            for request in batch:
                fault = self._pick_fault(request.key)
                if fault is None:
                    healthy.setdefault(request.model, []).append(request)
                    continue
                try:
                    fire(fault.spec.kind, in_worker=False)
                except Exception as exc:  # InjectedFault / SimulatedKill
                    self._fail(request, exc)
            for model_name, requests in healthy.items():
                self._label_group(model_name, requests)

    def _pick_fault(self, key: str) -> _FaultState | None:
        for state in self._faults:
            if state.should_fire(key):
                return state
        return None

    def _label_group(self, model_name: str, requests: list[_Request]) -> None:
        try:
            model = self._cache.get(model_name)
            requests = self._fail_wrong_width(model_name, model, requests)
            if not requests:
                return
            points = np.concatenate(
                [request.points for request in requests], axis=0
            )
            # One finiteness scan per batch; a scan per request cost
            # about 9 % of backlog throughput at ~100 points a request.
            try:
                check_array("points", points, dtype=np.float64, ndim=2, finite=True)
            except ContractError:
                requests = self._fail_non_finite(requests)
                points = np.concatenate(
                    [request.points for request in requests] or [points[:0]],
                    axis=0,
                )
            if model.normalizer is not None:
                points = apply_minmax(points, *model.normalizer)
            labels = label_points(points, model.betas, model.groups)
        except Exception as exc:
            for request in requests:
                self._fail(request, exc)
            return
        offset = 0
        now = obs.perf_clock()
        for request in requests:
            m = int(request.points.shape[0])
            request.future.set_result(labels[offset : offset + m])
            offset += m
            self.latencies.append(now - request.submitted)

    def _fail_wrong_width(
        self, model_name: str, model: FittedModel, requests: list[_Request]
    ) -> list[_Request]:
        """Fail each request whose rows lack the model's axis count; keep
        the rest, so a bad request fails alone."""
        kept = []
        for request in requests:
            width = int(request.points.shape[1])
            if width == model.dimensionality:
                kept.append(request)
            else:
                self._fail(
                    request,
                    ValueError(
                        f"query points have {width} axes, model "
                        f"{model_name!r} was fitted on {model.dimensionality}"
                    ),
                )
        return kept

    def _fail_non_finite(self, requests: list[_Request]) -> list[_Request]:
        """Fail each request holding NaN or infinite points; keep the rest.

        The same contract as :meth:`repro.serve.FittedModel.label`, so a
        bad request fails alone and the others are still labelled.
        """
        kept = []
        for request in requests:
            try:
                check_array(
                    "points", request.points, dtype=np.float64, ndim=2, finite=True
                )
            except ContractError as exc:
                self._fail(request, exc)
            else:
                kept.append(request)
        return kept

    def _fail(self, request: _Request, exc: Exception) -> None:
        self.errors += 1
        obs.incr("serve.errors")
        request.future.set_exception(exc)
