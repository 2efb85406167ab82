"""Dynamic micro-batching of concurrent in-flight queries.

The server's throughput lever: concurrent requests whose parameters are
*compatible* — equal :class:`~repro.core.engine.BatchKey`, i.e. same
operation, similarity function, ``k``/``threshold``, termination and
candidate-tier settings — are coalesced into one ``run_batch`` call on
the served index (:meth:`QueryEngine.run_batch
<repro.core.engine.QueryEngine.run_batch>`, :meth:`LiveIndex.run_batch
<repro.live.index.LiveIndex.run_batch>` or the cluster router's), so
online traffic inherits the batched engine's amortised bound pass,
batched posting walks and shared entry reads, while results are
de-multiplexed back to each caller unchanged (the engine guarantees
per-query results identical to single-query execution, so coalescing is
invisible to clients).

A batch closes when it reaches ``max_batch_size`` *or* when its oldest
request has waited ``max_wait_ms`` — the classic dynamic-batching
trade-off: larger windows raise throughput under load, the wait bound
caps the latency cost for a lone request (an idle server executes a
single query after at most ``max_wait_ms``).

Admission control is a hard bound on in-flight requests
(queued + executing).  Beyond ``max_queue`` the batcher *rejects* with
``overloaded`` instead of buffering — bounded memory and an explicit
backpressure signal clients can retry on, rather than collapse under a
traffic spike.  Each request also carries a deadline: requests that
expire while queued are never executed, and an expired waiter is
unblocked with a ``timeout`` error even if its batch is still running.

Batches execute on a dedicated single worker thread
(:class:`~concurrent.futures.ThreadPoolExecutor`), keeping the event
loop free to accept connections and serve ``stats`` while the engine
crunches.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.core.engine import BatchKey, summarise_stats
from repro.core.search import Neighbor, SearchStats
from repro.core.similarity import SimilarityFunction
from repro.obs.log import JsonLogger, with_correlation_id
from repro.obs.trace import Tracer
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import ProtocolError, QueryRequest
from repro.utils.validation import check_positive


@dataclass
class _Pending:
    """One admitted query waiting for (or riding in) a batch."""

    request: QueryRequest
    future: "asyncio.Future"
    deadline: float
    # Observability: the request's tracer (None when untraced) and the
    # perf_counter timestamp of admission, for the queue-wait span.
    tracer: Optional[Tracer] = None
    enqueued_s: float = 0.0


@dataclass
class _Bucket:
    """Open batch for one key: requests accumulate until a flush."""

    similarity: SimilarityFunction
    items: List[_Pending] = field(default_factory=list)
    timer: Optional["asyncio.TimerHandle"] = None


class MicroBatcher:
    """Coalesce concurrent requests into engine batches (see module doc).

    Parameters
    ----------
    engine:
        Any object exposing ``run_batch(key, similarity, targets)`` —
        :class:`~repro.core.engine.QueryEngine`,
        :class:`~repro.live.index.LiveIndex` or
        :class:`~repro.cluster.router.ClusterRouter`.
    max_batch_size:
        Flush a batch as soon as it holds this many requests.
    max_wait_ms:
        Flush a batch once its oldest request has waited this long.
    max_queue:
        Admission bound on in-flight requests (queued + executing);
        beyond it :meth:`submit` raises ``overloaded``.
    default_timeout_ms:
        Deadline applied when a request does not carry ``timeout_ms``.
    metrics:
        Shared :class:`~repro.service.metrics.ServiceMetrics`; the
        batcher records executed batches and exposes the queue-depth
        gauge through it.
    logger:
        Optional structured :class:`~repro.obs.log.JsonLogger`; disabled
        by default.  Flush events carry the correlation ids of every
        traced request in the batch.
    """

    def __init__(
        self,
        engine,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        default_timeout_ms: float = 30_000.0,
        metrics: Optional[ServiceMetrics] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        check_positive(max_batch_size, "max_batch_size")
        check_positive(max_queue, "max_queue")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        check_positive(default_timeout_ms, "default_timeout_ms")
        self._engine = engine
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.max_queue = int(max_queue)
        self.default_timeout_ms = float(default_timeout_ms)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self._log = logger if logger is not None else JsonLogger("batcher")
        self._buckets: Dict[BatchKey, _Bucket] = {}
        self._active: set = set()
        self._in_flight = 0
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self.metrics.bind_queue_depth(lambda: self._in_flight)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently queued or executing."""
        return self._in_flight

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has started; no new queries admitted."""
        return self._draining

    # ------------------------------------------------------------------
    async def submit(
        self, request: QueryRequest, tracer: Optional[Tracer] = None
    ) -> Tuple[List[Neighbor], SearchStats]:
        """Admit one query; await and return its (results, stats).

        ``tracer`` (optional) receives the request's queue-wait span and,
        once the batch executes, a graft of the engine's span tree (the
        engine runs on the executor thread, where context variables do
        not propagate, so the batcher activates a dedicated tracer there
        and stitches the result into every traced request).

        Raises :class:`~repro.service.protocol.ProtocolError` with code
        ``overloaded`` (admission bound hit), ``shutting_down`` (drain in
        progress), ``timeout`` (deadline expired) or ``internal`` (the
        engine raised).
        """
        if self._draining:
            raise ProtocolError(
                "shutting_down", "server is draining; retry against a live replica"
            )
        if self._in_flight >= self.max_queue:
            raise ProtocolError(
                "overloaded",
                f"admission queue full ({self.max_queue} in flight); retry later",
            )
        loop = asyncio.get_running_loop()
        timeout_ms = (
            self.default_timeout_ms
            if request.timeout_ms is None
            else request.timeout_ms
        )
        pending = _Pending(
            request=request,
            future=loop.create_future(),
            deadline=time.monotonic() + timeout_ms / 1000.0,
            tracer=tracer,
            enqueued_s=time.perf_counter(),
        )
        self._in_flight += 1
        try:
            self._enqueue(loop, pending)
            try:
                return await asyncio.wait_for(
                    pending.future, timeout=timeout_ms / 1000.0
                )
            except asyncio.TimeoutError:
                raise ProtocolError(
                    "timeout", f"deadline of {timeout_ms:g} ms expired"
                ) from None
        finally:
            self._in_flight -= 1

    def _enqueue(self, loop: "asyncio.AbstractEventLoop", pending: _Pending) -> None:
        key = pending.request.key
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = _Bucket(similarity=pending.request.similarity)
            self._buckets[key] = bucket
            bucket.timer = loop.call_later(
                self.max_wait_ms / 1000.0, self._flush, key, "timer"
            )
        bucket.items.append(pending)
        if len(bucket.items) >= self.max_batch_size:
            self._flush(key, "size")

    # ------------------------------------------------------------------
    def _flush(self, key: BatchKey, reason: str = "size") -> None:
        """Close the open bucket for ``key`` and start executing it.

        ``reason`` records *why* the batch closed — ``"size"`` (it
        reached ``max_batch_size``), ``"timer"`` (its oldest request
        waited ``max_wait_ms``) or ``"drain"`` (shutdown flush) — and is
        stamped on queue-wait spans and flush log lines.
        """
        bucket = self._buckets.pop(key, None)
        if bucket is None:
            return
        if bucket.timer is not None:
            bucket.timer.cancel()
        now = time.monotonic()
        # Deadline-expired or abandoned requests are dropped *before*
        # execution; their waiters are unblocked by wait_for.
        take = [
            p
            for p in bucket.items
            if not p.future.done()
            and not p.future.cancelled()
            and p.deadline > now
        ]
        dropped = len(bucket.items) - len(take)
        if dropped:
            self._log.warning(
                "batch.dropped_expired", op=key.op, count=dropped
            )
        if not take:
            return
        task = asyncio.get_running_loop().create_task(
            self._execute(key, bucket.similarity, take, reason)
        )
        self._active.add(task)
        task.add_done_callback(self._active.discard)

    async def _execute(
        self,
        key: BatchKey,
        similarity: SimilarityFunction,
        take: List[_Pending],
        reason: str,
    ) -> None:
        loop = asyncio.get_running_loop()
        targets = [p.request.items for p in take]
        flushed_s = time.perf_counter()
        traced = [p for p in take if p.tracer is not None]
        for index, p in enumerate(take):
            if p.tracer is not None:
                # The engine records its per-query spans in batch order:
                # `batch_index` tells a rider which one is its own.
                p.tracer.record(
                    "batcher.queue_wait",
                    p.enqueued_s,
                    flushed_s,
                    flush_reason=reason,
                    batch_size=len(take),
                    batch_index=index,
                )
        correlation_ids = [
            p.request.correlation_id
            for p in traced
            if p.request.correlation_id is not None
        ]
        self._log.info(
            "batch.flush",
            op=key.op,
            size=len(take),
            reason=reason,
            correlation_ids=correlation_ids,
        )
        # The engine runs on the executor thread, where the event loop's
        # context (and thus any per-request tracer) does not propagate.
        # When any rider asked for a trace, activate one dedicated tracer
        # around the whole engine call and graft its span tree into every
        # traced request afterwards.  A sole traced rider hands its
        # distributed trace id down so engine-side spans (and the cluster
        # router's scatter legs) stay in the same trace.
        engine_tracer = None
        if traced:
            trace_ids = {
                p.tracer.trace_id
                for p in traced
                if p.tracer.trace_id is not None
            }
            engine_tracer = Tracer(
                trace_id=trace_ids.pop() if len(trace_ids) == 1 else None
            )
        # When every rider shares one correlation id (the common case: a
        # batch of one), propagate it onto the executor thread so engine
        # and router log lines — and the router's scatter sub-requests —
        # carry the same id end to end.
        batch_cids = {
            p.request.correlation_id
            for p in take
            if p.request.correlation_id is not None
        }
        engine_cid = batch_cids.pop() if len(batch_cids) == 1 else None

        def _run_engine():
            cid_ctx = (
                with_correlation_id(engine_cid)
                if engine_cid is not None
                else contextlib.nullcontext()
            )
            with cid_ctx:
                if engine_tracer is None:
                    return self._engine.run_batch(key, similarity, targets)
                with engine_tracer.activate():
                    return self._engine.run_batch(key, similarity, targets)

        try:
            results, stats = await loop.run_in_executor(
                self._executor, _run_engine
            )
        except Exception as exc:  # engine failure: fail the whole batch
            self._log.error("batch.failed", op=key.op, error=str(exc))
            error = ProtocolError("internal", f"engine failure: {exc}")
            for p in take:
                if not p.future.done():
                    p.future.set_exception(error)
            return
        if engine_tracer is not None:
            for root in engine_tracer.roots:
                # Link the shared engine span back to every traced
                # request riding in this batch.
                root.set_attribute("correlation_ids", correlation_ids)
                for p in traced:
                    p.tracer.adopt(root)
        self.metrics.record_batch(summarise_stats(stats))
        for p, result, stat in zip(take, results, stats):
            if not p.future.done():
                p.future.set_result((result, stat))

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop admitting, flush every open bucket, await in-flight batches.

        Safe to call more than once; after it returns the executor is
        shut down and every admitted request has been answered.
        """
        self._draining = True
        for key in list(self._buckets):
            self._flush(key, "drain")
        while self._active:
            await asyncio.gather(*list(self._active), return_exceptions=True)
            await asyncio.sleep(0)  # let done-callbacks prune the task set
        self._executor.shutdown(wait=True)
