"""Asyncio TCP server keeping one query engine resident for many clients.

:class:`QueryServer` accepts newline-delimited-JSON connections (see
:mod:`repro.service.protocol`), funnels every ``knn``/``range`` request
through the shared :class:`~repro.service.batcher.MicroBatcher`, and
answers control operations inline:

* ``stats`` — the live :class:`~repro.service.metrics.ServiceMetrics`
  snapshot plus a description of the resident index;
* ``ping`` — liveness;
* ``shutdown`` — graceful drain (can be disabled with
  ``allow_remote_shutdown=False`` when the socket is not trusted).

Each connection's requests are served *concurrently*: the reader keeps
pulling lines while earlier queries sit in the micro-batcher, so a
single pipelining client already benefits from batching.  Responses
carry the request ``id`` and may be written out of order.

Graceful shutdown (:meth:`QueryServer.shutdown`) stops admitting new
queries, drains every in-flight batch, flushes pending response writes,
then closes the listening socket and all connections — no accepted
request is ever silently dropped.

:func:`serve_in_background` runs a server on a private event loop in a
daemon thread — the cluster harness and the tests use it to stand up a
real TCP server in-process.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import threading
import time
import uuid
from typing import Dict, Optional, Tuple

from repro.obs.distributed import TraceContext, new_trace_id
from repro.obs.log import JsonLogger, with_correlation_id
from repro.obs.profiler import SamplingProfiler, render_folded
from repro.obs.slo import SloMonitor
from repro.obs.trace import Tracer
from repro.service import frames
from repro.service.batcher import MicroBatcher
from repro.service.metrics import ServiceMetrics
from repro.service.resilience import CircuitBreaker, CircuitOpenError
from repro.service.protocol import (
    CLUSTER_OPS,
    METRICS_FORMATS,
    METRICS_SCOPES,
    MUTATION_OPS,
    PROFILE_FORMATS,
    WIRE_PROTOCOLS,
    ProtocolError,
    encode_search_stats,
    encode_neighbors,
    error_response,
    ok_response,
    parse_mutation,
    parse_query,
    parse_request,
    validate_request,
)

#: One-shot ``profile`` requests may sample at most this long.
MAX_PROFILE_SECONDS = 30.0


class _Connection:
    """Per-connection wire state: negotiated protocol + response encoding.

    A connection starts in NDJSON mode; its first request may be a
    ``hello`` switching it to binary frames.  The encode methods pick
    the matching response representation, so the rest of the server
    never branches on the wire.
    """

    __slots__ = ("wire", "negotiated", "requests_seen")

    def __init__(self) -> None:
        self.wire = "ndjson"
        self.negotiated = False
        self.requests_seen = False

    def encode_ok(self, request_id, payload=None) -> bytes:
        if self.wire == "binary":
            return frames.encode_ok_frame(request_id, payload)
        return ok_response(request_id, payload)

    def encode_error(self, request_id, code: str, message: str) -> bytes:
        if self.wire == "binary":
            return frames.encode_error_frame(request_id, code, message)
        return error_response(request_id, code, message)


class QueryServer:
    """One resident engine, many concurrent TCP clients.

    Connections speak NDJSON (:mod:`repro.service.protocol`) by default
    and may negotiate the length-prefixed binary frame protocol
    (:mod:`repro.service.frames`) with a ``hello`` first request.

    Parameters
    ----------
    engine:
        :class:`~repro.core.engine.QueryEngine`, or anything else with
        its ``run_batch`` (the live-index and cluster-router adapters).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    max_batch_size, max_wait_ms, max_queue, default_timeout_ms:
        Micro-batcher knobs, see
        :class:`~repro.service.batcher.MicroBatcher`.
    allow_remote_shutdown:
        Whether the ``shutdown`` op is honoured (default True; the CI
        smoke test and the closed-loop harness rely on it).
    index_info:
        Optional static description of the resident index, echoed in
        the ``stats`` payload (e.g. dataset spec, K, num transactions).
    live_index:
        Optional :class:`~repro.live.index.LiveIndex` behind the engine.
        When given, the ``insert``/``delete``/``compact``/``checkpoint``
        mutation ops are served (on the default executor, since WAL
        appends block); without it they are rejected with
        ``bad_request`` — the index is read-only.  During a graceful
        drain mutations are rejected with ``shutting_down`` exactly
        like queries.
    metrics_registry:
        Optional shared :class:`~repro.obs.registry.MetricRegistry` for
        :class:`~repro.service.metrics.ServiceMetrics` — pass the same
        registry the live index exports its WAL/compaction gauges to so
        one ``metrics`` scrape shows both.
    logger:
        Optional structured :class:`~repro.obs.log.JsonLogger` (disabled
        by default).  The batcher logs through a child of it, and every
        query log line carries the request's server-assigned correlation
        id.
    wire:
        Wire-protocol policy: ``"auto"`` (default) lets connections
        negotiate the binary frame protocol with ``hello``; ``"ndjson"``
        refuses binary hellos with ``bad_request``, which auto-mode
        clients treat as "fall back to NDJSON" (see :doc:`docs/wire`).
        Every connection still starts in NDJSON mode either way.
    slo_objectives:
        Optional :class:`~repro.obs.slo.SloObjective` sequence; defaults
        to :data:`~repro.obs.slo.DEFAULT_OBJECTIVES`.  An
        :class:`~repro.obs.slo.SloMonitor` over the server's registry is
        ticked every ``slo_interval_s`` seconds by a background task
        (burn-rate gauges, error-budget gauge, structured alerts).
        ``slo_interval_s=0`` disables the periodic tick (the monitor
        still exists and can be ticked by hand).
    profile_hz:
        When set, a continuous :class:`~repro.obs.profiler.SamplingProfiler`
        runs at this rate for the server's lifetime and the ``profile``
        control op returns its accumulated stacks.  When ``None`` (the
        default) the op serves one-shot profiles on demand and the
        steady-state cost is zero.
    """

    #: Frame types a client may legally send; cluster subclasses widen
    #: this (shard owners additionally accept ``FRAME_REPLICATE``).
    REQUEST_FRAME_TYPES: Tuple[int, ...] = (
        frames.FRAME_JSON,
        frames.FRAME_QUERY,
    )

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        default_timeout_ms: float = 30_000.0,
        allow_remote_shutdown: bool = True,
        index_info: Optional[Dict[str, object]] = None,
        logger: Optional[JsonLogger] = None,
        live_index=None,
        metrics_registry=None,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 30.0,
        wire: str = "auto",
        slo_objectives=None,
        slo_interval_s: float = 5.0,
        profile_hz: Optional[float] = None,
    ) -> None:
        if wire not in ("auto", "ndjson"):
            raise ValueError(
                f"wire policy must be 'auto' or 'ndjson', got {wire!r}"
            )
        self._wire_policy = wire
        self._engine = engine
        self._host = host
        self._port = port
        self._log = logger if logger is not None else JsonLogger("server")
        self.live_index = live_index
        self.metrics = ServiceMetrics(registry=metrics_registry)
        #: True after a durable-write failure: mutations are rejected
        #: ``unavailable`` (reads keep serving from the consistent
        #: in-memory state) until a WAL probe succeeds again.
        self.degraded = False
        self._degraded_gauge = self.metrics.registry.gauge(
            "repro_service_degraded",
            "1 while the durable write path is degraded, else 0",
        )
        self._degraded_gauge.set_function(lambda: float(self.degraded))
        #: Repeated compaction/checkpoint failures trip this breaker:
        #: further maintenance ops fail fast with ``unavailable`` until
        #: the reset timeout lets one probe through.
        self.compaction_breaker = CircuitBreaker(
            name="compaction",
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset_seconds,
        )
        self._batcher_options = dict(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            default_timeout_ms=default_timeout_ms,
        )
        self.allow_remote_shutdown = bool(allow_remote_shutdown)
        self.index_info = dict(index_info or {})
        self._slo_objectives = slo_objectives
        self._slo_interval_s = float(slo_interval_s)
        self.slo: Optional[SloMonitor] = None
        self._slo_task: Optional["asyncio.Task"] = None
        self.profiler: Optional[SamplingProfiler] = (
            SamplingProfiler(hz=profile_hz) if profile_hz is not None else None
        )
        self.batcher: Optional[MicroBatcher] = None
        self._server: Optional["asyncio.base_events.Server"] = None
        self._request_tasks: set = set()
        self._writers: set = set()
        self._shutdown_started = False
        self._shutdown_done: Optional["asyncio.Event"] = None
        self._shutdown_task: Optional["asyncio.Task"] = None

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0`` after start)."""
        if self._server is None:
            raise RuntimeError("server not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound address."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self.batcher = MicroBatcher(
            self._engine,
            metrics=self.metrics,
            logger=self._log.child("batcher"),
            **self._batcher_options,
        )
        # Engines that can account kernel fallbacks get the registry
        # (duck-typed so live/router engines need not care).
        bind = getattr(self._engine, "bind_metrics", None)
        if bind is not None:
            bind(self.metrics.registry)
        slo_kwargs = {"logger": self._log.child("slo")}
        if self._slo_objectives is not None:
            slo_kwargs["objectives"] = self._slo_objectives
        self.slo = SloMonitor(self.metrics.registry, **slo_kwargs)
        if self._slo_interval_s > 0:
            self._slo_task = asyncio.get_running_loop().create_task(
                self._slo_loop()
            )
        if self.profiler is not None:
            self.profiler.start()
        self._shutdown_done = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )
        return self.address

    async def _slo_loop(self) -> None:
        """Tick the SLO monitor until shutdown (cost: a few counter reads)."""
        while True:
            await asyncio.sleep(self._slo_interval_s)
            try:
                self.slo.tick()
            except Exception as exc:  # never let monitoring kill serving
                self._log.error("slo.tick_failed", error=str(exc))

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until :meth:`shutdown` completes."""
        if self._server is None:
            await self.start()
        await self._shutdown_done.wait()

    async def wait_shutdown(self) -> None:
        """Block until a graceful shutdown has completed."""
        assert self._shutdown_done is not None, "server not started"
        await self._shutdown_done.wait()

    # ------------------------------------------------------------------
    async def shutdown(self) -> None:
        """Graceful drain: reject new queries, finish admitted ones, close.

        Idempotent; concurrent callers all return once the drain is done.
        """
        assert self._shutdown_done is not None, "server not started"
        if self._shutdown_started:
            await self._shutdown_done.wait()
            return
        self._shutdown_started = True
        # 0. Stop background observability first: the SLO task and the
        #    continuous profiler must not observe the drain as an outage.
        if self._slo_task is not None:
            self._slo_task.cancel()
            try:
                await self._slo_task
            except asyncio.CancelledError:
                pass
            self._slo_task = None
        if self.profiler is not None:
            self.profiler.stop()
        # 1. Stop accepting connections; in-flight sockets stay open.
        self._server.close()
        # 2. Drain the batcher: new submissions now get `shutting_down`,
        #    admitted queries run to completion.
        await self.batcher.drain()
        # 3. Let every pending response hit its socket.
        while self._request_tasks:
            await asyncio.gather(*list(self._request_tasks), return_exceptions=True)
            await asyncio.sleep(0)  # let done-callbacks prune the task set
        # 4. Tear the connections down.
        for writer in list(self._writers):
            writer.close()
        await self._server.wait_closed()
        self._shutdown_done.set()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: "asyncio.StreamReader", writer: "asyncio.StreamWriter"
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        conn = _Connection()
        try:
            while True:
                if conn.wire == "binary":
                    if not await self._pump_binary(
                        reader, writer, write_lock, conn
                    ):
                        break
                    continue
                try:
                    line = await reader.readline()
                except (
                    ConnectionResetError,
                    asyncio.IncompleteReadError,
                    ValueError,  # line longer than the stream limit
                ):
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                await self._handle_line(text, writer, write_lock, conn)
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _pump_binary(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> bool:
        """Read and dispatch one binary frame; False ends the connection.

        A malformed *header* is unrecoverable (the stream cannot be
        resynchronised): the server answers ``bad_request`` once and
        drops the connection.  A malformed *payload* inside a valid
        frame only fails that request — framing stays aligned.  The
        payload length is validated against the frame cap before any
        read, so a corrupt length prefix never triggers a huge
        allocation.
        """
        try:
            header = await reader.readexactly(frames.HEADER.size)
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return False
        try:
            frame_type, length = frames.decode_header(header)
            if frame_type not in self.REQUEST_FRAME_TYPES:
                raise frames.FrameError(
                    f"frame type {frame_type} is not a request frame"
                )
        except frames.FrameError as exc:
            self.metrics.record_rejection("bad_request")
            await self._send(
                writer,
                write_lock,
                conn.encode_error(None, "bad_request", str(exc)),
            )
            return False
        try:
            payload = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, ConnectionResetError):
            return False
        try:
            message = frames.decode_payload(frame_type, payload)
            message = validate_request(message)
        except (frames.FrameError, ProtocolError) as exc:
            code = exc.code if isinstance(exc, ProtocolError) else "bad_request"
            self.metrics.record_rejection(code)
            await self._send(
                writer,
                write_lock,
                conn.encode_error(None, code, str(exc)),
            )
            return True
        await self._dispatch(message, writer, write_lock, conn)
        return True

    async def _handle_line(
        self,
        text: str,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        try:
            message = parse_request(text)
        except ProtocolError as exc:
            self.metrics.record_rejection(exc.code)
            await self._send(
                writer,
                write_lock,
                conn.encode_error(None, exc.code, exc.message),
            )
            return
        await self._dispatch(message, writer, write_lock, conn)

    async def _dispatch(
        self,
        message,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        op = message["op"]
        request_id = message.get("id")
        if op == "hello":
            await self._handle_hello(message, writer, write_lock, conn)
            return
        conn.requests_seen = True
        if op == "ping":
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, {"pong": True})
            )
            return
        if op == "stats":
            payload = {"stats": self.metrics.snapshot(), "index": self.index_info}
            if self.slo is not None:
                payload["slo"] = self.slo.report()
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return
        if op == "health":
            payload = {
                "ready": not self._shutdown_started,
                "degraded": bool(self.degraded),
                "draining": bool(self._shutdown_started),
                "mutable": self.live_index is not None,
                "breaker": self.compaction_breaker.state,
            }
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return
        if op == "metrics":
            await self._serve_metrics(message, writer, write_lock, conn)
            return
        if op == "profile":
            task = asyncio.get_running_loop().create_task(
                self._serve_profile(message, writer, write_lock, conn)
            )
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)
            return
        if op == "shutdown":
            if not self.allow_remote_shutdown:
                self.metrics.record_rejection("bad_request")
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(
                        request_id, "bad_request", "remote shutdown is disabled"
                    ),
                )
                return
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, {"draining": True})
            )
            # Keep a strong reference: the loop only weak-refs its tasks.
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )
            return
        if op in CLUSTER_OPS:
            handled = await self._dispatch_cluster(
                message, writer, write_lock, conn
            )
            if not handled:
                self.metrics.record_rejection("bad_request")
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(
                        request_id,
                        "bad_request",
                        f"op {op!r} requires a cluster node or router "
                        "(see repro.cluster)",
                    ),
                )
            return
        if op in MUTATION_OPS:
            try:
                if self._shutdown_started:
                    raise ProtocolError(
                        "shutting_down", "server is draining; mutation rejected"
                    )
                if self.live_index is None:
                    raise ProtocolError(
                        "bad_request",
                        f"op {op!r} requires a live index; this server is "
                        "read-only",
                    )
                mutation = parse_mutation(message)
            except ProtocolError as exc:
                self.metrics.record_rejection(exc.code)
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(request_id, exc.code, exc.message),
                )
                return
            task = asyncio.get_running_loop().create_task(
                self._serve_mutation(mutation, writer, write_lock, conn)
            )
            self._request_tasks.add(task)
            task.add_done_callback(self._request_tasks.discard)
            return
        # Query op: validated + batched, served by its own task so the
        # reader keeps pulling concurrent requests off this connection.
        self.metrics.record_received()
        try:
            request = parse_query(
                message, getattr(self._engine, "universe_size", None)
            )
        except ProtocolError as exc:
            self.metrics.record_rejection(exc.code)
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, exc.code, exc.message),
            )
            return
        task = asyncio.get_running_loop().create_task(
            self._serve_query(request, writer, write_lock, conn)
        )
        self._request_tasks.add(task)
        task.add_done_callback(self._request_tasks.discard)

    async def _dispatch_cluster(
        self,
        message,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> bool:
        """Hook for :data:`CLUSTER_OPS`; True when the op was served.

        The base server implements none of them — subclasses in
        :mod:`repro.cluster` override this (nodes serve ``replicate`` /
        ``promote`` / ``role`` / ``rows``, the router serves ``ring`` /
        ``rebalance``).
        """
        return False

    async def _serve_metrics(
        self,
        message,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        """Serve the ``metrics`` op in the requested format and scope.

        ``scope="self"`` (default) exposes this process's registry;
        ``scope="cluster"`` asks for the merged cluster-wide view, which
        only the router can answer (:meth:`_metrics_registry` is the
        override point).
        """
        request_id = message.get("id")
        fmt = message.get("format", "json")
        scope = message.get("scope", "self")
        try:
            if fmt not in METRICS_FORMATS:
                known = ", ".join(METRICS_FORMATS)
                raise ProtocolError(
                    "bad_request",
                    f"unknown metrics format {fmt!r}; known: {known}",
                )
            if scope not in METRICS_SCOPES:
                known = ", ".join(METRICS_SCOPES)
                raise ProtocolError(
                    "bad_request",
                    f"unknown metrics scope {scope!r}; known: {known}",
                )
            registry = await self._metrics_registry(scope)
        except ProtocolError as exc:
            self.metrics.record_rejection(exc.code)
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, exc.code, exc.message),
            )
            return
        if fmt == "prometheus":
            payload = {
                "format": "prometheus",
                "scope": scope,
                "metrics": registry.to_prometheus_text(),
            }
        else:
            payload = {
                "format": "json",
                "scope": scope,
                "metrics": registry.to_json(),
            }
        await self._send(
            writer, write_lock, conn.encode_ok(request_id, payload)
        )

    async def _metrics_registry(self, scope: str):
        """The registry backing a ``metrics`` request at ``scope``.

        The base server only knows about itself;
        :class:`~repro.cluster.router.RouterServer` overrides this to
        scatter-gather every node's registry and merge them.
        """
        if scope == "cluster":
            raise ProtocolError(
                "bad_request",
                "metrics scope 'cluster' requires a cluster router",
            )
        return self.metrics.registry

    async def _serve_profile(
        self,
        message,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        """Serve the ``profile`` op: folded stacks from the sampler.

        With a continuous profiler (``profile_hz``) the accumulated
        snapshot is returned immediately (``reset: true`` clears it).
        Otherwise a one-shot :class:`SamplingProfiler` runs for
        ``duration_s`` seconds (capped at :data:`MAX_PROFILE_SECONDS`)
        and returns what it saw — concurrent requests keep being served
        while it samples.
        """
        request_id = message.get("id")
        fmt = message.get("format", "folded")
        try:
            if fmt not in PROFILE_FORMATS:
                known = ", ".join(PROFILE_FORMATS)
                raise ProtocolError(
                    "bad_request",
                    f"unknown profile format {fmt!r}; known: {known}",
                )
            if self.profiler is not None:
                snapshot = self.profiler.snapshot(
                    reset=bool(message.get("reset", False))
                )
                mode = "continuous"
            else:
                try:
                    duration_s = float(message.get("duration_s", 1.0))
                except (TypeError, ValueError):
                    raise ProtocolError(
                        "bad_request", "duration_s must be a number"
                    )
                if not 0 < duration_s <= MAX_PROFILE_SECONDS:
                    raise ProtocolError(
                        "bad_request",
                        "duration_s must be in (0, "
                        f"{MAX_PROFILE_SECONDS:g}], got {duration_s:g}",
                    )
                try:
                    hz = float(message.get("hz", 0) or 0) or None
                    profiler = (
                        SamplingProfiler(hz=hz)
                        if hz is not None
                        else SamplingProfiler()
                    )
                except ValueError as exc:
                    raise ProtocolError("bad_request", str(exc))
                profiler.start()
                try:
                    await asyncio.sleep(duration_s)
                finally:
                    profiler.stop()
                snapshot = profiler.snapshot()
                mode = "one_shot"
        except ProtocolError as exc:
            self.metrics.record_rejection(exc.code)
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, exc.code, exc.message),
            )
            return
        payload: Dict[str, object] = {"format": fmt, "mode": mode}
        if fmt == "folded":
            payload["profile"] = render_folded(snapshot)
            payload["samples"] = snapshot["samples"]
            payload["elapsed_s"] = snapshot["elapsed_s"]
        else:
            payload["profile"] = snapshot
        await self._send(
            writer, write_lock, conn.encode_ok(request_id, payload)
        )

    async def _handle_hello(
        self,
        message,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        """Negotiate the connection's wire protocol.

        ``hello`` must be the very first request on a connection: once
        any other request (or a previous hello) has been seen, switching
        the response encoding mid-stream would corrupt concurrently
        in-flight responses, so a late hello is a ``bad_request``.  The
        acknowledgement always goes out in the *current* encoding; the
        switch takes effect for the next request.
        """
        request_id = message.get("id")
        wire = message.get("wire", "ndjson")
        if wire not in WIRE_PROTOCOLS:
            known = ", ".join(WIRE_PROTOCOLS)
            error = f"unknown wire protocol {wire!r}; known: {known}"
        elif wire == "binary" and self._wire_policy == "ndjson":
            error = "binary wire is disabled on this server"
        elif conn.negotiated or conn.requests_seen:
            error = "hello must be the first request on a connection"
        else:
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, {"wire": wire})
            )
            conn.wire = wire
            conn.negotiated = True
            return
        self.metrics.record_rejection("bad_request")
        await self._send(
            writer,
            write_lock,
            conn.encode_error(request_id, "bad_request", error),
        )

    async def _serve_mutation(
        self,
        mutation,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        """Apply one mutation off the event loop and answer it.

        WAL appends fsync, and compaction rebuilds a table — both block,
        so mutations run on the default executor.  The live index's own
        mutation lock serialises them; reads stay on the loop and are
        never blocked (they only take the brief swap lock).
        """
        cid = uuid.uuid4().hex[:16]
        loop = asyncio.get_running_loop()
        live = self.live_index
        maintenance = mutation.op in ("compact", "checkpoint")
        with with_correlation_id(cid):
            self._log.info("mutation.received", op=mutation.op)
            try:
                if self.degraded:
                    # One durability probe re-admits mutations after a
                    # write failure; until it succeeds every mutation
                    # fails fast with the same retryable code.
                    if await loop.run_in_executor(None, live.probe):
                        self.degraded = False
                        self._log.info("mutation.degraded_recovered")
                    else:
                        raise ProtocolError(
                            "unavailable",
                            "durable write path is degraded; serving "
                            "reads only",
                        )
                if maintenance:
                    self.compaction_breaker.check()
                if mutation.op == "insert":
                    tid = await loop.run_in_executor(
                        None,
                        functools.partial(
                            live.insert,
                            mutation.items,
                            client_id=mutation.client_id,
                            request_id=mutation.request_id,
                        ),
                    )
                    payload = {"tid": int(tid)}
                elif mutation.op == "delete":
                    await loop.run_in_executor(
                        None,
                        functools.partial(
                            live.delete,
                            mutation.tid,
                            client_id=mutation.client_id,
                            request_id=mutation.request_id,
                        ),
                    )
                    payload = {"deleted": int(mutation.tid)}
                elif mutation.op == "compact":
                    report = await loop.run_in_executor(
                        None, live.compact, mutation.repartition
                    )
                    payload = {"compaction": dataclasses.asdict(report)}
                else:  # checkpoint
                    applied = await loop.run_in_executor(None, live.checkpoint)
                    payload = {"applied_seqno": int(applied)}
                if maintenance:
                    self.compaction_breaker.record_success()
            except ProtocolError as exc:
                self.metrics.record_rejection(exc.code)
                self._log.warning(
                    "mutation.rejected", code=exc.code, error=exc.message
                )
                response = conn.encode_error(mutation.id, exc.code, exc.message)
            except CircuitOpenError as exc:
                self.metrics.record_rejection("unavailable")
                self._log.warning("mutation.breaker_open", error=str(exc))
                response = conn.encode_error(mutation.id, "unavailable", str(exc))
            except OSError as exc:
                # The WAL/checkpoint write failed after (at most) a
                # clean rewind: this op was not applied, and the server
                # degrades to read-only until a probe write succeeds.
                self.degraded = True
                if maintenance:
                    self.compaction_breaker.record_failure()
                self.metrics.record_rejection("unavailable")
                self._log.error("mutation.unavailable", error=str(exc))
                response = conn.encode_error(mutation.id, "unavailable", str(exc))
            except ValueError as exc:
                self.metrics.record_rejection("bad_request")
                self._log.warning("mutation.rejected", error=str(exc))
                response = conn.encode_error(mutation.id, "bad_request", str(exc))
            except Exception as exc:  # defensive: never kill the connection
                if maintenance:
                    self.compaction_breaker.record_failure()
                self.metrics.record_rejection("internal")
                self._log.error("mutation.failed", error=str(exc))
                response = conn.encode_error(mutation.id, "internal", str(exc))
            else:
                self._log.info("mutation.completed", op=mutation.op)
                payload["correlation_id"] = cid
                response = conn.encode_ok(mutation.id, payload)
        await self._send(writer, write_lock, response)

    async def _serve_query(
        self,
        request,
        writer: "asyncio.StreamWriter",
        write_lock: "asyncio.Lock",
        conn: _Connection,
    ) -> None:
        # The server owns correlation ids: every admitted query gets one,
        # stamped on log lines, the span tree and (if traced) the
        # response.  A client-supplied id (the cluster router stamping
        # its own cid on fan-out sub-queries so traces correlate across
        # nodes) is honoured instead of minting a fresh one.
        cid = request.correlation_id or uuid.uuid4().hex[:16]
        request = dataclasses.replace(request, correlation_id=cid)
        # An incoming trace context (the router's scatter legs carry one)
        # makes this request part of a distributed trace: a sampled
        # context forces tracing even without `trace: true`, and the
        # propagated trace id replaces a locally minted one so router and
        # shard spans share it.
        ctx = (
            TraceContext.decode(request.trace_context)
            if request.trace_context is not None
            else None
        )
        wants_trace = request.trace or (ctx is not None and ctx.sampled)
        if wants_trace:
            trace_id = ctx.trace_id if ctx is not None else new_trace_id()
            tracer = Tracer(correlation_id=cid, trace_id=trace_id)
        else:
            tracer = None
        started = time.monotonic()
        with with_correlation_id(cid):
            self._log.info(
                "request.received",
                op=request.key.op,
                num_items=len(request.items),
                traced=wants_trace,
            )
            try:
                if request.key.candidate_tier != "exact" and not getattr(
                    self._engine, "supports_lsh_tier", False
                ):
                    raise ProtocolError(
                        "bad_request",
                        "candidate_tier='lsh' needs a sketch-enabled index "
                        "(build one with `repro sketch build`)",
                    )
                if tracer is not None:
                    span_attrs = {"op": request.key.op}
                    if ctx is not None:
                        span_attrs["parent_span_id"] = ctx.parent_span_id
                    with tracer.activate(), tracer.span(
                        "service.request", **span_attrs
                    ):
                        results, stats = await self.batcher.submit(
                            request, tracer=tracer
                        )
                else:
                    results, stats = await self.batcher.submit(request)
            except ProtocolError as exc:
                self.metrics.record_rejection(exc.code)
                self._log.warning(
                    "request.rejected", code=exc.code, message=exc.message
                )
                response = conn.encode_error(request.id, exc.code, exc.message)
            except Exception as exc:  # defensive: never kill the connection task
                self.metrics.record_rejection("internal")
                self._log.error("request.failed", error=str(exc))
                response = conn.encode_error(request.id, "internal", str(exc))
            else:
                latency = time.monotonic() - started
                self.metrics.record_completion(latency, wire=conn.wire)
                self._log.info(
                    "request.completed",
                    latency_ms=1000.0 * latency,
                    results=len(results),
                )
                payload = {
                    "results": encode_neighbors(results),
                    "stats": encode_search_stats(stats),
                    "correlation_id": cid,
                }
                if tracer is not None:
                    payload["trace"] = tracer.to_dicts()
                response = conn.encode_ok(request.id, payload)
        await self._send(writer, write_lock, response)

    @staticmethod
    async def _send(
        writer: "asyncio.StreamWriter", write_lock: "asyncio.Lock", data: bytes
    ) -> None:
        if writer.is_closing():
            return
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to deliver the response to


# ----------------------------------------------------------------------
# Background-thread harness
# ----------------------------------------------------------------------
class BackgroundServer:
    """A :class:`QueryServer` running on its own event loop in a thread.

    Construct through :func:`serve_in_background`.  ``address`` is the
    live ``(host, port)``; :meth:`stop` triggers a graceful shutdown and
    joins the thread (idempotent, and a no-op if a client already shut
    the server down remotely).
    """

    def __init__(self, server_cls=None) -> None:
        self.address: Optional[Tuple[str, int]] = None
        self.server: Optional[QueryServer] = None
        self._server_cls = server_cls if server_cls is not None else QueryServer
        self._loop: Optional["asyncio.AbstractEventLoop"] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    async def _amain(self, engine, options: Dict[str, object]) -> None:
        try:
            self.server = self._server_cls(engine, **options)
            self.address = await self.server.start()
            self._loop = asyncio.get_running_loop()
        except BaseException as exc:
            self._startup_error = exc
            raise
        finally:
            self._ready.set()
        await self.server.wait_shutdown()

    def _run(self, engine, options: Dict[str, object]) -> None:
        asyncio.run(self._amain(engine, options))

    @property
    def running(self) -> bool:
        """True while the server thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully shut the server down and join its thread."""
        if self._loop is not None and not self._loop.is_closed():
            def _trigger() -> None:
                # Assign to keep a strong task reference until completion.
                self._shutdown_task = asyncio.get_running_loop().create_task(
                    self.server.shutdown()
                )

            try:
                self._loop.call_soon_threadsafe(_trigger)
            except RuntimeError:
                pass  # loop already closed: remote shutdown beat us to it
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "BackgroundServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_background(engine, server_cls=None, **options) -> BackgroundServer:
    """Start a :class:`QueryServer` in a daemon thread; returns its handle.

    Blocks until the listening socket is bound, so ``handle.address`` is
    immediately usable.  Keyword options are passed through to
    ``server_cls`` (default :class:`QueryServer`; the cluster harness
    passes its node/router subclasses).
    """
    handle = BackgroundServer(server_cls=server_cls)
    thread = threading.Thread(
        target=handle._run,
        args=(engine, options),
        name="repro-query-server",
        daemon=True,
    )
    handle._thread = thread
    thread.start()
    handle._ready.wait()
    if handle._startup_error is not None:
        thread.join()
        raise RuntimeError(
            f"server failed to start: {handle._startup_error}"
        ) from handle._startup_error
    return handle
