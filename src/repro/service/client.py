"""Blocking client for the query service, plus a closed-loop load driver.

:class:`ServiceClient` is the one-connection, one-outstanding-request
client the CLI and the tests use: it speaks the NDJSON protocol of
:mod:`repro.service.protocol` and raises :class:`ServiceError` with the
server's structured code (``overloaded``, ``timeout``, ...) on
rejection — callers can branch on backpressure explicitly.

:func:`run_load` is the closed-loop load generator behind ``repro client
burst`` and the CI smoke: ``concurrency`` threads each hold a
connection and keep exactly one request in flight (issue, await, issue
the next), which is how the dynamic micro-batcher sees coalescable
concurrency.  It returns per-request neighbour lists so callers can
verify byte-identical results against direct engine calls.
"""

from __future__ import annotations

import base64
import random
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.search import Neighbor
from repro.service import frames
from repro.service.protocol import (
    WIRE_PROTOCOLS,
    decode_neighbors,
    decode_response,
    encode_request,
)
from repro.service.resilience import RetryPolicy


class ServiceError(RuntimeError):
    """A structured rejection from the server (code + message)."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServiceClient:
    """Blocking NDJSON client holding one TCP connection.

    Usable as a context manager.  Each call sends one request and blocks
    for its response; ``socket_timeout`` bounds the wait on the socket
    itself (independent of the server-side ``timeout_ms`` deadline).

    Resilience (see :doc:`docs/resilience`): construction still connects
    eagerly (so "no server there" fails fast), but after any socket
    failure the connection is torn down and the *next* call reconnects.
    With ``retries > 0`` each call transparently retries connection
    errors and the retryable server codes (``overloaded``,
    ``unavailable``) under exponential backoff with full jitter, within
    an optional per-call ``deadline`` budget.  Mutations are always
    stamped with an idempotency key ``(client_id, request_id)``, so a
    retry after an ambiguous failure — connection dropped between send
    and ack — can never double-apply.

    ``wire`` picks the wire protocol (see :doc:`docs/wire`):
    ``"ndjson"`` is the classic newline-delimited JSON; ``"binary"``
    negotiates the length-prefixed frame protocol of
    :mod:`repro.service.frames` with a ``hello`` first request and
    fails if the server refuses; ``"auto"`` (default) tries binary and
    silently falls back to NDJSON when the server declines (or predates
    the op).  :attr:`wire` reports what this connection actually
    negotiated.  Reconnects renegotiate from scratch.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7807,
        socket_timeout: Optional[float] = 60.0,
        retries: int = 0,
        backoff_base: float = 0.05,
        backoff_max: float = 2.0,
        deadline: Optional[float] = None,
        retry_seed: Optional[int] = None,
        client_id: Optional[str] = None,
        wire: str = "auto",
    ) -> None:
        if wire not in ("auto",) + WIRE_PROTOCOLS:
            known = ", ".join(("auto",) + WIRE_PROTOCOLS)
            raise ValueError(f"unknown wire {wire!r}; known: {known}")
        self.host = host
        self.port = int(port)
        self._socket_timeout = socket_timeout
        #: Requested wire protocol ("auto" negotiates with fallback).
        self.wire_preference = wire
        #: The wire protocol the current connection actually speaks.
        self.wire = "ndjson"
        # Reused receive buffers for the binary frame path (grown
        # geometrically, never shrunk — steady-state reads allocate
        # nothing but the decoded response).
        self._header_buf = bytearray(frames.HEADER.size)
        self._payload_buf = bytearray(4096)
        #: Stable identity half of the idempotency key.
        self.client_id = (
            client_id if client_id is not None else uuid.uuid4().hex[:16]
        )
        self.retry_policy = RetryPolicy(
            max_retries=int(retries),
            base_delay=backoff_base,
            max_delay=backoff_max,
            deadline=deadline,
            rng=random.Random(retry_seed) if retry_seed is not None else None,
        )
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0
        self._next_request_id = 0
        self._lock = threading.Lock()
        #: Lifetime resilience counters.
        self.retries_attempted = 0
        self.reconnects = 0
        #: Full decoded response of the most recent successful request —
        #: traced queries carry ``trace`` (span tree) and
        #: ``correlation_id`` here beyond the (results, stats) pair the
        #: convenience methods return.
        self.last_response: Dict[str, object] = {}
        self._connect()  # eager: constructing against no server raises

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        self._open_socket()
        self.wire = "ndjson"
        if self.wire_preference == "ndjson":
            return
        try:
            self._negotiate_binary()
        except (ConnectionError, OSError):
            if self.wire_preference == "binary":
                self._teardown()
                raise
            # "auto" is best-effort: transport trouble during the hello
            # (timeout, garbled ack, server gone mid-exchange) must not
            # fail a connect that plain NDJSON would survive.  The
            # stream position is unknown, so reconnect and stay NDJSON.
            self._teardown()
            self._open_socket()
            self.wire = "ndjson"

    def _open_socket(self) -> None:
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self._socket_timeout
        )
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")

    def _negotiate_binary(self) -> None:
        """Send the ``hello`` first request and switch wires on an ack.

        Every connection starts in NDJSON, so the hello and its ack are
        one plain request/response exchange — safe to readline because
        the protocol is lockstep (the server sends nothing ahead of the
        ack).  An explicit ``wire="binary"`` preference turns a refusal
        into :class:`ServiceError`; ``"auto"`` just stays on NDJSON (the
        server may predate the op or have binary disabled by policy).
        """
        hello = {"op": "hello", "wire": "binary", "id": 0}
        self._sock.sendall(encode_request(hello))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection during hello")
        try:
            response = decode_response(line)
        except ValueError as exc:
            raise ConnectionError(f"malformed hello response: {exc}") from exc
        if response.get("ok"):
            self.wire = "binary"
            return
        if self.wire_preference == "binary":
            error = response.get("error") or {}
            self._teardown()
            raise ServiceError(
                str(error.get("code", "internal")),
                str(error.get("message", "server refused binary wire")),
            )

    def _recv_exact(self, view: memoryview) -> None:
        """Fill ``view`` from the socket; ConnectionError on early EOF."""
        offset = 0
        while offset < len(view):
            read = self._sock.recv_into(view[offset:])
            if read == 0:
                raise ConnectionError("server closed the connection")
            offset += read

    def _read_frame_response(self) -> Dict[str, object]:
        """Read one binary frame and decode it to the NDJSON response shape.

        Reuses the header/payload buffers across calls.  Any framing
        violation becomes :class:`ConnectionError` — like a garbled
        NDJSON line, it means the stream position is unknown and the
        connection must be torn down.
        """
        self._recv_exact(memoryview(self._header_buf))
        try:
            frame_type, length = frames.decode_header(bytes(self._header_buf))
        except frames.FrameError as exc:
            raise ConnectionError(f"malformed frame header: {exc}") from exc
        if length > len(self._payload_buf):
            new_size = len(self._payload_buf)
            while new_size < length:
                new_size *= 2
            self._payload_buf = bytearray(new_size)
        payload = memoryview(self._payload_buf)[:length]
        self._recv_exact(payload)
        try:
            response = frames.decode_payload(frame_type, bytes(payload))
        except frames.FrameError as exc:
            raise ConnectionError(f"malformed frame payload: {exc}") from exc
        if "ok" not in response:
            raise ConnectionError("frame payload is not a response object")
        return response

    def _teardown(self) -> None:
        """Drop a (possibly half-read) connection so the next call
        reconnects cleanly.

        After a timeout or send/recv error the stream position is
        unknown — a late response for the failed request could otherwise
        be mis-read as the answer to the *next* one.
        """
        reader, sock = self._reader, self._sock
        self._reader = None
        self._sock = None
        if reader is not None:
            try:
                reader.close()
            except OSError:
                pass
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def _ensure_connected(self) -> None:
        if self._sock is None:
            self._connect()
            self.reconnects += 1

    def close(self) -> None:
        """Close the connection (idempotent)."""
        self._teardown()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """Send one request dict; block for and return the response dict.

        Fills in a fresh ``id`` when the message has none; raises
        :class:`ServiceError` if the server answered ``ok: false``.
        Connection failures tear the socket down (the next call
        reconnects); with retries configured they — and retryable server
        codes — are retried under backoff within the deadline budget.
        """
        with self._lock:
            if "id" not in message:
                self._next_id += 1
                message = dict(message, id=self._next_id)
            policy = self.retry_policy
            deadline_at = policy.start()
            attempt = 0
            while True:
                try:
                    self._ensure_connected()
                    if self.wire == "binary":
                        self._sock.sendall(frames.encode_request_frame(message))
                        response = self._read_frame_response()
                    else:
                        self._sock.sendall(encode_request(message))
                        line = self._reader.readline()
                        if not line:
                            raise ConnectionError(
                                "server closed the connection"
                            )
                        try:
                            response = decode_response(line)
                        except ValueError as exc:
                            # A truncated/garbled line means the stream
                            # state is unknown — a transport failure,
                            # not a reply.
                            raise ConnectionError(
                                f"malformed response line: {exc}"
                            ) from exc
                except (OSError, ConnectionError) as exc:
                    # Satellite invariant: never leave a half-read
                    # socket behind — tear down, then maybe retry.
                    self._teardown()
                    retry, delay = policy.should_retry(attempt, deadline_at)
                    if not retry:
                        raise
                    self.retries_attempted += 1
                    attempt += 1
                    time.sleep(delay)
                    continue
                if not response["ok"]:
                    error = response.get("error") or {}
                    code = str(error.get("code", "internal"))
                    detail = str(error.get("message", "unknown server error"))
                    if policy.is_retryable_code(code):
                        retry, delay = policy.should_retry(attempt, deadline_at)
                        if retry:
                            self.retries_attempted += 1
                            attempt += 1
                            time.sleep(delay)
                            continue
                    raise ServiceError(code, detail)
                self.last_response = response
                return response

    # ------------------------------------------------------------------
    def knn(
        self,
        items: Sequence[int],
        similarity: str = "match_ratio",
        k: int = 5,
        early_termination: Optional[float] = None,
        timeout_ms: Optional[float] = None,
        trace: bool = False,
        correlation_id: Optional[str] = None,
        candidate_tier: Optional[str] = None,
        target_recall: Optional[float] = None,
    ) -> Tuple[List[Neighbor], Dict[str, object]]:
        """k-NN over the wire; returns (neighbours, per-query stats dict).

        ``trace=True`` asks the server for the request's span tree; read
        it from ``last_response["trace"]`` (with
        ``last_response["correlation_id"]``) after the call.
        ``correlation_id`` stamps the caller's own id on the request —
        the server honours it instead of minting one, and a cluster
        router forwards it to every shard, so one id joins the log lines
        of every process the request touched.
        ``candidate_tier="lsh"`` (optionally with ``target_recall``)
        asks a sketch-enabled server for the approximate sketch tier;
        the returned stats then carry ``estimated_recall``.
        """
        message: Dict[str, object] = {
            "op": "knn",
            "items": list(map(int, items)),
            "similarity": similarity,
            "k": int(k),
        }
        if early_termination is not None:
            message["early_termination"] = float(early_termination)
        if timeout_ms is not None:
            message["timeout_ms"] = float(timeout_ms)
        if trace:
            message["trace"] = True
        if correlation_id is not None:
            message["correlation_id"] = str(correlation_id)
        if candidate_tier is not None:
            message["candidate_tier"] = str(candidate_tier)
        if target_recall is not None:
            message["target_recall"] = float(target_recall)
        response = self.request(message)
        return decode_neighbors(response["results"]), response["stats"]

    def range_query(
        self,
        items: Sequence[int],
        similarity: str,
        threshold: float,
        timeout_ms: Optional[float] = None,
        trace: bool = False,
        correlation_id: Optional[str] = None,
        candidate_tier: Optional[str] = None,
        target_recall: Optional[float] = None,
    ) -> Tuple[List[Neighbor], Dict[str, object]]:
        """Range query (similarity >= threshold) over the wire."""
        message: Dict[str, object] = {
            "op": "range",
            "items": list(map(int, items)),
            "similarity": similarity,
            "threshold": float(threshold),
        }
        if timeout_ms is not None:
            message["timeout_ms"] = float(timeout_ms)
        if trace:
            message["trace"] = True
        if correlation_id is not None:
            message["correlation_id"] = str(correlation_id)
        if candidate_tier is not None:
            message["candidate_tier"] = str(candidate_tier)
        if target_recall is not None:
            message["target_recall"] = float(target_recall)
        response = self.request(message)
        return decode_neighbors(response["results"]), response["stats"]

    # ------------------------------------------------------------------
    # Mutations (live indexes only)
    # ------------------------------------------------------------------
    def _idempotency_key(self) -> Dict[str, object]:
        """A fresh mutation key, stable across retries of one call."""
        self._next_request_id += 1
        return {"client_id": self.client_id, "request_id": self._next_request_id}

    def insert(self, items: Sequence[int]) -> int:
        """Durably insert a transaction; returns its logical tid.

        The server acknowledges only after the WAL append — a returned
        tid survives a crash.  The request carries an idempotency key,
        so a retry that races a lost ack returns the original tid
        instead of inserting twice.  Raises :class:`ServiceError` with
        ``bad_request`` against a read-only (frozen) server.
        """
        message: Dict[str, object] = {
            "op": "insert",
            "items": list(map(int, items)),
        }
        message.update(self._idempotency_key())
        return int(self.request(message)["tid"])

    def delete(self, tid: int) -> None:
        """Durably delete the transaction at a logical tid.

        Idempotency-keyed like :meth:`insert` — a retried delete whose
        first attempt landed is a no-op, never a second delete of
        whichever row has shifted into that tid.
        """
        message: Dict[str, object] = {"op": "delete", "tid": int(tid)}
        message.update(self._idempotency_key())
        self.request(message)

    def compact(self, repartition: bool = False) -> Dict[str, object]:
        """Fold the delta/tombstones into a fresh base; returns the report."""
        message: Dict[str, object] = {"op": "compact"}
        if repartition:
            message["repartition"] = True
        return dict(self.request(message)["compaction"])

    def checkpoint(self) -> int:
        """Snapshot state and truncate the WAL; returns the applied seqno."""
        return int(self.request({"op": "checkpoint"})["applied_seqno"])

    def metrics(self, format: str = "json", scope: str = "self") -> object:
        """A metric registry exposition, as ``json`` (dict) or
        ``prometheus`` (exposition text).

        ``scope="self"`` is the answering server's own registry;
        ``scope="cluster"`` (routers only) is the exact merge of every
        node's registry plus the router's — counters and histograms
        summed, gauges labelled by source process.
        """
        message: Dict[str, object] = {"op": "metrics", "format": format}
        if scope != "self":
            message["scope"] = scope
        response = self.request(message)
        return response["metrics"]

    def profile(
        self,
        duration_s: Optional[float] = None,
        format: str = "folded",
        hz: Optional[float] = None,
        reset: bool = False,
    ) -> Dict[str, object]:
        """Sample the server's thread stacks; returns the profile payload.

        Against a server without a continuous profiler this runs a
        one-shot sampling pass of ``duration_s`` seconds (server default
        1 s); against a continuous profiler it returns the accumulated
        snapshot immediately (``reset=True`` clears it).  ``format`` is
        ``"folded"`` (flamegraph-compatible text in ``profile``) or
        ``"json"`` (the raw snapshot dict).
        """
        message: Dict[str, object] = {"op": "profile", "format": format}
        if duration_s is not None:
            message["duration_s"] = float(duration_s)
        if hz is not None:
            message["hz"] = float(hz)
        if reset:
            message["reset"] = True
        response = dict(self.request(message))
        response.pop("id", None)
        response.pop("ok", None)
        return response

    def stats(self) -> Dict[str, object]:
        """The server's live metrics snapshot plus index description."""
        response = self.request({"op": "stats"})
        out = {"stats": response["stats"], "index": response.get("index", {})}
        if "slo" in response:
            out["slo"] = response["slo"]
        return out

    def ping(self) -> bool:
        """Liveness probe; True when the server answers."""
        return bool(self.request({"op": "ping"}).get("pong"))

    def health(self) -> Dict[str, object]:
        """Readiness report: ``ready``, ``degraded``, ``draining``,
        ``mutable`` and the compaction breaker state."""
        response = self.request({"op": "health"})
        return {
            key: response.get(key)
            for key in ("ready", "degraded", "draining", "mutable", "breaker")
        }

    def shutdown(self) -> bool:
        """Ask the server to drain and exit gracefully."""
        return bool(self.request({"op": "shutdown"}).get("draining"))

    # ------------------------------------------------------------------
    # Cluster operations (see repro.cluster and docs/cluster.md)
    # ------------------------------------------------------------------
    def replicate(self, shard: str, wal_bytes: bytes) -> Dict[str, object]:
        """Ship raw WAL record bytes to a replica node (cluster internal).

        The payload travels as a dense ``FRAME_REPLICATE`` on a binary
        connection and base64 inside JSON otherwise; either way the
        replica applies the exact CRC-framed records the owner wrote.
        Returns the replica's ack (``applied_seqno``, ``applied``).
        """
        message: Dict[str, object] = {
            "op": "replicate",
            "shard": str(shard),
            "wal_b64": base64.b64encode(bytes(wal_bytes)).decode("ascii"),
        }
        return self.request(message)

    def promote(self) -> Dict[str, object]:
        """Promote a replica node to shard owner (cluster failover)."""
        return self.request({"op": "promote"})

    def role(self) -> Dict[str, object]:
        """A cluster node's role report (``role``, ``shard``, seqnos)."""
        return self.request({"op": "role"})

    def rows(self, tids: Sequence[int]) -> List[List[int]]:
        """Fetch raw transaction rows by node-local tid (cluster internal)."""
        message = {"op": "rows", "tids": [int(t) for t in tids]}
        return [list(map(int, row)) for row in self.request(message)["rows"]]

    def ring(self) -> Dict[str, object]:
        """The router's hash-ring and shard-topology description."""
        response = dict(self.request({"op": "ring"}))
        response.pop("id", None)
        response.pop("ok", None)
        return response

    def rebalance(
        self, source: str, target: str, fraction: float = 0.5
    ) -> Dict[str, object]:
        """Ask the router to move ``fraction`` of a shard's ring span —
        and the rows hashed into it — from ``source`` to ``target``,
        online.  Returns the move report (rows moved, ring state)."""
        message: Dict[str, object] = {
            "op": "rebalance",
            "source": str(source),
            "target": str(target),
            "fraction": float(fraction),
        }
        response = dict(self.request(message))
        response.pop("id", None)
        response.pop("ok", None)
        return response


def wait_ready(
    host: str, port: int, timeout: float = 10.0, interval: float = 0.05
) -> bool:
    """Poll until a server answers ``ping`` at (host, port), or time out."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with ServiceClient(host, port, socket_timeout=interval * 10) as client:
                if client.ping():
                    return True
        except (OSError, ConnectionError, ValueError):
            time.sleep(interval)
    return False


# ----------------------------------------------------------------------
# Closed-loop load generation
# ----------------------------------------------------------------------
@dataclass
class RequestRecord:
    """Outcome of one load-generator request.

    One record per *logical* request: retries fold into this single
    record (``attempts`` counts them), so a retried-then-succeeded
    request is reported exactly once and never double-counted.
    """

    query_index: int
    latency_seconds: float
    neighbors: Optional[List[Neighbor]] = None
    error_code: Optional[str] = None
    attempts: int = 1


@dataclass
class LoadResult:
    """Aggregate outcome of one :func:`run_load` run."""

    concurrency: int
    elapsed_seconds: float
    records: List[RequestRecord] = field(default_factory=list)
    #: Wire protocol the load clients actually negotiated.
    wire: str = "ndjson"

    @property
    def completed(self) -> int:
        """Logical requests that returned results (retried ones count once)."""
        return sum(1 for r in self.records if r.error_code is None)

    @property
    def rejected(self) -> int:
        """Logical requests whose final outcome was a structured error."""
        return sum(1 for r in self.records if r.error_code is not None)

    @property
    def retried(self) -> int:
        """Logical requests that needed more than one attempt."""
        return sum(1 for r in self.records if r.attempts > 1)

    @property
    def total_attempts(self) -> int:
        """Wire-level attempts across all logical requests."""
        return sum(r.attempts for r in self.records)

    @property
    def qps(self) -> float:
        """Completed requests per wall-clock second."""
        return self.completed / max(self.elapsed_seconds, 1e-9)

    def latencies_ms(self) -> List[float]:
        """Sorted completed-request latencies in milliseconds."""
        return sorted(
            1000.0 * r.latency_seconds
            for r in self.records
            if r.error_code is None
        )


def run_load(
    host: str,
    port: int,
    queries: Sequence[Sequence[int]],
    similarity: str = "match_ratio",
    k: int = 10,
    threshold: Optional[float] = None,
    early_termination: Optional[float] = None,
    concurrency: int = 8,
    total_requests: Optional[int] = None,
    timeout_ms: Optional[float] = None,
    socket_timeout: Optional[float] = 120.0,
    retries: int = 0,
    wire: str = "auto",
) -> LoadResult:
    """Closed-loop burst: ``concurrency`` clients, one request in flight each.

    Request ``i`` targets ``queries[i % len(queries)]`` (round-robin), so
    any ``total_requests`` maps deterministically onto the query set and
    results stay comparable with direct engine execution.  Rejections
    (``overloaded``/``timeout``) are recorded per request, never raised.
    With ``retries > 0`` each client retries retryable outcomes under
    backoff; a request's final outcome is still recorded exactly once,
    with its attempt count.  ``wire`` is handed to every
    :class:`ServiceClient`; the protocol they negotiated is reported in
    :attr:`LoadResult.wire` so callers can label their output.
    """
    if not queries:
        raise ValueError("run_load needs at least one query")
    total = len(queries) if total_requests is None else int(total_requests)
    counter = {"next": 0}
    counter_lock = threading.Lock()
    records: List[Optional[RequestRecord]] = [None] * total
    negotiated: Dict[str, str] = {}

    def worker() -> None:
        with ServiceClient(
            host,
            port,
            socket_timeout=socket_timeout,
            retries=retries,
            wire=wire,
        ) as client:
            with counter_lock:
                negotiated["wire"] = client.wire
            while True:
                with counter_lock:
                    index = counter["next"]
                    if index >= total:
                        return
                    counter["next"] = index + 1
                query_index = index % len(queries)
                items = queries[query_index]
                started = time.monotonic()
                retries_before = client.retries_attempted
                try:
                    if threshold is not None:
                        neighbors, _ = client.range_query(
                            items, similarity, threshold, timeout_ms=timeout_ms
                        )
                    else:
                        neighbors, _ = client.knn(
                            items,
                            similarity,
                            k=k,
                            early_termination=early_termination,
                            timeout_ms=timeout_ms,
                        )
                    records[index] = RequestRecord(
                        query_index=query_index,
                        latency_seconds=time.monotonic() - started,
                        neighbors=neighbors,
                        attempts=1 + client.retries_attempted - retries_before,
                    )
                except ServiceError as exc:
                    records[index] = RequestRecord(
                        query_index=query_index,
                        latency_seconds=time.monotonic() - started,
                        error_code=exc.code,
                        attempts=1 + client.retries_attempted - retries_before,
                    )

    threads = [
        threading.Thread(target=worker, name=f"repro-load-{i}", daemon=True)
        for i in range(max(1, int(concurrency)))
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    return LoadResult(
        concurrency=max(1, int(concurrency)),
        elapsed_seconds=elapsed,
        records=[r for r in records if r is not None],
        wire=negotiated.get("wire", "ndjson"),
    )
