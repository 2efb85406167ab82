"""Wire protocol of the query service: newline-delimited JSON over TCP.

Each request is one JSON object on one line; each response is one JSON
object on one line carrying the request's ``id`` (responses may arrive
out of order — the micro-batcher completes requests as their batches
finish).  Floats round-trip exactly (Python's ``json`` serialises the
shortest ``repr`` that parses back to the same double), so similarity
values received over the wire are *byte-identical* to direct
:class:`~repro.core.engine.QueryEngine` calls.

Requests
--------
``{"id": 1, "op": "knn", "items": [3, 17], "similarity": "match_ratio",
"k": 5}`` — k-nearest-neighbour query.  Optional fields:
``early_termination`` (fraction of the database), ``candidate_tier``
(``exact``/``lsh`` — the sketch prefilter of :mod:`repro.sketch`),
``target_recall`` (recall target for the lsh tier), ``timeout_ms``
(per-request deadline), ``trace`` (return the span tree inline),
``correlation_id``
(client-chosen id for cross-process log grep), ``trace_context``
(distributed-trace context a router stamps on scatter legs; see
:mod:`repro.obs.distributed`).

``{"id": 2, "op": "range", "items": [...], "similarity": "jaccard",
"threshold": 0.4}`` — range query (similarity >= threshold).

``{"id": 3, "op": "stats"}`` — live metrics snapshot (served inline,
never batched).  ``{"op": "ping"}`` — liveness probe.  ``{"op":
"health"}`` — readiness: ``{"ready": true, "degraded": false,
"draining": false}``; ``degraded`` means the durable write path failed
and mutations are being rejected ``unavailable`` while reads keep
serving.  ``{"op": "shutdown"}`` — ask the server to drain and exit
gracefully.  ``{"op": "hello", "wire": "binary"}`` — negotiate the
connection's wire protocol (must be the first request on the
connection; see :mod:`repro.service.frames` and :doc:`docs/wire`).

Mutations (live indexes only — see :doc:`docs/durability`)
----------------------------------------------------------
``{"id": 4, "op": "insert", "items": [3, 17, 40]}`` — durably insert a
transaction; responds ``{"ok": true, "tid": <logical tid>}`` once the
WAL append has been applied.  ``{"id": 5, "op": "delete", "tid": 12}``
— durably delete the transaction at a logical tid.  Both accept an
optional idempotency key (``"client_id": "c1", "request_id": 7``): a
retransmission of an already-applied key answers with the original
result and changes nothing (see :doc:`docs/resilience`).  ``{"op":
"compact"}`` (optional ``"repartition": true``) folds the delta and
tombstones into a fresh base segment; ``{"op": "checkpoint"}``
snapshots state and truncates the WAL without rebuilding.  A server
fronting a frozen (read-only) index rejects all four with
``bad_request``; during drain they are rejected with
``shutting_down`` like queries.

Responses
---------
``{"id": 1, "ok": true, "results": [{"tid": 7, "similarity": 0.8},
...], "stats": {...}}`` on success;
``{"id": 1, "ok": false, "error": {"code": "overloaded", "message":
"..."}}`` on failure.  Error codes are the :data:`ERROR_CODES`
constants; ``overloaded`` and ``shutting_down`` are *expected* under
load and clients should treat them as retryable backpressure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.engine import BatchKey, batch_key
from repro.core.search import Neighbor, SearchStats
from repro.core.similarity import (
    SIMILARITY_FUNCTIONS,
    SimilarityFunction,
    get_similarity,
)

#: Request operations understood by the server.
QUERY_OPS = ("knn", "range")
CONTROL_OPS = (
    "stats", "ping", "shutdown", "metrics", "health", "hello", "profile",
)
MUTATION_OPS = ("insert", "delete", "compact", "checkpoint")

#: Cluster operations (see :mod:`repro.cluster` and :doc:`docs/cluster`).
#: A plain single-node server rejects them ``bad_request``; cluster
#: nodes serve ``replicate``/``promote``/``role``/``rows``, the router
#: serves ``ring``/``rebalance``.
CLUSTER_OPS = ("replicate", "promote", "role", "rows", "ring", "rebalance")

#: Wire protocols a connection can negotiate with the ``hello`` op.
#: ``ndjson`` is the default and the differential oracle; ``binary`` is
#: the length-prefixed frame protocol of :mod:`repro.service.frames`.
WIRE_PROTOCOLS = ("ndjson", "binary")

#: Exposition formats the ``metrics`` control op accepts.
METRICS_FORMATS = ("json", "prometheus")

#: Scopes the ``metrics`` control op accepts: ``self`` (default) is the
#: serving process's own registry; ``cluster`` asks a router to
#: scatter-gather every node's registry and merge it exactly (see
#: :meth:`repro.obs.registry.MetricRegistry.merge`).
METRICS_SCOPES = ("self", "cluster")

#: Output formats the ``profile`` control op accepts (see
#: :mod:`repro.obs.profiler`).
PROFILE_FORMATS = ("folded", "json")

#: Upper bound on an idempotency-key client id, mirrored by the WAL.
MAX_CLIENT_ID_BYTES = 64

#: Structured error codes carried in ``error.code``.
ERROR_CODES = (
    "bad_request",     # malformed JSON / unknown op / invalid parameters
    "overloaded",      # admission control rejected the request (retryable)
    "timeout",         # the per-request deadline expired before completion
    "shutting_down",   # server is draining; no new queries admitted
    "unavailable",     # durable write path is degraded; retryable
    "internal",        # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A request that cannot be served, with a structured error code."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass(frozen=True)
class QueryRequest:
    """A parsed, validated query request.

    ``key`` is the normalised :class:`~repro.core.engine.BatchKey` the
    micro-batcher coalesces on and ``similarity`` the shared function
    instance; ``items`` is the target transaction.  ``timeout_ms`` is
    the client-requested deadline (``None`` means the server default).

    ``trace`` asks the server to return the request's span tree inline
    (observability; never changes results).  ``correlation_id`` is
    assigned by the *server* when it admits the request — unless the
    client (or an upstream router) supplied one, in which case that id
    is kept, so one id greps across every process a request touched.
    ``trace_context`` is the optional distributed-trace context an
    upstream router stamps on scatter legs
    (:class:`repro.obs.distributed.TraceContext` wire form); a sampled
    context implies tracing even without ``trace: true``.
    """

    id: object
    key: BatchKey
    similarity: SimilarityFunction
    items: List[int]
    timeout_ms: Optional[float] = None
    trace: bool = False
    correlation_id: Optional[str] = None
    trace_context: Optional[str] = None


def validate_request(message: object) -> Dict[str, object]:
    """Check a decoded request (any wire) is an object with a known op."""
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad_request",
            f"request must be a JSON object, got {type(message).__name__}",
        )
    op = message.get("op")
    if op not in QUERY_OPS + CONTROL_OPS + MUTATION_OPS + CLUSTER_OPS:
        known = ", ".join(QUERY_OPS + CONTROL_OPS + MUTATION_OPS + CLUSTER_OPS)
        raise ProtocolError("bad_request", f"unknown op {op!r}; known: {known}")
    return message


def parse_request(line: str) -> Dict[str, object]:
    """Decode one request line to a dict, or raise :class:`ProtocolError`."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad_request", f"invalid JSON: {exc}") from None
    return validate_request(message)


def parse_query(
    message: Dict[str, object], universe_size: Optional[int] = None
) -> QueryRequest:
    """Validate a ``knn``/``range`` request dict into a :class:`QueryRequest`.

    ``universe_size`` is the fronted engine's item universe: an id
    outside ``[0, universe_size)`` is refused here, for this request
    alone, because the engine would refuse the whole coalesced batch.
    """
    op = message["op"]
    items = message.get("items")
    if (
        not isinstance(items, list)
        or not items
        or not all(isinstance(i, int) and not isinstance(i, bool) for i in items)
    ):
        raise ProtocolError(
            "bad_request", "items must be a non-empty list of item ids"
        )
    if min(items) < 0:
        raise ProtocolError(
            "bad_request", f"item ids must be non-negative, got {min(items)}"
        )
    if universe_size is not None and max(items) >= universe_size:
        raise ProtocolError(
            "bad_request",
            f"item {max(items)} is outside the universe [0, {universe_size})",
        )
    name = message.get("similarity", "match_ratio")
    if name not in SIMILARITY_FUNCTIONS:
        known = ", ".join(sorted(SIMILARITY_FUNCTIONS))
        raise ProtocolError(
            "bad_request", f"unknown similarity {name!r}; known: {known}"
        )
    similarity = get_similarity(name)
    timeout_ms = message.get("timeout_ms")
    if timeout_ms is not None and (
        not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0
    ):
        raise ProtocolError("bad_request", "timeout_ms must be a positive number")
    trace = message.get("trace", False)
    if not isinstance(trace, bool):
        raise ProtocolError("bad_request", "trace must be a boolean")
    correlation_id = message.get("correlation_id")
    if correlation_id is not None and (
        not isinstance(correlation_id, str)
        or not 0 < len(correlation_id) <= 64
    ):
        raise ProtocolError(
            "bad_request", "correlation_id must be a string of 1..64 chars"
        )
    trace_context = message.get("trace_context")
    if trace_context is not None:
        from repro.obs.distributed import TraceContext

        try:
            TraceContext.decode(trace_context)
        except ValueError as exc:
            raise ProtocolError("bad_request", str(exc)) from None
    candidate_tier = message.get("candidate_tier", "exact")
    if not isinstance(candidate_tier, str):
        raise ProtocolError("bad_request", "candidate_tier must be a string")
    target_recall = message.get("target_recall")
    if target_recall is not None and (
        not isinstance(target_recall, (int, float))
        or isinstance(target_recall, bool)
    ):
        raise ProtocolError("bad_request", "target_recall must be a number")
    if message.get("sort_by", "optimistic") != "optimistic":
        raise ProtocolError(
            "bad_request",
            "sort_by is not a request field: the service scans in "
            "optimistic-bound order only",
        )
    try:
        key = batch_key(
            op,
            similarity,
            k=message.get("k"),
            threshold=message.get("threshold"),
            early_termination=message.get("early_termination"),
            candidate_tier=candidate_tier,
            target_recall=(
                None if target_recall is None else float(target_recall)
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_request", str(exc)) from None
    return QueryRequest(
        id=message.get("id"),
        key=key,
        similarity=similarity,
        items=[int(i) for i in items],
        timeout_ms=None if timeout_ms is None else float(timeout_ms),
        trace=trace,
        correlation_id=correlation_id,
        trace_context=trace_context,
    )


@dataclass(frozen=True)
class MutationRequest:
    """A parsed, validated mutation request (live indexes only).

    ``items`` is set for ``insert``, ``tid`` for ``delete`` and
    ``repartition`` for ``compact``; the other fields are ``None`` /
    ``False`` when they do not apply.  ``client_id``/``request_id`` are
    the optional idempotency key a retrying client stamps on
    ``insert``/``delete`` so a retransmission is applied exactly once.
    """

    id: object
    op: str
    items: Optional[List[int]] = None
    tid: Optional[int] = None
    repartition: bool = False
    client_id: Optional[str] = None
    request_id: Optional[int] = None


def _parse_idempotency_key(message: Dict[str, object]):
    """Validate the optional ``client_id``/``request_id`` pair."""
    client_id = message.get("client_id")
    request_id = message.get("request_id")
    if client_id is None and request_id is None:
        return None, None
    if client_id is None or request_id is None:
        raise ProtocolError(
            "bad_request",
            "client_id and request_id must be provided together",
        )
    if (
        not isinstance(client_id, str)
        or not 0 < len(client_id.encode("utf-8")) <= MAX_CLIENT_ID_BYTES
    ):
        raise ProtocolError(
            "bad_request",
            f"client_id must be a string of 1..{MAX_CLIENT_ID_BYTES} "
            "UTF-8 bytes",
        )
    if (
        not isinstance(request_id, int)
        or isinstance(request_id, bool)
        or request_id < 0
    ):
        raise ProtocolError(
            "bad_request", "request_id must be a non-negative integer"
        )
    return client_id, int(request_id)


def parse_mutation(message: Dict[str, object]) -> MutationRequest:
    """Validate a mutation request dict into a :class:`MutationRequest`."""
    op = message["op"]
    assert op in MUTATION_OPS, op
    request_id = message.get("id")
    client_id, idem_request_id = (
        _parse_idempotency_key(message) if op in ("insert", "delete") else (None, None)
    )
    if op == "insert":
        items = message.get("items")
        if (
            not isinstance(items, list)
            or not items
            or not all(
                isinstance(i, int) and not isinstance(i, bool) for i in items
            )
        ):
            raise ProtocolError(
                "bad_request", "items must be a non-empty list of item ids"
            )
        return MutationRequest(
            id=request_id,
            op=op,
            items=[int(i) for i in items],
            client_id=client_id,
            request_id=idem_request_id,
        )
    if op == "delete":
        tid = message.get("tid")
        if not isinstance(tid, int) or isinstance(tid, bool) or tid < 0:
            raise ProtocolError(
                "bad_request", "tid must be a non-negative integer logical tid"
            )
        return MutationRequest(
            id=request_id,
            op=op,
            tid=int(tid),
            client_id=client_id,
            request_id=idem_request_id,
        )
    if op == "compact":
        repartition = message.get("repartition", False)
        if not isinstance(repartition, bool):
            raise ProtocolError("bad_request", "repartition must be a boolean")
        return MutationRequest(id=request_id, op=op, repartition=repartition)
    return MutationRequest(id=request_id, op=op)  # checkpoint


# ----------------------------------------------------------------------
# Response encoding
# ----------------------------------------------------------------------
def encode_neighbors(neighbors: Sequence[Neighbor]) -> List[Dict[str, object]]:
    """JSON-safe neighbour list (tid + exact round-tripping similarity)."""
    return [
        {"tid": int(nb.tid), "similarity": float(nb.similarity)}
        for nb in neighbors
    ]


def decode_neighbors(payload: Sequence[Dict[str, object]]) -> List[Neighbor]:
    """Inverse of :func:`encode_neighbors`."""
    return [
        Neighbor(tid=int(entry["tid"]), similarity=float(entry["similarity"]))
        for entry in payload
    ]


def encode_search_stats(stats: SearchStats) -> Dict[str, object]:
    """The per-query counters a monitoring client cares about.

    Sketch-tier fields ride the wire only when a query actually ran
    lossy (``candidate_tier != "exact"``): exact responses stay
    byte-identical to the pre-sketch wire format.
    """
    payload = {
        "total_transactions": stats.total_transactions,
        "transactions_accessed": stats.transactions_accessed,
        "entries_scanned": stats.entries_scanned,
        "entries_pruned": stats.entries_pruned,
        "terminated_early": stats.terminated_early,
        "guaranteed_optimal": stats.guaranteed_optimal,
        "pages_read": stats.io.pages_read,
        "seeks": stats.io.seeks,
        "latency_ms": 1000.0 * stats.elapsed_seconds,
    }
    if stats.candidate_tier != "exact":
        payload["candidate_tier"] = stats.candidate_tier
        if stats.estimated_recall is not None:
            payload["estimated_recall"] = float(stats.estimated_recall)
        if stats.sketch_candidates is not None:
            payload["sketch_candidates"] = int(stats.sketch_candidates)
    return payload


def decode_search_stats(payload: Dict[str, object]) -> SearchStats:
    """Inverse of :func:`encode_search_stats` (best-effort).

    Rebuilds a real :class:`~repro.core.search.SearchStats` from the
    wire dict so scatter-gather callers (the cluster router) can merge
    per-shard stats with the same code path the in-process engines use.
    Fields the wire form does not carry (``entries_total``,
    ``entries_unexplored``, ``best_possible_remaining``) keep their
    defaults.
    """
    stats = SearchStats(total_transactions=int(payload.get("total_transactions", 0)))
    stats.transactions_accessed = int(payload.get("transactions_accessed", 0))
    stats.entries_scanned = int(payload.get("entries_scanned", 0))
    stats.entries_pruned = int(payload.get("entries_pruned", 0))
    stats.terminated_early = bool(payload.get("terminated_early", False))
    guaranteed = payload.get("guaranteed_optimal", True)
    stats.guaranteed_optimal = bool(True if guaranteed is None else guaranteed)
    stats.io.pages_read = int(payload.get("pages_read", 0))
    stats.io.seeks = int(payload.get("seeks", 0))
    stats.elapsed_seconds = float(payload.get("latency_ms", 0.0)) / 1000.0
    stats.candidate_tier = str(payload.get("candidate_tier", "exact"))
    if "estimated_recall" in payload:
        stats.estimated_recall = float(payload["estimated_recall"])
    if "sketch_candidates" in payload:
        stats.sketch_candidates = int(payload["sketch_candidates"])
    return stats


def ok_response(
    request_id: object, payload: Optional[Dict[str, object]] = None
) -> bytes:
    """Encode a success response line (trailing newline included)."""
    message: Dict[str, object] = {"id": request_id, "ok": True}
    if payload:
        message.update(payload)
    return (json.dumps(message) + "\n").encode("utf-8")


def error_response(request_id: object, code: str, message: str) -> bytes:
    """Encode a structured failure response line."""
    assert code in ERROR_CODES, code
    body = {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
    return (json.dumps(body) + "\n").encode("utf-8")


def encode_request(message: Dict[str, object]) -> bytes:
    """Encode a request dict as one wire line (client side)."""
    return (json.dumps(message) + "\n").encode("utf-8")


def decode_response(line: str) -> Dict[str, object]:
    """Decode one response line (client side)."""
    message = json.loads(line)
    if not isinstance(message, dict) or "ok" not in message:
        raise ValueError(f"malformed response line: {line!r}")
    return message
