"""Length-prefixed binary frame protocol for the query service.

NDJSON (:mod:`repro.service.protocol`) stays the default wire and the
differential oracle, but parsing JSON is a measured per-request cost at
high qps.  A connection can negotiate this binary protocol instead by
sending ``{"op": "hello", "wire": "binary"}`` as its *first* request
(an NDJSON line); after the server's NDJSON acknowledgement, both
directions switch to frames.  Servers that predate the ``hello`` op
answer ``bad_request``, which a client treats as "fall back to NDJSON"
— see :doc:`docs/wire` for the negotiation rules.

Every frame is a fixed 7-byte header followed by a payload::

    >HBI   magic (0x5246 "RF") | frame type | payload length

The length is validated against :data:`MAX_FRAME_BYTES` *before* any
payload allocation, so a flipped length prefix can never request
gigabytes (the same regression the WAL codec fuzz pinned for varint
counts).  A bad header is unrecoverable — the stream can no longer be
resynchronised — so peers answer once (``bad_request``) and close; a bad
*payload* inside a well-formed frame leaves the stream aligned and only
fails that request.

Frame types
-----------
``FRAME_JSON``
    UTF-8 JSON object — any request or response that has no dedicated
    binary form (control ops, mutations, traced responses).  Semantics
    are exactly the NDJSON protocol's, minus the newline framing.
``FRAME_QUERY``
    A ``knn``/``range`` request packed with :mod:`struct`: fixed header
    (op, id, flags), similarity name, ``k`` or threshold, optional
    early-termination/timeout doubles, then the item ids as ``uint32``.
``FRAME_RESULT``
    A successful query response: request id, correlation id, neighbour
    ``(tid, similarity)`` pairs as raw ``int64``/IEEE-754 doubles — so
    similarity values are *byte-identical* to the engine's, with no
    text round-trip — and the fixed search-stats block.
``FRAME_ERROR``
    A structured failure: optional request id, an index into
    :data:`~repro.service.protocol.ERROR_CODES`, and the message.

All decode failures raise :class:`FrameError` (a ``ValueError``), never
a struct/unicode/key error — the corruption fuzz suite
(``tests/service/test_frames_fuzz.py``) holds the codec to that.
"""

from __future__ import annotations

import base64
import binascii
import json
import struct
from typing import Dict, List, Optional, Tuple

from repro.service.protocol import ERROR_CODES

#: First two header bytes of every frame ("RF", for repro frame).
MAGIC = 0x5246

#: ``>HBI`` — magic, frame type, payload length.
HEADER = struct.Struct(">HBI")

#: Hard cap on a frame payload; a length prefix beyond this is rejected
#: before any allocation happens.
MAX_FRAME_BYTES = 16 * 1024 * 1024

FRAME_JSON = 1
FRAME_QUERY = 2
FRAME_RESULT = 3
FRAME_ERROR = 4
#: Raw WAL record stream shipped from a shard owner to its replica.
FRAME_REPLICATE = 5

#: Every frame type either side may legally send.
FRAME_TYPES = (
    FRAME_JSON,
    FRAME_QUERY,
    FRAME_RESULT,
    FRAME_ERROR,
    FRAME_REPLICATE,
)

# Query-frame layout pieces.
_QUERY_FIXED = struct.Struct(">BqB")  # op, request id, flags
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
# total_transactions, transactions_accessed, entries_scanned,
# entries_pruned, pages_read, seeks, latency_ms, terminated_early,
# guaranteed_optimal (0 = false, 1 = true, 2 = null).
_STATS = struct.Struct(">qqqqqqdBB")

_FLAG_EARLY_TERMINATION = 1
_FLAG_TIMEOUT = 2
_FLAG_TRACE = 4
#: Reserved; a frame that sets it is answered ``bad_request``.
_FLAG_RESERVED = 8
_FLAG_CORRELATION = 16

_OP_CODES = {"knn": 0, "range": 1}
_OP_NAMES = {code: name for name, code in _OP_CODES.items()}


class FrameError(ValueError):
    """A frame that cannot be decoded (bad header, truncated payload,
    out-of-range field, ...).  Maps to ``bad_request`` on the wire."""


# ----------------------------------------------------------------------
# Header
# ----------------------------------------------------------------------
def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One complete frame: header + payload."""
    assert frame_type in FRAME_TYPES, frame_type
    assert len(payload) <= MAX_FRAME_BYTES, len(payload)
    return HEADER.pack(MAGIC, frame_type, len(payload)) + payload


def decode_header(header: bytes) -> Tuple[int, int]:
    """Validate a 7-byte header; returns ``(frame_type, payload_length)``.

    The length check happens here, before the caller reads (or
    allocates) a single payload byte.
    """
    if len(header) != HEADER.size:
        raise FrameError(
            f"frame header must be {HEADER.size} bytes, got {len(header)}"
        )
    magic, frame_type, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(
            f"bad frame magic 0x{magic:04x} (expected 0x{MAGIC:04x}); "
            "is the peer speaking NDJSON?"
        )
    if frame_type not in FRAME_TYPES:
        raise FrameError(f"unknown frame type {frame_type}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return frame_type, length


# ----------------------------------------------------------------------
# Decode-side cursor (every read is bounds-checked)
# ----------------------------------------------------------------------
class _Cursor:
    """Sequential bounds-checked reads over one payload."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def unpack(self, fmt: struct.Struct):
        end = self.offset + fmt.size
        if end > len(self.data):
            raise FrameError("truncated frame payload")
        values = fmt.unpack_from(self.data, self.offset)
        self.offset = end
        return values

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise FrameError("truncated frame payload")
        chunk = bytes(self.data[self.offset:end])
        self.offset = end
        return chunk

    def finish(self) -> None:
        if self.offset != len(self.data):
            raise FrameError(
                f"{len(self.data) - self.offset} trailing bytes after payload"
            )


def _utf8(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FrameError(f"{what} is not valid UTF-8: {exc}") from None


# ----------------------------------------------------------------------
# Query frames
# ----------------------------------------------------------------------
def encode_query(message: Dict[str, object]) -> bytes:
    """Pack a ``knn``/``range`` request dict into a QUERY payload.

    Raises :class:`ValueError` when the message has no binary form
    (non-integer id, oversized fields, ...) — callers fall back to a
    JSON frame, never fail the request.
    """
    op = message.get("op")
    if op not in _OP_CODES:
        raise ValueError(f"op {op!r} has no binary query form")
    if message.get("trace_context") is not None:
        # Distributed-trace contexts have no slot in the dense layout;
        # such requests ride a JSON frame on the binary wire (this is
        # the trace-context extension of the frame protocol — the
        # caller's FRAME_JSON fallback carries the field verbatim).
        raise ValueError("trace_context queries ride JSON frames")
    if (
        message.get("candidate_tier", "exact") != "exact"
        or message.get("target_recall") is not None
    ):
        # Sketch-tier knobs have no slot in the dense layout either;
        # lsh-tier requests ride JSON frames on the binary wire (same
        # extension mechanism as trace_context above).
        raise ValueError("sketch-tier queries ride JSON frames")
    if message.get("sort_by", "optimistic") != "optimistic":
        # No slot either: the JSON frame carries the field to the
        # server's parser, which rejects it by name.
        raise ValueError("sort_by has no binary form")
    request_id = message.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ValueError("binary query frames need an integer id")
    items = message.get("items")
    if not isinstance(items, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) and 0 <= i < 2**32
        for i in items
    ):
        raise ValueError("items must be uint32 ids for a binary query frame")
    similarity = str(message.get("similarity", "match_ratio")).encode("utf-8")
    if len(similarity) > 255:
        raise ValueError("similarity name too long for a binary query frame")
    flags = 0
    tail: List[bytes] = []
    if message.get("early_termination") is not None:
        flags |= _FLAG_EARLY_TERMINATION
        tail.append(_F64.pack(float(message["early_termination"])))
    if message.get("timeout_ms") is not None:
        flags |= _FLAG_TIMEOUT
        tail.append(_F64.pack(float(message["timeout_ms"])))
    if message.get("correlation_id") is not None:
        correlation = str(message["correlation_id"]).encode("utf-8")
        if not 0 < len(correlation) <= 255:
            raise ValueError("correlation_id too long for a binary frame")
        flags |= _FLAG_CORRELATION
        tail.append(_U8.pack(len(correlation)))
        tail.append(correlation)
    if message.get("trace"):
        flags |= _FLAG_TRACE
    if op == "knn":
        k = message.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or not 0 < k < 2**32:
            raise ValueError("binary knn frames need a uint32 k")
        middle = _U32.pack(k)
    else:
        middle = _F64.pack(float(message.get("threshold", 0.0)))
    parts = [
        _QUERY_FIXED.pack(_OP_CODES[op], request_id, flags),
        _U8.pack(len(similarity)),
        similarity,
        middle,
        *tail,
        _U32.pack(len(items)),
        struct.pack(f">{len(items)}I", *items),
    ]
    return b"".join(parts)


def decode_query(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_query`; returns the NDJSON-shaped dict."""
    cursor = _Cursor(payload)
    op_code, request_id, flags = cursor.unpack(_QUERY_FIXED)
    if op_code not in _OP_NAMES:
        raise FrameError(f"unknown query op code {op_code}")
    op = _OP_NAMES[op_code]
    if flags & _FLAG_RESERVED:
        raise FrameError(f"query flag bit {_FLAG_RESERVED} is reserved")
    (sim_len,) = cursor.unpack(_U8)
    similarity = _utf8(cursor.take(sim_len), "similarity name")
    message: Dict[str, object] = {
        "op": op,
        "id": request_id,
        "similarity": similarity,
    }
    if op == "knn":
        (k,) = cursor.unpack(_U32)
        message["k"] = k
    else:
        (threshold,) = cursor.unpack(_F64)
        message["threshold"] = threshold
    if flags & _FLAG_EARLY_TERMINATION:
        (message["early_termination"],) = cursor.unpack(_F64)
    if flags & _FLAG_TIMEOUT:
        (message["timeout_ms"],) = cursor.unpack(_F64)
    if flags & _FLAG_CORRELATION:
        (cid_len,) = cursor.unpack(_U8)
        message["correlation_id"] = _utf8(cursor.take(cid_len), "correlation id")
    if flags & _FLAG_TRACE:
        message["trace"] = True
    (num_items,) = cursor.unpack(_U32)
    if num_items * 4 > len(payload) - cursor.offset:
        raise FrameError(
            f"item count {num_items} exceeds the remaining payload"
        )
    raw = cursor.take(4 * num_items)
    message["items"] = list(struct.unpack(f">{num_items}I", raw))
    cursor.finish()
    return message


# ----------------------------------------------------------------------
# Replicate frames (cluster WAL shipping)
# ----------------------------------------------------------------------
def encode_replicate(
    request_id: int, shard: str, wal_bytes: bytes
) -> bytes:
    """Pack a WAL shipment into a REPLICATE payload.

    The body after the shard name is the raw, already CRC-framed WAL
    record stream from :meth:`repro.live.wal.WriteAheadLog.read_tail` —
    reused verbatim so the replica applies exactly what the owner made
    durable, with no re-encoding step that could diverge.
    """
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ValueError("replicate frames need an integer id")
    shard_utf8 = str(shard).encode("utf-8")
    if not 0 < len(shard_utf8) <= 255:
        raise ValueError("shard name must encode to 1..255 UTF-8 bytes")
    return b"".join(
        (
            _I64.pack(request_id),
            _U8.pack(len(shard_utf8)),
            shard_utf8,
            bytes(wal_bytes),
        )
    )


def decode_replicate(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_replicate`.

    Returns the request-shaped dict ``{"op": "replicate", "id": ...,
    "shard": ..., "wal": <raw bytes>}``.  The ``wal`` value is *bytes*,
    never JSON-serialised — this dict only travels server-internally.
    """
    cursor = _Cursor(payload)
    (request_id,) = cursor.unpack(_I64)
    (shard_len,) = cursor.unpack(_U8)
    shard = _utf8(cursor.take(shard_len), "shard name")
    wal = bytes(payload[cursor.offset :])
    return {"op": "replicate", "id": request_id, "shard": shard, "wal": wal}


# ----------------------------------------------------------------------
# Result frames
# ----------------------------------------------------------------------
def encode_result(request_id: object, payload: Dict[str, object]) -> bytes:
    """Pack a successful query response payload into a RESULT payload.

    ``payload`` is the dict the server builds for ``ok_response`` —
    ``results`` (tid/similarity dicts), ``stats`` (the
    ``encode_search_stats`` shape) and ``correlation_id``.  Raises
    :class:`ValueError` when the response has no binary form (traced
    responses, non-integer ids) — callers fall back to a JSON frame.
    """
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ValueError("binary result frames need an integer id")
    if set(payload) - {"results", "stats", "correlation_id"}:
        raise ValueError("payload has fields with no binary form")
    results = payload["results"]
    stats = payload["stats"]
    if "candidate_tier" in stats:
        # Sketch-tier stats (estimated_recall, sketch_candidates) have
        # no slot in the fixed stats block; lossy responses fall back
        # to a JSON frame so nothing is silently dropped.
        raise ValueError("sketch-tier stats ride JSON frames")
    cid = str(payload.get("correlation_id", "")).encode("utf-8")
    if len(cid) > 255:
        raise ValueError("correlation id too long for a binary result frame")
    optimal = stats.get("guaranteed_optimal")
    parts = [
        _I64.pack(request_id),
        _U8.pack(len(cid)),
        cid,
        _U32.pack(len(results)),
        struct.pack(f">{len(results)}q", *(entry["tid"] for entry in results)),
        struct.pack(
            f">{len(results)}d", *(entry["similarity"] for entry in results)
        ),
        _STATS.pack(
            int(stats["total_transactions"]),
            int(stats["transactions_accessed"]),
            int(stats["entries_scanned"]),
            int(stats["entries_pruned"]),
            int(stats["pages_read"]),
            int(stats["seeks"]),
            float(stats["latency_ms"]),
            1 if stats["terminated_early"] else 0,
            2 if optimal is None else (1 if optimal else 0),
        ),
    ]
    return b"".join(parts)


def decode_result(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_result`; returns the NDJSON response shape."""
    cursor = _Cursor(payload)
    (request_id,) = cursor.unpack(_I64)
    (cid_len,) = cursor.unpack(_U8)
    cid = _utf8(cursor.take(cid_len), "correlation id")
    (count,) = cursor.unpack(_U32)
    if count * 16 > len(payload) - cursor.offset:
        raise FrameError(f"result count {count} exceeds the remaining payload")
    tids = struct.unpack(f">{count}q", cursor.take(8 * count))
    sims = struct.unpack(f">{count}d", cursor.take(8 * count))
    (
        total_transactions,
        transactions_accessed,
        entries_scanned,
        entries_pruned,
        pages_read,
        seeks,
        latency_ms,
        terminated_early,
        optimal_code,
    ) = cursor.unpack(_STATS)
    cursor.finish()
    if optimal_code not in (0, 1, 2):
        raise FrameError(f"bad guaranteed_optimal code {optimal_code}")
    response: Dict[str, object] = {
        "id": request_id,
        "ok": True,
        "results": [
            {"tid": tid, "similarity": sim} for tid, sim in zip(tids, sims)
        ],
        "stats": {
            "total_transactions": total_transactions,
            "transactions_accessed": transactions_accessed,
            "entries_scanned": entries_scanned,
            "entries_pruned": entries_pruned,
            "terminated_early": bool(terminated_early),
            "guaranteed_optimal": (
                None if optimal_code == 2 else bool(optimal_code)
            ),
            "pages_read": pages_read,
            "seeks": seeks,
            "latency_ms": latency_ms,
        },
    }
    if cid:
        response["correlation_id"] = cid
    return response


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
def encode_error(
    request_id: object, code: str, message: str
) -> bytes:
    """Pack a structured failure into an ERROR payload.

    Raises :class:`ValueError` for ids with no binary form (callers fall
    back to a JSON frame).
    """
    assert code in ERROR_CODES, code
    if request_id is None:
        id_part = _U8.pack(0) + _I64.pack(0)
    elif isinstance(request_id, int) and not isinstance(request_id, bool):
        id_part = _U8.pack(1) + _I64.pack(request_id)
    else:
        raise ValueError("binary error frames need an integer id or none")
    text = message.encode("utf-8")[:65535]
    return (
        id_part
        + _U8.pack(ERROR_CODES.index(code))
        + _U16.pack(len(text))
        + text
    )


def decode_error(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_error`; returns the NDJSON error shape."""
    cursor = _Cursor(payload)
    (has_id,) = cursor.unpack(_U8)
    (request_id,) = cursor.unpack(_I64)
    (code_index,) = cursor.unpack(_U8)
    if code_index >= len(ERROR_CODES):
        raise FrameError(f"unknown error code index {code_index}")
    (msg_len,) = cursor.unpack(_U16)
    message = _utf8(cursor.take(msg_len), "error message")
    cursor.finish()
    return {
        "id": request_id if has_id else None,
        "ok": False,
        "error": {"code": ERROR_CODES[code_index], "message": message},
    }


# ----------------------------------------------------------------------
# Whole-message helpers (what the server and client actually call)
# ----------------------------------------------------------------------
def decode_payload(frame_type: int, payload: bytes) -> Dict[str, object]:
    """Decode any frame payload into its NDJSON-shaped dict."""
    if frame_type == FRAME_QUERY:
        return decode_query(payload)
    if frame_type == FRAME_RESULT:
        return decode_result(payload)
    if frame_type == FRAME_ERROR:
        return decode_error(payload)
    if frame_type == FRAME_REPLICATE:
        return decode_replicate(payload)
    if frame_type == FRAME_JSON:
        try:
            message = json.loads(_utf8(bytes(payload), "JSON frame"))
        except json.JSONDecodeError as exc:
            raise FrameError(f"invalid JSON frame: {exc}") from None
        if not isinstance(message, dict):
            raise FrameError(
                f"JSON frame must hold an object, got "
                f"{type(message).__name__}"
            )
        return message
    raise FrameError(f"unknown frame type {frame_type}")


def encode_request_frame(message: Dict[str, object]) -> bytes:
    """Encode a request dict as one frame (client side).

    Queries get the dense QUERY form when representable; everything else
    (control ops, mutations, exotic field values) rides in a JSON frame.
    """
    if message.get("op") in _OP_CODES:
        try:
            return encode_frame(FRAME_QUERY, encode_query(message))
        except (ValueError, TypeError, KeyError, struct.error):
            pass
    if message.get("op") == "replicate":
        wal = message.get("wal")
        if wal is None and isinstance(message.get("wal_b64"), str):
            try:
                wal = base64.b64decode(message["wal_b64"])
            except (binascii.Error, ValueError):
                wal = None
        if isinstance(wal, (bytes, bytearray, memoryview)):
            try:
                return encode_frame(
                    FRAME_REPLICATE,
                    encode_replicate(
                        message.get("id"),
                        str(message.get("shard", "")),
                        bytes(wal),
                    ),
                )
            except (ValueError, TypeError, struct.error):
                pass
    return encode_frame(FRAME_JSON, json.dumps(message).encode("utf-8"))


def encode_ok_frame(
    request_id: object, payload: Optional[Dict[str, object]] = None
) -> bytes:
    """Encode a success response as one frame (server side).

    Plain query answers get the dense RESULT form; responses with extra
    fields (traces, control payloads) ride in a JSON frame.
    """
    if payload is not None and "results" in payload and "stats" in payload:
        try:
            return encode_frame(FRAME_RESULT, encode_result(request_id, payload))
        except (ValueError, TypeError, KeyError, struct.error):
            pass
    message: Dict[str, object] = {"id": request_id, "ok": True}
    if payload:
        message.update(payload)
    return encode_frame(FRAME_JSON, json.dumps(message).encode("utf-8"))


def encode_error_frame(request_id: object, code: str, message: str) -> bytes:
    """Encode a structured failure as one frame (server side)."""
    try:
        return encode_frame(FRAME_ERROR, encode_error(request_id, code, message))
    except (ValueError, TypeError, struct.error):
        body = {
            "id": request_id,
            "ok": False,
            "error": {"code": code, "message": message},
        }
        return encode_frame(FRAME_JSON, json.dumps(body).encode("utf-8"))
