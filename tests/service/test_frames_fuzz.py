"""Corruption fuzz for the binary frame protocol (repro.service.frames).

Mirrors the WAL codec fuzz (``tests/properties/test_codec_property.py``)
for the wire: truncated frames and flipped bytes must surface as
:class:`FrameError` (never a struct/unicode/key error), a flipped length
prefix must be rejected *before* any allocation, and a live server fed
garbage must answer with a structured ``bad_request`` — closing only
when the stream is genuinely unsynchronisable — without ever hanging or
crashing.  Mid-stream protocol renegotiation is a protocol error on both
wires.
"""

import socket
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.service import frames
from repro.service.protocol import ERROR_CODES, decode_response, encode_request
from repro.service.server import serve_in_background

#: Socket timeout bounding every blocking read — a hang fails the test
#: instead of wedging the suite.
TIMEOUT = 10.0


# ----------------------------------------------------------------------
# Codec-level properties (no server)
# ----------------------------------------------------------------------
query_messages = st.fixed_dictionaries(
    {
        "op": st.sampled_from(["knn", "range"]),
        "id": st.integers(min_value=-(2**62), max_value=2**62),
        "items": st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=30
        ),
        "similarity": st.sampled_from(["match_ratio", "jaccard", "hamming"]),
        "k": st.integers(min_value=1, max_value=1000),
        "threshold": st.floats(allow_nan=False, allow_infinity=False),
    },
    optional={
        "early_termination": st.floats(
            min_value=0.0, max_value=1.0, allow_nan=False
        ),
        "timeout_ms": st.floats(
            min_value=0.0, max_value=1e6, allow_nan=False
        ),
        "trace": st.just(True),
    },
)


def _decode_frame_bytes(blob):
    frame_type, length = frames.decode_header(blob[: frames.HEADER.size])
    payload = blob[frames.HEADER.size:]
    assert len(payload) == length
    return frames.decode_payload(frame_type, payload)


class TestQueryFrames:
    @settings(max_examples=150, deadline=None)
    @given(message=query_messages)
    def test_round_trip(self, message):
        blob = frames.encode_request_frame(message)
        decoded = _decode_frame_bytes(blob)
        assert decoded["op"] == message["op"]
        assert decoded["id"] == message["id"]
        assert decoded["items"] == message["items"]
        assert decoded["similarity"] == message["similarity"]
        if message["op"] == "knn":
            assert decoded["k"] == message["k"]
        else:
            # Raw IEEE-754 doubles: bit-identical round trip.
            assert struct.pack(">d", decoded["threshold"]) == struct.pack(
                ">d", message["threshold"]
            )
        for key in ("early_termination", "timeout_ms"):
            if key in message:
                assert decoded[key] == message[key]
        if message.get("trace"):
            assert decoded["trace"] is True

    @settings(max_examples=100, deadline=None)
    @given(message=query_messages, cut=st.integers(min_value=0, max_value=200))
    def test_truncation_never_misdecodes(self, message, cut):
        blob = frames.encode_request_frame(message)
        truncated = blob[: min(cut, max(0, len(blob) - 1))]
        header = truncated[: frames.HEADER.size]
        if len(header) < frames.HEADER.size:
            with pytest.raises(frames.FrameError):
                frames.decode_header(header)
            return
        frame_type, _ = frames.decode_header(header)
        with pytest.raises(frames.FrameError):
            frames.decode_payload(
                frame_type, truncated[frames.HEADER.size:]
            )

    @settings(max_examples=150, deadline=None)
    @given(
        message=query_messages,
        position=st.integers(min_value=0, max_value=500),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_byte_flips_raise_frame_error_or_decode(
        self, message, position, flip
    ):
        blob = bytearray(frames.encode_request_frame(message))
        position %= len(blob)
        blob[position] ^= flip
        try:
            header = frames.decode_header(bytes(blob[: frames.HEADER.size]))
        except frames.FrameError:
            return
        frame_type, length = header
        payload = bytes(blob[frames.HEADER.size:])
        if length != len(payload):
            return  # a real reader would block or over-read; not decodable
        try:
            decoded = frames.decode_payload(frame_type, payload)
        except frames.FrameError:
            return
        assert isinstance(decoded, dict)


class TestResultAndErrorFrames:
    @settings(max_examples=100, deadline=None)
    @given(
        request_id=st.integers(min_value=-(2**62), max_value=2**62),
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=-(2**40), max_value=2**40),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=20,
        ),
        latency=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        optimal=st.sampled_from([True, False, None]),
    )
    def test_result_round_trip_is_float_bit_identical(
        self, request_id, pairs, latency, optimal
    ):
        payload = {
            "results": [
                {"tid": tid, "similarity": sim} for tid, sim in pairs
            ],
            "stats": {
                "total_transactions": 100,
                "transactions_accessed": 42,
                "entries_scanned": 7,
                "entries_pruned": 3,
                "terminated_early": False,
                "guaranteed_optimal": optimal,
                "pages_read": 5,
                "seeks": 2,
                "latency_ms": latency,
            },
            "correlation_id": "abc123",
        }
        blob = frames.encode_ok_frame(request_id, payload)
        decoded = _decode_frame_bytes(blob)
        assert decoded["ok"] is True
        assert decoded["id"] == request_id
        for got, (tid, sim) in zip(decoded["results"], pairs):
            assert got["tid"] == tid
            assert struct.pack(">d", got["similarity"]) == struct.pack(
                ">d", sim
            )
        assert decoded["stats"]["guaranteed_optimal"] is optimal
        assert decoded["stats"]["latency_ms"] == latency

    @settings(max_examples=60, deadline=None)
    @given(
        request_id=st.one_of(
            st.none(), st.integers(min_value=-(2**62), max_value=2**62)
        ),
        code=st.sampled_from(ERROR_CODES),
        text=st.text(max_size=200),
    )
    def test_error_round_trip(self, request_id, code, text):
        blob = frames.encode_error_frame(request_id, code, text)
        decoded = _decode_frame_bytes(blob)
        assert decoded["ok"] is False
        assert decoded["id"] == request_id
        assert decoded["error"]["code"] == code
        assert decoded["error"]["message"] == text

    @settings(max_examples=150, deadline=None)
    @given(garbage=st.binary(max_size=300))
    def test_garbage_never_escapes_frame_error(self, garbage):
        try:
            frame_type, _ = frames.decode_header(
                garbage[: frames.HEADER.size]
            )
        except frames.FrameError:
            return
        try:
            frames.decode_payload(frame_type, garbage[frames.HEADER.size:])
        except frames.FrameError:
            pass

    def test_huge_length_rejected_before_allocation(self):
        """A flipped length prefix must not allocate gigabytes."""
        header = frames.HEADER.pack(
            frames.MAGIC, frames.FRAME_JSON, 2**32 - 1
        )
        with pytest.raises(frames.FrameError, match="cap"):
            frames.decode_header(header)
        # The boundary itself is fine.
        ok = frames.HEADER.pack(
            frames.MAGIC, frames.FRAME_JSON, frames.MAX_FRAME_BYTES
        )
        assert frames.decode_header(ok) == (
            frames.FRAME_JSON,
            frames.MAX_FRAME_BYTES,
        )

    def test_bad_magic_rejected(self):
        header = frames.HEADER.pack(0x7B22, frames.FRAME_JSON, 10)
        with pytest.raises(frames.FrameError, match="magic"):
            frames.decode_header(header)


# ----------------------------------------------------------------------
# Live-server behaviour under corruption
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine(small_searcher):
    return repro.QueryEngine(small_searcher)


@pytest.fixture(scope="module")
def server(engine):
    with serve_in_background(engine) as handle:
        yield handle


def _connect(handle):
    sock = socket.create_connection(handle.address, timeout=TIMEOUT)
    sock.settimeout(TIMEOUT)
    return sock


def _negotiate(sock):
    sock.sendall(encode_request({"op": "hello", "wire": "binary", "id": 0}))
    line = _read_line(sock)
    response = decode_response(line)
    assert response["ok"], response
    return sock


def _read_line(sock):
    chunks = []
    while True:
        byte = sock.recv(1)
        if not byte:
            raise ConnectionError("closed")
        chunks.append(byte)
        if byte == b"\n":
            return b"".join(chunks).decode("utf-8")


def _recv_exact(sock, count):
    data = b""
    while len(data) < count:
        chunk = sock.recv(count - len(data))
        if not chunk:
            raise ConnectionError("closed")
        data += chunk
    return data


def _read_frame(sock):
    header = _recv_exact(sock, frames.HEADER.size)
    frame_type, length = frames.decode_header(header)
    return frames.decode_payload(frame_type, _recv_exact(sock, length))


def _knn_frame(request_id, items, k=3):
    return frames.encode_request_frame(
        {
            "op": "knn",
            "id": request_id,
            "items": items,
            "similarity": "match_ratio",
            "k": k,
        }
    )


class TestServerUnderCorruption:
    def test_garbage_magic_answered_and_closed(self, server):
        with _negotiate(_connect(server)) as sock:
            sock.sendall(b"\x00" * frames.HEADER.size)
            response = _read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            # Unsynchronisable stream: the server must close.
            assert sock.recv(1) == b""

    def test_huge_length_prefix_rejected_without_payload(self, server):
        """The server answers from the header alone — it never waits for
        (or allocates) the advertised gigabytes."""
        with _negotiate(_connect(server)) as sock:
            sock.sendall(
                frames.HEADER.pack(frames.MAGIC, frames.FRAME_JSON, 2**31)
            )
            response = _read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert sock.recv(1) == b""

    def test_bad_payload_in_valid_frame_keeps_connection(self, server):
        # Well-formed header around a truncated QUERY payload, then a
        # complete QUERY that sets the reserved flag bit 8: one
        # structured rejection each, and the stream keeps serving.
        reserved = bytearray(_knn_frame(6, [1, 2, 3]))
        # flags is the last byte of the (op, id, flags) block
        reserved[frames.HEADER.size + frames._QUERY_FIXED.size - 1] |= 8
        with _negotiate(_connect(server)) as sock:
            for bad in (
                frames.HEADER.pack(frames.MAGIC, frames.FRAME_QUERY, 3)
                + b"\x00\x01\x02",
                bytes(reserved),
            ):
                sock.sendall(bad)
                response = _read_frame(sock)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
            sock.sendall(_knn_frame(7, [1, 2, 3]))
            response = _read_frame(sock)
            assert response["ok"] is True
            assert response["id"] == 7
            assert response["results"]

    def test_response_frame_types_from_client_rejected(self, server):
        for frame_type in (frames.FRAME_RESULT, frames.FRAME_ERROR):
            with _negotiate(_connect(server)) as sock:
                sock.sendall(frames.HEADER.pack(frames.MAGIC, frame_type, 0))
                response = _read_frame(sock)
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert sock.recv(1) == b""

    def test_midstream_hello_rejected_on_ndjson(self, server):
        with _connect(server) as sock:
            sock.sendall(encode_request({"op": "ping", "id": 1}))
            assert decode_response(_read_line(sock))["ok"]
            sock.sendall(
                encode_request({"op": "hello", "wire": "binary", "id": 2})
            )
            response = decode_response(_read_line(sock))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            assert "first request" in response["error"]["message"]
            # The connection itself survives (stream still aligned).
            sock.sendall(encode_request({"op": "ping", "id": 3}))
            assert decode_response(_read_line(sock))["ok"]

    def test_midstream_hello_rejected_on_binary(self, server):
        with _negotiate(_connect(server)) as sock:
            sock.sendall(
                frames.encode_request_frame(
                    {"op": "hello", "wire": "binary", "id": 5}
                )
            )
            response = _read_frame(sock)
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            sock.sendall(_knn_frame(6, [1, 2]))
            assert _read_frame(sock)["ok"] is True

    def test_unknown_wire_in_hello_rejected(self, server):
        with _connect(server) as sock:
            sock.sendall(
                encode_request({"op": "hello", "wire": "carrier-pigeon", "id": 1})
            )
            response = decode_response(_read_line(sock))
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"

    def test_oversized_ndjson_line_closes_without_hang(self, server):
        # Frame bytes (no newline) at an NDJSON server: readline hits its
        # limit; the server must close, not wedge.
        with _connect(server) as sock:
            sock.sendall(b"\x52\x46" + b"\xff" * (2**16 + 1024))
            assert sock.recv(1) == b""

    def test_fresh_connections_still_served_after_abuse(self, server, engine):
        from repro.core.similarity import get_similarity
        from repro.service.client import ServiceClient

        expected, _ = engine.knn_batch(
            [[1, 2, 3]], get_similarity("match_ratio"), k=3
        )
        for wire in ("binary", "ndjson"):
            with ServiceClient(*server.address, wire=wire) as client:
                neighbors, _ = client.knn([1, 2, 3], "match_ratio", k=3)
                assert neighbors == expected[0]
