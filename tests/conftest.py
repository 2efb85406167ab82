"""Shared fixtures.

Session-scoped pipelines over two synthetic datasets:

* ``small_db`` — 500 transactions over 120 items; cheap enough for
  exhaustive cross-checks against brute force.
* ``medium_db`` — 3000 transactions over 400 items; realistic enough for
  pruning/accuracy behaviour, still fast.

Everything is seeded; test outcomes are deterministic.
"""

import socket

import pytest

import repro
from repro.service import frames
from repro.service.protocol import decode_response, encode_request

#: Every query method of the scalar searcher.  A guard patches them all
#: to raise, so a test can prove a path runs on the packed kernels.
SEARCHER_QUERIES = ("knn", "nearest", "range_query", "multi_range_query")


def forbid_scalar_loop(patch):
    """Make every searcher query method raise under ``patch`` (a
    ``monkeypatch`` or one of its contexts)."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the scalar loop was reached")

    for name in SEARCHER_QUERIES:
        patch.setattr(repro.SignatureTableSearcher, name, unreachable)


class RawWire:
    """A raw socket to a server, for tests that own the bytes (pipelined
    batches, corrupt frames).  ``send`` encodes requests for the wire,
    ``read`` decodes the next reply; ``wire="binary"`` negotiates with a
    ``hello`` first.  ``sock`` stays reachable for raw bytes; its
    ``timeout`` bounds every blocking read, so a hang fails the test
    instead of wedging the suite."""

    def __init__(self, address, wire="ndjson", timeout=10.0):
        self.sock = socket.create_connection(address, timeout=timeout)
        self.wire = "ndjson"
        if wire == "binary":
            self.send({"id": 0, "op": "hello", "wire": "binary"})
            reply = self.read()
            assert reply["ok"], reply
            self.wire = "binary"

    def encode(self, message) -> bytes:
        if self.wire == "binary":
            return frames.encode_request_frame(message)
        return encode_request(message)

    def send(self, *messages):
        self.sock.sendall(b"".join(self.encode(m) for m in messages))

    def read(self):
        return self.read_frame() if self.wire == "binary" else self.read_line()

    def read_line(self):
        line = b""
        while not line.endswith(b"\n"):
            line += self._recv_exact(1)
        return decode_response(line.decode("utf-8"))

    def read_frame(self):
        frame_type, length = frames.decode_header(
            self._recv_exact(frames.HEADER.size)
        )
        return frames.decode_payload(frame_type, self._recv_exact(length))

    def _recv_exact(self, count):
        data = b""
        while len(data) < count:
            chunk = self.sock.recv(count - len(data))
            if not chunk:
                raise ConnectionError("closed")
            data += chunk
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.sock.close()


def make_similarities():
    """One instance of every built-in similarity function."""
    return [
        repro.HammingSimilarity(),
        repro.HammingSimilarity(smoothing=0.0),
        repro.MatchRatioSimilarity(),
        repro.MatchRatioSimilarity(smoothing=0.0),
        repro.CosineSimilarity(),
        repro.JaccardSimilarity(),
        repro.DiceSimilarity(),
        repro.ContainmentSimilarity(),
        repro.MatchCountSimilarity(),
        repro.WeightedLinearSimilarity(alpha=2.0, beta=0.5),
    ]


@pytest.fixture(scope="session")
def all_similarities():
    return make_similarities()


@pytest.fixture(scope="session")
def small_db():
    return repro.generate(
        "T8.I4.D500", seed=11, num_items=120, num_patterns=60
    )


@pytest.fixture(scope="session")
def medium_db():
    return repro.generate(
        "T10.I6.D3K", seed=5, num_items=400, num_patterns=300
    )


@pytest.fixture(scope="session")
def medium_split(medium_db):
    """(indexed, holdout-query) split of the medium database."""
    return medium_db.split(30)


@pytest.fixture(scope="session")
def medium_indexed(medium_split):
    return medium_split[0]


@pytest.fixture(scope="session")
def medium_queries(medium_split):
    holdout = medium_split[1]
    return [sorted(holdout[q]) for q in range(len(holdout))]


@pytest.fixture(scope="session")
def medium_scheme(medium_indexed):
    return repro.partition_items(medium_indexed, num_signatures=10, rng=3)


@pytest.fixture(scope="session")
def medium_table(medium_indexed, medium_scheme):
    return repro.SignatureTable.build(medium_indexed, medium_scheme)


@pytest.fixture(scope="session")
def medium_searcher(medium_table, medium_indexed):
    return repro.SignatureTableSearcher(medium_table, medium_indexed)


@pytest.fixture(scope="session")
def medium_scan(medium_indexed):
    return repro.LinearScanIndex(medium_indexed)


@pytest.fixture(scope="session")
def small_scheme(small_db):
    return repro.partition_items(small_db, num_signatures=6, rng=3)


@pytest.fixture(scope="session")
def small_table(small_db, small_scheme):
    return repro.SignatureTable.build(small_db, small_scheme)


@pytest.fixture(scope="session")
def small_searcher(small_table, small_db):
    return repro.SignatureTableSearcher(small_table, small_db)


@pytest.fixture(scope="session")
def medium_engine(medium_table, medium_indexed):
    return repro.QueryEngine(medium_table, medium_indexed)


@pytest.fixture(scope="session")
def small_engine(small_table, small_db):
    return repro.QueryEngine(small_table, small_db)
