"""End-to-end server tests over real TCP sockets.

The load-bearing one is the concurrency differential test: many
concurrent clients hammering the micro-batching server must receive
results *byte-identical* to direct :class:`QueryEngine` execution —
coalescing, demuxing and the wire format are all invisible to callers.
"""

import json
import socket
import time

import pytest

import repro
from repro.core.similarity import get_similarity
from repro.service.client import (
    ServiceClient,
    ServiceError,
    run_load,
    wait_ready,
)
from repro.obs.registry import parse_prometheus_text
from repro.service.protocol import decode_neighbors
from repro.service.server import serve_in_background

from tests.conftest import RawWire


class SlowEngine:
    """Delegating engine that sleeps first — makes overload/timeouts easy."""

    def __init__(self, engine, delay):
        self.engine = engine
        self.delay = delay

    def run_batch(self, key, similarity, targets):
        time.sleep(self.delay)
        return self.engine.run_batch(key, similarity, targets)


@pytest.fixture(scope="module")
def engine(small_searcher):
    return repro.QueryEngine(small_searcher)


@pytest.fixture(scope="module")
def queries(small_db):
    return [sorted(small_db[t]) for t in range(0, 48, 3)]


class TestDifferential:
    def test_concurrent_knn_identical_to_direct_engine(self, engine, queries):
        """Acceptance criterion: served results == direct engine calls."""
        similarity = get_similarity("match_ratio")
        expected, _ = engine.knn_batch(queries, similarity, k=7)
        with serve_in_background(engine, max_batch_size=8, max_wait_ms=2.0) as handle:
            host, port = handle.address
            result = run_load(
                host, port, queries, similarity="match_ratio", k=7,
                concurrency=8, total_requests=4 * len(queries),
            )
        assert result.rejected == 0
        assert result.completed == 4 * len(queries)
        for record in result.records:
            assert record.neighbors == expected[record.query_index]

    def test_range_query_identical_to_direct_searcher(self, engine, queries):
        similarity = get_similarity("jaccard")
        with serve_in_background(engine) as handle:
            host, port = handle.address
            with ServiceClient(*handle.address) as client:
                for items in queries[:6]:
                    served, _ = client.range_query(items, "jaccard", threshold=0.2)
                    direct, _ = engine.searcher.range_query(
                        items, similarity, threshold=0.2
                    )
                    assert served == direct

    def test_mixed_keys_on_one_connection(self, engine, queries):
        """Different k / similarity / op interleaved stay correct."""
        with serve_in_background(engine, max_batch_size=4, max_wait_ms=1.0) as handle:
            with ServiceClient(*handle.address) as client:
                for items in queries[:4]:
                    for k in (1, 5):
                        for name in ("match_ratio", "hamming"):
                            served, _ = client.knn(items, name, k=k)
                            direct, _ = engine.searcher.knn(
                                items, get_similarity(name), k=k
                            )
                            assert served == direct


class TestOverloadAndTimeouts:
    def test_overload_rejections_are_structured_and_counted(self, engine, queries):
        slow = SlowEngine(engine, delay=0.05)
        with serve_in_background(
            slow, max_batch_size=1, max_wait_ms=0.0, max_queue=2
        ) as handle:
            host, port = handle.address
            result = run_load(
                host, port, queries, k=3, concurrency=12, total_requests=24
            )
            with ServiceClient(host, port) as client:
                snapshot = client.stats()["stats"]
        assert result.rejected > 0, "12 clients against max_queue=2 must overload"
        assert result.completed > 0
        rejected_codes = {
            r.error_code for r in result.records if r.error_code is not None
        }
        assert rejected_codes == {"overloaded"}
        assert snapshot["requests"]["rejected_overload"] == result.rejected
        assert snapshot["requests"]["completed"] == result.completed

    def test_deadline_expiry_returns_timeout(self, engine, queries):
        slow = SlowEngine(engine, delay=0.3)
        with serve_in_background(slow, max_batch_size=1, max_wait_ms=0.0) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.knn(queries[0], k=3, timeout_ms=30)
                assert excinfo.value.code == "timeout"
                snapshot = client.stats()["stats"]
        assert snapshot["requests"]["timeouts"] == 1


class TestStatsEndpoint:
    def test_counters_and_index_info(self, engine, queries):
        info = {"dataset": "small_db", "num_signatures": 6}
        with serve_in_background(
            engine, max_batch_size=4, max_wait_ms=1.0, index_info=info
        ) as handle:
            host, port = handle.address
            run_load(host, port, queries, k=5, concurrency=4, total_requests=16)
            with ServiceClient(host, port) as client:
                payload = client.stats()
        snapshot = payload["stats"]
        assert payload["index"] == info
        assert snapshot["requests"]["received"] == 16
        assert snapshot["requests"]["completed"] == 16
        assert snapshot["requests"]["rejected_overload"] == 0
        assert snapshot["batching"]["batches"] >= 4  # 16 requests, batches <= 4
        sizes = snapshot["batching"]["size_histogram"]
        assert sum(int(k) * v for k, v in sizes.items()) == 16
        assert snapshot["latency"]["p50_ms"] > 0.0
        assert snapshot["engine"]["queries"] == 16
        # JSON-safe all the way down (it crossed a real socket already,
        # but keep the local snapshot honest too).
        json.dumps(handle.server.metrics.snapshot())


class TestShutdown:
    def test_background_stop_is_graceful_and_idempotent(self, engine, queries):
        handle = serve_in_background(engine)
        host, port = handle.address
        with ServiceClient(host, port) as client:
            assert client.ping()
        handle.stop()
        assert not handle.running
        handle.stop()  # idempotent
        with pytest.raises((ConnectionError, OSError)):
            ServiceClient(host, port)

    def test_remote_shutdown_drains_and_exits(self, engine, queries):
        handle = serve_in_background(engine)
        host, port = handle.address
        with ServiceClient(host, port) as client:
            client.knn(queries[0], k=3)
            assert client.shutdown() is True
        deadline = time.monotonic() + 10.0
        while handle.running and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not handle.running
        handle.stop()  # no-op after a remote shutdown

    def test_remote_shutdown_can_be_disabled(self, engine, queries):
        with serve_in_background(engine, allow_remote_shutdown=False) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.shutdown()
                assert excinfo.value.code == "bad_request"
                assert client.ping()  # still alive and serving
                served, _ = client.knn(queries[0], k=3)
            assert handle.running


class TestWireErrors:
    def test_malformed_and_invalid_lines_get_structured_errors(self, engine):
        with serve_in_background(engine) as handle:
            with RawWire(handle.address) as conn:
                # Malformed JSON: no id to echo.
                conn.sock.sendall(b"{not json\n")
                response = conn.read()
                assert response["ok"] is False
                assert response["error"]["code"] == "bad_request"
                assert response["id"] is None
                # Unknown op keeps the id.
                conn.send({"id": 9, "op": "explode"})
                response = conn.read()
                assert response["id"] is None or response["id"] == 9
                assert response["error"]["code"] == "bad_request"
                # Invalid query parameters.
                conn.send({"id": 10, "op": "knn", "items": [], "k": 3})
                response = conn.read()
                assert response["id"] == 10
                assert response["error"]["code"] == "bad_request"
                # A scan order the service does not offer.
                conn.send(
                    {
                        "id": 12,
                        "op": "knn",
                        "items": [1, 2],
                        "k": 3,
                        "sort_by": "supercoordinate",
                    }
                )
                response = conn.read()
                assert response["id"] == 12
                assert response["error"]["code"] == "bad_request"
                # The connection survives all of it.
                conn.send({"id": 11, "op": "ping"})
                assert conn.read()["ok"] is True

    @pytest.mark.parametrize(
        "wire, bad_item",
        # FRAME_QUERY items are uint32: the binary wire has no negative ids.
        [("ndjson", 10**7), ("ndjson", -1), ("binary", 10**7)],
    )
    def test_out_of_universe_item_fails_its_request_alone(
        self, engine, queries, wire, bad_item
    ):
        """Three pipelined kNN requests coalesce into one batch (50 ms
        window); the middle one names an item the engine would refuse,
        which must cost only that request."""
        similarity = get_similarity("match_ratio")
        expected, _ = engine.knn_batch(queries[:2], similarity, k=3)

        def message(request_id, items):
            return {
                "id": request_id,
                "op": "knn",
                "items": items,
                "similarity": "match_ratio",
                "k": 3,
            }

        batch = [
            message(1, queries[0]),
            message(2, [bad_item]),
            message(3, queries[1]),
        ]
        with serve_in_background(engine, max_wait_ms=50.0) as handle:
            with RawWire(handle.address, wire) as conn:
                conn.send(*batch)
                replies = {r["id"]: r for r in (conn.read(), conn.read(), conn.read())}
                assert replies[2]["ok"] is False
                assert replies[2]["error"]["code"] == "bad_request"
                assert decode_neighbors(replies[1]["results"]) == expected[0]
                assert decode_neighbors(replies[3]["results"]) == expected[1]
                # The connection keeps serving.
                conn.send(message(4, queries[0]))
                assert decode_neighbors(conn.read()["results"]) == expected[0]
            samples = parse_prometheus_text(
                handle.server.metrics.to_prometheus_text()
            )
        rejected = "repro_requests_rejected_total"
        assert samples[(rejected, (("reason", "bad_request"),))] == 1.0
        assert samples.get((rejected, (("reason", "internal"),)), 0.0) == 0.0

    def test_wait_ready_false_when_nothing_listens(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        assert wait_ready("127.0.0.1", free_port, timeout=0.3) is False

    def test_wait_ready_true_against_live_server(self, engine):
        with serve_in_background(engine) as handle:
            host, port = handle.address
            assert wait_ready(host, port, timeout=5.0) is True
