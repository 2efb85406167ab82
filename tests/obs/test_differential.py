"""Differential guarantee: observability never changes results.

Tracing on must equal tracing off byte-for-byte — neighbours, order,
similarities, and every comparable SearchStats counter — at both the
engine layer and over the TCP service.
"""

import socket

import pytest

import repro
from repro.core.engine import batch_key
from repro.obs.search_trace import SearchTrace
from repro.obs.trace import Tracer
from repro.service import frames
from repro.service.client import ServiceClient
from repro.service.protocol import (
    decode_neighbors,
    decode_response,
    encode_request,
)
from repro.service.server import serve_in_background


SIM = repro.MatchRatioSimilarity()


def targets(db, count=8):
    return [sorted(db[tid]) for tid in range(0, len(db), len(db) // count)]


class TestSearcherDifferential:
    def test_knn_identical_with_search_trace(self, small_searcher, small_db):
        for target in targets(small_db):
            plain, plain_stats = small_searcher.knn(target, SIM, k=5)
            traced, traced_stats = small_searcher.knn(
                target, SIM, k=5, search_trace=SearchTrace()
            )
            assert traced == plain
            assert traced_stats == plain_stats  # elapsed_seconds not compared

    def test_knn_identical_with_active_tracer(
        self, small_searcher, small_db
    ):
        target = sorted(small_db[3])
        plain, plain_stats = small_searcher.knn(target, SIM, k=5)
        tracer = Tracer()
        with tracer.activate():
            traced, traced_stats = small_searcher.knn(target, SIM, k=5)
        assert traced == plain
        assert traced_stats == plain_stats
        assert [root.name for root in tracer.roots] == ["search.knn"]

    def test_range_identical(self, small_searcher, small_db):
        for target in targets(small_db):
            plain, plain_stats = small_searcher.multi_range_query(
                target, [(SIM, 0.4)]
            )
            tracer = Tracer()
            with tracer.activate():
                traced, traced_stats = small_searcher.multi_range_query(
                    target, [(SIM, 0.4)], search_trace=SearchTrace()
                )
            assert traced == plain
            assert traced_stats == plain_stats


class TestEngineDifferential:
    def test_run_batch_identical_under_tracing(self, small_searcher, small_db):
        engine = repro.QueryEngine(small_searcher)
        key = batch_key("knn", SIM, k=5)
        batch = targets(small_db)
        plain_results, plain_stats = engine.run_batch(key, SIM, batch)
        tracer = Tracer()
        with tracer.activate():
            traced_results, traced_stats = engine.run_batch(key, SIM, batch)
        assert traced_results == plain_results
        assert traced_stats == plain_stats
        names = [root.name for root in tracer.roots]
        assert names == ["engine.run_batch"]
        # One search.knn span per query, carrying that query's stats.
        batch_span = tracer.roots[0]
        searches = [
            child for child in batch_span.children if child.name == "search.knn"
        ]
        assert len(searches) == len(batch)
        for recorded, stats in zip(searches, traced_stats):
            assert recorded.attributes == dict(
                k=5,
                entries_scanned=stats.entries_scanned,
                entries_pruned=stats.entries_pruned,
                entries_unexplored=stats.entries_unexplored,
                transactions_accessed=stats.transactions_accessed,
                terminated_early=stats.terminated_early,
                guaranteed_optimal=stats.guaranteed_optimal,
            )


@pytest.fixture(scope="module")
def tcp_server(small_searcher):
    engine = repro.QueryEngine(small_searcher)
    with serve_in_background(engine, max_wait_ms=1.0) as handle:
        yield handle.address


def find_span(spans, name):
    for entry in spans:
        if entry["name"] == name:
            return entry
        found = find_span(entry.get("children", []), name)
        if found is not None:
            return found
    return None


class TestServiceDifferential:
    def test_traced_request_identical_over_tcp(self, tcp_server, small_db):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            target = sorted(small_db[4])
            plain, plain_stats = client.knn(target, k=5)
            traced, traced_stats = client.knn(target, k=5, trace=True)
        assert traced == plain
        drop_latency = lambda stats: {
            key: value
            for key, value in stats.items()
            if key != "latency_ms"
        }
        assert drop_latency(traced_stats) == drop_latency(plain_stats)

    def test_trace_flag_returns_linked_span_tree(self, tcp_server, small_db):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            client.knn(sorted(small_db[6]), k=3, trace=True)
            response = client.last_response
        correlation_id = response["correlation_id"]
        spans = response["trace"]
        root = spans[0]
        assert root["name"] == "service.request"
        assert root["attributes"]["correlation_id"] == correlation_id
        queue_wait = find_span(spans, "batcher.queue_wait")
        assert queue_wait["attributes"]["flush_reason"] in (
            "size", "timer", "drain",
        )
        engine_span = find_span(spans, "engine.run_batch")
        # Acceptance criterion: the engine span links back to the
        # request that rode in its batch.
        assert correlation_id in engine_span["attributes"]["correlation_ids"]
        search_span = find_span(spans, "search.knn")
        assert search_span is not None

    def test_untraced_response_carries_no_trace(self, tcp_server, small_db):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            _, stats = client.knn(sorted(small_db[8]), k=3)
            response = client.last_response
        assert "trace" not in response
        assert "correlation_id" in response
        assert stats["latency_ms"] >= 0.0

    def test_trace_spans_reconcile_with_stats(self, tcp_server, small_db):
        host, port = tcp_server
        with ServiceClient(host, port) as client:
            _, stats = client.knn(sorted(small_db[2]), k=4, trace=True)
            spans = client.last_response["trace"]
        search_span = find_span(spans, "search.knn")
        attrs = search_span["attributes"]
        assert attrs["entries_scanned"] == stats["entries_scanned"]
        assert attrs["entries_pruned"] == stats["entries_pruned"]
        assert attrs["transactions_accessed"] == stats["transactions_accessed"]

    @pytest.mark.parametrize("wire", ["ndjson", "binary"])
    def test_traced_rider_of_coalesced_batch(
        self, small_searcher, small_db, wire
    ):
        """Three pipelined kNN requests coalesce into one batch (50 ms
        window) and only the middle one asks for a trace: every answer
        is the direct ``knn_batch`` one, the trace comes from the packed
        kernels, and ``batch_index`` picks the rider's own ``search.knn``
        span out of the batch's three."""
        engine = repro.QueryEngine(small_searcher)
        batch = targets(small_db)[:3]
        expected, expected_stats = engine.knn_batch(batch, SIM, k=5)
        accessed = [s.transactions_accessed for s in expected_stats]
        assert len(set(accessed)) == 3  # so a wrong index cannot reconcile

        def message(request_id, items, **extra):
            return dict(
                id=request_id, op="knn", items=items,
                similarity="match_ratio", k=5, **extra,
            )

        with serve_in_background(engine, max_wait_ms=50.0) as handle:
            with socket.create_connection(handle.address, timeout=10) as sock:
                reader = sock.makefile("rb")

                def read_line():
                    return decode_response(reader.readline().decode("utf-8"))

                def read_frame():
                    frame_type, length = frames.decode_header(
                        reader.read(frames.HEADER.size)
                    )
                    return frames.decode_payload(frame_type, reader.read(length))

                if wire == "binary":
                    sock.sendall(
                        encode_request({"id": 0, "op": "hello", "wire": "binary"})
                    )
                    assert read_line()["ok"] is True
                    encode, read = frames.encode_request_frame, read_frame
                else:
                    encode, read = encode_request, read_line
                sock.sendall(
                    encode(message(1, batch[0]))
                    + encode(message(2, batch[1], trace=True))
                    + encode(message(3, batch[2]))
                )
                replies = {r["id"]: r for r in (read(), read(), read())}
        for request_id, want in zip((1, 2, 3), expected):
            assert decode_neighbors(replies[request_id]["results"]) == want
        assert "trace" not in replies[1] and "trace" not in replies[3]
        spans = replies[2]["trace"]
        queue_wait = find_span(spans, "batcher.queue_wait")["attributes"]
        assert queue_wait["batch_size"] == 3
        run = find_span(spans, "engine.run_batch")
        assert "kernel_fallback" not in run["attributes"]
        searches = [c for c in run["children"] if c["name"] == "search.knn"]
        assert sorted(
            c["attributes"]["transactions_accessed"] for c in searches
        ) == sorted(accessed)
        own = searches[queue_wait["batch_index"]]["attributes"]
        stats = replies[2]["stats"]
        assert stats["transactions_accessed"] == accessed[1]
        for name in ("entries_scanned", "entries_pruned", "transactions_accessed"):
            assert own[name] == stats[name]

    def test_metrics_op_round_trips(self, tcp_server):
        from repro.obs.registry import parse_prometheus_text

        host, port = tcp_server
        with ServiceClient(host, port) as client:
            text = client.metrics("prometheus")
            payload = client.metrics("json")
        samples = parse_prometheus_text(text)
        assert samples[("repro_requests_received_total", ())] >= 1.0
        assert payload["repro_requests_received_total"]["type"] == "counter"

    def test_bad_metrics_format_rejected(self, tcp_server):
        from repro.service.client import ServiceError

        host, port = tcp_server
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.metrics("xml")
        assert excinfo.value.code == "bad_request"
