"""Client resilience against a faulty network and a degrading server.

These tests stand up a real live-index server, route the blocking
client through the in-process :class:`~repro.faults.FaultProxy`, and
verify the resilience contract end to end: torn connections reconnect,
retried mutations apply exactly once (idempotency keys + server-side
dedupe), degraded servers answer ``unavailable`` and auto-recover, and
repeated compaction failures trip the circuit breaker.
"""

import json
import socket
import socketserver
import threading

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultProxy, FaultSpec
from repro.live import LiveIndex, LiveQueryEngine
from repro.obs import MetricRegistry
from repro.service.client import ServiceClient, ServiceError, run_load
from repro.service.server import serve_in_background


@pytest.fixture()
def live_server_factory(tmp_path, base_db, scheme):
    """Builds (handle, index) pairs with optional fault injection."""
    cleanups = []

    def build(injector=None, **server_options):
        registry = MetricRegistry()
        index = LiveIndex.create(
            tmp_path / f"idx-{len(cleanups)}",
            base_db,
            scheme=scheme,
            metrics_registry=registry,
            injector=injector,
        )
        handle = serve_in_background(
            LiveQueryEngine(index),
            live_index=index,
            metrics_registry=registry,
            index_info=index.describe(),
            **server_options,
        )
        cleanups.append((handle, index))
        return handle, index

    yield build
    for handle, index in cleanups:
        handle.stop()
        index.close()


def proxy_plan(*specs, seed=0):
    return FaultInjector(FaultPlan(specs=tuple(specs), seed=seed))


class TestConnectionFaults:
    def test_timeout_tears_down_then_next_call_reconnects(
        self, live_server_factory
    ):
        handle, _ = live_server_factory()
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="delay", after=1, delay_ms=400.0)
        )
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            client = ServiceClient(
                host, port, socket_timeout=0.1, wire="ndjson"
            )
            try:
                with pytest.raises(OSError):
                    client.ping()  # the delayed response times out
                # Satellite: the half-read socket was torn down, so the
                # same client object works again on a fresh connection.
                assert client._sock is None
                assert client.ping()
                assert client.reconnects == 1
            finally:
                client.close()

    def test_auto_negotiation_survives_a_faulty_hello(
        self, live_server_factory
    ):
        handle, _ = live_server_factory()
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="reset", after=1)
        )
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            # wire="auto" (the default): the hello ack dies with the
            # connection, so construction falls back to NDJSON on a
            # fresh connection instead of raising.
            with ServiceClient(host, port) as client:
                assert client.wire == "ndjson"
                assert client.ping()
        # An explicit binary demand has no fallback: the same fault
        # surfaces as a connection error from the constructor.
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="reset", after=1)
        )
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            with pytest.raises((OSError, ConnectionError)):
                ServiceClient(host, port, wire="binary")

    def test_reset_mid_mutation_retries_exactly_once_applied(
        self, live_server_factory, base_db
    ):
        handle, index = live_server_factory()
        # Drop the connection on the first server-to-client chunk: the
        # insert is applied and WAL'd but its ack never arrives — the
        # ambiguous window idempotency keys exist for.
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="reset", after=1)
        )
        size_before = len(index.logical_db())
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            with ServiceClient(
                host, port, retries=3, backoff_base=0.01, retry_seed=7,
                wire="ndjson",
            ) as client:
                tid = client.insert([1, 2, 3])
                assert client.retries_attempted == 1
                assert client.reconnects == 1
            assert proxy.connections_killed == 1
        assert tid == size_before
        # Exactly once: the retry was answered from the dedupe table.
        assert len(index.logical_db()) == size_before + 1
        assert index.dedupe.hits == 1

    def test_truncated_response_line_is_retried(
        self, live_server_factory, base_db
    ):
        handle, index = live_server_factory()
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="truncate", after=1, nbytes=5)
        )
        size_before = len(index.logical_db())
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            with ServiceClient(
                host, port, retries=3, backoff_base=0.01, retry_seed=7,
                wire="ndjson",
            ) as client:
                tid = client.insert([4, 5, 6])
        assert tid == size_before
        assert len(index.logical_db()) == size_before + 1
        assert index.dedupe.hits == 1

    def test_exhausted_retries_surface_the_connection_error(
        self, live_server_factory
    ):
        handle, _ = live_server_factory()
        injector = proxy_plan(
            FaultSpec(
                site="proxy.s2c", kind="reset", probability=1.0, times=None
            )
        )
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            with ServiceClient(
                host, port, retries=2, backoff_base=0.01, retry_seed=7,
                wire="ndjson",
            ) as client:
                with pytest.raises((OSError, ConnectionError)):
                    client.ping()
                assert client.retries_attempted == 2


class TestDegradedServer:
    def test_wal_failure_degrades_then_probe_recovers(
        self, live_server_factory, base_db
    ):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="wal.write", kind="eio", after=1),))
        )
        handle, index = live_server_factory(injector=injector)
        host, port = handle.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.insert([1, 2])
            assert excinfo.value.code == "unavailable"
            health = client.health()
            assert health["ready"] and health["degraded"]
            # The one-shot fault is exhausted: the next mutation first
            # runs the durability probe, recovers, and applies.
            tid = client.insert([1, 2])
            assert tid == len(base_db)
            assert client.health()["degraded"] is False
        requests = handle.server.metrics.snapshot()["requests"]
        assert requests["rejected_unavailable"] == 1
        assert len(index.logical_db()) == len(base_db) + 1

    def test_unavailable_is_retried_transparently(
        self, live_server_factory, base_db
    ):
        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec(site="wal.write", kind="eio", after=1),))
        )
        handle, index = live_server_factory(injector=injector)
        host, port = handle.address
        with ServiceClient(
            host, port, retries=2, backoff_base=0.01, retry_seed=3
        ) as client:
            tid = client.insert([7, 8])  # first attempt fails, retry lands
            assert tid == len(base_db)
            assert client.retries_attempted == 1
        assert len(index.logical_db()) == len(base_db) + 1

    def test_deadline_budget_caps_retrying(self, live_server_factory):
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="wal.write", kind="eio",
                        probability=1.0, times=None,
                    ),
                )
            )
        )
        handle, _ = live_server_factory(injector=injector)
        host, port = handle.address
        # Backoff sleeps start at ~10s; a 0.3s budget denies every retry.
        with ServiceClient(
            host, port, retries=5, backoff_base=10.0, backoff_max=10.0,
            deadline=0.3, retry_seed=2,
        ) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.insert([1, 2])
            assert excinfo.value.code == "unavailable"
            assert client.retries_attempted == 0

    def test_repeated_compaction_failures_trip_the_breaker(
        self, live_server_factory
    ):
        injector = FaultInjector(
            FaultPlan(
                specs=(
                    FaultSpec(
                        site="checkpoint.write", kind="eio",
                        probability=1.0, times=3,
                    ),
                )
            )
        )
        handle, _ = live_server_factory(
            injector=injector, breaker_threshold=3, breaker_reset_seconds=60.0
        )
        host, port = handle.address
        with ServiceClient(host, port) as client:
            for _ in range(3):
                with pytest.raises(ServiceError) as excinfo:
                    client.compact()
                assert excinfo.value.code == "unavailable"
            assert client.health()["breaker"] == "open"
            # The fault plan is exhausted, but the breaker fails fast
            # anyway — no more compaction attempts inside the window.
            with pytest.raises(ServiceError) as excinfo:
                client.compact()
            assert excinfo.value.code == "unavailable"
            assert "circuit breaker" in excinfo.value.message
            # Plain mutations are not behind the breaker.
            client.insert([3, 4])


# ----------------------------------------------------------------------
# Deterministic rejection accounting (satellite: no double counting)
# ----------------------------------------------------------------------
class _ScriptedHandler(socketserver.StreamRequestHandler):
    """NDJSON responder: 'overloaded' for the first N requests, then ok."""

    def handle(self):
        while True:
            line = self.rfile.readline()
            if not line:
                return
            message = json.loads(line)
            with self.server.lock:
                self.server.requests_seen += 1
                overloaded = self.server.requests_seen <= self.server.reject_first
            if overloaded:
                response = {
                    "id": message.get("id"),
                    "ok": False,
                    "error": {"code": "overloaded", "message": "scripted"},
                }
            else:
                response = {
                    "id": message.get("id"),
                    "ok": True,
                    "results": [],
                    "stats": {},
                }
            payload = (json.dumps(response) + "\n").encode("utf-8")
            try:
                self.wfile.write(payload)
                self.wfile.flush()
            except OSError:
                return


@pytest.fixture()
def scripted_server():
    """A threaded fake server; yields a configure(reject_first) -> addr."""
    servers = []

    def start(reject_first):
        server = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _ScriptedHandler
        )
        server.daemon_threads = True
        server.lock = threading.Lock()
        server.requests_seen = 0
        server.reject_first = reject_first
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        return server, server.server_address

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestLoadAccounting:
    def test_overloaded_rejections_counted_once_without_retries(
        self, scripted_server
    ):
        server, (host, port) = scripted_server(reject_first=10**9)
        queries = [[1, 2, 3], [4, 5]]
        result = run_load(
            host, port, queries, concurrency=2, total_requests=6, retries=0,
            wire="ndjson",
        )
        assert len(result.records) == 6
        assert result.rejected == 6 and result.completed == 0
        assert all(r.error_code == "overloaded" for r in result.records)
        assert all(r.attempts == 1 for r in result.records)
        assert result.total_attempts == 6
        assert server.requests_seen == 6

    def test_retried_then_succeeded_reported_exactly_once(
        self, scripted_server
    ):
        server, (host, port) = scripted_server(reject_first=3)
        queries = [[1, 2, 3]]
        result = run_load(
            host, port, queries, concurrency=2, total_requests=6, retries=3,
            wire="ndjson",
        )
        # Every logical request appears exactly once and ended ok.
        assert len(result.records) == 6
        assert result.completed == 6 and result.rejected == 0
        # The three scripted rejections became retries, not records.
        assert result.retried >= 1
        assert result.total_attempts == 9
        assert server.requests_seen == 9

    def test_socket_error_on_one_worker_does_not_duplicate_records(
        self, live_server_factory
    ):
        handle, _ = live_server_factory()
        injector = proxy_plan(
            FaultSpec(site="proxy.s2c", kind="reset", after=2)
        )
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            result = run_load(
                host,
                port,
                [[1, 2, 3], [2, 3, 4]],
                concurrency=1,
                total_requests=8,
                retries=3,
                wire="ndjson",
            )
        assert len(result.records) == 8
        assert result.completed == 8
        assert result.total_attempts == 9
        assert [r.query_index for r in result.records] == [
            i % 2 for i in range(8)
        ]
