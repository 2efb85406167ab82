"""The query service fronting a live index: mutations over TCP."""

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.live import LiveIndex, LiveQueryEngine
from repro.obs import MetricRegistry
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve_in_background

from tests.live.conftest import random_transaction


@pytest.fixture()
def live_server(tmp_path, base_db, scheme):
    registry = MetricRegistry()
    index = LiveIndex.create(
        tmp_path / "idx", base_db, scheme=scheme, metrics_registry=registry
    )
    handle = serve_in_background(
        LiveQueryEngine(index),
        live_index=index,
        metrics_registry=registry,
        index_info=index.describe(),
    )
    try:
        yield handle, index
    finally:
        handle.stop()
        index.close()


class TestMutationsOverTcp:
    def test_insert_query_delete_round_trip(self, live_server, base_db):
        handle, index = live_server
        host, port = handle.address
        with ServiceClient(host, port) as client:
            tid = client.insert([1, 2, 3, 4])
            assert tid == len(base_db)
            neighbors, stats = client.knn([1, 2, 3, 4], "jaccard", k=1)
            assert neighbors[0].tid == tid
            assert neighbors[0].similarity == 1.0
            assert stats["total_transactions"] == len(base_db) + 1
            client.delete(tid)
            neighbors, _ = client.knn([1, 2, 3, 4], "jaccard", k=1)
            assert neighbors[0].tid != tid or neighbors[0].similarity < 1.0

    def test_results_match_direct_live_index(self, live_server):
        handle, index = live_server
        host, port = handle.address
        rng = np.random.default_rng(40)
        similarity = get_similarity("match_ratio")
        with ServiceClient(host, port) as client:
            for _ in range(10):
                client.insert([int(i) for i in random_transaction(rng)])
            for _ in range(5):
                target = random_transaction(rng)
                over_wire, _ = client.knn(
                    [int(i) for i in target], "match_ratio", k=5
                )
                direct, _ = index.knn(target, similarity, k=5)
                assert [(n.tid, n.similarity) for n in over_wire] == [
                    (n.tid, n.similarity) for n in direct
                ]

    def test_compact_and_checkpoint_ops(self, live_server):
        handle, index = live_server
        host, port = handle.address
        with ServiceClient(host, port) as client:
            client.insert([5, 6, 7])
            report = client.compact()
            assert report["merged_inserts"] == 1
            assert index.compactions == 1
            client.insert([8, 9])
            applied = client.checkpoint()
            assert applied == index.applied_seqno
            assert index.delta_size == 1  # checkpoint keeps the delta

    def test_bad_mutations_rejected_with_bad_request(self, live_server):
        handle, _ = live_server
        host, port = handle.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.insert([10_000])  # outside the universe
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                client.delete(10**9)
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                client.request({"op": "insert", "items": []})
            assert excinfo.value.code == "bad_request"
            with pytest.raises(ServiceError) as excinfo:
                client.request({"op": "delete", "tid": -3})
            assert excinfo.value.code == "bad_request"

    def test_shared_registry_exposes_wal_metrics(self, live_server):
        handle, _ = live_server
        host, port = handle.address
        with ServiceClient(host, port) as client:
            client.insert([1, 2])
            metrics = client.metrics("json")
        assert metrics["repro_wal_appends_total"]["samples"][0]["value"] >= 1
        assert "repro_live_delta_size" in metrics
        # Service counters live in the same registry.
        assert "repro_requests_received_total" in metrics


def test_served_fallbacks_counted_across_compaction(tmp_path, base_db, scheme):
    """The server binds its registry through the live engine to the base
    engine, and a compaction's new engine stays bound."""
    index = LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)
    handle = serve_in_background(LiveQueryEngine(index), live_index=index)
    try:
        host, port = handle.address
        with ServiceClient(host, port) as client:
            counts = []
            for _ in range(2):
                client.knn([1, 2, 3], "jaccard", k=3)
                client.knn([1, 2, 3], "jaccard", k=3, early_termination=0.2)
                family = client.metrics("json")["repro_kernel_fallbacks_total"]
                counts.append(
                    [(s["labels"], s["value"]) for s in family["samples"]]
                )
                client.insert([4, 5, 6])
                client.compact()
        assert counts == [
            [({"reason": "early_termination"}, 1.0)],
            [({"reason": "early_termination"}, 2.0)],
        ]
    finally:
        handle.stop()
        index.close()


class TestReadOnlyServer:
    def test_frozen_server_rejects_mutations(self, base_db, scheme):
        table = SignatureTable.build(base_db, scheme)
        engine = QueryEngine.for_table(table, base_db)
        with serve_in_background(engine) as handle:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.insert([1, 2])
                assert excinfo.value.code == "bad_request"
                assert "read-only" in excinfo.value.message
                # Queries still work.
                neighbors, _ = client.knn([1, 2, 3], "jaccard", k=2)
                assert len(neighbors) == 2


class TestDrainRejection:
    def test_mutations_rejected_while_draining(self, tmp_path, base_db, scheme):
        index = LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)
        handle = serve_in_background(
            LiveQueryEngine(index), live_index=index
        )
        try:
            host, port = handle.address
            with ServiceClient(host, port) as client:
                assert client.shutdown()
                with pytest.raises((ServiceError, ConnectionError, OSError)) as excinfo:
                    client.insert([1, 2])
                if isinstance(excinfo.value, ServiceError):
                    assert excinfo.value.code == "shutting_down"
        finally:
            handle.stop()
            index.close()
