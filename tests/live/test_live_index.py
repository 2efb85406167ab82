"""LiveIndex unit behaviour: lifecycle, logical tids, policy, drift."""

import os

import numpy as np
import pytest

from repro.core.similarity import get_similarity
from repro.live import CompactionPolicy, LiveIndex
from repro.storage.pages import IOCounters

from tests.live.conftest import random_transaction


@pytest.fixture()
def live(tmp_path, base_db, scheme):
    index = LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)
    yield index
    index.close()


class TestLifecycle:
    def test_create_refuses_existing_directory(self, tmp_path, base_db, scheme):
        index = LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)
        index.close()
        with pytest.raises(ValueError, match="already holds a live index"):
            LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)

    def test_create_needs_exactly_one_of_scheme_and_table(
        self, tmp_path, base_db, scheme
    ):
        with pytest.raises(ValueError, match="exactly one"):
            LiveIndex.create(tmp_path / "a", base_db)
        from repro.core.table import SignatureTable

        table = SignatureTable.build(base_db, scheme)
        with pytest.raises(ValueError, match="exactly one"):
            LiveIndex.create(tmp_path / "b", base_db, scheme=scheme, table=table)

    def test_recover_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LiveIndex.recover(tmp_path / "nowhere")

    def test_future_manifest_version_rejected(self, tmp_path, base_db, scheme):
        import json

        index = LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme)
        index.close()
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format_version 99"):
            LiveIndex.recover(tmp_path / "idx")

    def test_closed_index_rejects_mutations_but_serves_queries(self, live):
        live.close()
        with pytest.raises(ValueError, match="closed"):
            live.insert([1, 2])
        with pytest.raises(ValueError, match="closed"):
            live.compact()
        neighbors, _ = live.knn([1, 2, 3], get_similarity("jaccard"), k=3)
        assert len(neighbors) == 3

    def test_context_manager(self, tmp_path, base_db, scheme):
        with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as index:
            index.insert([1, 2])
        with pytest.raises(ValueError, match="closed"):
            index.insert([3])


class TestLogicalTids:
    def test_insert_returns_next_logical_tid(self, live, base_db):
        n = len(base_db)
        assert live.insert([1, 2, 3]) == n
        assert live.insert([4, 5]) == n + 1
        assert live.num_transactions == n + 2

    def test_delete_base_then_insert_renumbers(self, live, base_db):
        n = len(base_db)
        live.delete(0)
        # Logical tids shift down past the tombstone: the delta row now
        # sits at n - 1.
        assert live.insert([7, 8]) == n - 1
        assert live.tombstone_count == 1

    def test_delete_delta_row(self, live, base_db):
        n = len(base_db)
        live.insert([1, 2])
        live.insert([3, 4])
        live.delete(n)  # the first delta row
        assert live.delta_size == 1
        assert live.num_transactions == n + 1
        # The surviving delta row moved down to logical tid n.
        db = live.logical_db()
        assert db.items_of(n).tolist() == [3, 4]

    def test_delete_out_of_range(self, live):
        with pytest.raises(ValueError, match="out of range"):
            live.delete(live.num_transactions)
        with pytest.raises(ValueError, match="out of range"):
            live.delete(-1)

    def test_insert_validates_items(self, live):
        with pytest.raises(ValueError):
            live.insert([])
        with pytest.raises(ValueError):
            live.insert([10_000])  # outside the universe
        # Nothing was logged for rejected mutations.
        assert live.wal.appends == 0

    def test_logical_db_matches_description(self, live, base_db):
        rng = np.random.default_rng(0)
        for _ in range(10):
            live.insert(random_transaction(rng))
        for _ in range(5):
            live.delete(int(rng.integers(0, live.num_transactions)))
        db = live.logical_db()
        assert len(db) == live.num_transactions
        info = live.describe()
        assert info["num_transactions"] == len(db)
        assert info["delta_size"] == live.delta_size
        assert info["tombstones"] == live.tombstone_count


class TestCandidateTier:
    def test_exact_tier_refuses_target_recall(self, live):
        """The engine's rule: ``target_recall`` applies to the lsh tier
        only, and a live read does not answer in spite of it."""
        similarity = get_similarity("jaccard")
        for read in (
            lambda: live.knn_batch([[1, 2]], similarity, k=3, target_recall=0.9),
            lambda: live.range_query_batch(
                [[1, 2]], similarity, 0.2, target_recall=0.9
            ),
        ):
            with pytest.raises(ValueError, match="target_recall only applies"):
                read()


class TestCompactionPolicy:
    def test_thresholds(self):
        policy = CompactionPolicy(
            max_delta_fraction=0.1, max_tombstone_fraction=0.2, min_delta_rows=5
        )
        assert not policy.should_compact(4, 0, 10)  # below min_delta_rows
        assert policy.should_compact(5, 0, 10)
        assert not policy.should_compact(0, 1, 10)
        assert policy.should_compact(0, 2, 10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CompactionPolicy(max_delta_fraction=0.0)
        with pytest.raises(ValueError):
            CompactionPolicy(min_delta_rows=0)

    def test_maybe_compact(self, tmp_path, base_db, scheme):
        policy = CompactionPolicy(
            max_delta_fraction=0.02, min_delta_rows=3
        )
        with LiveIndex.create(
            tmp_path / "idx", base_db, scheme=scheme, policy=policy
        ) as live:
            rng = np.random.default_rng(1)
            assert live.maybe_compact() is None
            for _ in range(3):
                live.insert(random_transaction(rng))
            assert live.should_compact()
            report = live.maybe_compact()
            assert report is not None and report.merged_inserts == 3
            assert live.delta_size == 0 and live.compactions == 1

    def test_compact_empty_logical_db_rejected(self, tmp_path, scheme):
        from tests.live.conftest import random_database

        tiny = random_database(np.random.default_rng(2), 2)
        with LiveIndex.create(tmp_path / "idx", tiny, scheme=scheme) as live:
            live.delete(0)
            live.delete(0)
            with pytest.raises(ValueError, match="empty logical database"):
                live.compact()


class TestCompaction:
    def test_results_identical_across_compaction(self, live):
        rng = np.random.default_rng(6)
        similarity = get_similarity("match_ratio")
        for _ in range(20):
            live.insert(random_transaction(rng))
        for _ in range(8):
            live.delete(int(rng.integers(0, live.num_transactions)))
        targets = [random_transaction(rng) for _ in range(10)]
        before = [live.knn(t, similarity, k=5)[0] for t in targets]
        delta_before = live.delta_size
        dead_before = live.tombstone_count
        logical_before = live.num_transactions
        report = live.compact()
        assert report.merged_inserts == delta_before
        assert report.dropped_tombstones == dead_before
        assert report.new_num_transactions == logical_before
        after = [live.knn(t, similarity, k=5)[0] for t in targets]
        assert before == after
        assert live.delta_size == 0 and live.tombstone_count == 0
        assert live.wal.size_bytes == 0

    def test_checkpoint_preserves_delta(self, live, base_db, tmp_path):
        rng = np.random.default_rng(7)
        for _ in range(6):
            live.insert(random_transaction(rng))
        live.delete(0)
        applied = live.checkpoint()
        assert applied == 7
        assert live.delta_size == 6  # unlike compact, segments untouched
        assert live.tombstone_count == 1
        assert live.wal.size_bytes == 0
        live.close()
        recovered = LiveIndex.recover(tmp_path / "idx")
        assert recovered.delta_size == 6
        assert recovered.tombstone_count == 1
        assert recovered.applied_seqno == applied
        recovered.close()

    def test_repartition_keeps_k_and_r(self, live):
        rng = np.random.default_rng(8)
        for _ in range(10):
            live.insert(random_transaction(rng))
        old = live.scheme
        report = live.compact(repartition=True)
        assert report.repartitioned
        assert live.scheme.num_signatures == old.num_signatures
        assert live.scheme.activation_threshold == old.activation_threshold


class TestDrift:
    def test_no_report_for_empty_delta(self, live):
        assert live.drift_report() is None

    def test_skewed_inserts_flag_drift(self, live):
        # Every insert is the same narrow itemset: the delta activation
        # distribution collapses to a few signatures.
        for _ in range(50):
            live.insert([0, 1, 2])
        report = live.drift_report()
        assert report is not None
        assert report.num_delta == 50
        assert report.drifted
        assert "re-partition" in report.recommendation

    def test_matching_inserts_do_not_flag(self, live, base_db):
        # Re-inserting the base's own rows reproduces its distribution.
        for tid in range(0, 100):
            live.insert(base_db.items_of(tid))
        report = live.drift_report(kl_threshold=0.5)
        assert report is not None and not report.drifted

    def test_base_deletes_match_a_recovered_index(self, tmp_path):
        """The base side is the live base rows at each call: after base
        deletes, a long-running index and a recovered one of the same
        logical state give the same report."""
        from repro import generate, partition_items

        db = generate("T5.I3.D600", seed=3)
        scheme = partition_items(db, num_signatures=6, rng=0)
        rng = np.random.default_rng(4)
        path = tmp_path / "idx"
        with LiveIndex.create(path, db, scheme=scheme) as live:
            for _ in range(40):
                live.insert(random_transaction(rng, db.universe_size))
            assert live.drift_report() is not None
            active = scheme.activation_counts_batch(db) >= scheme.activation_threshold
            victims = np.flatnonzero(active[:, 0])
            assert 0 < victims.size < len(db)
            for tid in victims[::-1]:  # highest first: lower tids stay put
                live.delete(int(tid))
            running = live.drift_report()
            live.checkpoint()
        with LiveIndex.recover(path) as recovered:
            restarted = recovered.drift_report()
        assert running.kl_divergence == pytest.approx(restarted.kl_divergence)
        assert running.chi_square == pytest.approx(restarted.chi_square)
        assert running.drifted == restarted.drifted


class TestObservability:
    def test_metrics_registry_export(self, tmp_path, base_db, scheme):
        from repro.obs import MetricRegistry

        registry = MetricRegistry()
        with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
            live.bind_metrics(registry)
            live.insert([1, 2, 3])
            live.delete(0)
            live.compact()
            snapshot = registry.to_json()

        def value(name):
            return snapshot[name]["samples"][0]["value"]

        assert value("repro_wal_appends_total") == 2
        assert value("repro_wal_bytes_total") > 0
        assert value("repro_live_compactions_total") == 1
        assert value("repro_live_delta_size") == 0
        assert value("repro_live_tombstones") == 0
        assert value("repro_live_compaction_seconds")["count"] == 1

    def test_wal_io_counters(self, tmp_path, base_db, scheme):
        with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
            assert isinstance(live.wal.counters, IOCounters)
            live.insert([1, 2])
            assert live.wal.counters.fsyncs == 1
            assert live.wal.counters.pages_written == 1

    def test_spans_recorded(self, tmp_path, base_db, scheme):
        from repro.obs import Tracer

        tracer = Tracer(correlation_id="test")
        with tracer.activate():
            with LiveIndex.create(
                tmp_path / "idx", base_db, scheme=scheme
            ) as live:
                live.insert([1, 2])
                live.delete(0)
                live.compact()
        names = [s["name"] for s in tracer.to_dicts()]
        assert "live.insert" in names
        assert "live.delete" in names
        assert "live.compact" in names

    def test_recover_span_covers_the_replay(
        self, tmp_path, base_db, scheme, monkeypatch
    ):
        import time

        import repro.live.index as index_module
        from repro.obs import Tracer

        with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
            for items in ([1, 2], [3, 4], [5, 6]):
                live.insert(items)
        real_replay = index_module.replay_wal

        def slow_replay(path):
            time.sleep(0.05)
            return real_replay(path)

        monkeypatch.setattr(index_module, "replay_wal", slow_replay)
        tracer = Tracer()
        with tracer.activate():
            LiveIndex.recover(tmp_path / "idx").close()
        (recover,) = [s for s in tracer.roots if s.name == "live.recover"]
        assert recover.duration_s >= 0.05
        assert recover.attributes["replayed"] == 3
