"""Chaos suite: sketch signatures under live mutation and crashes.

The invariant everything hangs on: at any observable moment,
``logical_sketch_signatures()`` equals a fresh ``sign_batch`` of the
logical database — through inserts, deletes, compactions (which *reuse*
existing signature rows instead of re-signing), checkpoints, and WAL
recovery truncated at every byte offset.  If the stored signatures ever
drift from the data, lsh answers silently rot; this suite makes the
drift loud.
"""

import numpy as np
import pytest

from repro.core.similarity import get_similarity
from repro.live import LiveIndex
from repro.live.wal import iter_records

from tests.live.conftest import random_database, random_transaction


def assert_signatures_fresh(live):
    """Stored logical signatures == signing today's logical db from scratch."""
    stored = live.logical_sketch_signatures()
    hasher = live.base_table.sketch.hasher
    fresh = hasher.sign_batch(live.logical_db())
    assert stored.shape == fresh.shape
    assert np.array_equal(stored, fresh)


@pytest.fixture()
def live(tmp_path, base_db, scheme):
    index = LiveIndex.create(
        tmp_path / "idx", base_db, scheme=scheme,
        sketch=dict(num_hashes=64, seed=3),
    )
    yield index
    index.close()


class TestMutation:
    def test_signatures_track_inserts_and_deletes(self, live):
        rng = np.random.default_rng(5)
        assert live.supports_lsh_tier
        assert_signatures_fresh(live)
        for step in range(30):
            if rng.random() < 0.3 and live.num_transactions > 1:
                live.delete(int(rng.integers(0, live.num_transactions)))
            else:
                live.insert(random_transaction(rng))
            if step % 5 == 4:
                assert_signatures_fresh(live)
        assert_signatures_fresh(live)

    def test_compaction_rebuilds_consistent_sketch(self, live):
        rng = np.random.default_rng(6)
        for _ in range(20):
            live.insert(random_transaction(rng))
        for tid in (3, 17, 40):
            live.delete(tid)
        report = live.compact()
        assert report.merged_inserts == 20
        assert live.supports_lsh_tier
        assert_signatures_fresh(live)
        # And the compacted sketch still answers lsh queries.
        hits, stats = live.knn(
            random_transaction(rng), get_similarity("jaccard"), k=3,
            candidate_tier="lsh", target_recall=0.9,
        )
        assert stats.candidate_tier == "lsh"

    def test_repeated_compactions_stay_consistent(self, live):
        rng = np.random.default_rng(7)
        for round_ in range(3):
            for _ in range(8):
                live.insert(random_transaction(rng))
            if live.num_transactions > 2:
                live.delete(int(rng.integers(0, live.num_transactions)))
            live.compact()
            assert_signatures_fresh(live)

    def test_lsh_query_without_sketch_fails_loudly(
        self, tmp_path, base_db, scheme
    ):
        plain = LiveIndex.create(tmp_path / "plain", base_db, scheme=scheme)
        try:
            assert not plain.supports_lsh_tier
            assert plain.logical_sketch_signatures() is None
            with pytest.raises(ValueError, match="sketch"):
                plain.knn(
                    [1, 2, 3], get_similarity("jaccard"),
                    candidate_tier="lsh",
                )
        finally:
            plain.close()


class TestRecovery:
    def test_signatures_survive_recovery(self, tmp_path, base_db, scheme):
        path = tmp_path / "idx"
        live = LiveIndex.create(
            path, base_db, scheme=scheme, sketch=dict(num_hashes=64, seed=3)
        )
        rng = np.random.default_rng(8)
        for _ in range(12):
            live.insert(random_transaction(rng))
        live.delete(2)
        live.close()
        recovered = LiveIndex.recover(path)
        try:
            assert recovered.supports_lsh_tier
            assert_signatures_fresh(recovered)
        finally:
            recovered.close()

    def test_signatures_survive_checkpoint_then_recovery(
        self, tmp_path, base_db, scheme
    ):
        path = tmp_path / "idx"
        live = LiveIndex.create(
            path, base_db, scheme=scheme, sketch=dict(num_hashes=64, seed=3)
        )
        rng = np.random.default_rng(9)
        for _ in range(8):
            live.insert(random_transaction(rng))
        live.checkpoint()
        for _ in range(5):
            live.insert(random_transaction(rng))
        live.close()
        recovered = LiveIndex.recover(path)
        try:
            assert_signatures_fresh(recovered)
        finally:
            recovered.close()

    def test_signature_consistency_at_every_wal_truncation_point(
        self, tmp_path, scheme
    ):
        """The torn-tail harness, pointed at the sketch column: whatever
        acknowledged prefix recovery reconstructs, its signatures match a
        fresh signing of that prefix's logical database."""
        rng = np.random.default_rng(20)
        db = random_database(rng, 60)
        path = tmp_path / "idx"
        live = LiveIndex.create(
            path, db, scheme=scheme, sketch=dict(num_hashes=64, seed=3)
        )
        op_rng = np.random.default_rng(21)
        for _ in range(10):
            if op_rng.uniform() < 0.7 or live.num_transactions < 2:
                live.insert(random_transaction(op_rng))
            else:
                live.delete(int(op_rng.integers(0, live.num_transactions)))
        live.close()

        wal_bytes = (path / "wal.log").read_bytes()
        boundaries = [0] + [end for _, end in iter_records(wal_bytes)]
        assert len(boundaries) == 11
        for cut in range(len(wal_bytes) + 1):
            (path / "wal.log").write_bytes(wal_bytes[:cut])
            recovered = LiveIndex.recover(path)
            try:
                assert recovered.supports_lsh_tier, f"truncation at byte {cut}"
                assert_signatures_fresh(recovered)
            finally:
                recovered.close()
