"""Tests for SignatureTable.verify and related integrity checks."""

import numpy as np
import pytest

import repro
from repro.core.signature import SignatureScheme
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase


@pytest.fixture()
def built():
    db = TransactionDatabase(
        [[0, 1], [3, 4], [0, 3], [1, 2], [5]], universe_size=6
    )
    scheme = SignatureScheme([[0, 1, 2], [3, 4, 5]], universe_size=6)
    return db, SignatureTable.build(db, scheme)


class TestVerify:
    def test_fresh_table_verifies(self, built):
        db, table = built
        assert table.verify(db)

    def test_verifies_on_generated_data(self, medium_table, medium_indexed):
        assert medium_table.verify(medium_indexed)

    def test_loaded_table_verifies(self, built, tmp_path):
        db, table = built
        path = tmp_path / "t.npz"
        table.save(path)
        assert SignatureTable.load(path).verify(db)

    def test_wrong_database_size_detected(self, built):
        db, table = built
        other = TransactionDatabase([[0]], universe_size=6)
        with pytest.raises(ValueError, match="holds"):
            table.verify(other)

    def test_wrong_database_content_detected(self, built):
        _, table = built
        # Same size, but transactions shuffled into other supercoordinates.
        tampered = TransactionDatabase(
            [[3, 4], [0, 1], [0, 3], [1, 2], [5]], universe_size=6
        )
        with pytest.raises(ValueError, match="supercoordinate"):
            table.verify(tampered)

    def test_corrupted_tids_detected(self, built):
        db, table = built
        table._ordered_tids = np.zeros_like(table._ordered_tids)
        with pytest.raises(ValueError, match="permutation"):
            table.verify(db)


class TestWeightedMultiTarget:
    def test_weighted_mean_matches_brute_force(self, small_engine, small_db):
        sim = repro.JaccardSimilarity()
        targets = [sorted(small_db[1]), sorted(small_db[7])]
        weights = [0.8, 0.2]
        neighbors, _ = small_engine.multi_target_knn(
            targets, sim, k=3, aggregate="mean", weights=weights
        )
        values = []
        for tid in range(len(small_db)):
            other = small_db[tid]
            per_target = [sim.between(t, other) for t in targets]
            values.append(0.8 * per_target[0] + 0.2 * per_target[1])
        expected = np.sort(values)[::-1][:3]
        assert [n.similarity for n in neighbors] == pytest.approx(
            expected.tolist()
        )

    def test_uniform_weights_match_plain_mean(self, small_engine, small_db):
        sim = repro.DiceSimilarity()
        targets = [sorted(small_db[2]), sorted(small_db[9])]
        weighted, _ = small_engine.multi_target_knn(
            targets, sim, k=4, weights=[1.0, 1.0]
        )
        plain, _ = small_engine.multi_target_knn(targets, sim, k=4)
        assert [n.similarity for n in weighted] == pytest.approx(
            [n.similarity for n in plain]
        )

    def test_weights_require_mean(self, small_engine, small_db):
        with pytest.raises(ValueError, match="aggregate='mean'"):
            small_engine.multi_target_knn(
                [sorted(small_db[0])],
                repro.DiceSimilarity(),
                aggregate="max",
                weights=[1.0],
            )

    def test_weight_shape_checked(self, small_engine, small_db):
        with pytest.raises(ValueError, match="one entry per target"):
            small_engine.multi_target_knn(
                [sorted(small_db[0])],
                repro.DiceSimilarity(),
                weights=[0.5, 0.5],
            )

    def test_negative_weights_rejected(self, small_engine, small_db):
        with pytest.raises(ValueError, match="non-negative"):
            small_engine.multi_target_knn(
                [sorted(small_db[0])],
                repro.DiceSimilarity(),
                weights=[-1.0],
            )


class TestSample:
    def test_size_and_membership(self, small_db):
        sampled = small_db.sample(50, rng=0)
        assert len(sampled) == 50
        originals = {small_db[t] for t in range(len(small_db))}
        for t in range(len(sampled)):
            assert sampled[t] in originals

    def test_deterministic(self, small_db):
        assert small_db.sample(20, rng=3) == small_db.sample(20, rng=3)

    def test_bad_size_rejected(self, small_db):
        with pytest.raises(ValueError):
            small_db.sample(len(small_db) + 1)

    def test_zero_sample(self, small_db):
        assert len(small_db.sample(0)) == 0
