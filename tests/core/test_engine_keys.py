"""Engine construction, BatchKey normalisation and ``run_batch`` dispatch."""

import pytest

import repro
from repro.core.engine import batch_key, similarity_key


@pytest.fixture(scope="module")
def engine(small_table, small_db):
    return repro.QueryEngine(small_table, small_db)


@pytest.fixture(scope="module")
def queries(small_db):
    return [sorted(small_db[t]) for t in range(0, 30, 2)]


class TestConstruction:
    def test_pooled_and_reference_mode_searchers_rejected(
        self, small_table, small_db
    ):
        """The searcher charges a per-query page cache only: a buffer pool
        is charged by replaying a scan's reads (``engine.replay_reads``),
        and neither a pooled nor a per-transaction reference-mode searcher
        can be built."""
        pool = repro.BufferPool(small_table.store, capacity=8)
        with pytest.raises(TypeError, match="buffer_pool"):
            repro.SignatureTableSearcher(small_table, small_db, buffer_pool=pool)
        with pytest.raises(TypeError, match="precompute"):
            repro.SignatureTableSearcher(small_table, small_db, precompute=False)


    def test_engine_owns_and_checks_its_table(
        self, small_table, small_db, medium_indexed
    ):
        """The engine holds ``(table, db, bounds)`` itself, wraps no
        searcher, and checks the pairing the searcher checks."""
        engine = repro.QueryEngine(small_table, small_db, bounds="paper")
        assert engine.table is small_table and engine.db is small_db
        assert engine.bounds == "paper"
        assert not hasattr(engine, "searcher")
        with pytest.raises(ValueError, match="indexes"):
            repro.QueryEngine(small_table, medium_indexed)
        with pytest.raises(ValueError, match="bounds"):
            repro.QueryEngine(small_table, small_db, bounds="union")


class TestBatchKey:
    def test_knn_normalises_k(self):
        sim = repro.MatchRatioSimilarity()
        assert batch_key("knn", sim, k=5) == batch_key("knn", sim, k=5.0)
        assert batch_key("knn", sim).k == 1  # default

    def test_range_normalises_threshold(self):
        sim = repro.JaccardSimilarity()
        a = batch_key("range", sim, k=None, threshold=1)
        b = batch_key("range", sim, k=None, threshold=1.0)
        assert a == b
        assert a.threshold == 1.0

    def test_keys_are_hashable_group_keys(self):
        sim = repro.MatchRatioSimilarity()
        keys = {
            batch_key("knn", sim, k=5),
            batch_key("knn", sim, k=5),
            batch_key("knn", sim, k=6),
        }
        assert len(keys) == 2

    def test_inapplicable_parameters_rejected(self):
        sim = repro.MatchRatioSimilarity()
        with pytest.raises(ValueError):
            batch_key("knn", sim, k=3, threshold=0.5)
        with pytest.raises(ValueError):
            batch_key("range", sim, k=3, threshold=0.5)
        with pytest.raises(ValueError):
            batch_key("range", sim, k=None, threshold=0.5, early_termination=0.1)
        with pytest.raises(ValueError):
            batch_key("range", sim, k=None)  # threshold required
        with pytest.raises(ValueError):
            batch_key("nearest", sim)  # unknown op

    def test_similarity_key_separates_parameterised_instances(self):
        smoothed = repro.MatchRatioSimilarity()
        raw = repro.MatchRatioSimilarity(smoothing=0.0)
        assert similarity_key(smoothed) != similarity_key(raw)
        assert similarity_key(smoothed) == similarity_key(
            repro.MatchRatioSimilarity()
        )


class TestRunBatch:
    def test_knn_key_dispatches_to_knn_batch(self, engine, queries):
        sim = repro.MatchRatioSimilarity()
        key = batch_key("knn", sim, k=4)
        got = engine.run_batch(key, sim, queries)
        want = engine.knn_batch(queries, sim, k=4)
        assert got == want

    def test_range_key_dispatches_to_range_query_batch(self, engine, queries):
        sim = repro.JaccardSimilarity()
        key = batch_key("range", sim, k=None, threshold=0.25)
        got = engine.run_batch(key, sim, queries)
        want = engine.range_query_batch(queries, sim, threshold=0.25)
        assert got == want

    def test_mismatched_similarity_instance_rejected(self, engine, queries):
        key = batch_key("knn", repro.MatchRatioSimilarity(), k=3)
        with pytest.raises(ValueError, match="does not match"):
            engine.run_batch(key, repro.JaccardSimilarity(), queries)
