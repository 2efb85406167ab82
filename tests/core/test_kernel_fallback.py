"""The packed→scalar downgrade must be visible, not silent.

Results are bit-identical either way (the engine differential suites pin
that), so the only way an operator learns the fast path stopped running
is a ``kernel_fallback`` attribute on the ``engine.run_batch`` span and
the ``repro_kernel_fallbacks_total{reason}`` counter.  One reason is
left: an ``early_termination`` batch, whose queries the engine still
runs on the scalar loop.  An active tracer is not one — the packed
kernels record the per-query spans themselves.
"""

import pytest

import repro
from repro.core.engine import QueryEngine, batch_key
from repro.core.similarity import MatchRatioSimilarity
from repro.obs.registry import MetricRegistry
from repro.obs.trace import Tracer


def run_one_batch(engine, db, **params):
    similarity = MatchRatioSimilarity()
    key = batch_key("knn", similarity, k=3, **params)
    targets = [sorted(db[tid]) for tid in range(4)]
    return engine.run_batch(key, similarity, targets)


def fallback_counts(registry):
    family = registry._families["repro_kernel_fallbacks_total"]
    return {labels: child.value for labels, child in family.children().items()}


def scalar_calls(monkeypatch):
    """Count the queries that reach the scalar loop."""
    calls = []
    scalar_knn = repro.SignatureTableSearcher.knn

    def counting(self, *args, **kwargs):
        calls.append(1)
        return scalar_knn(self, *args, **kwargs)

    monkeypatch.setattr(repro.SignatureTableSearcher, "knn", counting)
    return calls


class TestFallbackReasons:
    def test_packed_default_has_no_fallback(self, small_table, small_db):
        engine = QueryEngine.for_table(small_table, small_db)
        assert engine._fallback_reason(None) is None
        with Tracer().activate():  # tracing is not a reason
            assert engine._fallback_reason(None) is None

    def test_early_termination_is_the_one_reason(self, small_table, small_db):
        engine = QueryEngine.for_table(small_table, small_db)
        assert engine._fallback_reason(0.02) == "early_termination"

    def test_pooled_and_reference_mode_searchers_rejected(
        self, small_table, small_db
    ):
        """The batch paths do not model a buffer pool: a pooled searcher is
        refused at construction, not silently run scalar.  The
        per-transaction reference mode is gone from the searcher itself."""
        pool = repro.BufferPool(small_table.store, capacity=8)
        pooled = repro.SignatureTableSearcher(small_table, small_db, buffer_pool=pool)
        with pytest.raises(ValueError, match="no buffer pool"):
            QueryEngine(pooled)
        with pytest.raises(TypeError, match="precompute"):
            repro.SignatureTableSearcher(small_table, small_db, precompute=False)


class TestFallbackObservability:
    def test_traced_batch_stamps_span_attribute(self, small_table, small_db):
        """The span names the downgrade only where the batch's queries
        reached the loop (no registry bound here: the attribute does not
        need one)."""
        engine = QueryEngine.for_table(small_table, small_db)
        for params, attributes in (
            (dict(), dict()),
            (
                dict(early_termination=0.02),
                dict(kernel_fallback="early_termination"),
            ),
        ):
            tracer = Tracer()
            with tracer.activate():
                run_one_batch(engine, small_db, **params)
            (batch_span,) = tracer.roots
            assert batch_span.attributes == dict(
                op="knn", batch_size=4, **attributes
            )

    def test_counter_counts_each_downgraded_batch(
        self, small_table, small_db, monkeypatch
    ):
        """Counter and scalar loop move together: exactly the batches
        whose queries reach ``SignatureTableSearcher.knn`` are counted."""
        registry = MetricRegistry()
        engine = QueryEngine.for_table(small_table, small_db)
        engine.bind_metrics(registry)
        calls = scalar_calls(monkeypatch)
        run_one_batch(engine, small_db)
        with Tracer().activate():
            run_one_batch(engine, small_db)
        run_one_batch(engine, small_db, guarantee_tolerance=0.1)
        assert (calls, fallback_counts(registry)) == ([], {})
        run_one_batch(engine, small_db, early_termination=0.02)
        run_one_batch(engine, small_db, early_termination=0.5)
        assert len(calls) == 8
        assert fallback_counts(registry) == {("early_termination",): 2.0}
