"""The packed→scalar kernel downgrade must be visible, not silent.

Results are bit-identical either way (the kernel differential suites pin
that), so the only way an operator learns the fast path stopped running
is the observability added here: a ``kernel_fallback`` attribute on the
``engine.run_batch`` span and a ``repro_kernel_fallbacks_total{reason}``
counter.  The sneakiest case is ``reason="tracing"`` — turning tracing
ON to investigate slowness itself disables the packed kernels, which
without this accounting looks like the slowness reproducing.
"""

import pytest

import repro
from repro.core.engine import QueryEngine, batch_key
from repro.core.similarity import MatchRatioSimilarity
from repro.obs.registry import MetricRegistry
from repro.obs.trace import Tracer


def make_engine(table, db, kernel="packed"):
    # Explicit, so the suite means the same under a REPRO_KERNEL override.
    return QueryEngine.for_table(table, db, kernel=kernel)


def run_one_batch(engine, db):
    similarity = MatchRatioSimilarity()
    key = batch_key("knn", similarity, k=3)
    targets = [sorted(db[tid]) for tid in range(4)]
    return engine.run_batch(key, similarity, targets)


def fallback_count(registry, reason):
    family = registry._families.get("repro_kernel_fallbacks_total")
    if family is None:
        return 0.0
    child = family.children().get((reason,))
    return 0.0 if child is None else child.value


def find_span(roots, name):
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node.name == name:
            return node
        stack.extend(node.children)
    raise AssertionError(f"no span named {name!r}")


class TestFallbackReasons:
    def test_packed_default_has_no_fallback(self, small_table, small_db):
        engine = make_engine(small_table, small_db)
        assert engine._fallback_reason() is None
        assert engine._packed_eligible()

    def test_python_kernel_is_configuration_not_fallback(
        self, small_table, small_db
    ):
        engine = make_engine(small_table, small_db, kernel="python")
        assert engine._fallback_reason() is None
        assert not engine._packed_eligible()

    def test_tracing_downgrades(self, small_table, small_db):
        engine = make_engine(small_table, small_db)
        with Tracer().activate():
            assert engine._fallback_reason() == "tracing"
            assert not engine._packed_eligible()
        assert engine._fallback_reason() is None  # back once tracing ends

    def test_pooled_and_reference_mode_searchers_rejected(
        self, small_table, small_db
    ):
        """The batch paths model neither a buffer pool nor per-transaction
        reads: refused at construction, not silently run scalar."""
        pool = repro.BufferPool(small_table.store, capacity=8)
        for searcher in (
            repro.SignatureTableSearcher(small_table, small_db, buffer_pool=pool),
            repro.SignatureTableSearcher(small_table, small_db, precompute=False),
        ):
            with pytest.raises(ValueError, match="no buffer pool"):
                QueryEngine(searcher)


class TestFallbackObservability:
    def test_traced_batch_stamps_span_attribute(self, small_table, small_db):
        engine = make_engine(small_table, small_db)
        tracer = Tracer()
        with tracer.activate():
            run_one_batch(engine, small_db)
        batch_span = find_span(tracer.roots, "engine.run_batch")
        assert batch_span.attributes["kernel_fallback"] == "tracing"

    def test_counter_counts_each_downgraded_batch(
        self, small_table, small_db
    ):
        registry = MetricRegistry()
        engine = make_engine(small_table, small_db)
        engine.bind_metrics(registry)
        # Untraced packed batches are not fallbacks.
        run_one_batch(engine, small_db)
        assert fallback_count(registry, "tracing") == 0.0
        with Tracer().activate():
            run_one_batch(engine, small_db)
            run_one_batch(engine, small_db)
        assert fallback_count(registry, "tracing") == 2.0

    def test_python_kernel_batches_never_count(self, small_table, small_db):
        registry = MetricRegistry()
        engine = make_engine(small_table, small_db, kernel="python")
        engine.bind_metrics(registry)
        with Tracer().activate():
            run_one_batch(engine, small_db)
        assert registry._families.get(
            "repro_kernel_fallbacks_total"
        ).children() == {}

    def test_unbound_engine_still_runs_traced(self, small_table, small_db):
        """No registry bound (library use): downgrade stays silent but
        correct — the span attribute is still there."""
        engine = make_engine(small_table, small_db)
        tracer = Tracer()
        with tracer.activate():
            results, _ = run_one_batch(engine, small_db)
        assert results
        span = find_span(tracer.roots, "engine.run_batch")
        assert span.attributes["kernel_fallback"] == "tracing"

    def test_downgraded_results_stay_identical(self, small_table, small_db):
        """The fallback the accounting names must be benign."""
        engine = make_engine(small_table, small_db)
        plain, _ = run_one_batch(engine, small_db)
        with Tracer().activate():
            traced, _ = run_one_batch(engine, small_db)
        assert [
            [(n.tid, n.similarity) for n in hits] for hits in plain
        ] == [[(n.tid, n.similarity) for n in hits] for hits in traced]
