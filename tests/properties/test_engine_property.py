"""Property tests for the batched query engine.

Invariants the engine must satisfy for *any* batch:

* a batch of one equals the single-query call;
* permuting the batch permutes the answers (no cross-query leakage);
* early-terminated batches keep the paper's per-query quality guarantee;
* a traced batch records, per query, the span the searcher records.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import batch_key
from repro.core.partitioning import random_partition
from repro.core.search import SignatureTableSearcher
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.obs.trace import Tracer
from tests.properties.test_kernels_property import (
    MASK_KINDS,
    SIMILARITIES,
    candidate_mask,
    scan_instance,
)

SIMS = [
    repro.HammingSimilarity(),
    repro.MatchRatioSimilarity(),
    repro.JaccardSimilarity(),
    repro.CosineSimilarity(),
]

_UNIVERSE = 40


def _instance():
    """One fixed small pipeline; hypothesis varies the batches over it."""
    db = repro.generate(
        "T5.I3.D120", seed=9, num_items=_UNIVERSE, num_patterns=30
    )
    scheme = random_partition(_UNIVERSE, 5, activation_threshold=2, rng=4)
    table = SignatureTable.build(db, scheme)
    searcher = SignatureTableSearcher(table, db)
    return db, searcher, repro.QueryEngine(searcher)


_DB, _SEARCHER, _ENGINE = _instance()

targets = st.lists(
    st.integers(min_value=0, max_value=_UNIVERSE - 1),
    min_size=1,
    max_size=12,
    unique=True,
).map(sorted)

batches = st.lists(targets, min_size=1, max_size=8)


@settings(max_examples=40, deadline=None)
@given(targets, st.integers(min_value=1, max_value=5), st.sampled_from(SIMS))
def test_batch_of_one_equals_single_query(target, k, sim):
    batch_results, batch_stats = _ENGINE.knn_batch([target], sim, k=k)
    want, want_stats = _SEARCHER.knn(target, sim, k=k)
    assert batch_results == [want]
    assert batch_stats == [want_stats]


@settings(max_examples=25, deadline=None)
@given(batches, st.integers(min_value=0, max_value=2**16), st.sampled_from(SIMS))
def test_permutation_invariance(batch, seed, sim):
    results, stats = _ENGINE.knn_batch(batch, sim, k=3)
    perm = np.random.default_rng(seed).permutation(len(batch))
    shuffled = [batch[p] for p in perm]
    perm_results, perm_stats = _ENGINE.knn_batch(shuffled, sim, k=3)
    assert perm_results == [results[p] for p in perm]
    assert perm_stats == [stats[p] for p in perm]


@settings(max_examples=25, deadline=None)
@given(
    batches,
    st.floats(min_value=0.05, max_value=0.9),
    st.sampled_from(SIMS),
)
def test_early_termination_quality_guarantee(batch, fraction, sim):
    """Per query: if the engine claims optimality, it *is* optimal, and
    the approximate best is never better than the true best."""
    results, stats = _ENGINE.knn_batch(
        batch, sim, k=1, early_termination=fraction
    )
    exact_results, _ = _ENGINE.knn_batch(batch, sim, k=1)
    for got, got_stats, exact in zip(results, stats, exact_results):
        best = got[0].similarity if got else float("-inf")
        true_best = exact[0].similarity if exact else float("-inf")
        assert best <= true_best
        if got_stats.guaranteed_optimal:
            assert best == true_best


@settings(max_examples=25, deadline=None)
@given(
    batches,
    st.floats(min_value=0.0, max_value=0.5),
)
def test_guarantee_tolerance_bounds_suboptimality(batch, tolerance):
    """With tolerance t the returned best is within t of the optimum."""
    sim = repro.MatchRatioSimilarity()
    results, _ = _ENGINE.knn_batch(
        batch, sim, k=1, guarantee_tolerance=tolerance
    )
    exact_results, _ = _ENGINE.knn_batch(batch, sim, k=1)
    for got, exact in zip(results, exact_results):
        best = got[0].similarity if got else float("-inf")
        true_best = exact[0].similarity if exact else float("-inf")
        assert best >= true_best - tolerance - 1e-12
        assert best <= true_best


@settings(max_examples=20, deadline=None)
@given(batches, st.floats(min_value=0.05, max_value=0.6))
def test_range_batch_of_one_equals_single_query(batch, threshold):
    sim = repro.JaccardSimilarity()
    results, stats = _ENGINE.range_query_batch(batch, sim, threshold)
    for target, got, got_stats in zip(batch, results, stats):
        want, want_stats = _SEARCHER.range_query(target, sim, threshold)
        assert got == want
        assert got_stats == want_stats


def _search_spans(roots):
    """``(name, attributes)`` of every ``search.*`` span, in order."""
    found = []
    for node in roots:
        if node.name.startswith("search."):
            found.append((node.name, node.attributes))
        found.extend(_search_spans(node.children))
    return found


def _traced(call):
    """``call()`` under a fresh tracer: its result and search spans."""
    tracer = Tracer()
    with tracer.activate():
        result = call()
    return result, _search_spans(tracer.roots)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mask_kind=st.sampled_from(MASK_KINDS),
    as_tids=st.booleans(),
    tolerance=st.sampled_from([None, 0.0, 0.25, 1.0]),
    k=st.sampled_from([1, 3, 200]),  # 200 > any candidate count
    similarity=st.sampled_from(SIMILARITIES),  # matches: ties at the k-th
    threshold=st.sampled_from([0.0, 0.2, 0.5]),
)
def test_packed_trace_equals_python_trace(
    seed, mask_kind, as_tids, tolerance, k, similarity, threshold
):
    """The trace is a by-product of the packed scan: per query, the
    engine's ``search.knn`` / ``search.range`` span carries the
    attributes the searcher's scalar loop records for the same query,
    and tracing moves no result or statistic."""
    rng, db, table, batch = scan_instance(seed)
    mask = candidate_mask(rng, table, mask_kind)
    rows = np.flatnonzero(mask) if as_tids and mask is not None else mask
    engine = repro.QueryEngine.for_table(table, db)
    searcher = engine.searcher
    knn_key = batch_key("knn", similarity, k=k, guarantee_tolerance=tolerance)
    range_key = batch_key("range", similarity, threshold=threshold)
    knn_options = dict(k=k, guarantee_tolerance=tolerance)
    for engine_call, searcher_call in (
        (
            lambda: engine.run_batch(knn_key, similarity, batch),
            lambda t: searcher.knn(t, similarity, **knn_options),
        ),
        (
            lambda: engine.run_batch(range_key, similarity, batch),
            lambda t: searcher.range_query(t, similarity, threshold),
        ),
        (
            lambda: engine.knn_batch(
                batch, similarity, candidates=rows, **knn_options
            ),
            lambda t: searcher.knn(t, similarity, tid_mask=mask, **knn_options),
        ),
        (
            lambda: engine.range_query_batch(
                batch, similarity, threshold, candidates=rows
            ),
            lambda t: searcher.range_query(t, similarity, threshold, tid_mask=mask),
        ),
    ):
        plain = engine_call()
        traced, spans = _traced(engine_call)
        assert traced == plain
        assert len(spans) == len(batch)  # nothing went unrecorded
        assert spans == [_traced(lambda: searcher_call(t))[1][0] for t in batch]
