"""Differential tests: the batched engine against its single-query oracle.

The :class:`~repro.core.engine.QueryEngine` promises results *identical*
to running each query through :meth:`SignatureTableSearcher.knn` /
``range_query`` one at a time — same neighbour lists (tids and
similarities), same :class:`SearchStats` down to every measured counter —
and, in exact mode, identical to the brute-force
:class:`~repro.baselines.linear_scan.LinearScanIndex`.  These tests
enforce that over randomised databases and query batches.  Every
approximate mode, ``early_termination`` budgets included, runs its batch
with the searcher's query methods patched to raise
(:func:`~tests.conftest.forbid_scalar_loop`), so the batch is the packed
scan's answer and the searcher only the oracle.
"""

import numpy as np
import pytest

import repro
from tests.conftest import forbid_scalar_loop, make_similarities

SEEDS = [3, 17, 101]


def random_instance(seed):
    """A randomised (db, table, holdout queries) triple."""
    rng = np.random.default_rng(seed)
    db = repro.generate(
        "T6.I3.D250",
        seed=seed,
        num_items=int(rng.integers(60, 120)),
        num_patterns=int(rng.integers(25, 60)),
    )
    scheme = repro.partition_items(
        db, num_signatures=int(rng.integers(4, 9)), rng=seed
    )
    table = repro.SignatureTable.build(db, scheme)
    queries = random_batch(db, rng, size=12)
    return db, table, queries


def random_batch(db, rng, size):
    """A batch mixing indexed transactions with random perturbations."""
    universe = db.universe_size
    queries = []
    for q in range(size):
        if q % 2 == 0:
            base = set(db[int(rng.integers(len(db)))])
        else:
            base = set(rng.choice(universe, size=int(rng.integers(1, 12))))
        # Perturb: flip a couple of random items, keep non-empty.
        for item in rng.choice(universe, size=2):
            base.symmetric_difference_update({int(item)})
        queries.append(sorted(base) or [int(rng.integers(universe))])
    return queries


@pytest.fixture(scope="module", params=SEEDS)
def instance(request):
    return random_instance(request.param)


def on_kernels(monkeypatch, call):
    """``call()`` with every query method of the searcher raising."""
    with monkeypatch.context() as patch:
        forbid_scalar_loop(patch)
        return call()


@pytest.mark.parametrize("sim", make_similarities(), ids=lambda s: repr(s))
def test_knn_batch_identical_to_single_queries(instance, sim):
    db, table, queries = instance
    searcher = repro.SignatureTableSearcher(table, db)
    engine = repro.QueryEngine(searcher)
    batch_results, batch_stats = engine.knn_batch(queries, sim, k=4)
    for query, got, got_stats in zip(queries, batch_results, batch_stats):
        want, want_stats = searcher.knn(query, sim, k=4)
        assert got == want
        assert got_stats == want_stats


@pytest.mark.parametrize("sim", make_similarities(), ids=lambda s: repr(s))
def test_exact_knn_batch_matches_linear_scan(instance, sim):
    db, table, queries = instance
    engine = repro.QueryEngine.for_table(table, db)
    scan = repro.LinearScanIndex(db)
    batch_results, batch_stats = engine.knn_batch(queries, sim, k=5)
    for query, got, stats in zip(queries, batch_results, batch_stats):
        assert stats.guaranteed_optimal
        want, _ = scan.knn(query, sim, k=5)
        # The similarity value multiset is the exact top-5; equal-value
        # ties may resolve to different tids, but every returned tid must
        # truly achieve its reported similarity.
        assert [nb.similarity for nb in got] == [nb.similarity for nb in want]
        truth, _ = scan.knn(query, sim, k=len(db))
        truth_by_tid = {nb.tid: nb.similarity for nb in truth}
        for nb in got:
            assert truth_by_tid[nb.tid] == nb.similarity


def test_range_query_batch_identical_to_single_queries(instance):
    db, table, queries = instance
    searcher = repro.SignatureTableSearcher(table, db)
    engine = repro.QueryEngine(searcher)
    scan = repro.LinearScanIndex(db)
    for sim, threshold in [
        (repro.MatchRatioSimilarity(), 0.3),
        (repro.JaccardSimilarity(), 0.2),
        (repro.HammingSimilarity(), 0.05),
    ]:
        batch_results, batch_stats = engine.range_query_batch(
            queries, sim, threshold
        )
        for query, got, got_stats in zip(queries, batch_results, batch_stats):
            want, want_stats = searcher.range_query(query, sim, threshold)
            assert got == want
            assert got_stats == want_stats
            truth, _ = scan.range_query(query, sim, threshold)
            assert [(nb.tid, nb.similarity) for nb in got] == [
                (nb.tid, nb.similarity) for nb in truth
            ]


#: The approximate modes of Section 4.2, alone and combined.
APPROXIMATE_MODES = [
    dict(early_termination=0.05),
    dict(early_termination=0.3),
    dict(guarantee_tolerance=0.1),
    dict(early_termination=0.2, guarantee_tolerance=0.05),
]


def test_early_termination_batch_identical_to_single_queries(
    instance, monkeypatch
):
    db, table, queries = instance
    searcher = repro.SignatureTableSearcher(table, db)
    engine = repro.QueryEngine(searcher)
    sim = repro.MatchRatioSimilarity()
    for kwargs in APPROXIMATE_MODES:
        batch_results, batch_stats = on_kernels(
            monkeypatch, lambda: engine.knn_batch(queries, sim, k=3, **kwargs)
        )
        for query, got, got_stats in zip(queries, batch_results, batch_stats):
            want, want_stats = searcher.knn(query, sim, k=3, **kwargs)
            assert got == want
            assert got_stats == want_stats


#: The tests below run once over the modes without a row budget and once
#: over the ``early_termination`` ones (range queries take no budget, so
#: only the first half checks them).  Both halves run on the packed
#: kernels; the ids keep the names "packed" / "python" from when the
#: budgeted half ran on the searcher.
BUDGETED = pytest.mark.parametrize(
    "budgeted", [False, True], ids=["packed", "python"]
)


def modes_on(budgeted, modes):
    """The batch configurations in ``modes`` with (``budgeted``) or
    without an ``early_termination`` budget."""
    return [
        kwargs for kwargs in modes if ("early_termination" in kwargs) == budgeted
    ]


@BUDGETED
def test_lsh_tier_batch_identical_to_masked_single_queries(
    instance, budgeted, monkeypatch
):
    """The lsh tier is the searcher under the probe's ``tid_mask`` (plus
    the tier's report on the stats), with or without a row budget."""
    from repro.sketch import SketchIndex

    db, table, queries = instance
    sketch = SketchIndex.build(db, num_hashes=32, num_bands=8, seed=1)
    sketched = repro.SignatureTable.build(db, table.scheme)
    sketched.attach_sketch(sketch)
    searcher = repro.SignatureTableSearcher(sketched, db)
    engine = repro.QueryEngine(searcher)
    sim = repro.JaccardSimilarity()
    for kwargs in modes_on(budgeted, [dict()] + APPROXIMATE_MODES):
        batch_results, batch_stats = on_kernels(
            monkeypatch,
            lambda: engine.knn_batch(
                queries, sim, k=3, candidate_tier="lsh", target_recall=0.9,
                **kwargs,
            ),
        )
        for query, got, got_stats in zip(queries, batch_results, batch_stats):
            probe = sketch.probe(query, 0.9)
            want, want_stats = searcher.knn(
                query, sim, k=3, tid_mask=probe.mask(len(db)), **kwargs
            )
            assert got == want
            assert got_stats.candidate_tier == "lsh"
            assert not got_stats.guaranteed_optimal
            assert got_stats.sketch_candidates == probe.candidates.size
            want_stats.candidate_tier = "lsh"
            want_stats.guaranteed_optimal = False
            want_stats.sketch_candidates = got_stats.sketch_candidates
            want_stats.estimated_recall = got_stats.estimated_recall
            assert got_stats == want_stats
    if budgeted:
        return
    hits, range_stats = on_kernels(
        monkeypatch,
        lambda: engine.range_query_batch(
            queries, sim, 0.2, candidate_tier="lsh", target_recall=0.9
        ),
    )
    for query, got, got_stats in zip(queries, hits, range_stats):
        probe = sketch.probe(query, 0.9)
        want, want_stats = searcher.range_query(
            query, sim, 0.2, tid_mask=probe.mask(len(db))
        )
        assert got == want
        assert (
            got_stats.entries_scanned,
            got_stats.entries_pruned,
            got_stats.transactions_accessed,
            got_stats.io,
        ) == (
            want_stats.entries_scanned,
            want_stats.entries_pruned,
            want_stats.transactions_accessed,
            want_stats.io,
        )


def spans_named(roots, name):
    """Every span of that name in the forest, in recording order."""
    found = []
    for node in roots:
        if node.name == name:
            found.append(node)
        found.extend(spans_named(node.children, name))
    return found


@BUDGETED
def test_traced_batch_identical_and_one_span_per_query(
    instance, budgeted, monkeypatch
):
    """An active tracer changes nothing but the spans: one
    ``search.knn`` / ``search.range`` span per query, carrying the
    finished stats, recorded by the packed kernels — every query method
    of the searcher is patched to raise, for exact, lsh and
    ``candidates=`` batches of either op, with or without a row budget.
    The ``engine.run_batch`` span carries the op and batch size only.
    """
    from repro.core.engine import batch_key
    from repro.obs.trace import Tracer
    from repro.sketch import SketchIndex

    db, table, queries = instance
    sketched = repro.SignatureTable.build(db, table.scheme)
    sketched.attach_sketch(
        SketchIndex.build(db, num_hashes=32, num_bands=8, seed=1)
    )
    engine = repro.QueryEngine.for_table(sketched, db)
    sim = repro.MatchRatioSimilarity()
    lsh = dict(candidate_tier="lsh", target_recall=0.9)
    rows = dict(candidates=np.array([5, 7, 9, 40, 41]))

    def traced_equals_plain(call):
        with monkeypatch.context() as patch:
            forbid_scalar_loop(patch)
            plain = call()
            tracer = Tracer()
            with tracer.activate():
                traced = call()
        assert traced == plain
        for batch_span in spans_named(tracer.roots, "engine.run_batch"):
            assert set(batch_span.attributes) == {"op", "batch_size"}
        return tracer.roots, traced

    knn_modes = [dict(), lsh, rows] + APPROXIMATE_MODES + [
        dict(lsh, early_termination=0.2), dict(rows, early_termination=0.2)
    ]
    for kwargs in modes_on(budgeted, knn_modes):
        if "candidates" in kwargs:  # not a BatchKey parameter
            call = lambda: engine.knn_batch(queries, sim, k=3, **kwargs)
        else:
            key = batch_key("knn", sim, k=3, **kwargs)
            call = lambda: engine.run_batch(key, sim, queries)
        roots, (_, all_stats) = traced_equals_plain(call)
        spans = spans_named(roots, "search.knn")
        assert len(spans) == len(queries)
        for recorded, stats in zip(spans, all_stats):
            want = dict(
                k=3,
                entries_scanned=stats.entries_scanned,
                entries_pruned=stats.entries_pruned,
                entries_unexplored=stats.entries_unexplored,
                transactions_accessed=stats.transactions_accessed,
                terminated_early=stats.terminated_early,
                guaranteed_optimal=stats.guaranteed_optimal,
            )
            if kwargs.get("candidate_tier") == "lsh":
                # The span reports the scan; the tier clears the flag on
                # the stats afterwards (a lossy answer proves nothing).
                del want["guaranteed_optimal"]
                del recorded.attributes["guaranteed_optimal"]
            assert recorded.attributes == want
    for kwargs in modes_on(budgeted, [dict(), lsh, rows]):
        if "candidates" in kwargs:
            call = lambda: engine.range_query_batch(queries, sim, 0.3, **kwargs)
        else:
            key = batch_key("range", sim, threshold=0.3, **kwargs)
            call = lambda: engine.run_batch(key, sim, queries)
        roots, traced = traced_equals_plain(call)
        spans = spans_named(roots, "search.range")
        assert len(spans) == len(queries)
        for recorded, hits, stats in zip(spans, *traced):
            assert recorded.attributes == dict(
                constraints=1,
                entries_scanned=stats.entries_scanned,
                entries_pruned=stats.entries_pruned,
                transactions_accessed=stats.transactions_accessed,
                results=len(hits),
            )


@BUDGETED
def test_explicit_candidates_identical_and_duplicates_rejected(
    instance, budgeted, monkeypatch
):
    """``candidates=`` is the searcher's ``tid_mask``, as a mask, as
    distinct tids or as one mask per query, with or without a row
    budget; a repeated tid would be scanned (and returned) once per
    repeat by the packed kernels, so it is refused up front."""
    db, table, queries = instance
    searcher = repro.SignatureTableSearcher(table, db)
    engine = repro.QueryEngine(searcher)
    sim = repro.JaccardSimilarity()
    budget = dict(early_termination=0.3) if budgeted else dict()
    tids = np.array([5, 7, 9, 40, 41])
    mask = np.zeros(len(db), dtype=bool)
    mask[tids] = True
    per_query = np.stack([mask if q % 2 else ~mask for q in range(len(queries))])
    for rows, masks in (
        (tids, [mask] * len(queries)),
        (mask, [mask] * len(queries)),
        (per_query, per_query),
    ):
        got = on_kernels(
            monkeypatch,
            lambda: engine.knn_batch(queries, sim, k=3, candidates=rows, **budget),
        )
        for q, query in enumerate(queries):
            assert (got[0][q], got[1][q]) == searcher.knn(
                query, sim, k=3, tid_mask=masks[q], **budget
            )
        if budgeted:
            continue
        hits = on_kernels(
            monkeypatch,
            lambda: engine.range_query_batch(queries, sim, 0.0, candidates=rows),
        )
        for q, query in enumerate(queries):
            assert (hits[0][q], hits[1][q]) == searcher.range_query(
                query, sim, 0.0, tid_mask=masks[q]
            )
    repeated = np.array([5, 5, 7, 7, 9])
    with pytest.raises(ValueError, match="distinct tids"):
        engine.knn_batch(queries[:1], sim, k=3, candidates=repeated, **budget)
    with pytest.raises(ValueError, match="distinct tids"):
        engine.range_query_batch(queries[:1], sim, 0.0, candidates=repeated)


def test_nearest_batch_matches_nearest(instance):
    db, table, queries = instance
    searcher = repro.SignatureTableSearcher(table, db)
    engine = repro.QueryEngine(searcher)
    sim = repro.MatchRatioSimilarity()
    best, stats = engine.nearest_batch(queries, sim)
    for query, got, got_stats in zip(queries, best, stats):
        want, want_stats = searcher.nearest(query, sim)
        assert got == want
        assert got_stats == want_stats
