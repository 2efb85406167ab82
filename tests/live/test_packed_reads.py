"""Live reads run on the packed kernels, and report what the engine does.

The base segment is scanned by a :class:`~repro.core.engine.QueryEngine`
with the live rows as its candidate mask, so the scalar searcher is the
oracle here, never the path, for ``early_termination`` reads as for
every other.
"""

import numpy as np

from repro.core.engine import QueryEngine
from repro.core.search import SignatureTableSearcher
from repro.core.similarity import get_similarity
from repro.live import LiveIndex
from repro.obs import MetricRegistry
from repro.service.protocol import encode_search_stats

from tests.conftest import forbid_scalar_loop
from tests.live.conftest import random_transaction
from tests.live.test_differential import fresh_searcher


def pairs(neighbors):
    return [(n.tid, n.similarity) for n in neighbors]


def budgeted_oracle(live, targets, similarity, tier, k, fraction):
    """A budgeted live k-NN batch assembled from the base table's
    searcher, under the live tombstone mask (and each query's sketch
    probe), plus the live index's delta merge."""
    state = live._read_state()
    searcher = SignatureTableSearcher(state.engine.table, state.engine.db)
    recall = 0.9 if tier == "lsh" else None
    probes, candidates = state.base_candidates(targets, tier, recall, op="knn")
    masks = [candidates] * len(targets) if tier == "exact" else list(candidates)
    base_lists, stats = [], []
    for target, mask in zip(targets, masks):
        hits, one = searcher.knn(
            target, similarity, k=k, early_termination=fraction, tid_mask=mask
        )
        base_lists.append(hits)
        stats.append(one)
    delta = [state.delta.knn_candidates(t, similarity, k) for t in targets]
    return state.merge(base_lists, stats, delta, probes, candidates, k)


def test_live_reads_never_reach_the_scalar_loop(
    tmp_path, base_db, scheme, monkeypatch
):
    rng = np.random.default_rng(12)
    similarity = get_similarity("jaccard")
    with LiveIndex.create(
        tmp_path / "idx", base_db, scheme=scheme, sketch={"seed": 5}
    ) as live:
        for _ in range(12):
            live.insert(random_transaction(rng))
        for _ in range(12):
            live.delete(int(rng.integers(0, live.num_transactions)))
        targets = [random_transaction(rng) for _ in range(6)]
        oracle = fresh_searcher(live)
        want_knn = [pairs(oracle.knn(t, similarity, k=5)[0]) for t in targets]
        want_range = [
            pairs(oracle.range_query(t, similarity, 0.3)[0]) for t in targets
        ]

        with monkeypatch.context() as patch:
            forbid_scalar_loop(patch)
            exact, _ = live.knn_batch(targets, similarity, k=5)
            ranged, _ = live.range_query_batch(targets, similarity, 0.3)
            budgeted = {}
            for tier in ("exact", "lsh"):
                live.knn(targets[0], similarity, k=5, candidate_tier=tier)
                live.range_query(targets[0], similarity, 0.3, candidate_tier=tier)
                budgeted[tier] = live.knn_batch(
                    targets, similarity, k=5, early_termination=0.1,
                    candidate_tier=tier,
                    target_recall=0.9 if tier == "lsh" else None,
                )
        assert [pairs(hits) for hits in exact] == want_knn
        assert [pairs(hits) for hits in ranged] == want_range
        for tier, got in budgeted.items():
            want = budgeted_oracle(live, targets, similarity, tier, 5, 0.1)
            assert got == want
            assert any(stats.terminated_early for stats in got[1])  # cut short


def test_unmutated_lsh_reads_report_as_the_engine(tmp_path, base_db, scheme):
    """With no delta and no tombstones a live lsh query is the engine's:
    same neighbours, same wire stats (the recall estimate sharpened by
    the k-th neighbour, the candidate count) but for the latency."""
    similarity = get_similarity("jaccard")
    targets = [base_db.items_of(tid) for tid in range(0, len(base_db), 5)]
    with LiveIndex.create(
        tmp_path / "idx", base_db, scheme=scheme, sketch={"seed": 5}
    ) as live:
        engine = QueryEngine.for_table(live.base_table, base_db)
        for k in (1, 4):
            options = dict(k=k, candidate_tier="lsh", target_recall=0.9)
            want, want_stats = engine.knn_batch(targets, similarity, **options)
            got = [live.knn(t, similarity, **options) for t in targets]
            assert [pairs(hits) for hits, _ in got] == [pairs(h) for h in want]
            for (_, stats), expected in zip(got, want_stats):
                wire = encode_search_stats(stats)
                wire.pop("latency_ms")
                expected_wire = encode_search_stats(expected)
                expected_wire.pop("latency_ms")
                assert wire == expected_wire


def test_unmutated_lsh_batches_feed_the_sketch_metrics(tmp_path, base_db, scheme):
    """A live lsh batch moves ``repro_sketch_candidates_total{op}`` and
    ``repro_sketch_access_fraction`` exactly as the engine's does."""
    similarity = get_similarity("jaccard")
    targets = [base_db.items_of(tid) for tid in range(0, len(base_db), 5)]
    names = ("repro_sketch_candidates_total", "repro_sketch_access_fraction")
    with LiveIndex.create(
        tmp_path / "idx", base_db, scheme=scheme, sketch={"seed": 5}
    ) as live:
        engine = QueryEngine.for_table(live.base_table, base_db)
        scrapes = []
        for index in (engine, live):
            registry = MetricRegistry()
            index.bind_metrics(registry)
            index.knn_batch(targets, similarity, k=3, candidate_tier="lsh")
            index.range_query_batch(targets, similarity, 0.3, candidate_tier="lsh")
            scrape = registry.to_json()
            scrapes.append({name: scrape[name]["samples"] for name in names})
    want, got = scrapes
    assert got == want
    assert {s["labels"]["op"] for s in got[names[0]]} == {"knn", "range"}
    assert got[names[1]][0]["value"]["count"] == 2 * len(targets)
