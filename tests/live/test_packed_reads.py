"""Live reads run on the packed kernels, and report what the engine does.

The base segment is scanned by a :class:`~repro.core.engine.QueryEngine`
with the live rows as its candidate mask, so the scalar searcher is the
oracle here, never the path: only an ``early_termination`` batch still
reaches it, through the engine's named fallback.
"""

import numpy as np
import pytest

from repro.core.engine import QueryEngine
from repro.core.search import SignatureTableSearcher
from repro.core.similarity import get_similarity
from repro.live import LiveIndex
from repro.service.protocol import encode_search_stats

from tests.live.conftest import random_transaction
from tests.live.test_differential import fresh_searcher


def pairs(neighbors):
    return [(n.tid, n.similarity) for n in neighbors]


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

        def unreachable(*args, **kwargs):
            raise AssertionError("scalar loop reached by a live read")

        with monkeypatch.context() as patch:
            for name in ("knn", "range_query", "multi_range_query"):
                patch.setattr(SignatureTableSearcher, name, unreachable)
            exact, _ = live.knn_batch(targets, similarity, k=5)
            ranged, _ = live.range_query_batch(targets, similarity, 0.3)
            for tier in ("exact", "lsh"):
                live.knn(targets[0], similarity, k=5, candidate_tier=tier)
                live.range_query(targets[0], similarity, 0.3, candidate_tier=tier)
            with pytest.raises(AssertionError, match="scalar loop"):
                live.knn(targets[0], similarity, k=5, early_termination=0.2)
        assert [pairs(hits) for hits in exact] == want_knn
        assert [pairs(hits) for hits in ranged] == want_range


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
