"""Differential suite: the lsh tier against the exact tier.

Structural invariants (hold for every query, every seed):

* every lsh answer is drawn from the LSH candidate set, so lsh range
  hits are a subset of the exact range hits and an lsh k-NN similarity
  can never exceed the exact optimum;
* the stats carry the lossy-tier report (``candidate_tier="lsh"``,
  ``guaranteed_optimal=False``, a recall estimate) and show the access
  saving the tier exists for.

Statistical acceptance (seeded, on the near-duplicate corpus the tier
is designed for): measured recall — the fraction of queries whose lsh
top answer matches the exact optimum — meets the requested
``target_recall`` while touching at most half the transactions the
exact scan reads.
"""

import numpy as np
import pytest

from repro.core.search import SignatureTableSearcher
from repro.core.similarity import get_similarity


def result_pairs(hits):
    return [(n.tid, n.similarity) for n in hits]


class TestStructural:
    def test_range_lsh_subset_of_exact(self, sketched_engine, sketch_corpus):
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        exact, _ = sketched_engine.range_query_batch(
            queries, similarity, threshold=0.4
        )
        lsh, _ = sketched_engine.range_query_batch(
            queries, similarity, threshold=0.4,
            candidate_tier="lsh", target_recall=0.9,
        )
        for approx_hits, exact_hits in zip(lsh, exact):
            assert set(result_pairs(approx_hits)) <= set(
                result_pairs(exact_hits)
            )

    def test_knn_lsh_never_beats_exact(self, sketched_engine, sketch_corpus):
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        exact, _ = sketched_engine.knn_batch(queries, similarity, k=3)
        lsh, _ = sketched_engine.knn_batch(
            queries, similarity, k=3, candidate_tier="lsh", target_recall=0.9
        )
        for approx_hits, exact_hits in zip(lsh, exact):
            if approx_hits and exact_hits:
                assert (
                    approx_hits[0].similarity
                    <= exact_hits[0].similarity + 1e-12
                )

    def test_lsh_stats_report_lossy_tier(self, sketched_engine, sketch_corpus):
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        _, stats = sketched_engine.knn_batch(
            queries, similarity, k=3, candidate_tier="lsh", target_recall=0.9
        )
        for s in stats:
            assert s.candidate_tier == "lsh"
            assert not s.guaranteed_optimal
            assert s.sketch_candidates is not None
            assert 0.0 <= s.estimated_recall <= 1.0

    @pytest.mark.parametrize("scan", ["packed", "python"])
    def test_lsh_stats_account_for_every_entry(
        self, sketch_corpus, sketched_engine, scan
    ):
        """Every occupied entry is scanned, pruned (by its bound or
        because the mask emptied it) or left unexplored — the tail prune
        must add to, not overwrite, the mask-emptied count — in the
        scalar searcher's stats under the probe mask, and in the engine's
        packed stats, which must equal the searcher's."""
        db, queries = sketch_corpus
        searcher = SignatureTableSearcher(sketched_engine.table, db)
        sketch = sketched_engine.sketch
        similarity = get_similarity("jaccard")
        scalar = []
        for query in queries:
            mask = sketch.probe(query, 0.9).mask(len(db))
            scalar.append(searcher.knn(query, similarity, k=3, tid_mask=mask)[1])
            scalar.append(
                searcher.range_query(query, similarity, 0.4, tid_mask=mask)[1]
            )
        checked = scalar
        if scan == "packed":
            _, knn_stats = sketched_engine.knn_batch(
                queries, similarity, k=3, candidate_tier="lsh", target_recall=0.9
            )
            _, range_stats = sketched_engine.range_query_batch(
                queries, similarity, threshold=0.4,
                candidate_tier="lsh", target_recall=0.9,
            )
            checked = [s for pair in zip(knn_stats, range_stats) for s in pair]
            for got, want in zip(checked, scalar):
                assert (
                    got.entries_scanned, got.entries_pruned, got.entries_unexplored
                ) == (
                    want.entries_scanned, want.entries_pruned, want.entries_unexplored
                )
        for s in checked:
            assert (
                s.entries_scanned + s.entries_pruned + s.entries_unexplored
                == s.entries_total
            )

    def test_exact_stats_stay_pristine(self, sketched_engine, sketch_corpus):
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        _, stats = sketched_engine.knn_batch(queries, similarity, k=3)
        for s in stats:
            assert s.candidate_tier == "exact"
            assert s.estimated_recall is None
            assert s.sketch_candidates is None

    def test_candidate_sets_grow_with_target_recall(
        self, sketched_engine, sketch_corpus
    ):
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        sizes = []
        for recall in (0.8, 0.99):
            _, stats = sketched_engine.knn_batch(
                queries, similarity, k=1,
                candidate_tier="lsh", target_recall=recall,
            )
            sizes.append([s.sketch_candidates for s in stats])
        for low, high in zip(*sizes):
            assert high >= low

    def test_lsh_requires_sketch(self, sketch_corpus):
        from repro.core.engine import QueryEngine
        from repro.core.partitioning import partition_items
        from repro.core.table import SignatureTable

        db, queries = sketch_corpus
        table = SignatureTable.build(
            db, partition_items(db, num_signatures=4, rng=0)
        )
        engine = QueryEngine.for_table(table, db)
        assert not engine.supports_lsh_tier
        with pytest.raises(ValueError, match="sketch"):
            engine.knn_batch(
                queries[:1], get_similarity("jaccard"), candidate_tier="lsh"
            )


class TestMeasuredRecall:
    @pytest.mark.parametrize("target_recall", [0.8, 0.9, 0.95])
    def test_recall_meets_target_at_reduced_access(
        self, sketched_engine, sketch_corpus, target_recall
    ):
        """The acceptance sweep in miniature: on the clustered corpus the
        lsh tier finds the exact optimum for >= target_recall of the
        queries while accessing at most half the transactions."""
        _, queries = sketch_corpus
        similarity = get_similarity("jaccard")
        exact, exact_stats = sketched_engine.knn_batch(
            queries, similarity, k=1
        )
        lsh, lsh_stats = sketched_engine.knn_batch(
            queries, similarity, k=1,
            candidate_tier="lsh", target_recall=target_recall,
        )
        hits = sum(
            1
            for approx_hits, exact_hits in zip(lsh, exact)
            if approx_hits
            and approx_hits[0].similarity
            >= exact_hits[0].similarity - 1e-12
        )
        assert hits / len(queries) >= target_recall
        accessed_lsh = np.mean(
            [s.transactions_accessed for s in lsh_stats]
        )
        accessed_exact = np.mean(
            [s.transactions_accessed for s in exact_stats]
        )
        assert accessed_lsh <= 0.5 * accessed_exact
