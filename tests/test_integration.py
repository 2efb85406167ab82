"""End-to-end integration tests: the full pipeline of the paper, plus the
cross-component claims (same table ↔ many similarity functions; signature
table vs baselines; I/O accounting through the whole stack)."""

import numpy as np
import pytest

import repro
from tests.conftest import make_similarities


@pytest.fixture(scope="module")
def pipeline():
    """generate -> partition -> build -> searcher, with a holdout query set."""
    generator = repro.MarketBasketGenerator(
        repro.parse_spec("T10.I6.D4K", seed=17, num_items=500, num_patterns=400)
    )
    indexed = generator.generate()
    holdout = generator.generate(num_transactions=25)
    index = repro.build_index(indexed, num_signatures=12, rng=1)
    scan = repro.LinearScanIndex(indexed)
    queries = [sorted(holdout[q]) for q in range(len(holdout))]
    return indexed, index, scan, queries


class TestFullPipeline:
    def test_all_similarities_exact(self, pipeline):
        indexed, index, scan, queries = pipeline
        for sim in make_similarities():
            for target in queries[:5]:
                neighbor, stats = index.nearest(target, sim)
                assert neighbor.similarity == pytest.approx(
                    scan.best_similarity(target, sim)
                )
                assert stats.guaranteed_optimal

    def test_substantial_pruning_on_realistic_data(self, pipeline):
        _, index, _, queries = pipeline
        efficiencies = []
        for target in queries:
            _, stats = index.nearest(target, repro.MatchRatioSimilarity())
            efficiencies.append(stats.pruning_efficiency)
        assert np.mean(efficiencies) > 50.0

    def test_knn_subsumes_nearest(self, pipeline):
        _, index, _, queries = pipeline
        sim = repro.JaccardSimilarity()
        for target in queries[:5]:
            top1, _ = index.nearest(target, sim)
            top5, _ = index.knn(target, sim, k=5)
            assert top5[0].similarity == pytest.approx(top1.similarity)

    def test_range_query_consistent_with_knn(self, pipeline):
        _, index, _, queries = pipeline
        sim = repro.JaccardSimilarity()
        target = queries[0]
        top1, _ = index.nearest(target, sim)
        results, _ = index.range_query(target, sim, top1.similarity - 1e-9)
        assert top1.tid in {n.tid for n in results}
        assert all(n.similarity >= top1.similarity - 1e-9 for n in results)

    def test_early_termination_tradeoff(self, pipeline):
        """More budget never hurts accuracy (statistically) and accesses
        monotonically more transactions."""
        _, index, scan, queries = pipeline
        sim = repro.MatchRatioSimilarity()
        accessed = {level: [] for level in (0.005, 0.05, 0.5)}
        correct = {level: 0 for level in accessed}
        for target in queries:
            best = scan.best_similarity(target, sim)
            for level in accessed:
                neighbor, stats = index.nearest(
                    target, sim, early_termination=level
                )
                accessed[level].append(stats.transactions_accessed)
                correct[level] += int(
                    neighbor.similarity == pytest.approx(best)
                )
        assert np.mean(accessed[0.005]) <= np.mean(accessed[0.05])
        assert np.mean(accessed[0.05]) <= np.mean(accessed[0.5])
        assert correct[0.5] >= correct[0.005]

    def test_io_counters_flow_through(self, pipeline):
        _, index, scan, queries = pipeline
        _, stats = index.nearest(queries[0], repro.HammingSimilarity())
        assert stats.io.pages_read > 0
        _, scan_stats = scan.nearest(queries[0], repro.HammingSimilarity())
        assert scan_stats.io.pages_read >= stats.io.pages_read


class TestBaselineComparison:
    def test_table_beats_inverted_at_early_termination(self, pipeline):
        indexed, index, _, queries = pipeline
        inverted = repro.InvertedIndex(indexed)
        sim = repro.MatchRatioSimilarity()
        table_access, inverted_access = [], []
        for target in queries:
            _, stats = index.nearest(target, sim, early_termination=0.02)
            table_access.append(stats.transactions_accessed)
            inverted_access.append(inverted.candidates(target).size)
        assert np.mean(table_access) < 0.25 * np.mean(inverted_access)

    def test_minhash_approximates_jaccard_nn(self, pipeline):
        indexed, _, scan, queries = pipeline
        lsh = repro.MinHashLSHIndex(indexed, num_bands=24, rows_per_band=2, rng=0)
        sim = repro.JaccardSimilarity()
        good = 0
        for target in queries:
            neighbors, _ = lsh.knn(target, sim, k=1)
            if not neighbors:
                continue
            best = scan.best_similarity(target, sim)
            if neighbors[0].similarity >= 0.75 * best:
                good += 1
        assert good >= len(queries) * 0.6


class TestPersistenceRoundTrip:
    def test_save_load_whole_stack(self, pipeline, tmp_path):
        indexed, index, scan, queries = pipeline
        db_path = tmp_path / "db.npz"
        table_path = tmp_path / "table.npz"
        indexed.save(db_path)
        index.table.save(table_path)
        db2 = repro.TransactionDatabase.load(db_path)
        table2 = repro.SignatureTable.load(table_path)
        searcher = repro.SignatureTableSearcher(table2, db2)
        sim = repro.CosineSimilarity()
        for target in queries[:3]:
            neighbor, _ = searcher.nearest(target, sim)
            assert neighbor.similarity == pytest.approx(
                scan.best_similarity(target, sim)
            )


class TestAssociationRuleSynergy:
    """The frequent 2-itemsets the partitioner reads (Section 3.1)."""

    def test_frequent_itemsets_exist_in_generated_data(self, pipeline):
        indexed, _, _, _ = pipeline
        supports = repro.count_pair_supports(indexed, min_support=0.01)
        assert len(supports) > 10, "pattern-based data must contain frequent pairs"

    def test_signatures_capture_frequent_pairs(self, pipeline):
        """Items of a frequent pair should often share a signature — the
        correlation objective of Section 3.1 in action."""
        indexed, index, _, _ = pipeline
        supports = repro.count_pair_supports(indexed, min_support=0.02)
        pairs = [(i, j) for i, j, _ in supports]
        assert pairs, "the fixture has frequent pairs at 2% support"
        scheme = index.scheme
        together = sum(
            1 for a, b in pairs if scheme.signature_of(a) == scheme.signature_of(b)
        )
        k = scheme.num_signatures
        # Random assignment would co-locate ~1/K of the pairs.
        assert together / len(pairs) > 1.5 / k
