"""White-box tests of the branch-and-bound scan on hand-constructed tables.

Using a tiny, fully understood database we can predict exactly which
entries are scanned, pruned and left unexplored, pinning the accounting
the experiments rely on.
"""

import pytest

import repro
from repro.core.search import SignatureTableSearcher
from repro.core.signature import SignatureScheme
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.eval.harness import supercoordinate_nearest


@pytest.fixture()
def setup():
    """Three entries with cleanly separated bounds for target {0, 1, 2}.

    scheme: S0 = {0,1,2}, S1 = {3,4,5}; r = 1; target activates only S0
    (r = (3, 0)).

    entry (1,0): bound M=3, D=0    <- contains the exact duplicate
    entry (1,1): bound M=3, D=1
    entry (0,1): bound M=0, D=4

    The searcher keeps the paper's bound, which these hand computations
    pin; the summary bound's own values are pinned separately.
    """
    db = TransactionDatabase(
        [
            [0, 1, 2],        # code 01 — exact duplicate of the target
            [0, 5],           # code 11
            [3, 4],           # code 10
            [1, 2],           # code 01
            [4, 5],           # code 10
        ],
        universe_size=6,
    )
    scheme = SignatureScheme([[0, 1, 2], [3, 4, 5]], universe_size=6)
    table = SignatureTable.build(db, scheme)
    searcher = SignatureTableSearcher(table, db, bounds="paper")
    return db, table, searcher


TARGET = [0, 1, 2]


class TestScanAccounting:
    def test_exact_duplicate_prunes_everything_else(self, setup):
        _, table, searcher = setup
        # Jaccard: duplicate gives pessimistic = 1.0; entry (1,1) bound is
        # f(3, 1) = 3/4 < 1, entry (1,0)'s own bound is 1.0.
        neighbor, stats = searcher.nearest(TARGET, repro.JaccardSimilarity())
        assert neighbor.tid == 0
        assert neighbor.similarity == 1.0
        assert stats.entries_scanned == 1
        assert stats.entries_pruned == 2
        assert stats.transactions_accessed == 2  # tids 0 and 3 share code 01

    def test_order_is_by_descending_bound(self, setup):
        db, table, searcher = setup
        _, bound_sim, opts, order = searcher._prepare(TARGET, repro.JaccardSimilarity())
        ordered_bounds = [float(opts[e]) for e in order]
        assert ordered_bounds == sorted(ordered_bounds, reverse=True)
        # Best-ranked entry must be the target's own supercoordinate.
        best_entry = int(order[0])
        assert table.entry_codes[best_entry] == 0b01

    def test_bound_values_match_hand_computation(self, setup):
        _, table, searcher = setup
        _, bound_sim, opts, _ = searcher._prepare(TARGET, repro.JaccardSimilarity())
        by_code = {
            int(table.entry_codes[e]): float(opts[e])
            for e in range(table.num_entries_occupied)
        }
        # f(M, D) with Jaccard = M / (M + D).
        assert by_code[0b01] == pytest.approx(1.0)       # (3, 0)
        assert by_code[0b11] == pytest.approx(3 / 4)     # (3, 1)
        assert by_code[0b10] == pytest.approx(0.0)       # (0, 4)

    def test_summary_bound_values_match_hand_computation(self, setup):
        db, table, _ = setup
        searcher = SignatureTableSearcher(table, db)
        _, _, opts, _ = searcher._prepare(TARGET, repro.JaccardSimilarity())
        by_code = {
            int(table.entry_codes[e]): float(opts[e])
            for e in range(table.num_entries_occupied)
        }
        # (m, d) = (min(M, |X∩U|, Lmax), max(D, |X\U| + |I\X|, Lmin+|X|-2m))
        assert by_code[0b01] == pytest.approx(1.0)       # U={0,1,2}: (3, 0)
        assert by_code[0b11] == pytest.approx(1 / 4)     # U=I={0,5}: (1, 3)
        assert by_code[0b10] == pytest.approx(0.0)       # Lmin=2: (0, 5)

    def test_entry_accounting_sums(self, setup):
        _, _, searcher = setup
        _, stats = searcher.nearest(TARGET, repro.MatchRatioSimilarity())
        assert (
            stats.entries_scanned
            + stats.entries_pruned
            + stats.entries_unexplored
            == stats.entries_total
        )

    def test_budget_of_one_transaction(self, setup):
        _, _, searcher = setup
        neighbor, stats = searcher.nearest(
            TARGET, repro.JaccardSimilarity(), early_termination=0.2
        )
        # ceil(0.2 * 5) = 1 transaction: the first record of the best entry
        # is the duplicate, so even the tightest budget succeeds here.
        assert stats.transactions_accessed == 1
        assert neighbor.similarity == 1.0

    def test_guarantee_after_cutoff_is_sound(self, setup):
        _, _, searcher = setup
        neighbor, stats = searcher.nearest(
            TARGET, repro.JaccardSimilarity(), early_termination=0.2
        )
        if stats.terminated_early:
            assert stats.best_possible_remaining <= 1.0 + 1e-12
        else:
            assert stats.guaranteed_optimal

    def test_pruning_efficiency_value(self, setup):
        _, _, searcher = setup
        _, stats = searcher.nearest(TARGET, repro.JaccardSimilarity())
        assert stats.pruning_efficiency == pytest.approx(100 * (1 - 2 / 5))


class TestSupercoordinateSortInternals:
    def test_skips_instead_of_breaking(self, monkeypatch):
        """Under the supercoordinate order (the sort-order ablation's
        loop), a prunable entry is skipped and the scan goes on.

        S0 = {0,1,2}, S1 = {3,4,5}; target {1,3,4} has supercoordinate
        (1,1), so the order is (1,1), then (1,0) and (0,1), tied on the
        key.  Jaccard: (1,1) holds {2,3,4}, 2/4.  (1,0)'s bound is
        f(1, 2) = 1/3 < 1/2: skipped.  (0,1)'s is f(2, 1) = 2/3: read.
        """
        db = TransactionDatabase([[2], [3], [2, 3, 4], [2]], universe_size=6)
        scheme = SignatureScheme([[0, 1, 2], [3, 4, 5]], universe_size=6)
        table = SignatureTable.build(db, scheme)
        entry_tids, entered = table.entry_tids, []
        monkeypatch.setattr(
            table, "entry_tids",
            lambda entry: entered.append(entry) or entry_tids(entry),
        )
        ((read, best),) = supercoordinate_nearest(
            table, db, [[1, 3, 4]], repro.JaccardSimilarity()
        )
        codes = [table.bits_matrix[entry].tolist() for entry in entered]
        assert codes == [[True, True], [False, True]]
        assert (read, best) == (2, 0.5)

    def test_stats_io_positive(self, setup):
        _, _, searcher = setup
        _, stats = searcher.nearest(TARGET, repro.DiceSimilarity())
        assert stats.io.pages_read >= 1
        assert stats.io.transactions_read == stats.transactions_accessed


class TestHeapTieBreaking:
    def test_first_encountered_kept_on_ties(self):
        """Equal-similarity candidates: the heap keeps the first seen in
        scan order and never replaces on ties (determinism contract)."""
        db = TransactionDatabase([[0], [0], [0], [1]], universe_size=2)
        scheme = SignatureScheme([[0], [1]], universe_size=2)
        searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
        neighbors, _ = searcher.knn([0], repro.JaccardSimilarity(), k=2)
        assert [n.tid for n in neighbors] == [0, 1]
        assert all(n.similarity == 1.0 for n in neighbors)

    def test_repeated_queries_identical(self, setup):
        _, _, searcher = setup
        results = [
            tuple(
                (n.tid, n.similarity)
                for n in searcher.knn(TARGET, repro.CosineSimilarity(), k=4)[0]
            )
            for _ in range(3)
        ]
        assert results[0] == results[1] == results[2]
