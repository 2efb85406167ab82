"""Property tests for the packed bitset kernels (repro.core.kernels).

The contract under test: every packed kernel is *exact* — popcounted
intersection sizes, activation counts and whole-entry bound matrices must
equal the scalar reference implementations element for element, for any
universe size (including the >64-bit multi-word regime and the word
boundaries 63/64/65), any transaction (including empty and all-items),
and any partition.  The packed path is a drop-in replacement; there are
no tolerance knobs to hide behind.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.bounds import (
    BatchBoundCalculator,
    optimistic_distance,
    optimistic_matches,
)
from repro.core.engine import QueryEngine
from repro.core.partitioning import partition_items
from repro.core.search import SignatureTableSearcher
from repro.core.signature import SignatureScheme
from repro.core.similarity import (
    JaccardSimilarity,
    MatchCountSimilarity,
    MatchRatioSimilarity,
)
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase

#: Word-boundary universes plus a >4096 one (65 packed words).
BOUNDARY_UNIVERSES = [63, 64, 65, 128, 4100]


def random_rows(rng, count, universe_size, allow_empty=False):
    """Random duplicate-free sorted item arrays over a universe."""
    rows = []
    low = 0 if allow_empty else 1
    for _ in range(count):
        size = int(rng.integers(low, max(low + 1, min(universe_size, 40))))
        rows.append(
            np.sort(rng.choice(universe_size, size=size, replace=False))
        )
    return rows


def random_scheme(rng, universe_size, num_signatures, threshold=1):
    """A random partition as a SignatureScheme (every signature occupied)."""
    assignment = rng.integers(0, num_signatures, size=universe_size)
    assignment[:num_signatures] = np.arange(num_signatures)
    signatures = [
        np.flatnonzero(assignment == sig).tolist()
        for sig in range(num_signatures)
    ]
    return SignatureScheme(
        signatures,
        universe_size=universe_size,
        activation_threshold=threshold,
    )


class TestPackingAndPopcount:
    @given(seed=st.integers(0, 2**32 - 1), universe=st.sampled_from(BOUNDARY_UNIVERSES))
    @settings(max_examples=40, deadline=None)
    def test_match_counts_equal_set_intersection(self, seed, universe):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, 12, universe, allow_empty=True)
        targets = random_rows(rng, 4, universe, allow_empty=True)
        packed_db = kernels.pack_rows(rows, universe)
        packed_targets = kernels.pack_rows(targets, universe)
        got = kernels.match_counts_packed(packed_db, packed_targets)
        for q, target in enumerate(targets):
            target_set = set(target.tolist())
            for i, row in enumerate(rows):
                assert got[q, i] == len(target_set & set(row.tolist()))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_multiword_universe_beyond_4096(self, seed):
        rng = np.random.default_rng(seed)
        universe = 4100  # 65 words: exercises the multi-word tail word
        rows = random_rows(rng, 6, universe)
        packed = kernels.pack_rows(rows, universe)
        assert packed.shape == (6, kernels.num_words(universe))
        counts = kernels.popcount(packed).sum(axis=-1)
        for i, row in enumerate(rows):
            assert counts[i] == row.size

    @pytest.mark.parametrize("universe", BOUNDARY_UNIVERSES)
    def test_empty_and_all_items_transactions(self, universe):
        empty = np.array([], dtype=np.int64)
        everything = np.arange(universe, dtype=np.int64)
        packed = kernels.pack_rows([empty, everything], universe)
        assert kernels.popcount(packed[0]).sum() == 0
        assert kernels.popcount(packed[1]).sum() == universe
        counts = kernels.match_counts_packed(packed, packed)
        assert counts.tolist() == [[0, 0], [0, universe]]

    @pytest.mark.parametrize("universe", BOUNDARY_UNIVERSES)
    def test_word_boundary_single_bits(self, universe):
        # Each single-item set must survive a pack/popcount round trip,
        # including the last bit of a word and the first of the next.
        for item in (0, 62, universe - 1):
            packed = kernels.pack_items(
                np.array([item], dtype=np.int64), universe
            )
            assert kernels.popcount(packed).sum() == 1

    def test_out_of_universe_items_rejected(self):
        with pytest.raises(ValueError):
            kernels.pack_rows([np.array([70], dtype=np.int64)], 64)
        with pytest.raises(ValueError):
            kernels.pack_rows([np.array([-1], dtype=np.int64)], 64)

    @given(seed=st.integers(0, 2**32 - 1), universe=st.sampled_from(BOUNDARY_UNIVERSES))
    @settings(max_examples=30, deadline=None)
    def test_database_match_counts_batch_kernels_agree(self, seed, universe):
        rng = np.random.default_rng(seed)
        db = TransactionDatabase(
            random_rows(rng, 15, universe), universe_size=universe
        )
        targets = random_rows(rng, 3, universe, allow_empty=True)
        chosen = db.match_counts_batch(targets)
        # Both sides of the cost model: the posting walk and the popcount.
        for packed_wins in (False, True):
            with mock.patch.object(
                TransactionDatabase, "_packed_wins", return_value=packed_wins
            ):
                forced = db.match_counts_batch(targets)
            np.testing.assert_array_equal(forced, chosen)
        for q, target in enumerate(targets):
            np.testing.assert_array_equal(chosen[q], db.match_counts(target))


class TestActivationCountsAndBounds:
    @given(
        seed=st.integers(0, 2**32 - 1),
        universe=st.sampled_from(BOUNDARY_UNIVERSES),
        threshold=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_batch_activation_counts_match_scheme(
        self, seed, universe, threshold
    ):
        rng = np.random.default_rng(seed)
        scheme = random_scheme(rng, universe, 8, threshold)
        targets = random_rows(rng, 5, universe, allow_empty=True)
        got = kernels.batch_activation_counts(scheme, targets)
        expected = np.stack(
            [scheme.activation_counts(t) for t in targets]
        )
        np.testing.assert_array_equal(got, expected)

    @given(
        seed=st.integers(0, 2**32 - 1),
        universe=st.sampled_from([63, 64, 65, 200]),
        threshold=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_bound_matrices_match_scalar_reference(
        self, seed, universe, threshold
    ):
        rng = np.random.default_rng(seed)
        scheme = random_scheme(rng, universe, 6, threshold)
        db = TransactionDatabase(
            random_rows(rng, 25, universe), universe_size=universe
        )
        table = SignatureTable.build(db, scheme)
        targets = random_rows(rng, 4, universe, allow_empty=True)
        packed_counts = kernels.batch_activation_counts(scheme, targets)
        calc = BatchBoundCalculator(
            scheme, targets, activation_counts=packed_counts
        )
        m_opt, d_opt = calc.bounds(table.bits_matrix)
        for q, target in enumerate(targets):
            counts = scheme.activation_counts(target)
            for e in range(table.bits_matrix.shape[0]):
                bits = table.bits_matrix[e]
                assert m_opt[q, e] == optimistic_matches(
                    counts, bits, threshold
                )
                assert d_opt[q, e] == optimistic_distance(
                    counts, bits, threshold
                )


def scan_instance(seed):
    """A small indexed database whose entries span several pages."""
    rng = np.random.default_rng(seed)
    universe = 80
    db = TransactionDatabase(
        random_rows(rng, 60, universe), universe_size=universe
    )
    scheme = partition_items(db, num_signatures=7, rng=int(seed % 1000))
    table = SignatureTable.build(
        db, scheme, page_size=int(rng.choice([2, 5, 64]))
    )
    targets = random_rows(rng, 4, universe)
    return rng, db, table, targets


def candidate_mask(rng, table, kind):
    """A boolean candidate mask of the named shape (``None`` = every row)."""
    n = table.num_transactions
    mask = np.zeros(n, dtype=bool)
    if kind == "none":
        return None
    if kind == "full":
        mask[:] = True
    elif kind == "few":  # fewer candidates than any k > 2
        mask[rng.choice(n, size=2, replace=False)] = True
    elif kind == "one_entry":
        entry = int(rng.integers(table.num_entries_occupied))
        mask[table.entry_tids(entry)] = True
    elif kind == "random":
        mask[:] = rng.random(n) < rng.random()
    return mask  # "empty" leaves it all False


def budget_fraction(searcher, target, similarity, mask, kind):
    """An ``early_termination`` whose row budget lands where ``kind``
    says in the (masked) scan of ``target``."""
    n = len(searcher.db)
    if kind == "none":
        return None
    if kind == "database":
        return 1.0
    _, _, _, order = searcher._prepare(target, similarity, "optimistic")
    rows = np.arange(n) if mask is None else np.flatnonzero(mask)
    counts = np.bincount(
        searcher.table.tid_entries[rows],
        minlength=searcher.table.num_entries_occupied,
    )[order]
    filled = np.cumsum(counts)[counts > 0]
    if kind == "one_row" or filled.size < 2:
        budget = 1
    elif kind == "entry_boundary":
        budget = int(filled[0])
    else:  # "mid_entry": one row into the second non-empty entry
        budget = int(filled[0]) + 1
    # ceil(f * n) == budget, whatever the rounding of the product.
    return (budget - 0.5) / n


MASK_KINDS = ["none", "empty", "full", "few", "one_entry", "random"]
BUDGET_KINDS = ["none", "one_row", "entry_boundary", "mid_entry", "database"]
SIMILARITIES = [MatchCountSimilarity(), MatchRatioSimilarity(), JaccardSimilarity()]


class TestMaskedBudgetedScan:
    """The packed scans take the candidate set, the access budget and the
    tolerance as arguments and must reproduce the scalar loop's every
    decision: neighbours, full ``SearchStats`` and ``IOCounters``."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        mask_kind=st.sampled_from(MASK_KINDS),
        as_tids=st.booleans(),
        budget_kind=st.sampled_from(BUDGET_KINDS),
        tolerance=st.sampled_from([None, 0.0, 0.25, 1.0, 40.0]),
        k=st.sampled_from([1, 3, 200]),  # 200 > any candidate count
        similarity=st.sampled_from(SIMILARITIES),  # matches: ties at the k-th
    )
    @settings(max_examples=150, deadline=None)
    def test_knn_equals_scalar_loop(
        self, seed, mask_kind, as_tids, budget_kind, tolerance, k, similarity
    ):
        rng, db, table, targets = scan_instance(seed)
        searcher = SignatureTableSearcher(table, db)
        packed = QueryEngine(searcher)
        mask = candidate_mask(rng, table, mask_kind)
        fraction = budget_fraction(
            searcher, targets[0], similarity, mask, budget_kind
        )
        candidates = (
            np.flatnonzero(mask) if as_tids and mask is not None else mask
        )
        # Straight to the kernel: the engine keeps budgeted batches on
        # the reference loop.
        got, got_stats = kernels.knn_scan_batch(
            table,
            len(db),
            packed._prepare_batch(
                packed._normalise(targets), similarity, "optimistic"
            ),
            k,
            True,
            candidates=None if candidates is None else [candidates] * len(targets),
            budget=searcher._budget(fraction),
            tolerance=tolerance,
        )
        for target, hits, stats in zip(targets, got, got_stats):
            want, want_stats = searcher.knn(
                target,
                similarity,
                k=k,
                early_termination=fraction,
                guarantee_tolerance=tolerance,
                tid_mask=mask,
            )
            assert hits == want
            assert stats == want_stats

    @given(
        seed=st.integers(0, 2**32 - 1),
        mask_kind=st.sampled_from(MASK_KINDS),
        as_tids=st.booleans(),
        threshold=st.sampled_from([0.0, 0.2, 0.5, 2.0]),
        similarity=st.sampled_from(SIMILARITIES),
    )
    @settings(max_examples=80, deadline=None)
    def test_range_equals_scalar_loop(
        self, seed, mask_kind, as_tids, threshold, similarity
    ):
        rng, db, table, targets = scan_instance(seed)
        searcher = SignatureTableSearcher(table, db)
        packed = QueryEngine(searcher)
        mask = candidate_mask(rng, table, mask_kind)
        candidates = (
            np.flatnonzero(mask) if as_tids and mask is not None else mask
        )
        got, got_stats = packed.range_query_batch(
            targets, similarity, threshold, candidates=candidates
        )
        for target, hits, stats in zip(targets, got, got_stats):
            want, want_stats = searcher.range_query(
                target, similarity, threshold, tid_mask=mask
            )
            assert hits == want
            assert stats == want_stats

    def test_masked_scan_evaluates_candidate_rows_only(self):
        """When the candidates bound the rows a scan can read, the
        prepared queries carry ``row_sims`` and no whole-database
        similarity array — and answer identically either way."""
        rng, db, table, targets = scan_instance(5)
        engine = QueryEngine.for_table(table, db)
        arrays = engine._normalise(targets)
        similarity = JaccardSimilarity()
        sparse = engine._prepare_batch(
            arrays, similarity, "optimistic", readable_rows=4
        )
        dense = engine._prepare_batch(arrays, similarity, "optimistic")
        assert all(p.sims_all is None and p.row_sims is not None for p in sparse)
        assert all(p.row_sims is None for p in dense)
        tids = rng.choice(len(db), size=9, replace=False)
        for lazy, full in zip(sparse, dense):
            np.testing.assert_array_equal(lazy.row_sims(tids), full.sims_all[tids])
        few = [np.sort(tids[:3])] * len(targets)
        assert kernels.knn_scan_batch(
            table, len(db), sparse, 2, True, candidates=few
        ) == kernels.knn_scan_batch(
            table, len(db), dense, 2, True, candidates=few
        )

    def test_query_independent_state_is_built_once(self):
        """Signature masks and the tid -> entry map are cached like
        ``packed_rows`` instead of being rebuilt per batch."""
        _, db, table, _ = scan_instance(11)
        scheme = table.scheme
        np.testing.assert_array_equal(
            scheme.packed_masks(), kernels.signature_masks(scheme)
        )
        assert scheme.packed_masks().base is scheme.packed_masks().base
        assert table.tid_entries.base is table.tid_entries.base
        for entry in range(table.num_entries_occupied):
            assert (table.tid_entries[table.entry_tids(entry)] == entry).all()


class TestEndToEndEngineEquality:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_packed_engine_equals_python_searcher(self, seed):
        """The engine's scans against the scalar loop, called directly."""
        rng = np.random.default_rng(seed)
        universe = 80
        db = TransactionDatabase(
            random_rows(rng, 60, universe), universe_size=universe
        )
        scheme = partition_items(db, num_signatures=8, rng=int(seed % 1000))
        table = SignatureTable.build(db, scheme)
        searcher = SignatureTableSearcher(table, db)
        targets = random_rows(rng, 6, universe)
        similarity = MatchRatioSimilarity()
        engine = QueryEngine(searcher)
        for k in (1, 5):
            results, stats = engine.knn_batch(targets, similarity, k=k)
            for target, hits, query_stats in zip(targets, results, stats):
                assert (hits, query_stats) == searcher.knn(target, similarity, k=k)
        results, stats = engine.range_query_batch(targets, similarity, 0.3)
        for target, hits, query_stats in zip(targets, results, stats):
            assert (hits, query_stats) == searcher.range_query(
                target, similarity, 0.3
            )
