"""Unit tests for the signature table (paper Section 3)."""

import numpy as np
import pytest

from repro.core import bounds
from repro.core.bounds import EntrySummary
from repro.core.signature import SignatureScheme
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase


@pytest.fixture()
def tiny():
    db = TransactionDatabase(
        [
            [0, 1],        # activates sig 0 only  -> code 0b01
            [3, 4],        # activates sig 1 only  -> code 0b10
            [0, 3],        # activates both        -> code 0b11
            [1, 2],        # sig 0                 -> code 0b01
            [5],           # sig 1                 -> code 0b10
        ],
        universe_size=6,
    )
    scheme = SignatureScheme([[0, 1, 2], [3, 4, 5]], universe_size=6)
    return db, scheme, SignatureTable.build(db, scheme)


class TestBuild:
    def test_occupied_entries(self, tiny):
        _, _, table = tiny
        assert table.num_entries_occupied == 3
        assert table.entry_codes.tolist() == [0b01, 0b10, 0b11]

    def test_total_entries_is_2_to_k(self, tiny):
        _, _, table = tiny
        assert table.num_entries_total == 4

    def test_entry_membership(self, tiny):
        db, scheme, table = tiny
        entry_of_code = {
            int(code): i for i, code in enumerate(table.entry_codes)
        }
        for tid in range(len(db)):
            code = scheme.supercoordinate(db[tid])
            entry = entry_of_code[code]
            assert tid in table.entry_tids(entry).tolist()

    def test_entries_partition_the_tids(self, tiny):
        _, _, table = tiny
        all_tids = sorted(
            tid
            for e in range(table.num_entries_occupied)
            for tid in table.entry_tids(e).tolist()
        )
        assert all_tids == [0, 1, 2, 3, 4]

    def test_entry_sizes(self, tiny):
        _, _, table = tiny
        assert table.entry_sizes.tolist() == [2, 2, 1]

    def test_bits_matrix_matches_codes(self, tiny):
        _, _, table = tiny
        assert table.bits_matrix.tolist() == [
            [True, False],
            [False, True],
            [True, True],
        ]

    def test_empty_database_rejected(self):
        scheme = SignatureScheme([[0]], universe_size=1)
        with pytest.raises(ValueError):
            SignatureTable.build(
                TransactionDatabase([], universe_size=1), scheme
            )

    def test_build_on_generated_data_partitions_tids(
        self, medium_table, medium_indexed
    ):
        counted = sum(
            table_entry.size
            for table_entry in (
                medium_table.entry_tids(e)
                for e in range(medium_table.num_entries_occupied)
            )
        )
        assert counted == len(medium_indexed)

    def test_build_consistent_with_scheme(self, medium_table, medium_indexed):
        scheme = medium_table.scheme
        for entry in range(0, medium_table.num_entries_occupied, 11):
            code = int(medium_table.entry_codes[entry])
            for tid in medium_table.entry_tids(entry)[:5]:
                assert scheme.supercoordinate(medium_indexed[int(tid)]) == code


class TestLookup:
    def test_entry_index_of_present(self, tiny):
        _, _, table = tiny
        assert table.entry_index_of(0b10) == 1

    def test_entry_index_of_absent(self, tiny):
        _, _, table = tiny
        assert table.entry_index_of(0b00) == -1

    def test_entry_for_transaction(self, tiny):
        db, _, table = tiny
        assert table.entry_for(db[0]) == 0
        assert table.entry_for([0, 4]) == 2

    def test_entry_for_unoccupied_supercoordinate(self, tiny):
        _, _, table = tiny
        # An all-zero supercoordinate (no activations) indexes nothing.
        assert table.entry_for([]) == -1

    def test_entry_tids_out_of_range(self, tiny):
        _, _, table = tiny
        with pytest.raises(IndexError):
            table.entry_tids(3)


class TestStorageLayout:
    def test_entries_are_contiguous_on_disk(self, tiny):
        """The clustered layout must give each entry a contiguous run of
        storage positions (hence of pages)."""
        _, _, table = tiny
        store = table.store
        for entry in range(table.num_entries_occupied):
            tids = table.entry_tids(entry)
            positions = sorted(
                store.page_of(int(t)) * store.page_size for t in tids
            )
            # With page_size 64 and 5 records everything is page 0; check
            # the positional invariant through pages_for instead.
            pages = store.pages_for(tids)
            assert pages.size >= 1

    def test_contiguity_on_real_table(self, medium_table):
        # Rebuild with tiny pages so contiguity is observable.
        table = medium_table
        n = table.num_transactions
        # Positions of an entry's tids must be a contiguous integer range.
        offsets = np.argsort(
            np.concatenate(
                [
                    table.entry_tids(e)
                    for e in range(table.num_entries_occupied)
                ]
            ),
            kind="stable",
        )
        positions = np.empty(n, dtype=np.int64)
        concatenated = np.concatenate(
            [table.entry_tids(e) for e in range(table.num_entries_occupied)]
        )
        positions[concatenated] = np.arange(n)
        start = 0
        for e in range(table.num_entries_occupied):
            tids = table.entry_tids(e)
            entry_positions = np.sort(positions[tids])
            assert entry_positions[0] == start
            assert entry_positions[-1] == start + tids.size - 1
            start += tids.size


class TestStatsAndMemory:
    def test_stats_counts(self, tiny):
        _, _, table = tiny
        stats = table.stats()
        assert stats.num_entries_occupied == 3
        assert stats.num_transactions == 5
        assert stats.max_entry_size == 2
        assert stats.avg_entry_size == pytest.approx(5 / 3)
        assert 0 < stats.occupancy <= 1

    def test_avg_active_bits_weighted(self, tiny):
        _, _, table = tiny
        # 4 transactions activate 1 signature, 1 activates 2.
        assert table.stats().avg_active_bits == pytest.approx(
            (4 * 1 + 1 * 2) / 5
        )

    def test_dense_memory_is_8_times_2_to_k(self, tiny):
        _, _, table = tiny
        assert table.memory_bytes(dense=True) == 8 * 4

    def test_sparse_memory_smaller_for_large_k(self, medium_table):
        assert medium_table.memory_bytes(dense=False) < 10 * medium_table.memory_bytes(
            dense=True
        )

    def test_repr(self, tiny):
        _, _, table = tiny
        assert "K=2" in repr(table)


class TestEntrySummary:
    """The per-entry summary behind the summary bound: item -> entry
    postings of each entry's OR and AND of items, and its row lengths."""

    @pytest.mark.parametrize("chunk", [1 << 16, 997])
    def test_postings_match_brute_force(
        self, medium_indexed, medium_table, monkeypatch, chunk
    ):
        # A small chunk splits the build into many item ranges.
        monkeypatch.setattr(bounds, "_BUILD_CHUNK", chunk)
        db, table = medium_indexed, medium_table
        summary = EntrySummary.build(table, db)
        rows = [
            [db[int(t)] for t in table.entry_tids(e)]
            for e in range(table.num_entries_occupied)
        ]
        unions = [frozenset().union(*r) for r in rows]
        inters = [frozenset.intersection(*r) for r in rows]
        assert summary.union_entries.dtype == np.uint16
        for indptr, entries, sets in (
            (summary.union_indptr, summary.union_entries, unions),
            (summary.inter_indptr, summary.inter_entries, inters),
        ):
            assert indptr.size == db.universe_size + 1
            for item in range(db.universe_size):
                posting = entries[indptr[item]:indptr[item + 1]].tolist()
                assert posting == [e for e, s in enumerate(sets) if item in s]
        assert summary.inter_sizes.tolist() == [len(s) for s in inters]
        assert summary.min_lengths.tolist() == [min(map(len, r)) for r in rows]
        assert summary.max_lengths.tolist() == [max(map(len, r)) for r in rows]

    def test_memory_bytes_counts_the_summary(self, medium_indexed, medium_table):
        summary = medium_table.summary(medium_indexed)
        assert summary.nbytes == sum(
            a.nbytes
            for a in (
                summary.union_indptr, summary.union_entries,
                summary.inter_indptr, summary.inter_entries,
                summary.inter_sizes, summary.min_lengths, summary.max_lengths,
            )
        )
        assert medium_table.memory_bytes() == (
            medium_table.memory_bytes(dense=True) + summary.nbytes
        )

    def test_loaded_table_builds_it_on_first_query(
        self, medium_indexed, medium_table, tmp_path
    ):
        from repro.core.engine import QueryEngine
        from repro.core.similarity import MatchRatioSimilarity

        path = tmp_path / "table.npz"
        medium_table.save(path)
        loaded = SignatureTable.load(path)
        assert loaded.memory_bytes() == loaded.memory_bytes(dense=True)
        engine = QueryEngine.for_table(loaded, medium_indexed)
        engine.knn_batch([[1, 2, 3]], MatchRatioSimilarity(), k=3)
        assert loaded.memory_bytes() == medium_table.memory_bytes()
        built = medium_table.summary(medium_indexed)
        rebuilt = loaded.summary(medium_indexed)
        for name, array in vars(built).items():
            assert np.array_equal(vars(rebuilt)[name], array), name


class TestPersistence:
    def test_round_trip(self, tiny, tmp_path):
        db, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = SignatureTable.load(path)
        assert loaded.entry_codes.tolist() == table.entry_codes.tolist()
        assert loaded.num_transactions == table.num_transactions
        assert loaded.scheme == table.scheme
        for e in range(table.num_entries_occupied):
            assert loaded.entry_tids(e).tolist() == table.entry_tids(e).tolist()

    def test_loaded_table_answers_queries(self, tiny, tmp_path):
        from repro.core.search import SignatureTableSearcher
        from repro.core.similarity import MatchRatioSimilarity

        db, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = SignatureTable.load(path)
        searcher = SignatureTableSearcher(loaded, db)
        neighbor, _ = searcher.nearest([0, 1], MatchRatioSimilarity())
        assert neighbor.tid == 0


class TestFormatVersion:
    def test_saved_file_carries_current_version(self, tiny, tmp_path):
        from repro.core.table import TABLE_FORMAT_VERSION

        _, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        with np.load(path) as data:
            assert int(data["format_version"]) == TABLE_FORMAT_VERSION

    def test_legacy_file_without_version_loads(self, tiny, tmp_path):
        # Files written before versioning had no format_version key.
        _, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        with np.load(path) as data:
            fields = {k: data[k] for k in data.files if k != "format_version"}
        legacy = tmp_path / "legacy.npz"
        np.savez_compressed(legacy, **fields)
        loaded = SignatureTable.load(legacy)
        assert loaded.scheme == table.scheme
        assert loaded.entry_codes.tolist() == table.entry_codes.tolist()

    def test_future_version_rejected_with_both_versions_named(
        self, tiny, tmp_path
    ):
        from repro.core.table import TABLE_FORMAT_VERSION

        _, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        with np.load(path) as data:
            fields = {k: data[k] for k in data.files}
        fields["format_version"] = np.int64(TABLE_FORMAT_VERSION + 41)
        future = tmp_path / "future.npz"
        np.savez_compressed(future, **fields)
        with pytest.raises(ValueError) as excinfo:
            SignatureTable.load(future)
        assert str(TABLE_FORMAT_VERSION + 41) in str(excinfo.value)
        assert str(TABLE_FORMAT_VERSION) in str(excinfo.value)

    def test_round_trip_verifies_against_database(self, tiny, tmp_path):
        db, _, table = tiny
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = SignatureTable.load(path)
        loaded.verify(db)  # raises on any structural mismatch
