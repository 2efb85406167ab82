"""The signature table (Section 3, Figure 1).

The table has one conceptual entry per supercoordinate (``2^K`` of them);
the entry directory lives in main memory while each entry points to the
disk pages holding the transactions that map to that supercoordinate.

This implementation stores the directory *sparsely* — only occupied
supercoordinates carry data — which changes nothing about the algorithm
(empty entries index no transactions, so "scanning" them is free and they
are trivially pruned) while keeping memory proportional to the data.
:meth:`SignatureTable.memory_bytes` still reports the dense ``2^K``
directory footprint, because that is the paper's main-memory constraint
that caps ``K``.

Transactions are laid out on the simulated disk clustered by entry
(supercoordinate order), so reading one entry is a contiguous page run —
the property the branch-and-bound search's I/O accounting relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.signature import SignatureScheme
from repro.data.transaction import TransactionDatabase
from repro.storage.pages import PagedStore
from repro.utils.validation import check_positive

#: On-disk ``.npz`` format version written by :meth:`SignatureTable.save`.
#: Bump when the key set or the meaning of a key changes; :meth:`load`
#: rejects files from a future version instead of mis-reading them.
#: Version history: 0 = unversioned seed files, 1 = versioned core table,
#: 2 = optional sketch signature column (``sketch_*`` keys; files without
#: them still load — the sketch column is optional within version 2).
TABLE_FORMAT_VERSION = 2


@dataclass(frozen=True)
class TableStats:
    """Occupancy statistics of a signature table."""

    num_entries_total: int
    num_entries_occupied: int
    num_transactions: int
    max_entry_size: int
    avg_entry_size: float
    avg_active_bits: float

    @property
    def occupancy(self) -> float:
        """Fraction of the ``2^K`` supercoordinates that hold transactions."""
        if self.num_entries_total == 0:
            return 0.0
        return self.num_entries_occupied / self.num_entries_total


class SignatureTable:
    """An immutable signature table over a transaction database.

    Build with :meth:`build`; query through
    :class:`~repro.core.search.SignatureTableSearcher`.

    Attributes of interest
    ----------------------
    ``scheme``
        The :class:`SignatureScheme` used for the mapping.
    ``store``
        The :class:`~repro.storage.pages.PagedStore` simulating the
        clustered on-disk layout.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        entry_codes: np.ndarray,
        entry_offsets: np.ndarray,
        ordered_tids: np.ndarray,
        num_transactions: int,
        page_size: int = 64,
    ) -> None:
        self._scheme = scheme
        self._entry_codes = entry_codes
        self._entry_offsets = entry_offsets
        self._ordered_tids = ordered_tids
        self._num_transactions = int(num_transactions)
        k = scheme.num_signatures
        powers = 1 << np.arange(k, dtype=np.int64)
        self._bits_matrix = ((entry_codes[:, None] & powers[None, :]) != 0)
        self.store = PagedStore(
            num_transactions, page_size=page_size, order=ordered_tids
        )
        self._sketch = None
        self._tid_entries: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: TransactionDatabase,
        scheme: SignatureScheme,
        page_size: int = 64,
    ) -> "SignatureTable":
        """Build the table: map every transaction to its supercoordinate and
        cluster the storage order by entry.

        Cost is one vectorised pass over the database (linear in the total
        number of item incidences) plus a sort of the TIDs by
        supercoordinate.
        """
        check_positive(page_size, "page_size")
        if len(db) == 0:
            raise ValueError("cannot build a signature table over an empty database")
        codes = scheme.supercoordinates_batch(db)
        order = np.argsort(codes, kind="stable").astype(np.int64)
        sorted_codes = codes[order]
        entry_codes, start_indices = np.unique(sorted_codes, return_index=True)
        entry_offsets = np.append(start_indices, sorted_codes.size).astype(np.int64)
        return cls(
            scheme=scheme,
            entry_codes=entry_codes.astype(np.int64),
            entry_offsets=entry_offsets,
            ordered_tids=order,
            num_transactions=len(db),
            page_size=page_size,
        )

    # ------------------------------------------------------------------
    @property
    def scheme(self) -> SignatureScheme:
        return self._scheme

    @property
    def num_transactions(self) -> int:
        return self._num_transactions

    @property
    def num_entries_total(self) -> int:
        """The conceptual directory size, ``2^K``."""
        return self._scheme.num_supercoordinates

    @property
    def num_entries_occupied(self) -> int:
        """Supercoordinates that index at least one transaction."""
        return int(self._entry_codes.size)

    @property
    def entry_codes(self) -> np.ndarray:
        """Occupied supercoordinates, ascending (read-only view)."""
        view = self._entry_codes.view()
        view.flags.writeable = False
        return view

    @property
    def entry_sizes(self) -> np.ndarray:
        """Number of transactions per occupied entry."""
        return np.diff(self._entry_offsets)

    @property
    def bits_matrix(self) -> np.ndarray:
        """Boolean ``(E, K)`` matrix of occupied supercoordinate bits."""
        view = self._bits_matrix.view()
        view.flags.writeable = False
        return view

    @property
    def entry_offsets(self) -> np.ndarray:
        """Storage-slot offsets of the occupied entries (read-only view).

        Entry ``i`` occupies the contiguous storage slots
        ``[entry_offsets[i], entry_offsets[i + 1])`` — the clustered
        layout the vectorised scan kernels exploit for page accounting.
        """
        view = self._entry_offsets.view()
        view.flags.writeable = False
        return view

    @property
    def ordered_tids(self) -> np.ndarray:
        """TIDs in storage (supercoordinate-clustered) order, read-only."""
        view = self._ordered_tids.view()
        view.flags.writeable = False
        return view

    @property
    def tid_entries(self) -> np.ndarray:
        """Occupied-entry index of every tid (cached, read-only).

        The inverse of :meth:`entry_tids`, which the masked scan kernels
        use to group a candidate set by entry.  Built lazily on first
        use, like :meth:`TransactionDatabase.packed_rows`.
        """
        if self._tid_entries is None:
            entries = np.empty(self._num_transactions, dtype=np.int64)
            entries[self._ordered_tids] = np.repeat(
                np.arange(self._entry_codes.size, dtype=np.int64),
                np.diff(self._entry_offsets),
            )
            self._tid_entries = entries
        view = self._tid_entries.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Sketch column (repro.sketch)
    # ------------------------------------------------------------------
    @property
    def sketch(self):
        """The attached :class:`~repro.sketch.SketchIndex`, or ``None``.

        The sketch is an optional per-transaction signature column that
        the query engine's ``candidate_tier="lsh"`` probes; it persists
        with the table (:meth:`save` / :meth:`load`).
        """
        return self._sketch

    def attach_sketch(self, sketch) -> None:
        """Attach a sketch index whose rows are this table's tids.

        Pass ``None`` to detach.  The sketch must sign exactly the
        transactions this table indexes (row ``t`` = tid ``t``).
        """
        if sketch is not None and sketch.num_transactions != self._num_transactions:
            raise ValueError(
                f"sketch signs {sketch.num_transactions} transactions but "
                f"the table indexes {self._num_transactions}"
            )
        self._sketch = sketch

    # ------------------------------------------------------------------
    def entry_tids(self, entry_index: int) -> np.ndarray:
        """TIDs indexed by the ``entry_index``-th occupied entry.

        TIDs are returned in storage order, i.e. the order in which the
        branch-and-bound scan reads them off the (simulated) disk.
        """
        if not 0 <= entry_index < self.num_entries_occupied:
            raise IndexError(
                f"entry index {entry_index} out of range "
                f"[0, {self.num_entries_occupied})"
            )
        start = self._entry_offsets[entry_index]
        end = self._entry_offsets[entry_index + 1]
        return self._ordered_tids[start:end]

    def entry_index_of(self, code: int) -> int:
        """Index of supercoordinate ``code`` among occupied entries, or -1."""
        position = int(np.searchsorted(self._entry_codes, code))
        if (
            position < self._entry_codes.size
            and self._entry_codes[position] == code
        ):
            return position
        return -1

    def entry_for(self, transaction: Iterable[int]) -> int:
        """Occupied-entry index a transaction would map to, or -1 if its
        supercoordinate currently indexes no transactions."""
        return self.entry_index_of(self._scheme.supercoordinate(transaction))

    # ------------------------------------------------------------------
    def verify(self, db: TransactionDatabase) -> bool:
        """Check the table's structural integrity against its database.

        Verifies that the stored TIDs are a permutation of the database,
        that entry offsets are consistent, and that every transaction sits
        in the entry of its own supercoordinate.  Raises
        :class:`ValueError` describing the first inconsistency; returns
        ``True`` when everything checks out.  Intended for tests and for
        validating tables loaded from disk against a database file.
        """
        if len(db) != self._num_transactions:
            raise ValueError(
                f"table indexes {self._num_transactions} transactions, "
                f"database holds {len(db)}"
            )
        if not np.array_equal(
            np.sort(self._ordered_tids), np.arange(self._num_transactions)
        ):
            raise ValueError("stored TIDs are not a permutation of 0..n-1")
        if self._entry_offsets[0] != 0 or self._entry_offsets[-1] != len(db):
            raise ValueError("entry offsets do not span the database")
        if np.any(np.diff(self._entry_offsets) <= 0):
            raise ValueError("empty or negative-size entry found")
        codes = self._scheme.supercoordinates_batch(db)
        for entry in range(self.num_entries_occupied):
            expected = int(self._entry_codes[entry])
            entry_codes = codes[self.entry_tids(entry)]
            bad = np.nonzero(entry_codes != expected)[0]
            if bad.size:
                tid = int(self.entry_tids(entry)[bad[0]])
                raise ValueError(
                    f"tid {tid} stored under supercoordinate {expected} but "
                    f"maps to {int(entry_codes[bad[0]])}"
                )
        return True

    def memory_bytes(self, dense: bool = True) -> int:
        """Estimated main-memory footprint of the directory.

        With ``dense=True`` (default) this is the paper's accounting: a
        ``2^K`` directory of 8-byte page pointers — the constraint that
        forces ``K`` to fit in memory.  With ``dense=False`` it is the
        footprint of this sparse implementation (codes, offsets and bit
        rows for occupied entries only).
        """
        if dense:
            return 8 * self.num_entries_total
        return int(
            self._entry_codes.nbytes
            + self._entry_offsets.nbytes
            + self._bits_matrix.nbytes
        )

    def stats(self) -> TableStats:
        """Occupancy statistics (used by the memory-availability ablation)."""
        sizes = self.entry_sizes
        bit_counts = self._bits_matrix.sum(axis=1)
        weights = sizes / max(self._num_transactions, 1)
        return TableStats(
            num_entries_total=self.num_entries_total,
            num_entries_occupied=self.num_entries_occupied,
            num_transactions=self._num_transactions,
            max_entry_size=int(sizes.max()) if sizes.size else 0,
            avg_entry_size=float(sizes.mean()) if sizes.size else 0.0,
            avg_active_bits=float((bit_counts * weights).sum()),
        )

    def __repr__(self) -> str:
        return (
            f"SignatureTable(K={self._scheme.num_signatures}, "
            f"r={self._scheme.activation_threshold}, "
            f"occupied={self.num_entries_occupied}/{self.num_entries_total}, "
            f"n={self._num_transactions})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise the table (including its scheme, and the sketch
        column when one is attached) to ``.npz``."""
        extra = {}
        if self._sketch is not None:
            sketch = self._sketch
            extra = dict(
                sketch_signatures=sketch.signatures,
                sketch_num_bands=np.int64(sketch.bands.num_bands),
                sketch_rows_per_band=np.int64(sketch.bands.rows_per_band),
                sketch_seed=np.uint64(sketch.hasher.seed),
                sketch_universe_size=np.int64(sketch.hasher.universe_size),
                sketch_design_similarity=np.float64(sketch.design_similarity),
            )
        np.savez_compressed(
            path,
            format_version=np.int64(TABLE_FORMAT_VERSION),
            entry_codes=self._entry_codes,
            entry_offsets=self._entry_offsets,
            ordered_tids=self._ordered_tids,
            num_transactions=np.int64(self._num_transactions),
            page_size=np.int64(self.store.page_size),
            item_to_signature=self._scheme.item_signature,
            universe_size=np.int64(self._scheme.universe_size),
            activation_threshold=np.int64(self._scheme.activation_threshold),
            num_signatures=np.int64(self._scheme.num_signatures),
            **extra,
        )

    @classmethod
    def load(cls, path) -> "SignatureTable":
        """Load a table previously stored with :meth:`save`.

        Files written before versioning (no ``format_version`` key) load
        as version 0; files from an unknown (future) version raise
        :class:`ValueError` naming both versions.
        """
        with np.load(path) as data:
            version = (
                int(data["format_version"]) if "format_version" in data else 0
            )
            if version > TABLE_FORMAT_VERSION:
                raise ValueError(
                    f"table file has format_version {version}, but this build "
                    f"reads at most {TABLE_FORMAT_VERSION}; upgrade the library "
                    f"or rebuild the table"
                )
            mapping = data["item_to_signature"]
            k = int(data["num_signatures"])
            signatures: list = [[] for _ in range(k)]
            for item, sig in enumerate(mapping):
                signatures[int(sig)].append(item)
            scheme = SignatureScheme(
                signatures,
                universe_size=int(data["universe_size"]),
                activation_threshold=int(data["activation_threshold"]),
            )
            table = cls(
                scheme=scheme,
                entry_codes=data["entry_codes"],
                entry_offsets=data["entry_offsets"],
                ordered_tids=data["ordered_tids"],
                num_transactions=int(data["num_transactions"]),
                page_size=int(data["page_size"]),
            )
            if "sketch_signatures" in data:
                # The band buckets are derived state — rebuilt here, never
                # serialised.  Local import: repro.sketch depends on obs,
                # not on core, so there is no cycle, but the table module
                # itself must stay importable without the sketch package
                # loaded (kernels import the table at startup).
                from repro.sketch import SketchIndex

                table.attach_sketch(
                    SketchIndex.from_arrays(
                        signatures=data["sketch_signatures"],
                        universe_size=int(data["sketch_universe_size"]),
                        num_bands=int(data["sketch_num_bands"]),
                        rows_per_band=int(data["sketch_rows_per_band"]),
                        seed=int(data["sketch_seed"]),
                        design_similarity=float(data["sketch_design_similarity"]),
                    )
                )
            return table
