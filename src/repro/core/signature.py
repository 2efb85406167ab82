"""Signatures, activation and supercoordinates (Section 3).

A *signature* is a set of items; the item universe is partitioned into
``K`` signatures ``{S_1, ..., S_K}`` (``K`` is the *signature cardinality*).
A transaction ``T`` *activates* signature ``S_j`` at level ``r`` (the
*activation threshold*) iff ``|S_j ∩ T| >= r``.  The K activation bits form
the transaction's *supercoordinate*, a point of ``{0, 1}^K``; every
transaction maps to exactly one supercoordinate, and the signature table
holds one entry per supercoordinate.

:class:`SignatureScheme` encapsulates a partition plus the activation
threshold, and provides both per-transaction and vectorised whole-database
activation/supercoordinate computation.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.data.transaction import TransactionDatabase, as_item_array
from repro.utils.validation import check_positive


class SignatureScheme:
    """A partition of the item universe into signatures, plus the threshold.

    Parameters
    ----------
    signatures:
        Sequence of item collections.  They must be pairwise disjoint and
        together cover the whole universe ``{0, ..., universe_size - 1}``
        (signatures *partition* the universe, Section 3).
    universe_size:
        Size of the item universe.
    activation_threshold:
        The level ``r`` at which a signature is activated (paper default 1;
        its footnote 4 notes larger ``r`` helps for long transactions).

    Raises
    ------
    ValueError
        If the signatures do not form a partition of the universe.
    """

    def __init__(
        self,
        signatures: Sequence[Iterable[int]],
        universe_size: int,
        activation_threshold: int = 1,
    ) -> None:
        check_positive(universe_size, "universe_size")
        check_positive(activation_threshold, "activation_threshold")
        sig_sets = [frozenset(int(i) for i in sig) for sig in signatures]
        if any(len(sig) == 0 for sig in sig_sets):
            raise ValueError("signatures must be non-empty")
        item_to_signature = np.full(universe_size, -1, dtype=np.int32)
        for index, sig in enumerate(sig_sets):
            for item in sig:
                if not 0 <= item < universe_size:
                    raise ValueError(
                        f"item {item} outside universe [0, {universe_size})"
                    )
                if item_to_signature[item] != -1:
                    raise ValueError(
                        f"item {item} appears in signatures "
                        f"{item_to_signature[item]} and {index}; signatures "
                        "must be disjoint"
                    )
                item_to_signature[item] = index
        uncovered = np.nonzero(item_to_signature == -1)[0]
        if uncovered.size:
            raise ValueError(
                f"{uncovered.size} items are not covered by any signature "
                f"(first few: {uncovered[:5].tolist()}); signatures must "
                "partition the universe"
            )
        self._signatures: List[frozenset] = sig_sets
        self._item_to_signature = item_to_signature
        self._universe_size = int(universe_size)
        self._activation_threshold = int(activation_threshold)
        self._packed_masks: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def num_signatures(self) -> int:
        """The signature cardinality ``K``."""
        return len(self._signatures)

    @property
    def activation_threshold(self) -> int:
        """The activation level ``r``."""
        return self._activation_threshold

    @property
    def universe_size(self) -> int:
        return self._universe_size

    @property
    def signatures(self) -> List[frozenset]:
        """The signatures as frozensets (copy of the list)."""
        return list(self._signatures)

    @property
    def item_signature(self) -> np.ndarray:
        """Per-item signature index (read-only view)."""
        view = self._item_to_signature.view()
        view.flags.writeable = False
        return view

    @property
    def num_supercoordinates(self) -> int:
        """Number of possible supercoordinates, ``2**K``."""
        return 1 << self.num_signatures

    def signature_of(self, item: int) -> int:
        """Signature index of an item."""
        if not 0 <= item < self._universe_size:
            raise IndexError(f"item {item} outside universe")
        return int(self._item_to_signature[item])

    def with_activation_threshold(self, r: int) -> "SignatureScheme":
        """Return the same partition with a different activation level."""
        scheme = SignatureScheme.__new__(SignatureScheme)
        check_positive(r, "activation_threshold")
        scheme._signatures = self._signatures
        scheme._item_to_signature = self._item_to_signature
        scheme._universe_size = self._universe_size
        scheme._activation_threshold = int(r)
        scheme._packed_masks = self._packed_masks
        return scheme

    def packed_masks(self) -> np.ndarray:
        """Per-signature item bitsets, shape ``(K, words)`` (cached).

        The query-independent operand of the packed activation-count
        kernel (:func:`repro.core.kernels.signature_masks`), built
        lazily on first use and cached like
        :meth:`TransactionDatabase.packed_rows`.
        """
        if self._packed_masks is None:
            from repro.core import kernels

            self._packed_masks = kernels.signature_masks(self)
        view = self._packed_masks.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Activation / supercoordinates
    # ------------------------------------------------------------------
    def activation_counts(self, transaction: Iterable[int]) -> np.ndarray:
        """Return ``r_j = |S_j ∩ T|`` for each signature ``j``.

        These counts drive both the supercoordinate and the optimistic
        bounds of Section 4.1.
        """
        items = as_item_array(transaction, self._universe_size)
        return np.bincount(
            self._item_to_signature[items], minlength=self.num_signatures
        ).astype(np.int64)

    def activates(self, transaction: Iterable[int], signature_index: int) -> bool:
        """Whether the transaction activates signature ``signature_index``."""
        counts = self.activation_counts(transaction)
        if not 0 <= signature_index < self.num_signatures:
            raise IndexError(f"signature index {signature_index} out of range")
        return bool(counts[signature_index] >= self._activation_threshold)

    def supercoordinate_bits(self, transaction: Iterable[int]) -> np.ndarray:
        """Return the supercoordinate as a boolean vector of length ``K``."""
        return self.activation_counts(transaction) >= self._activation_threshold

    def supercoordinate(self, transaction: Iterable[int]) -> int:
        """Return the supercoordinate packed into an integer bitmask.

        Bit ``j`` corresponds to signature ``S_j``.
        """
        bits = self.supercoordinate_bits(transaction)
        return int(bits @ (1 << np.arange(self.num_signatures, dtype=np.int64)))

    def activation_counts_batch(self, db: TransactionDatabase) -> np.ndarray:
        """Return the ``(len(db), K)`` matrix of activation counts.

        Vectorised over the whole database via the CSR arrays; the cost is
        linear in the total number of (transaction, item) incidences.
        """
        items, indptr = db.csr()
        if db.universe_size > self._universe_size:
            raise ValueError(
                f"database universe ({db.universe_size}) exceeds the "
                f"scheme's universe ({self._universe_size})"
            )
        n = len(db)
        k = self.num_signatures
        sig_ids = self._item_to_signature[items].astype(np.int64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        flat = np.bincount(rows * k + sig_ids, minlength=n * k)
        return flat.reshape(n, k)

    def supercoordinates_batch(self, db: TransactionDatabase) -> np.ndarray:
        """Return the packed supercoordinate of every transaction."""
        bits = self.activation_counts_batch(db) >= self._activation_threshold
        powers = 1 << np.arange(self.num_signatures, dtype=np.int64)
        return bits @ powers

    # ------------------------------------------------------------------
    def masses(self, item_supports: np.ndarray) -> np.ndarray:
        """Per-signature mass: sum of member item supports (Section 3.1)."""
        supports = np.asarray(item_supports, dtype=np.float64)
        if supports.shape != (self._universe_size,):
            raise ValueError(
                f"item_supports must have shape ({self._universe_size},), "
                f"got {supports.shape}"
            )
        return np.bincount(
            self._item_to_signature,
            weights=supports,
            minlength=self.num_signatures,
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SignatureScheme):
            return NotImplemented
        return (
            self._universe_size == other._universe_size
            and self._activation_threshold == other._activation_threshold
            and self._signatures == other._signatures
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash suffices
        return id(self)

    def __repr__(self) -> str:
        sizes = sorted(len(s) for s in self._signatures)
        return (
            f"SignatureScheme(K={self.num_signatures}, "
            f"r={self._activation_threshold}, universe={self._universe_size}, "
            f"signature_sizes={sizes[:8]}{'...' if len(sizes) > 8 else ''})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise the scheme to ``.npz``."""
        np.savez_compressed(
            path,
            item_to_signature=self._item_to_signature,
            universe_size=np.int64(self._universe_size),
            activation_threshold=np.int64(self._activation_threshold),
            num_signatures=np.int64(self.num_signatures),
        )

    @classmethod
    def load(cls, path) -> "SignatureScheme":
        """Load a scheme previously stored with :meth:`save`."""
        with np.load(path) as data:
            mapping = data["item_to_signature"]
            k = int(data["num_signatures"])
            signatures: List[List[int]] = [[] for _ in range(k)]
            for item, sig in enumerate(mapping):
                signatures[int(sig)].append(item)
            return cls(
                signatures,
                universe_size=int(data["universe_size"]),
                activation_threshold=int(data["activation_threshold"]),
            )
