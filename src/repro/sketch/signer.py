"""Vectorised SuperMinHash-style transaction signatures.

The signer implements *one-permutation hashing with rotation
densification* (Li/Owen/Zhang OPH + Shrivastava & Li densification, the
numpy-friendly cousin of Ertl's SuperMinHash): every item receives a
single 64-bit mixed hash that selects a signature bin and a 32-bit slot
value, a whole database is signed with one ``np.minimum.at`` scatter
over its CSR arrays, and empty bins borrow the nearest populated bin to
their right (cyclically) so the collision estimator stays unbiased even
for transactions much smaller than the signature width.

Determinism is part of the contract: signatures depend only on
``(num_hashes, universe_size, seed)`` — never on Python's randomised
``hash()`` or process state — so signatures computed during WAL replay,
on another shard, or in another process are byte-identical.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.data.transaction import TransactionDatabase, as_item_array
from repro.utils.validation import check_positive

__all__ = ["SuperMinHasher", "SIGNATURE_SENTINEL"]

#: Slot value marking a signature bin that no item hashed into.  Slot
#: values are folded modulo ``2**32 - 1`` so a real value can never
#: collide with the sentinel.
SIGNATURE_SENTINEL = np.uint32(0xFFFFFFFF)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_VALUE_MODULUS = np.uint64(0xFFFFFFFF)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Finalising 64-bit mix (splitmix64); vectorised over uint64 arrays.

    Multiplications wrap modulo 2**64 by design — the errstate guard
    silences numpy's scalar-overflow warning for that intended wraparound.
    """
    with np.errstate(over="ignore"):
        z = (x + _GOLDEN).astype(np.uint64, copy=False)
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return z ^ (z >> np.uint64(31))


def _densify_rows(signatures: np.ndarray) -> np.ndarray:
    """Fill empty bins by rotation: each hole copies its nearest populated
    neighbour to the right (cyclically).  All-sentinel rows (empty
    transactions) are left untouched.  Operates in place and returns the
    array."""
    holes = signatures == SIGNATURE_SENTINEL
    target = holes.any(axis=1) & ~holes.all(axis=1)
    if not target.any():
        return signatures
    rows = np.nonzero(target)[0]
    work = signatures[rows]
    for _ in range(work.shape[1]):
        empty = work == SIGNATURE_SENTINEL
        if not empty.any():
            break
        donor = np.roll(work, -1, axis=1)
        fill = empty & (donor != SIGNATURE_SENTINEL)
        work[fill] = donor[fill]
    signatures[rows] = work
    return signatures


class SuperMinHasher:
    """Deterministic one-permutation MinHash signer over an item universe.

    Parameters
    ----------
    num_hashes:
        Signature width ``H`` (number of bins / slots per transaction).
    universe_size:
        Number of items ``|U|``; items must lie in ``[0, universe_size)``.
    seed:
        Seed folded into every item hash.  Two hashers constructed with
        equal parameters produce byte-identical signatures in any
        process.
    """

    def __init__(self, num_hashes: int, universe_size: int, seed: int = 0) -> None:
        check_positive(num_hashes, "num_hashes")
        check_positive(universe_size, "universe_size")
        self.num_hashes = int(num_hashes)
        self.universe_size = int(universe_size)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        items = np.arange(self.universe_size, dtype=np.uint64)
        base = _splitmix64(items ^ _splitmix64(np.uint64(self.seed) + np.uint64(1)))
        self._bins = (base % np.uint64(self.num_hashes)).astype(np.int64)
        values = _splitmix64(base ^ _splitmix64(np.uint64(self.seed) + np.uint64(2)))
        self._values = (values % _VALUE_MODULUS).astype(np.uint32)

    # ------------------------------------------------------------------
    # Signing
    # ------------------------------------------------------------------
    def sign(self, transaction: Union[Sequence[int], np.ndarray]) -> np.ndarray:
        """Signature of a single transaction as a ``(num_hashes,)`` uint32
        array.  An empty transaction signs to all-sentinel."""
        items = as_item_array(transaction, self.universe_size)
        signature = np.full(self.num_hashes, SIGNATURE_SENTINEL, dtype=np.uint32)
        if items.size:
            np.minimum.at(signature, self._bins[items], self._values[items])
            _densify_rows(signature[np.newaxis, :])
        return signature

    def sign_batch(
        self,
        transactions: Union[TransactionDatabase, Sequence[Sequence[int]]],
    ) -> np.ndarray:
        """Sign a database, or a sequence of transactions, in one
        vectorised pass.

        Returns a ``(len(transactions), num_hashes)`` uint32 array whose
        row ``t`` equals ``self.sign(transactions[t])``.
        """
        if isinstance(transactions, TransactionDatabase):
            if transactions.universe_size > self.universe_size:
                raise ValueError(
                    f"database universe {transactions.universe_size} exceeds "
                    f"hasher universe {self.universe_size}"
                )
            items, indptr = transactions.csr()
            sizes = np.diff(indptr)
        else:
            arrays = [as_item_array(t, self.universe_size) for t in transactions]
            sizes = np.fromiter(
                (a.size for a in arrays), dtype=np.int64, count=len(arrays)
            )
            items = (
                np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
            )
        n = int(sizes.size)
        signatures = np.full((n, self.num_hashes), SIGNATURE_SENTINEL, dtype=np.uint32)
        if items.size:
            rows = np.repeat(np.arange(n, dtype=np.int64), sizes)
            flat = rows * self.num_hashes + self._bins[items]
            np.minimum.at(signatures.reshape(-1), flat, self._values[items])
        return _densify_rows(signatures)

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    @staticmethod
    def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
        """Estimate the Jaccard coefficient of the two signed sets as the
        fraction of agreeing signature slots."""
        a = np.asarray(sig_a)
        b = np.asarray(sig_b)
        if a.shape != b.shape:
            raise ValueError(f"signature shapes differ: {a.shape} vs {b.shape}")
        return float(np.mean(a == b))
