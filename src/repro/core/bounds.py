"""Optimistic bounds on match count and hamming distance (Section 4.1).

For a target transaction ``T`` with per-signature activation counts
``r_j = |S_j ∩ T|``, and a signature table entry with supercoordinate bits
``b_1 .. b_K`` (activation threshold ``r``), every transaction ``X``
indexed by the entry satisfies:

* ``b_j = 0`` implies ``|S_j ∩ X| <= r - 1``, hence within ``S_j``
  at most ``min(r - 1, r_j)`` matches and at least
  ``max(0, r_j - r + 1)`` mismatches;
* ``b_j = 1`` implies ``|S_j ∩ X| >= r``, hence within ``S_j``
  at most ``r_j`` matches and at least ``max(0, r - r_j)`` mismatches.

Summing over the K signatures (they partition the universe) gives an upper
bound ``M_opt`` on the matches and a lower bound ``D_opt`` on the hamming
distance; Lemma 2.1 then makes ``f(M_opt, D_opt)`` an upper bound on the
similarity of the target to *any* transaction in the entry — the quantity
the branch-and-bound search sorts and prunes with.

The lemma holds for any summary of an entry's rows: with the OR ``U_e``
and AND ``I_e`` of entry ``e``'s rows and their length range, every row has
``x <= m = min(M_opt, |X∩U_e|, Lmax_e)`` and ``y >= d = max(D_opt,
|X|-|X∩U_e| + |I_e|-|X∩I_e|, Lmin_e+|X|-2m)``, so ``f(m, d)``, the
*summary bound* (:class:`EntrySummary`), is never looser than the paper's.

:func:`optimistic_matches` / :func:`optimistic_distance` are the scalar
reference forms (used directly in tests); :class:`BatchBoundCalculator`
evaluates them for *all* occupied entries and a whole batch of targets at
once as two matrix products, since ``bound(e) = Σ_j base_j + b_ej ·
(alt_j - base_j)``, and tightens them with an optional summary.  A single
query is a batch of one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.data.transaction import TransactionDatabase

#: Incidences one item range of :meth:`EntrySummary.build` handles at once.
_BUILD_CHUNK = 1 << 16


def optimistic_matches(
    activation_counts: np.ndarray, bits: np.ndarray, activation_threshold: int
) -> int:
    """Upper bound ``M_opt`` on matches (scalar reference implementation).

    Parameters
    ----------
    activation_counts:
        The target's ``r_j`` vector.
    bits:
        The entry's supercoordinate as a boolean vector.
    activation_threshold:
        The table's activation level ``r``.
    """
    r_vec = np.asarray(activation_counts, dtype=np.int64)
    b = np.asarray(bits, dtype=bool)
    r = int(activation_threshold)
    inactive = np.minimum(r - 1, r_vec)
    return int(np.where(b, r_vec, inactive).sum())


def optimistic_distance(
    activation_counts: np.ndarray, bits: np.ndarray, activation_threshold: int
) -> int:
    """Lower bound ``D_opt`` on hamming distance (scalar reference)."""
    r_vec = np.asarray(activation_counts, dtype=np.int64)
    b = np.asarray(bits, dtype=bool)
    r = int(activation_threshold)
    when_inactive = np.maximum(0, r_vec - r + 1)
    when_active = np.maximum(0, r - r_vec)
    return int(np.where(b, when_active, when_inactive).sum())


class EntrySummary:
    """Per-entry summary of a table's rows: item -> entry postings (CSR
    over the universe) of each entry's OR ``U_e`` and AND ``I_e`` of
    items, ``|I_e|``, and its shortest and longest row lengths.  Entry ids
    are ``uint16`` when they fit."""

    def __init__(self, union_indptr, union_entries, inter_indptr,
                 inter_entries, min_lengths, max_lengths) -> None:
        self.union_indptr, self.union_entries = union_indptr, union_entries
        self.inter_indptr, self.inter_entries = inter_indptr, inter_entries
        self.min_lengths, self.max_lengths = min_lengths, max_lengths
        self.inter_sizes = np.bincount(inter_entries, minlength=min_lengths.size)

    @classmethod
    def build(cls, table, db: TransactionDatabase) -> "EntrySummary":
        """Summarise ``table``'s entries over ``db``, one item range at a
        time, from the CSR and the table's tid -> entry map alone."""
        num_entries, sizes = table.num_entries_occupied, table.entry_sizes
        dtype = np.uint16 if num_entries <= 0xFFFF else np.int32
        items, _ = db.csr()
        entry_ids = np.arange(num_entries, dtype=dtype).repeat(sizes)
        row_entries = np.empty(len(db), dtype=dtype)  # narrow tid_entries
        row_entries[table.ordered_tids] = entry_ids
        row_entries = np.repeat(row_entries, db.sizes)
        edges = np.linspace(0, db.universe_size, 2 + items.size // _BUILD_CHUNK)
        counts, postings = ([], []), ([], [])
        for low, high in zip(edges[:-1].astype(int), edges[1:].astype(int)):
            chosen = (items >= low) & (items < high)
            keys = (items[chosen] - low) * num_entries + row_entries[chosen]
            keys, rows = np.unique(keys, return_counts=True)
            entries = keys % num_entries
            for part, pick in enumerate((slice(None), rows == sizes[entries])):
                counts[part].append(
                    np.bincount(keys[pick] // num_entries, minlength=high - low)
                )
                postings[part].append(entries[pick].astype(dtype))
        arrays = []
        for part in (0, 1):
            arrays.append(np.append(0, np.cumsum(np.concatenate(counts[part]))))
            arrays.append(np.concatenate(postings[part]))
        lengths, starts = db.sizes[table.ordered_tids], table.entry_offsets[:-1]
        return cls(*arrays, np.minimum.reduceat(lengths, starts),
                   np.maximum.reduceat(lengths, starts))

    @property
    def nbytes(self) -> int:
        """Resident bytes of the summary's arrays."""
        return sum(int(a.nbytes) for a in vars(self).values())

    def tighten(self, target: np.ndarray, m_opt: np.ndarray,
                d_opt: np.ndarray) -> None:
        """Turn one target's paper bounds ``(M_opt, D_opt)`` (float arrays
        over the entries) into the summary bound's ``(m, d)``, in place.
        ``target`` is the sorted, duplicate-free item array ``X``."""

        def hits(indptr, entries):  # |X ∩ set_e| for every entry e
            walk = [entries[indptr[i]:indptr[i + 1]] for i in target.tolist()]
            return np.bincount(np.concatenate(walk or [entries[:0]]),
                               minlength=self.min_lengths.size)

        in_union = hits(self.union_indptr, self.union_entries)
        in_inter = hits(self.inter_indptr, self.inter_entries)
        np.minimum(m_opt, in_union, out=m_opt)
        np.minimum(m_opt, self.max_lengths, out=m_opt)
        np.maximum(d_opt, target.size - in_union + self.inter_sizes - in_inter,
                   out=d_opt)
        np.maximum(d_opt, self.min_lengths + target.size - 2 * m_opt, out=d_opt)


class BatchBoundCalculator:
    """Optimistic bounds for a *batch* of targets in one pass.

    From each target's activation counts it precomputes the per-signature
    contributions for bit = 0 and bit = 1, stacked into ``(Q, K)``
    matrices, so the bounds for the whole batch become two
    ``(Q, K) @ (K, E)`` products yielding ``(num_queries, num_entries)``
    matrices — the amortised bound pass of the batched query engine.

    Every intermediate quantity is an integer-valued float (sums of
    activation counts), so row ``q`` is *bit-identical* to the batch of
    target ``q`` alone and to :func:`optimistic_matches` /
    :func:`optimistic_distance`: float addition of integers below 2**53 is
    exact in any summation order.

    Parameters
    ----------
    scheme:
        The signature scheme shared by all queries.
    targets:
        One item array per query (already normalised, e.g. via
        :func:`~repro.data.transaction.as_item_array`).
    activation_counts:
        Optional precomputed ``(Q, K)`` activation-count matrix for the
        targets (e.g. from the packed popcount kernels in
        :mod:`repro.core.kernels`).  When given it replaces the
        per-target ``scheme.activation_counts`` loop; counts are integer
        quantities, so any exact producer yields identical bounds.
    """

    def __init__(
        self,
        scheme: SignatureScheme,
        targets: Sequence[Iterable[int]],
        activation_counts: Optional[np.ndarray] = None,
    ) -> None:
        if len(targets) == 0:
            raise ValueError("targets must be non-empty")
        self._scheme = scheme
        r = scheme.activation_threshold
        if activation_counts is not None:
            counts = np.asarray(activation_counts, dtype=np.int64)
            if counts.shape != (len(targets), scheme.num_signatures):
                raise ValueError(
                    f"activation_counts must have shape "
                    f"({len(targets)}, {scheme.num_signatures}), "
                    f"got {counts.shape}"
                )
            counts = counts.astype(np.float64)
        else:
            counts = np.stack(
                [scheme.activation_counts(t) for t in targets]
            ).astype(np.float64)
        self._targets = targets
        self._r_matrix = counts
        self._dist_base = np.maximum(0.0, counts - r + 1)
        dist_active = np.maximum(0.0, r - counts)
        self._dist_delta = dist_active - self._dist_base
        self._dist_base_sum = self._dist_base.sum(axis=1)
        self._match_base = np.minimum(float(r - 1), counts)
        self._match_delta = counts - self._match_base
        self._match_base_sum = self._match_base.sum(axis=1)

    @property
    def num_queries(self) -> int:
        """Number of targets in the batch."""
        return int(self._r_matrix.shape[0])

    def bounds(self, bits_matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(M_opt, D_opt)`` as ``(Q, E)`` matrices."""
        bits = np.asarray(bits_matrix, dtype=np.float64)
        m_opt = self._match_base_sum[:, None] + self._match_delta @ bits.T
        d_opt = self._dist_base_sum[:, None] + self._dist_delta @ bits.T
        return m_opt, d_opt

    def optimistic_similarity(
        self,
        bits_matrix: np.ndarray,
        bound_similarities: Sequence[SimilarityFunction],
        summary: Optional[EntrySummary] = None,
    ) -> np.ndarray:
        """``f_q(M_opt, D_opt)`` as a ``(Q, E)`` matrix — the
        ``FindOptimisticBound`` of the paper's Figure 4, vectorised — or,
        given the table's ``summary``, the summary bounds ``f_q(m, d)``.

        ``bound_similarities`` holds one target-bound function per query
        (queries of different sizes bind differently, so the evaluation is
        applied row by row, in place).
        """
        if len(bound_similarities) != self.num_queries:
            raise ValueError(
                f"expected {self.num_queries} bound similarities, "
                f"got {len(bound_similarities)}"
            )
        m_opt, d_opt = self.bounds(bits_matrix)
        for q, sim in enumerate(bound_similarities):
            if summary is not None:
                summary.tighten(self._targets[q], m_opt[q], d_opt[q])
            m_opt[q] = sim.evaluate(m_opt[q], d_opt[q])
        return m_opt
