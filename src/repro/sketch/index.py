"""The sketch candidate tier: signatures + bands behind one handle.

A :class:`SketchIndex` bundles the :class:`~repro.sketch.signer.SuperMinHasher`
that produced a signature matrix with the :class:`~repro.sketch.bands.BandIndex`
built over it, plus the *design similarity* the band budget is calibrated
against.  The query engine talks only to this object: ``probe`` turns a
target transaction and a ``target_recall`` into a candidate tid set, and
``estimate_result_recall`` converts a finished result list back into the
estimated-recall figure reported on ``SearchStats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.data.transaction import TransactionDatabase
from repro.obs.trace import span
from repro.sketch.bands import BandIndex, bands_for_recall, collision_probability
from repro.sketch.signer import SuperMinHasher

__all__ = [
    "DEFAULT_TARGET_RECALL",
    "SketchIndex",
    "SketchProbe",
    "calibrate_design_similarity",
]

#: Recall target assumed when the caller picks the lsh tier without one.
DEFAULT_TARGET_RECALL = 0.9

_MIN_DESIGN_SIMILARITY = 0.1
_MAX_DESIGN_SIMILARITY = 0.9


def calibrate_design_similarity(
    signatures: np.ndarray, sample: int = 64, quantile: float = 0.25
) -> float:
    """Skew-aware design-similarity calibration.

    Samples up to ``sample`` evenly spaced rows, estimates each sample's
    best sketch-Jaccard against the rest of the matrix, and returns a low
    quantile of those nearest-neighbour similarities.  Under Zipf-skewed
    universes near neighbours are more similar, the quantile comes out
    higher, and fewer bands need probing for the same recall target —
    this is where the skew-aware band budget comes from.
    """
    n = int(signatures.shape[0])
    if n < 2:
        return 0.5
    idx = np.unique(np.linspace(0, n - 1, min(int(sample), n)).astype(np.int64))
    best = np.empty(idx.size, dtype=np.float64)
    for pos, row in enumerate(idx):
        agree = (signatures == signatures[row]).mean(axis=1)
        agree[row] = -1.0
        best[pos] = agree.max()
    value = float(np.quantile(best, quantile))
    return min(max(value, _MIN_DESIGN_SIMILARITY), _MAX_DESIGN_SIMILARITY)


@dataclass(frozen=True)
class SketchProbe:
    """Outcome of one LSH probe: the candidate tids plus the band budget
    and S-curve recall estimate that produced them."""

    candidates: np.ndarray
    bands_probed: int
    target_recall: float
    expected_recall: float
    signature: np.ndarray

    def mask(self, num_transactions: int) -> np.ndarray:
        """Boolean candidate mask over ``num_transactions`` tids."""
        mask = np.zeros(num_transactions, dtype=bool)
        if self.candidates.size:
            mask[self.candidates] = True
        return mask


class SketchIndex:
    """SuperMinHash signatures + LSH bands over one transaction database.

    Build with :meth:`build` (signs the database) or :meth:`from_arrays`
    (rehydrates a persisted signature matrix; bands are rebuilt — they are
    derived state, never serialised).
    """

    def __init__(
        self,
        hasher: SuperMinHasher,
        signatures: np.ndarray,
        num_bands: int = 32,
        rows_per_band: int = 2,
        design_similarity: float = 0.5,
    ) -> None:
        signatures = np.ascontiguousarray(signatures, dtype=np.uint32)
        if signatures.ndim != 2 or signatures.shape[1] != hasher.num_hashes:
            raise ValueError(
                f"signatures of shape (n, {hasher.num_hashes}) required, "
                f"got {signatures.shape}"
            )
        if not 0.0 < design_similarity < 1.0:
            raise ValueError(
                f"design_similarity must be in (0, 1), got {design_similarity}"
            )
        self.hasher = hasher
        self.signatures = signatures
        self.design_similarity = float(design_similarity)
        self.bands = BandIndex(signatures, num_bands, rows_per_band)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        db: TransactionDatabase,
        num_hashes: int = 128,
        num_bands: int = 32,
        rows_per_band: int = 2,
        seed: int = 0,
        design_similarity: Optional[float] = None,
    ) -> "SketchIndex":
        """Sign ``db`` and build the band index over it.

        ``design_similarity=None`` calibrates it from the signed data
        (see :func:`calibrate_design_similarity`).
        """
        hasher = SuperMinHasher(num_hashes, db.universe_size, seed)
        with span("sketch.sign", transactions=len(db), num_hashes=num_hashes):
            signatures = hasher.sign_batch(db)
        if design_similarity is None:
            design_similarity = calibrate_design_similarity(signatures)
        return cls(hasher, signatures, num_bands, rows_per_band, design_similarity)

    @classmethod
    def from_arrays(
        cls,
        signatures: np.ndarray,
        universe_size: int,
        num_bands: int,
        rows_per_band: int,
        seed: int,
        design_similarity: float,
    ) -> "SketchIndex":
        """Rehydrate from persisted arrays (band buckets are rebuilt)."""
        hasher = SuperMinHasher(int(signatures.shape[1]), universe_size, seed)
        return cls(hasher, signatures, num_bands, rows_per_band, design_similarity)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    @property
    def num_transactions(self) -> int:
        """Number of signed transactions (rows of the signature matrix)."""
        return int(self.signatures.shape[0])

    def probe(
        self,
        target: Union[Sequence[int], np.ndarray],
        target_recall: Optional[float] = None,
        signature: Optional[np.ndarray] = None,
    ) -> SketchProbe:
        """Probe the band index for ``target``.

        ``target_recall`` selects how many bands to probe via the S-curve
        at the design similarity; ``None`` uses
        :data:`DEFAULT_TARGET_RECALL`.  ``signature`` is the target's
        ``hasher.sign`` when the caller already holds it (see
        :meth:`probe_batch`).
        """
        recall = DEFAULT_TARGET_RECALL if target_recall is None else float(target_recall)
        if signature is None:
            signature = self.hasher.sign(target)
        bands = bands_for_recall(
            recall,
            self.design_similarity,
            self.bands.num_bands,
            self.bands.rows_per_band,
        )
        with span(
            "sketch.probe", bands=bands, target_recall=recall
        ):
            candidates = self.bands.candidates(signature, bands)
        expected = collision_probability(
            self.design_similarity, bands, self.bands.rows_per_band
        )
        return SketchProbe(
            candidates=candidates,
            bands_probed=bands,
            target_recall=recall,
            expected_recall=expected,
            signature=signature,
        )

    def probe_batch(
        self,
        targets: Sequence[Union[Sequence[int], np.ndarray]],
        target_recall: Optional[float] = None,
    ) -> List[SketchProbe]:
        """:meth:`probe` for every target, signing the batch in one pass."""
        signatures = self.hasher.sign_batch(targets)
        return [
            self.probe(target, target_recall, signature=signatures[q])
            for q, target in enumerate(targets)
        ]

    def estimate_result_recall(
        self, probe: SketchProbe, kth_tid: Optional[int] = None
    ) -> float:
        """Estimated recall of a finished query.

        For knn results, the sketch-Jaccard between the query and its
        weakest returned neighbour sharpens the S-curve estimate (a
        harder k-th neighbour cannot be *less* likely to collide than the
        design point).  Calibrated for Jaccard-like similarities; for
        other similarity functions this is a heuristic and
        ``guaranteed_optimal`` stays ``False`` regardless.
        """
        similarity = self.design_similarity
        if kth_tid is not None and 0 <= kth_tid < self.num_transactions:
            estimated = SuperMinHasher.estimate_jaccard(
                probe.signature, self.signatures[kth_tid]
            )
            similarity = max(similarity, estimated)
        return collision_probability(
            similarity, probe.bands_probed, self.bands.rows_per_band
        )
