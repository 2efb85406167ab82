"""Batch-execution adapter from the query service to a live index.

The TCP service's micro-batcher (:mod:`repro.service.batcher`) needs
only one engine hook — ``run_batch(key, similarity, targets)`` — so a
:class:`LiveQueryEngine` wrapping a :class:`~repro.live.index.LiveIndex`
drops into :class:`~repro.service.server.QueryServer` exactly where a
frozen :class:`~repro.core.engine.QueryEngine` would.  A coalesced batch
is one :meth:`LiveIndex.knn_batch <repro.live.index.LiveIndex.knn_batch>`
/ ``range_query_batch`` call: one snapshot of the live state and one
packed engine call for the whole batch, so a batch interleaved with
inserts observes each mutation entirely or not at all.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.core.engine import BatchKey, similarity_key
from repro.core.search import Neighbor, SearchStats
from repro.core.similarity import SimilarityFunction
from repro.live.index import LiveIndex


class LiveQueryEngine:
    """Serve coalesced service batches from a :class:`LiveIndex`."""

    def __init__(self, index: LiveIndex) -> None:
        self.index = index

    def describe(self) -> dict:
        """JSON-safe description for the service ``stats`` endpoint."""
        return self.index.describe()

    @property
    def universe_size(self) -> int:
        """Targets may name items in ``[0, universe_size)`` only."""
        return self.index.scheme.universe_size

    @property
    def supports_lsh_tier(self) -> bool:
        """Whether ``candidate_tier="lsh"`` batches can run here."""
        return self.index.sketch_enabled

    def bind_metrics(self, registry) -> None:
        """Account kernel fallbacks in ``registry``, as the frozen engine
        does; the binding survives compactions."""
        self.index.bind_engine_metrics(registry)

    def run_batch(
        self,
        key: BatchKey,
        similarity: SimilarityFunction,
        targets: Sequence[Iterable[int]],
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Execute one coalesced batch against the live index.

        Matches the :meth:`QueryEngine.run_batch
        <repro.core.engine.QueryEngine.run_batch>` contract.
        """
        if similarity_key(similarity) != key.similarity:
            raise ValueError(
                f"similarity {similarity_key(similarity)!r} does not match "
                f"batch key {key.similarity!r}"
            )
        if key.op == "knn":
            return self.index.knn_batch(
                targets,
                similarity,
                k=key.k,
                early_termination=key.early_termination,
                guarantee_tolerance=key.guarantee_tolerance,
                candidate_tier=key.candidate_tier,
                target_recall=key.target_recall,
            )
        return self.index.range_query_batch(
            targets,
            similarity,
            key.threshold,
            candidate_tier=key.candidate_tier,
            target_recall=key.target_recall,
        )
