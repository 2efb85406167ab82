"""Experiment runners for every figure and table of the paper.

Scale profiles
--------------
The paper evaluates at up to 800 000 transactions.  All runners work at any
scale; the profile (chosen via the ``REPRO_PROFILE`` environment variable)
fixes the sweep sizes:

* ``quick`` (default) — minutes on a laptop: databases of 5 K–40 K
  transactions, 60 queries per point.
* ``paper`` — the paper's scale: 100 K–800 K transactions, 100 queries per
  point.  Same code paths, just bigger sweeps.

Shared state
------------
:class:`ExperimentContext` memoises datasets (in memory and optionally on
disk), signature schemes and signature tables, so that the hamming /
match-ratio / cosine figure families run against the *same physical
tables* — reproducing the paper's demonstration that one index serves any
query-time similarity function ("for a given set of data, exactly the same
signature table was used in order to test all the three similarity
functions").

Queries are held-out transactions drawn from the same generator (the same
consumer-behaviour pattern pool) as the indexed data.

Nothing here starts a server, a live index or a cluster: how fast the
*system* runs is measured by ``bench/run.py`` and recorded in the
``results/BENCH_<n>.json`` trail.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.inverted import InvertedIndex
from repro.baselines.linear_scan import LinearScanIndex
from repro.core.engine import similarity_key
from repro.core.partitioning import (
    balanced_support_partition,
    partition_items,
    random_partition,
)
from repro.core.search import SignatureTableSearcher
from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.generator import MarketBasketGenerator, parse_spec
from repro.data.transaction import TransactionDatabase
from repro.eval.metrics import accuracy_against_truth
from repro.eval.reporting import ExperimentTable

#: Sweep definitions per scale profile.
PROFILES: Dict[str, Dict] = {
    "quick": {
        "db_sizes": [5_000, 10_000, 20_000, 40_000],
        "large_spec": "T10.I6.D40K",
        "txn_size_db": 30_000,
        "ks": [13, 14, 15],
        "default_k": 15,
        "txn_sizes": [5.0, 7.5, 10.0, 12.5, 15.0],
        "termination_levels": [0.002, 0.005, 0.01, 0.02],
        "num_queries": 60,
        "seed": 1999,
    },
    "paper": {
        "db_sizes": [100_000, 200_000, 400_000, 800_000],
        "large_spec": "T10.I6.D800K",
        "txn_size_db": 800_000,
        "ks": [13, 14, 15],
        "default_k": 15,
        "txn_sizes": [5.0, 7.5, 10.0, 12.5, 15.0],
        "termination_levels": [0.002, 0.005, 0.01, 0.02],
        "num_queries": 100,
        "seed": 1999,
    },
}


def active_profile() -> str:
    """The profile selected by ``REPRO_PROFILE`` (default ``quick``)."""
    name = os.environ.get("REPRO_PROFILE", "quick")
    if name not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise ValueError(f"unknown REPRO_PROFILE {name!r}; known: {known}")
    return name


class ExperimentContext:
    """Memoised datasets, schemes, tables and ground truths for experiments.

    Parameters
    ----------
    profile:
        Profile name (defaults to :func:`active_profile`).
    overrides:
        Individual profile fields to replace, e.g.
        ``ExperimentContext("quick", num_queries=20)``.
    """

    def __init__(self, profile: Optional[str] = None, **overrides) -> None:
        self.profile_name = profile or active_profile()
        self.profile = dict(PROFILES[self.profile_name])
        unknown = set(overrides) - set(self.profile)
        if unknown:
            raise ValueError(f"unknown profile overrides: {sorted(unknown)}")
        self.profile.update(overrides)
        self.seed = int(self.profile["seed"])
        self.num_queries = int(self.profile["num_queries"])
        self._databases: Dict[str, Tuple[TransactionDatabase, TransactionDatabase]] = {}
        self._schemes: Dict[Tuple[str, int], SignatureScheme] = {}
        self._tables: Dict[Tuple[str, int, int], SignatureTable] = {}
        self._searchers: Dict[Tuple[str, int, int], SignatureTableSearcher] = {}
        self._scans: Dict[str, LinearScanIndex] = {}
        self._truths: Dict[Tuple[str, str], List[float]] = {}

    # ------------------------------------------------------------------
    def database(self, spec: str) -> Tuple[TransactionDatabase, TransactionDatabase]:
        """Return ``(indexed, holdout_queries)`` for a dataset spec.

        The holdout contains ``num_queries`` extra transactions from the
        same generator, so query targets follow the data distribution.
        """
        if spec not in self._databases:
            config = parse_spec(spec, seed=self.seed)
            generator = MarketBasketGenerator(config)
            indexed = generator.generate()
            holdout = generator.generate(num_transactions=self.num_queries)
            self._databases[spec] = (indexed, holdout)
        return self._databases[spec]

    def scheme(self, spec: str, num_signatures: int) -> SignatureScheme:
        key = (spec, num_signatures)
        if key not in self._schemes:
            indexed, _ = self.database(spec)
            self._schemes[key] = partition_items(
                indexed,
                num_signatures=num_signatures,
                max_transactions=50_000,
                rng=self.seed,
            )
        return self._schemes[key]

    def searcher(
        self, spec: str, num_signatures: int, activation_threshold: int = 1
    ) -> SignatureTableSearcher:
        key = (spec, num_signatures, activation_threshold)
        if key not in self._searchers:
            indexed, _ = self.database(spec)
            scheme = self.scheme(spec, num_signatures)
            if activation_threshold != 1:
                scheme = scheme.with_activation_threshold(activation_threshold)
            table = SignatureTable.build(indexed, scheme)
            self._tables[key] = table
            self._searchers[key] = SignatureTableSearcher(table, indexed)
        return self._searchers[key]

    def scan(self, spec: str) -> LinearScanIndex:
        if spec not in self._scans:
            indexed, _ = self.database(spec)
            self._scans[spec] = LinearScanIndex(indexed)
        return self._scans[spec]

    def queries(self, spec: str) -> List[List[int]]:
        """The query targets (holdout transactions) for a spec."""
        _, holdout = self.database(spec)
        return [sorted(holdout[q]) for q in range(len(holdout))]

    def truths(self, spec: str, similarity: SimilarityFunction) -> List[float]:
        """Ground-truth optimal similarity per query (linear scan)."""
        key = (spec, similarity_key(similarity))
        if key not in self._truths:
            scan = self.scan(spec)
            self._truths[key] = [
                scan.best_similarity(target, similarity)
                for target in self.queries(spec)
            ]
        return self._truths[key]

    def notes(self, extra: Sequence[str] = ()) -> List[str]:
        base = [
            f"profile={self.profile_name}",
            f"seed={self.seed}",
            f"queries_per_point={self.num_queries}",
        ]
        return base + list(extra)


# ----------------------------------------------------------------------
# Figure families (Figs 6-14)
# ----------------------------------------------------------------------
def run_pruning_vs_db_size(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    base: str = "T10.I6",
    db_sizes: Optional[Sequence[int]] = None,
    ks: Optional[Sequence[int]] = None,
) -> ExperimentTable:
    """Pruning efficiency vs database size (Figures 6 / 9 / 12).

    For each database size and signature cardinality K, runs every query
    to completion and averages
    :attr:`~repro.core.search.SearchStats.pruning_efficiency`.
    """
    db_sizes = list(db_sizes or ctx.profile["db_sizes"])
    ks = list(ks or ctx.profile["ks"])
    table = ExperimentTable(
        title=f"Pruning efficiency vs database size — {similarity.name} "
        f"({base}.Dx)",
        columns=["db_size"] + [f"K={k} prune%" for k in ks],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for size in db_sizes:
        spec = f"{base}.D{size}"
        row: Dict[str, object] = {"db_size": size}
        for k in ks:
            searcher = ctx.searcher(spec, k)
            efficiencies = []
            for target in ctx.queries(spec):
                _, stats = searcher.nearest(target, similarity)
                efficiencies.append(stats.pruning_efficiency)
            row[f"K={k} prune%"] = float(np.mean(efficiencies))
        table.add_row(**row)
    return table


def run_accuracy_vs_termination(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    spec: Optional[str] = None,
    ks: Optional[Sequence[int]] = None,
    levels: Optional[Sequence[float]] = None,
) -> ExperimentTable:
    """Accuracy vs early-termination level (Figures 7 / 10 / 13).

    Accuracy is the percentage of queries whose returned similarity equals
    the true optimum when the scan stops after the given fraction of the
    database.
    """
    spec = spec or ctx.profile["large_spec"]
    ks = list(ks or ctx.profile["ks"])
    levels = list(levels or ctx.profile["termination_levels"])
    truths = ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=f"Accuracy vs early termination — {similarity.name} ({spec})",
        columns=["termination%"] + [f"K={k} acc%" for k in ks],
        notes=ctx.notes([f"similarity={similarity.name}", f"spec={spec}"]),
    )
    for level in levels:
        row: Dict[str, object] = {"termination%": 100.0 * level}
        for k in ks:
            searcher = ctx.searcher(spec, k)
            found = []
            for target in ctx.queries(spec):
                neighbor, _ = searcher.nearest(
                    target, similarity, early_termination=level
                )
                found.append(neighbor.similarity if neighbor else float("-inf"))
            row[f"K={k} acc%"] = accuracy_against_truth(found, truths)
        table.add_row(**row)
    return table


def run_accuracy_vs_transaction_size(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    txn_sizes: Optional[Sequence[float]] = None,
    num_signatures: Optional[int] = None,
    termination: float = 0.02,
    pattern_size: float = 6.0,
    db_size: Optional[int] = None,
) -> ExperimentTable:
    """Accuracy vs average transaction size (Figures 8 / 11 / 14).

    Fixes the early-termination level (paper: 2 %) and sweeps the ``T``
    parameter of the generator; denser data makes the problem harder and
    accuracy is expected to fall.
    """
    txn_sizes = list(txn_sizes or ctx.profile["txn_sizes"])
    num_signatures = num_signatures or ctx.profile["default_k"]
    db_size = db_size or ctx.profile["txn_size_db"]
    table = ExperimentTable(
        title=(
            f"Accuracy vs avg transaction size — {similarity.name} "
            f"(Tx.I{pattern_size:g}.D{db_size}, termination "
            f"{100 * termination:g}%, K={num_signatures})"
        ),
        columns=["avg_txn_size", "accuracy%", "prune% (to completion)"],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for t in txn_sizes:
        spec = f"T{t:g}.I{pattern_size:g}.D{db_size}"
        searcher = ctx.searcher(spec, num_signatures)
        truths = ctx.truths(spec, similarity)
        found = []
        efficiencies = []
        for target in ctx.queries(spec):
            neighbor, _ = searcher.nearest(
                target, similarity, early_termination=termination
            )
            found.append(neighbor.similarity if neighbor else float("-inf"))
            _, full_stats = searcher.nearest(target, similarity)
            efficiencies.append(full_stats.pruning_efficiency)
        table.add_row(
            avg_txn_size=t,
            **{
                "accuracy%": accuracy_against_truth(found, truths),
                "prune% (to completion)": float(np.mean(efficiencies)),
            },
        )
    return table


# ----------------------------------------------------------------------
# Table 1 (inverted index)
# ----------------------------------------------------------------------
def run_inverted_access_fractions(
    ctx: ExperimentContext,
    txn_sizes: Optional[Sequence[float]] = None,
    pattern_size: float = 6.0,
    db_size: Optional[int] = None,
) -> ExperimentTable:
    """Minimum percentage of transactions an inverted index must access
    (Table 1), plus the page-scattering column the paper discusses in
    prose: the percentage of *pages* those transactions occupy.
    """
    from repro.eval.model import (
        expected_inverted_access_fraction,
        predicted_page_fraction,
    )

    txn_sizes = list(txn_sizes or ctx.profile["txn_sizes"])
    db_size = db_size or ctx.profile["txn_size_db"]
    table = ExperimentTable(
        title=(
            f"Inverted index access fractions (Table 1) — "
            f"Tx.I{pattern_size:g}.D{db_size}"
        ),
        columns=[
            "avg_txn_size",
            "transactions accessed %",
            "analytic (independence) %",
            "pages touched %",
            "analytic pages %",
        ],
        notes=ctx.notes(
            ["analytic columns: independence model, see repro.eval.model"]
        ),
    )
    for t in txn_sizes:
        spec = f"T{t:g}.I{pattern_size:g}.D{db_size}"
        indexed, _ = ctx.database(spec)
        inverted = InvertedIndex(indexed)
        queries = ctx.queries(spec)
        access = []
        pages = []
        for target in queries:
            access.append(100.0 * inverted.access_fraction(target))
            pages.append(100.0 * inverted.page_fraction(target))
        analytic = 100.0 * expected_inverted_access_fraction(indexed, queries)
        analytic_pages = 100.0 * predicted_page_fraction(
            float(np.mean(access)) / 100.0,
            inverted.store.page_size,
            len(indexed),
        )
        table.add_row(
            avg_txn_size=t,
            **{
                "transactions accessed %": float(np.mean(access)),
                "analytic (independence) %": analytic,
                "pages touched %": float(np.mean(pages)),
                "analytic pages %": analytic_pages,
            },
        )
    return table


# ----------------------------------------------------------------------
# Ablations (design choices the paper calls out)
# ----------------------------------------------------------------------
def run_ablation_partitioning(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    spec: Optional[str] = None,
    num_signatures: Optional[int] = None,
    termination: float = 0.02,
) -> ExperimentTable:
    """Correlation-aware vs random vs balanced-support partitioning.

    Quantifies Section 3.1's motivation: signatures of correlated items
    should prune better than correlation-blind partitions of the same K.
    """
    spec = spec or ctx.profile["large_spec"]
    num_signatures = num_signatures or ctx.profile["default_k"]
    indexed, _ = ctx.database(spec)
    schemes = {
        "correlation (paper)": ctx.scheme(spec, num_signatures),
        "random": random_partition(
            indexed.universe_size, num_signatures, rng=ctx.seed
        ),
        "balanced-support": balanced_support_partition(
            indexed.item_supports(), num_signatures
        ),
    }
    truths = ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=f"Partitioning ablation — {similarity.name} ({spec}, K={num_signatures})",
        columns=["partitioning", "prune%", f"acc% @ {100 * termination:g}%"],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for label, scheme in schemes.items():
        searcher = SignatureTableSearcher(
            SignatureTable.build(indexed, scheme), indexed
        )
        efficiencies = []
        found = []
        for target in ctx.queries(spec):
            _, stats = searcher.nearest(target, similarity)
            efficiencies.append(stats.pruning_efficiency)
            neighbor, _ = searcher.nearest(
                target, similarity, early_termination=termination
            )
            found.append(neighbor.similarity if neighbor else float("-inf"))
        table.add_row(
            partitioning=label,
            **{
                "prune%": float(np.mean(efficiencies)),
                f"acc% @ {100 * termination:g}%": accuracy_against_truth(
                    found, truths
                ),
            },
        )
    return table


def run_ablation_activation_threshold(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    spec: Optional[str] = None,
    num_signatures: Optional[int] = None,
    thresholds: Sequence[int] = (1, 2, 3),
    termination: float = 0.02,
) -> ExperimentTable:
    """Effect of the activation threshold ``r`` (paper footnote 4).

    The paper fixes r = 1 but observes that larger transactions benefit
    from higher thresholds; this runner measures that trade-off on one
    dataset.
    """
    spec = spec or ctx.profile["large_spec"]
    num_signatures = num_signatures or ctx.profile["default_k"]
    truths = ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=(
            f"Activation-threshold ablation — {similarity.name} "
            f"({spec}, K={num_signatures})"
        ),
        columns=["r", "prune%", f"acc% @ {100 * termination:g}%", "occupied entries"],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for r in thresholds:
        searcher = ctx.searcher(spec, num_signatures, activation_threshold=r)
        efficiencies = []
        found = []
        for target in ctx.queries(spec):
            _, stats = searcher.nearest(target, similarity)
            efficiencies.append(stats.pruning_efficiency)
            neighbor, _ = searcher.nearest(
                target, similarity, early_termination=termination
            )
            found.append(neighbor.similarity if neighbor else float("-inf"))
        table.add_row(
            r=r,
            **{
                "prune%": float(np.mean(efficiencies)),
                f"acc% @ {100 * termination:g}%": accuracy_against_truth(
                    found, truths
                ),
                "occupied entries": searcher.table.num_entries_occupied,
            },
        )
    return table


def run_ablation_sort_order(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    spec: Optional[str] = None,
    num_signatures: Optional[int] = None,
    termination: float = 0.02,
) -> ExperimentTable:
    """Optimistic-bound sort vs supercoordinate-similarity sort (Section 4).

    The paper always sorts by optimistic bound but suggests the
    supercoordinate order "can improve the performance when the sort
    criterion is a better indication of the average case similarity".
    """
    spec = spec or ctx.profile["large_spec"]
    num_signatures = num_signatures or ctx.profile["default_k"]
    searcher = ctx.searcher(spec, num_signatures)
    truths = ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=f"Sort-order ablation — {similarity.name} ({spec}, K={num_signatures})",
        columns=["sort_by", "prune%", f"acc% @ {100 * termination:g}%"],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for mode in ("optimistic", "supercoordinate"):
        efficiencies = []
        found = []
        for target in ctx.queries(spec):
            _, stats = searcher.nearest(target, similarity, sort_by=mode)
            efficiencies.append(stats.pruning_efficiency)
            neighbor, _ = searcher.nearest(
                target, similarity, early_termination=termination, sort_by=mode
            )
            found.append(neighbor.similarity if neighbor else float("-inf"))
        table.add_row(
            sort_by=mode,
            **{
                "prune%": float(np.mean(efficiencies)),
                f"acc% @ {100 * termination:g}%": accuracy_against_truth(
                    found, truths
                ),
            },
        )
    return table


def run_memory_ablation(
    similarity: SimilarityFunction,
    ctx: ExperimentContext,
    spec: Optional[str] = None,
    ks: Sequence[int] = (8, 10, 12, 14, 16),
    termination: float = 0.02,
) -> ExperimentTable:
    """Memory availability vs performance (Section 5, evaluation axis 3).

    The dense directory costs ``8 * 2^K`` bytes of main memory; this sweep
    shows pruning and accuracy improving as memory (K) grows.
    """
    spec = spec or ctx.profile["large_spec"]
    truths = ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=f"Memory-availability ablation — {similarity.name} ({spec})",
        columns=[
            "K",
            "directory KiB",
            "prune%",
            f"acc% @ {100 * termination:g}%",
        ],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    for k in ks:
        searcher = ctx.searcher(spec, k)
        efficiencies = []
        found = []
        for target in ctx.queries(spec):
            _, stats = searcher.nearest(target, similarity)
            efficiencies.append(stats.pruning_efficiency)
            neighbor, _ = searcher.nearest(
                target, similarity, early_termination=termination
            )
            found.append(neighbor.similarity if neighbor else float("-inf"))
        table.add_row(
            K=k,
            **{
                "directory KiB": searcher.table.memory_bytes(dense=True) / 1024.0,
                "prune%": float(np.mean(efficiencies)),
                f"acc% @ {100 * termination:g}%": accuracy_against_truth(
                    found, truths
                ),
            },
        )
    return table
