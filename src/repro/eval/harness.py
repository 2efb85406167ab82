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
consumer-behaviour pattern pool) as the indexed data.  Each runner answers
a point's query set as one batch on the
:class:`~repro.core.engine.QueryEngine` (the served path), once run to
completion and once under the early-termination budget; per query, that
is exactly what the scalar searcher returns.  The sort-order ablation's
supercoordinate row runs :func:`supercoordinate_nearest`, the one scan
that is not in bound order.

Nothing here starts a server, a live index or a cluster: how fast the
*system* runs is measured by ``bench/run.py`` and recorded in the
``results/BENCH_<n>.json`` trail.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.inverted import InvertedIndex
from repro.baselines.linear_scan import LinearScanIndex
from repro.core.bounds import BatchBoundCalculator
from repro.core.engine import QueryEngine, similarity_key
from repro.core.partitioning import (
    balanced_support_partition,
    partition_items,
    random_partition,
)
from repro.core.search import Neighbor, SearchStats, row_budget
from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.generator import MarketBasketGenerator, parse_spec
from repro.data.transaction import TransactionDatabase, as_item_array
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
    """Memoised datasets, schemes, tables, engines and ground truths for
    experiments.

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
        self._engines: Dict[Tuple[str, int, int, str], QueryEngine] = {}
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

    def table(
        self, spec: str, num_signatures: int, activation_threshold: int = 1
    ) -> SignatureTable:
        """The signature table over ``spec``'s indexed data; every
        activation threshold shares the scheme's partition."""
        key = (spec, num_signatures, activation_threshold)
        if key not in self._tables:
            indexed, _ = self.database(spec)
            scheme = self.scheme(spec, num_signatures)
            if activation_threshold != 1:
                scheme = scheme.with_activation_threshold(activation_threshold)
            self._tables[key] = SignatureTable.build(indexed, scheme)
        return self._tables[key]

    def engine(
        self, spec: str, num_signatures: int, activation_threshold: int = 1,
        bounds: str = "paper",
    ) -> QueryEngine:
        """The query engine over :meth:`table`, with the paper's entry
        bound unless ``bounds`` says otherwise."""
        key = (spec, num_signatures, activation_threshold, bounds)
        if key not in self._engines:
            indexed, _ = self.database(spec)
            self._engines[key] = QueryEngine(
                self.table(*key[:3]), indexed, bounds=bounds
            )
        return self._engines[key]

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


def _mean_pruning(stats: Sequence[SearchStats]) -> float:
    return float(np.mean([s.pruning_efficiency for s in stats]))


def _found(best: Sequence[Optional[Neighbor]]) -> List[float]:
    """The similarity each query's answer reached (-inf for none)."""
    return [nb.similarity if nb else float("-inf") for nb in best]


def _prune_and_accuracy(
    engine: QueryEngine,
    queries: List[List[int]],
    similarity: SimilarityFunction,
    termination: float,
    truths: List[float],
) -> Tuple[float, float]:
    """Mean pruning efficiency run to completion, and accuracy against
    ``truths`` at the ``termination`` budget: one batch each."""
    _, exact = engine.nearest_batch(queries, similarity)
    best, _ = engine.nearest_batch(
        queries, similarity, early_termination=termination
    )
    return _mean_pruning(exact), accuracy_against_truth(_found(best), truths)


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
            _, stats = ctx.engine(spec, k).nearest_batch(
                ctx.queries(spec), similarity
            )
            row[f"K={k} prune%"] = _mean_pruning(stats)
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
            best, _ = ctx.engine(spec, k).nearest_batch(
                ctx.queries(spec), similarity, early_termination=level
            )
            row[f"K={k} acc%"] = accuracy_against_truth(_found(best), truths)
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
        prune, accuracy = _prune_and_accuracy(
            ctx.engine(spec, num_signatures),
            ctx.queries(spec),
            similarity,
            termination,
            ctx.truths(spec, similarity),
        )
        table.add_row(
            avg_txn_size=t,
            **{"accuracy%": accuracy, "prune% (to completion)": prune},
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
        engine = QueryEngine(
            SignatureTable.build(indexed, scheme), indexed, bounds="paper"
        )
        prune, accuracy = _prune_and_accuracy(
            engine, ctx.queries(spec), similarity, termination, truths
        )
        table.add_row(
            partitioning=label,
            **{"prune%": prune, f"acc% @ {100 * termination:g}%": accuracy},
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
        prune, accuracy = _prune_and_accuracy(
            ctx.engine(spec, num_signatures, activation_threshold=r),
            ctx.queries(spec),
            similarity,
            termination,
            truths,
        )
        table.add_row(
            r=r,
            **{
                "prune%": prune,
                f"acc% @ {100 * termination:g}%": accuracy,
                "occupied entries": ctx.table(
                    spec, num_signatures, activation_threshold=r
                ).num_entries_occupied,
            },
        )
    return table


def supercoordinate_nearest(
    table: SignatureTable, db: TransactionDatabase,
    targets: Sequence[Sequence[int]], similarity: SimilarityFunction,
    budget: Optional[int] = None,
) -> List[Tuple[int, float]]:
    """Nearest-neighbour scans in Section 4's alternative entry order:
    decreasing similarity between the target's supercoordinate and the
    entry's.  Once a row has been read, an entry whose paper bound is
    below the best similarity so far is skipped (only that entry: the
    order is not by bound); the scan stops after ``budget`` rows, cutting
    the last entry short.  ``(rows read, best similarity)`` per target.
    """
    targets = [as_item_array(t, db.universe_size) for t in targets]
    bound_sims = [similarity.bind(t.size) for t in targets]
    bits, budget = table.bits_matrix, len(db) if budget is None else budget
    opts = BatchBoundCalculator(table.scheme, targets).optimistic_similarity(
        bits, bound_sims
    )
    answers = []
    for target, bound_sim, bounds, x in zip(
        targets, bound_sims, opts, db.match_counts_batch(targets)
    ):
        sims = bound_sim.evaluate(x, db.sizes + target.size - 2 * x)
        coordinate = table.scheme.supercoordinate_bits(target)
        keys = similarity.bind(int(coordinate.sum()) or 1).evaluate(
            (bits & coordinate).sum(axis=1), (bits ^ coordinate).sum(axis=1)
        )
        read, best = 0, -math.inf
        for entry in np.argsort(-np.asarray(keys, dtype=np.float64), kind="stable"):
            if read and bounds[entry] < best:
                continue
            if read >= budget:
                break
            tids = table.entry_tids(int(entry))[: budget - read]
            read += int(tids.size)
            best = max(best, float(np.max(sims[tids])))
        answers.append((read, best))
    return answers


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
    Both rows prune with the paper's entry bound.
    """
    spec = spec or ctx.profile["large_spec"]
    num_signatures = num_signatures or ctx.profile["default_k"]
    indexed, _ = ctx.database(spec)
    queries, truths = ctx.queries(spec), ctx.truths(spec, similarity)
    table = ExperimentTable(
        title=f"Sort-order ablation — {similarity.name} ({spec}, K={num_signatures})",
        columns=["sort_by", "prune%", f"acc% @ {100 * termination:g}%"],
        notes=ctx.notes([f"similarity={similarity.name}"]),
    )
    exact, budgeted = (
        supercoordinate_nearest(
            ctx.table(spec, num_signatures), indexed, queries, similarity, rows
        )
        for rows in (None, row_budget(termination, len(indexed)))
    )
    rows = {
        "optimistic": _prune_and_accuracy(
            ctx.engine(spec, num_signatures), queries, similarity,
            termination, truths,
        ),
        "supercoordinate": (
            float(np.mean([100.0 * (1.0 - read / len(indexed)) for read, _ in exact])),
            accuracy_against_truth([best for _, best in budgeted], truths),
        ),
    }
    for mode, (prune, accuracy) in rows.items():
        table.add_row(
            sort_by=mode,
            **{"prune%": prune, f"acc% @ {100 * termination:g}%": accuracy},
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
        prune, accuracy = _prune_and_accuracy(
            ctx.engine(spec, k), ctx.queries(spec), similarity, termination, truths
        )
        table.add_row(
            K=k,
            **{
                "directory KiB": ctx.table(spec, k).memory_bytes(dense=True) / 1024.0,
                "prune%": prune,
                f"acc% @ {100 * termination:g}%": accuracy,
            },
        )
    return table


def run_union_bounds(
    similarities: Sequence[SimilarityFunction],
    ctx: ExperimentContext,
    levels: Sequence[float] = (0.005, 0.01, 0.02),
) -> ExperimentTable:
    """The paper's entry bound vs the summary bound (``ext_union_bounds``):
    per similarity function, pruning run to completion and top-1 accuracy
    at each early-termination level, on the same table."""
    spec, k = ctx.profile["large_spec"], ctx.profile["default_k"]
    table = ExperimentTable(
        title=f"Entry bounds: paper vs summary ({spec}, K={k})",
        columns=["similarity", "bounds", "prune%"]
        + [f"acc% @ {100 * level:g}%" for level in levels],
        notes=ctx.notes(),
    )
    for sim in similarities:
        for bounds in ("paper", "summary"):
            runs = [
                _prune_and_accuracy(
                    ctx.engine(spec, k, bounds=bounds), ctx.queries(spec), sim,
                    level, ctx.truths(spec, sim),
                )
                for level in levels
            ]
            table.add_row(
                similarity=sim.name, bounds=bounds, **{"prune%": runs[0][0]},
                **{f"acc% @ {100 * l:g}%": a for l, (_, a) in zip(levels, runs)},
            )
    return table
