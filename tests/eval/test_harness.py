"""Unit tests for the experiment harness.

These run the real experiment code at miniature scale (1-2 K transactions,
20 queries) and check the structural properties of the outputs; the paper
trends themselves are asserted at full scale by the benchmarks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.bounds import optimistic_distance, optimistic_matches
from repro.eval.harness import (
    PROFILES,
    ExperimentContext,
    active_profile,
    run_ablation_activation_threshold,
    run_ablation_partitioning,
    run_ablation_sort_order,
    run_accuracy_vs_termination,
    run_accuracy_vs_transaction_size,
    run_inverted_access_fractions,
    run_memory_ablation,
    run_pruning_vs_db_size,
    supercoordinate_nearest,
)
from repro.eval.metrics import accuracy_against_truth
from tests.conftest import forbid_scalar_loop
from tests.properties.test_kernels_property import SIMILARITIES, scan_instance


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        "quick",
        num_queries=20,
        large_spec="T10.I6.D2K",
        txn_size_db=1000,
        db_sizes=[1000, 2000],
        ks=[8, 10],
        default_k=10,
        txn_sizes=[5.0, 10.0],
        termination_levels=[0.02, 0.1],
    )


class TestActiveProfile:
    def test_default_is_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile() == "quick"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "paper")
        assert active_profile() == "paper"

    def test_unknown_profile_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            active_profile()

    def test_profiles_have_required_keys(self):
        required = {
            "db_sizes",
            "large_spec",
            "ks",
            "default_k",
            "txn_sizes",
            "termination_levels",
            "num_queries",
            "seed",
            "txn_size_db",
        }
        for profile in PROFILES.values():
            assert required <= set(profile)


class TestExperimentContext:
    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown profile overrides"):
            ExperimentContext("quick", bogus=1)

    def test_database_memoised(self, ctx):
        a = ctx.database("T10.I6.D1K")
        b = ctx.database("T10.I6.D1K")
        assert a[0] is b[0]

    def test_holdout_size(self, ctx):
        _, holdout = ctx.database("T10.I6.D1K")
        assert len(holdout) == 20

    def test_holdout_disjoint_stream(self, ctx):
        indexed, holdout = ctx.database("T10.I6.D1K")
        assert len(indexed) == 1000
        # Holdout comes from the same pattern pool but is a separate draw.
        assert holdout != indexed.subset(range(20))

    def test_table_and_engine_memoised(self, ctx):
        table = ctx.table("T10.I6.D1K", 8)
        engine = ctx.engine("T10.I6.D1K", 8)
        assert ctx.table("T10.I6.D1K", 8) is table
        assert ctx.engine("T10.I6.D1K", 8) is engine
        assert engine.table is table
        raised = ctx.engine("T10.I6.D1K", 8, activation_threshold=2)
        assert raised.table is not table

    def test_scheme_shared_across_thresholds(self, ctx):
        base = ctx.table("T10.I6.D1K", 8).scheme
        raised = ctx.table("T10.I6.D1K", 8, activation_threshold=2).scheme
        assert raised.activation_threshold == 2
        assert raised.signatures == base.signatures

    def test_truths_match_scan(self, ctx):
        sim = repro.MatchRatioSimilarity()
        truths = ctx.truths("T10.I6.D1K", sim)
        scan = ctx.scan("T10.I6.D1K")
        assert truths[0] == scan.best_similarity(ctx.queries("T10.I6.D1K")[0], sim)

    def test_notes_include_profile(self, ctx):
        notes = ctx.notes(["extra=1"])
        assert any("profile=quick" in n for n in notes)
        assert "extra=1" in notes


class TestFigureRunners:
    def test_pruning_vs_db_size_structure(self, ctx):
        table = run_pruning_vs_db_size(repro.HammingSimilarity(), ctx)
        assert table.column("db_size") == [1000, 2000]
        for k in [8, 10]:
            for value in table.column(f"K={k} prune%"):
                assert 0.0 <= value <= 100.0

    def test_pruning_improves_with_k(self, ctx):
        table = run_pruning_vs_db_size(repro.MatchRatioSimilarity(), ctx)
        for row in table.rows:
            assert row["K=10 prune%"] >= row["K=8 prune%"] - 8.0

    def test_accuracy_vs_termination_structure(self, ctx):
        table = run_accuracy_vs_termination(repro.MatchRatioSimilarity(), ctx)
        assert table.column("termination%") == [2.0, 10.0]
        for k in [8, 10]:
            values = table.column(f"K={k} acc%")
            assert all(0.0 <= v <= 100.0 for v in values)
            # More budget can only help (monotone in the termination level).
            assert values[1] >= values[0] - 1e-9

    def test_accuracy_vs_txn_size_structure(self, ctx):
        table = run_accuracy_vs_transaction_size(
            repro.CosineSimilarity(), ctx, termination=0.1
        )
        assert table.column("avg_txn_size") == [5.0, 10.0]
        assert all(0 <= v <= 100 for v in table.column("accuracy%"))

    def test_inverted_access_fractions(self, ctx):
        table = run_inverted_access_fractions(ctx)
        fractions = table.column("transactions accessed %")
        pages = table.column("pages touched %")
        assert all(0 < v <= 100 for v in fractions)
        # Page scattering dominates the raw access fraction.
        assert all(p >= f - 1e-9 for p, f in zip(pages, fractions))
        # The paper's Table-1 trend: access grows with transaction size.
        assert fractions[-1] > fractions[0]


class TestAblationRunners:
    def test_partitioning_ablation(self, ctx):
        table = run_ablation_partitioning(
            repro.MatchRatioSimilarity(), ctx, spec="T10.I6.D1K", num_signatures=8
        )
        labels = table.column("partitioning")
        assert "correlation (paper)" in labels
        assert "random" in labels
        assert "balanced-support" in labels

    def test_activation_ablation(self, ctx):
        table = run_ablation_activation_threshold(
            repro.MatchRatioSimilarity(),
            ctx,
            spec="T10.I6.D1K",
            num_signatures=8,
            thresholds=(1, 2),
        )
        assert table.column("r") == [1, 2]
        occupied = table.column("occupied entries")
        assert all(v > 0 for v in occupied)

    def test_sort_order_ablation(self, ctx):
        table = run_ablation_sort_order(
            repro.MatchRatioSimilarity(), ctx, spec="T10.I6.D1K", num_signatures=8
        )
        assert set(table.column("sort_by")) == {"optimistic", "supercoordinate"}

    def test_memory_ablation(self, ctx):
        table = run_memory_ablation(
            repro.MatchRatioSimilarity(), ctx, spec="T10.I6.D1K", ks=(6, 10)
        )
        kib = table.column("directory KiB")
        assert kib[1] > kib[0]


class TestRunnersOnTheEngine:
    """Each runner answers a query set as one batch on the engine: the
    figures are the per-query searcher loop's, value for value, and no
    exact phase reaches the scalar loop.  The figures keep the paper's
    entry bound, so the loop does too."""

    @staticmethod
    def searcher_loop(ctx, spec, k, similarity, **options):
        indexed, _ = ctx.database(spec)
        searcher = repro.SignatureTableSearcher(
            ctx.table(spec, k), indexed, bounds="paper"
        )
        return [
            searcher.nearest(target, similarity, **options)
            for target in ctx.queries(spec)
        ]

    def test_pruning_vs_db_size_equals_searcher_loop(self, ctx):
        sim = repro.HammingSimilarity()
        table = run_pruning_vs_db_size(sim, ctx)
        for row in table.rows:
            spec = f"T10.I6.D{row['db_size']}"
            for k in ctx.profile["ks"]:
                answers = self.searcher_loop(ctx, spec, k, sim)
                assert row[f"K={k} prune%"] == float(
                    np.mean([stats.pruning_efficiency for _, stats in answers])
                )

    def test_accuracy_vs_termination_equals_searcher_loop(self, ctx):
        sim = repro.MatchRatioSimilarity()
        spec = ctx.profile["large_spec"]
        table = run_accuracy_vs_termination(sim, ctx)
        for row, level in zip(table.rows, ctx.profile["termination_levels"]):
            for k in ctx.profile["ks"]:
                answers = self.searcher_loop(
                    ctx, spec, k, sim, early_termination=level
                )
                found = [nb.similarity if nb else float("-inf") for nb, _ in answers]
                assert row[f"K={k} acc%"] == accuracy_against_truth(
                    found, ctx.truths(spec, sim)
                )

    def test_exact_phases_never_reach_the_scalar_loop(self, ctx, monkeypatch):
        """Every phase, budgeted ones included, runs on the packed
        kernels, but the sort-order ablation's supercoordinate row, which
        runs its own loop: none reaches the scalar searcher."""
        forbid_scalar_loop(monkeypatch)
        sim = repro.MatchRatioSimilarity()
        small = dict(spec="T10.I6.D1K", num_signatures=8)
        run_pruning_vs_db_size(sim, ctx)
        run_accuracy_vs_termination(sim, ctx)
        run_accuracy_vs_transaction_size(sim, ctx, termination=0.1)
        run_ablation_partitioning(sim, ctx, **small)
        run_ablation_activation_threshold(sim, ctx, thresholds=(1, 2), **small)
        run_memory_ablation(sim, ctx, spec="T10.I6.D1K", ks=(6, 10))
        run_ablation_sort_order(sim, ctx, **small)


class TestSupercoordinateNearest:
    """The sort-order ablation's scan in supercoordinate order, on small
    random databases."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        budget=st.sampled_from([None, 1, 7, 30]),
        similarity=st.sampled_from(SIMILARITIES),
    )
    def test_exact_within_budget_and_skips_by_bound(
        self, seed, budget, similarity
    ):
        """Run to completion, the best similarity is the linear scan's;
        no scan reads more than its budget; and an entry is read only
        while its paper bound reaches the best similarity so far (the
        first read aside), while every entry left unread by a complete
        scan has a bound below its final best."""
        _, db, table, targets = scan_instance(seed)
        scan = repro.LinearScanIndex(db)
        scheme, bits = table.scheme, table.bits_matrix
        entry_tids = table.entry_tids
        for target in targets:
            bound_sim = similarity.bind(len(target))
            counts = scheme.activation_counts(target)
            r = scheme.activation_threshold
            bounds = [
                float(bound_sim.evaluate(
                    optimistic_matches(counts, row, r),
                    optimistic_distance(counts, row, r),
                ))
                for row in bits
            ]
            sims = scan._similarities(target, similarity)[1]
            entered = []
            table.entry_tids = lambda entry: entered.append(entry) or entry_tids(entry)
            try:
                ((read, best),) = supercoordinate_nearest(
                    table, db, [target], similarity, budget
                )
            finally:
                del table.entry_tids
            if budget is None:
                assert best == scan.best_similarity(target, similarity)
                assert read == sum(entry_tids(e).size for e in entered)
                unread = set(range(len(bounds))) - set(entered)
                assert all(bounds[e] < best for e in unread)
            else:
                assert 0 < read <= budget
            so_far, left = -np.inf, read
            for entry in entered:
                if left < read:
                    assert bounds[entry] >= so_far
                rows = entry_tids(entry)[:left]
                so_far, left = max(so_far, sims[rows].max()), left - rows.size
            assert so_far == best
