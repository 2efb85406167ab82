"""The public API surface: everything in ``repro.__all__`` must exist and
the advertised quickstart must work as documented."""

import inspect

import pytest

import repro


class TestExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_key_classes_are_classes(self):
        for name in [
            "TransactionDatabase",
            "SignatureScheme",
            "SignatureTable",
            "SignatureTableSearcher",
            "MarketBasketIndex",
            "InvertedIndex",
            "LinearScanIndex",
            "MinHashLSHIndex",
            "PagedStore",
        ]:
            assert inspect.isclass(getattr(repro, name))

    def test_key_functions_are_callable(self):
        for name in [
            "generate",
            "parse_spec",
            "build_index",
            "partition_items",
            "count_pair_supports",
            "get_similarity",
        ]:
            assert callable(getattr(repro, name))

    def test_public_items_have_docstrings(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_public_methods_have_docstrings(self):
        """Every public method of the main classes is documented."""
        for cls in [
            repro.TransactionDatabase,
            repro.SignatureScheme,
            repro.SignatureTable,
            repro.SignatureTableSearcher,
            repro.MarketBasketIndex,
            repro.InvertedIndex,
            repro.LinearScanIndex,
            repro.PagedStore,
        ]:
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name} undocumented"


class TestQuickstart:
    def test_readme_flow(self):
        db = repro.generate("T10.I6.D1K", seed=7, num_items=200, num_patterns=100)
        index = repro.build_index(db, num_signatures=8)
        target = sorted(db[0])
        neighbors, stats = index.knn(target, repro.MatchRatioSimilarity(), k=5)
        assert len(neighbors) == 5
        assert neighbors[0].similarity >= neighbors[-1].similarity
        assert stats.pruning_efficiency > 0

    def test_query_time_similarity_swap(self):
        """One table, many similarity functions — the paper's selling point."""
        db = repro.generate("T10.I6.D1K", seed=3, num_items=200, num_patterns=100)
        index = repro.build_index(db, num_signatures=8)
        scan = repro.LinearScanIndex(db)
        target = sorted(db[42])
        for name in ["hamming", "match_ratio", "cosine", "jaccard", "dice"]:
            sim = repro.get_similarity(name)
            neighbor, _ = index.nearest(target, sim)
            assert neighbor.similarity == pytest.approx(
                scan.best_similarity(target, sim)
            )
