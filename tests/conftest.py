"""Shared fixtures.

Session-scoped pipelines over two synthetic datasets:

* ``small_db`` — 500 transactions over 120 items; cheap enough for
  exhaustive cross-checks against brute force.
* ``medium_db`` — 3000 transactions over 400 items; realistic enough for
  pruning/accuracy behaviour, still fast.

Everything is seeded; test outcomes are deterministic.
"""

import pytest

import repro

#: Every query method of the scalar searcher.  A guard patches them all
#: to raise, so a test can prove a path runs on the packed kernels.
SEARCHER_QUERIES = ("knn", "nearest", "range_query", "multi_range_query")


def forbid_scalar_loop(patch, allow_budgeted=False):
    """Make every searcher query method raise under ``patch`` (a
    ``monkeypatch`` or one of its contexts).  ``allow_budgeted`` lets
    ``knn`` through for an ``early_termination`` query, the one
    configuration the engine still runs on the scalar loop."""

    scalar_knn = repro.SignatureTableSearcher.knn

    def unreachable(*args, **kwargs):
        raise AssertionError("the scalar loop was reached")

    def budgeted_only(self, *args, early_termination=None, **kwargs):
        if early_termination is None:
            unreachable()
        return scalar_knn(
            self, *args, early_termination=early_termination, **kwargs
        )

    for name in SEARCHER_QUERIES:
        patch.setattr(repro.SignatureTableSearcher, name, unreachable)
    if allow_budgeted:
        patch.setattr(repro.SignatureTableSearcher, "knn", budgeted_only)


def make_similarities():
    """One instance of every built-in similarity function."""
    return [
        repro.HammingSimilarity(),
        repro.HammingSimilarity(smoothing=0.0),
        repro.MatchRatioSimilarity(),
        repro.MatchRatioSimilarity(smoothing=0.0),
        repro.CosineSimilarity(),
        repro.JaccardSimilarity(),
        repro.DiceSimilarity(),
        repro.ContainmentSimilarity(),
        repro.MatchCountSimilarity(),
        repro.WeightedLinearSimilarity(alpha=2.0, beta=0.5),
    ]


@pytest.fixture(scope="session")
def all_similarities():
    return make_similarities()


@pytest.fixture(scope="session")
def small_db():
    return repro.generate(
        "T8.I4.D500", seed=11, num_items=120, num_patterns=60
    )


@pytest.fixture(scope="session")
def medium_db():
    return repro.generate(
        "T10.I6.D3K", seed=5, num_items=400, num_patterns=300
    )


@pytest.fixture(scope="session")
def medium_split(medium_db):
    """(indexed, holdout-query) split of the medium database."""
    return medium_db.split(30)


@pytest.fixture(scope="session")
def medium_indexed(medium_split):
    return medium_split[0]


@pytest.fixture(scope="session")
def medium_queries(medium_split):
    holdout = medium_split[1]
    return [sorted(holdout[q]) for q in range(len(holdout))]


@pytest.fixture(scope="session")
def medium_scheme(medium_indexed):
    return repro.partition_items(medium_indexed, num_signatures=10, rng=3)


@pytest.fixture(scope="session")
def medium_table(medium_indexed, medium_scheme):
    return repro.SignatureTable.build(medium_indexed, medium_scheme)


@pytest.fixture(scope="session")
def medium_searcher(medium_table, medium_indexed):
    return repro.SignatureTableSearcher(medium_table, medium_indexed)


@pytest.fixture(scope="session")
def medium_scan(medium_indexed):
    return repro.LinearScanIndex(medium_indexed)


@pytest.fixture(scope="session")
def small_scheme(small_db):
    return repro.partition_items(small_db, num_signatures=6, rng=3)


@pytest.fixture(scope="session")
def small_table(small_db, small_scheme):
    return repro.SignatureTable.build(small_db, small_scheme)


@pytest.fixture(scope="session")
def small_searcher(small_table, small_db):
    return repro.SignatureTableSearcher(small_table, small_db)


@pytest.fixture(scope="session")
def medium_engine(medium_searcher):
    return repro.QueryEngine(medium_searcher)


@pytest.fixture(scope="session")
def small_engine(small_searcher):
    return repro.QueryEngine(small_searcher)
