"""Property test: scatter-gather answers are placement-invariant.

For ANY assignment of rows to shards — including assignments that break
every tie group across shard boundaries — the cluster router's kNN and
range answers must be byte-identical to the single-node
:class:`~repro.core.engine.QueryEngine` over one signature table of the
same logical database.  Rows are drawn from a tiny pool of distinct
transactions so similarity ties are everywhere and the k-th boundary
almost always cuts inside a tie group.
"""

import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterHarness
from repro.core.engine import QueryEngine
from repro.core.partitioning import random_partition
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase

pytestmark = pytest.mark.cluster

_UNIVERSE = 16
_SHARDS = ("a", "b", "c")

#: Small pool of distinct rows -> dense similarity ties across shards.
_POOL = [
    [0, 1, 2, 3],
    [0, 1, 2, 7],
    [4, 5, 6, 7],
    [1, 3, 5, 7],
    [8, 9, 10],
]

_SCHEME = random_partition(_UNIVERSE, 4, activation_threshold=1, rng=2)


@st.composite
def _workload(draw):
    rows = draw(
        st.lists(st.sampled_from(_POOL), min_size=3, max_size=18)
    )
    assignment = draw(
        st.lists(
            st.sampled_from(_SHARDS),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    queries = draw(
        st.lists(
            st.sets(
                st.integers(min_value=0, max_value=_UNIVERSE - 1),
                min_size=1,
                max_size=5,
            ).map(sorted),
            min_size=1,
            max_size=3,
        )
    )
    k = draw(st.integers(min_value=1, max_value=len(rows)))
    threshold = draw(st.sampled_from([0.1, 0.3, 0.6]))
    return rows, assignment, queries, k, threshold


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_workload())
def test_scatter_gather_matches_single_node(workload):
    rows, assignment, queries, k, threshold = workload
    db = TransactionDatabase(rows, universe_size=_UNIVERSE)
    oracle = QueryEngine.for_table(SignatureTable.build(db, _SCHEME), db)
    with tempfile.TemporaryDirectory() as root, ClusterHarness(
        root,
        _SCHEME,
        shards=_SHARDS,
        rows=rows,
        assignment=assignment,
    ) as h, h.client() as client:
        for name in ("match_ratio", "jaccard"):
            similarity = get_similarity(name)
            want_knn, _ = oracle.knn_batch(queries, similarity, k=k)
            want_range, _ = oracle.range_query_batch(
                queries, similarity, threshold
            )
            for items, expected in zip(queries, want_knn):
                got, _ = client.knn(items, similarity=name, k=k)
                assert [(n.tid, n.similarity) for n in got] == [
                    (n.tid, n.similarity) for n in expected
                ]
                assert len({n.tid for n in got}) == len(got)  # no dupes
            for items, expected in zip(queries, want_range):
                got, _ = client.range_query(items, name, threshold)
                assert [(n.tid, n.similarity) for n in got] == [
                    (n.tid, n.similarity) for n in expected
                ]
