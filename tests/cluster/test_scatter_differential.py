"""Differential suite: cluster answers vs the single-node engine.

The router's contract is *byte-identity*: on a quiescent cluster, every
kNN and range answer — tids, similarities, and order — must equal what a
single-process :class:`~repro.core.engine.QueryEngine` over one
signature table of the cluster's logical database returns.  The suites below drive seeded
mutate+query workloads, tie-heavy datasets (exercising the tie-complete
second pass), and online rebalance, checking identity throughout.
"""

import numpy as np
import pytest

from repro.cluster import ClusterHarness
from repro.core.engine import QueryEngine
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase

from tests.cluster.conftest import UNIVERSE, random_transaction

pytestmark = pytest.mark.cluster

SIMILARITIES = ("match_ratio", "jaccard")


def oracle_engine(rows, scheme):
    db = TransactionDatabase(rows, universe_size=scheme.universe_size)
    return QueryEngine.for_table(SignatureTable.build(db, scheme), db)


def assert_cluster_identical(client, rows, scheme, queries, ks=(1, 3, 7)):
    """Every query answer through the router == the single-node oracle."""
    engine = oracle_engine(rows, scheme)
    for name in SIMILARITIES:
        similarity = get_similarity(name)
        for k in ks:
            want, _ = engine.knn_batch(queries, similarity, k=k)
            for items, expected in zip(queries, want):
                got, _ = client.knn(items, similarity=name, k=k)
                assert [(n.tid, n.similarity) for n in got] == [
                    (n.tid, n.similarity) for n in expected
                ], f"knn diverged: {name} k={k} items={items}"
        for threshold in (0.25, 0.5):
            want, _ = engine.range_query_batch(queries, similarity, threshold)
            for items, expected in zip(queries, want):
                got, _ = client.range_query(items, name, threshold)
                assert [(n.tid, n.similarity) for n in got] == [
                    (n.tid, n.similarity) for n in expected
                ], f"range diverged: {name} t={threshold} items={items}"


class TestSeededWorkload:
    def test_mutate_query_identity(
        self, tmp_path, cluster_scheme, cluster_queries
    ):
        """Seeded insert/delete stream; identity re-checked every round."""
        rng = np.random.default_rng(42)
        rows = []
        with ClusterHarness(
            str(tmp_path), cluster_scheme, shards=("s0", "s1", "s2")
        ) as h, h.client() as client:
            for round_ in range(3):
                for _ in range(16):
                    if rows and rng.random() < 0.3:
                        victim = int(rng.integers(len(rows)))
                        client.delete(victim)
                        rows.pop(victim)
                    else:
                        items = random_transaction(rng)
                        tid = client.insert(items)
                        assert tid == len(rows)
                        rows.append(items)
                assert h.router.logical_db() == TransactionDatabase(
                    rows, universe_size=UNIVERSE
                )
                assert_cluster_identical(
                    client, rows, cluster_scheme, cluster_queries[:6]
                )
            assert h.router.directory.unmapped == 0

    def test_empty_cluster(self, tmp_path, cluster_scheme):
        with ClusterHarness(
            str(tmp_path), cluster_scheme, shards=("s0", "s1")
        ) as h, h.client() as client:
            got, _ = client.knn([1, 2, 3], k=5)
            assert got == []
            got, _ = client.range_query([1, 2, 3], "jaccard", 0.1)
            assert got == []
            assert len(h.router.logical_db()) == 0

    def test_self_match_resolves_through_directory(
        self, tmp_path, cluster_db, cluster_scheme
    ):
        """Querying an indexed row finds it at its *global* tid."""
        rows = [sorted(cluster_db[g]) for g in range(len(cluster_db))]
        assignment = [("s0", "s1", "s2")[g % 3] for g in range(len(rows))]
        with ClusterHarness(
            str(tmp_path),
            cluster_scheme,
            shards=("s0", "s1", "s2"),
            rows=rows,
            assignment=assignment,
        ) as h, h.client() as client:
            for g in range(0, len(rows), 7):
                got, _ = client.knn(rows[g], similarity="jaccard", k=1)
                assert got[0].similarity == pytest.approx(1.0)
                assert sorted(cluster_db[got[0].tid]) == rows[g]


class TestRebalance:
    def test_identity_across_moves(
        self, tmp_path, cluster_db, cluster_scheme, cluster_queries
    ):
        rows = [sorted(cluster_db[g]) for g in range(len(cluster_db))]
        assignment = [("s0", "s1", "s2")[g % 3] for g in range(len(rows))]
        with ClusterHarness(
            str(tmp_path),
            cluster_scheme,
            shards=("s0", "s1", "s2"),
            rows=rows,
            assignment=assignment,
        ) as h, h.client() as client:
            assert_cluster_identical(
                client, rows, cluster_scheme, cluster_queries[:4]
            )
            report = client.rebalance("s0", "s1", 0.5)
            assert report["moved_vnodes"] >= 1
            assert h.router.directory.unmapped == 0
            assert_cluster_identical(
                client, rows, cluster_scheme, cluster_queries[:4]
            )
            client.rebalance("s1", "s2", 0.5)
            # Logical rows are placement-invariant.
            assert h.router.logical_db() == TransactionDatabase(
                rows, universe_size=UNIVERSE
            )
            assert_cluster_identical(
                client, rows, cluster_scheme, cluster_queries[:4]
            )

    def test_mutations_after_rebalance(
        self, tmp_path, cluster_db, cluster_scheme, cluster_queries
    ):
        rng = np.random.default_rng(9)
        rows = [sorted(cluster_db[g]) for g in range(24)]
        assignment = [("s0", "s1")[g % 2] for g in range(len(rows))]
        with ClusterHarness(
            str(tmp_path),
            cluster_scheme,
            shards=("s0", "s1"),
            rows=rows,
            assignment=assignment,
        ) as h, h.client() as client:
            client.rebalance("s0", "s1", 0.5)
            for _ in range(12):
                if rng.random() < 0.4:
                    victim = int(rng.integers(len(rows)))
                    client.delete(victim)
                    rows.pop(victim)
                else:
                    items = random_transaction(rng)
                    assert client.insert(items) == len(rows)
                    rows.append(items)
            assert h.router.logical_db() == TransactionDatabase(
                rows, universe_size=UNIVERSE
            )
            assert_cluster_identical(
                client, rows, cluster_scheme, cluster_queries[:4]
            )

    def test_rebalance_rejects_bad_arguments(self, tmp_path, cluster_scheme):
        from repro.service.client import ServiceError

        with ClusterHarness(
            str(tmp_path), cluster_scheme, shards=("s0", "s1")
        ) as h, h.client() as client:
            for source, target, fraction in (
                ("s0", "s0", 0.5),
                ("nope", "s1", 0.5),
                ("s0", "s1", 0.0),
            ):
                with pytest.raises(ServiceError) as err:
                    client.rebalance(source, target, fraction)
                assert err.value.code == "bad_request"


class TestBoundaryTies:
    """Duplicate-heavy data: the k-th boundary cuts inside tie groups.

    Every row is one of four distinct transactions, so almost every
    similarity value ties across shards and k slices through tie groups;
    identity then hinges on the router's tie-complete second pass
    breaking ties by *global* tid exactly like the oracle merge.
    """

    POOL = (
        [1, 2, 3, 4],
        [1, 2, 3, 9],
        [5, 6, 7, 8],
        [2, 4, 6, 8],
    )

    def _rows(self, n=24):
        return [list(self.POOL[i % len(self.POOL)]) for i in range(n)]

    def test_ties_at_shard_boundaries(
        self, tmp_path, cluster_scheme, cluster_queries
    ):
        rows = self._rows()
        queries = [list(p) for p in self.POOL] + cluster_queries[:2]
        # One shard is the degenerate merge.  The assignment spreads each
        # of the four tie groups (g % 4) over every shard, at four shards
        # too, where g % 4 would give each group an owner of its own.
        for shards in (("s0",), ("s0", "s1", "s2"), ("s0", "s1", "s2", "s3")):
            assignment = [
                shards[(g + g // len(self.POOL)) % len(shards)]
                for g in range(len(rows))
            ]
            with ClusterHarness(
                str(tmp_path / f"{len(shards)}-shards"),
                cluster_scheme,
                shards=shards,
                rows=rows,
                assignment=assignment,
            ) as h, h.client() as client:
                assert_cluster_identical(
                    client, rows, cluster_scheme, queries, ks=(1, 2, 5, 11, 24)
                )

    def test_ties_after_rebalance_break_by_global_tid(
        self, tmp_path, cluster_scheme
    ):
        """Moves invert shard-local tid order; ties must still sort globally."""
        rows = self._rows()
        assignment = [("s0", "s1")[g % 2] for g in range(len(rows))]
        with ClusterHarness(
            str(tmp_path),
            cluster_scheme,
            shards=("s0", "s1"),
            rows=rows,
            assignment=assignment,
        ) as h, h.client() as client:
            client.rebalance("s0", "s1", 0.75)
            client.rebalance("s1", "s0", 0.4)
            queries = [list(p) for p in self.POOL]
            assert_cluster_identical(
                client, rows, cluster_scheme, queries, ks=(1, 3, 6, 13, 24)
            )
