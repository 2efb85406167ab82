"""Readers must not block (or observe torn state) during compaction."""

import threading
import time

import numpy as np
import pytest

from repro.core.similarity import get_similarity
from repro.core import table as table_module
from repro.live import LiveIndex

from tests.live.conftest import random_transaction


def test_queries_identical_while_compacting(tmp_path, base_db, scheme):
    """Hammer knn from threads across a compaction: results never change.

    The logical database is invariant under compaction, so every reader
    must see byte-identical answers before, during and after the swap.
    """
    rng = np.random.default_rng(30)
    similarity = get_similarity("jaccard")
    with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
        for _ in range(30):
            live.insert(random_transaction(rng))
        for _ in range(10):
            live.delete(int(rng.integers(0, live.num_transactions)))
        targets = [random_transaction(rng) for _ in range(6)]
        expected = [
            [(n.tid, n.similarity) for n in live.knn(t, similarity, k=5)[0]]
            for t in targets
        ]

        stop = threading.Event()
        failures = []

        def reader(target, want):
            while not stop.is_set():
                try:
                    got = [
                        (n.tid, n.similarity)
                        for n in live.knn(target, similarity, k=5)[0]
                    ]
                except Exception as error:  # a dead reader is a failure too
                    failures.append((target.tolist(), repr(error)))
                    return
                if got != want:
                    failures.append((target.tolist(), got, want))
                    return

        threads = [
            threading.Thread(target=reader, args=(t, w), daemon=True)
            for t, w in zip(targets, expected)
        ]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3):  # several swaps while readers run
                live.insert(random_transaction(rng))
                live.delete(live.num_transactions - 1)  # net no-op
                compaction = live.compact_in_background()
                compaction.join(timeout=60)
                assert not compaction.is_alive()
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not failures, failures[:1]
        assert live.compactions == 3


def test_readers_not_blocked_by_slow_rebuild(
    tmp_path, base_db, scheme, monkeypatch
):
    """A query completes while the compaction rebuild is still running.

    The rebuild happens under the mutation lock but *outside* the swap
    lock; we slow the rebuild down and prove a reader finishes inside
    its window, so compaction never stalls the read path.
    """
    similarity = get_similarity("match_ratio")
    with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
        live.insert([1, 2, 3])

        in_rebuild = threading.Event()
        real_build = table_module.SignatureTable.build

        def slow_build(db, build_scheme, page_size=64):
            in_rebuild.set()
            time.sleep(1.0)
            return real_build(db, build_scheme, page_size=page_size)

        monkeypatch.setattr(
            table_module.SignatureTable, "build", staticmethod(slow_build)
        )
        compaction = live.compact_in_background()
        assert in_rebuild.wait(timeout=30)
        started = time.monotonic()
        neighbors, _ = live.knn([1, 2, 3], similarity, k=3)
        elapsed = time.monotonic() - started
        assert compaction.is_alive(), "rebuild finished too fast to prove anything"
        assert neighbors and elapsed < 0.9, (
            f"query took {elapsed:.2f}s during rebuild — readers blocked"
        )
        compaction.join(timeout=60)
        assert live.compactions == 1


def test_writers_serialised_with_compaction(tmp_path, base_db, scheme):
    """Concurrent inserts during repeated compaction never deadlock or tear."""
    rng = np.random.default_rng(31)
    with LiveIndex.create(tmp_path / "idx", base_db, scheme=scheme) as live:
        errors = []

        def writer(seed):
            w_rng = np.random.default_rng(seed)
            try:
                for _ in range(15):
                    live.insert(random_transaction(w_rng))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(seed,), daemon=True)
            for seed in range(4)
        ]
        for thread in threads:
            thread.start()
        for _ in range(3):
            live.compact()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not errors
        assert live.num_transactions == len(base_db) + 4 * 15
        # Every acknowledged insert is queryable and the state is sane.
        db = live.logical_db()
        assert len(db) == live.num_transactions
        del rng
