"""Micro-batcher tests: coalescing, admission control, deadlines, drain.

The engine is stubbed — these tests pin down the *batching* semantics
(what gets coalesced, rejected, timed out) independently of the search
code; the end-to-end differential tests live in ``test_server.py``.
A request stays queued only while a batch executes, so the tests that
need one queued hold the engine busy with :class:`GatedEngine` rather
than a timing window.
"""

import asyncio
import threading
import time

import pytest

from repro.core.search import Neighbor, SearchStats
from repro.obs.trace import Tracer
from repro.service.batcher import MicroBatcher
from repro.service.protocol import ProtocolError, parse_query


class StubEngine:
    """Engine double: echoes per-target results, records batch shapes."""

    def __init__(self, delay: float = 0.0, fail: bool = False):
        self.delay = delay
        self.fail = fail
        self.calls = []

    def run_batch(self, key, similarity, targets):
        self.calls.append((key, [list(t) for t in targets]))
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("engine exploded")
        results = [
            [Neighbor(tid=len(t), similarity=float(sum(t)))] for t in targets
        ]
        stats = [
            SearchStats(total_transactions=100, transactions_accessed=len(t))
            for t in targets
        ]
        return results, stats


class GatedEngine(StubEngine):
    """A :class:`StubEngine` whose ``run_batch`` blocks until
    :meth:`release`: while it blocks, a batch is executing."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.gate = threading.Event()

    def release(self):
        self.gate.set()

    def run_batch(self, key, similarity, targets):
        self.entered.set()
        if not self.gate.wait(timeout=10.0):
            raise RuntimeError("gate never released")
        return super().run_batch(key, similarity, targets)


async def hold(batcher, engine):
    """Submit a blocker request ``[0]`` and return its task once its batch
    is inside the engine, held there until ``engine.release()``."""
    blocker = asyncio.ensure_future(batcher.submit(make_request([0])))
    assert await asyncio.to_thread(engine.entered.wait, 10.0)
    return blocker


def flush_reason(tracer):
    (queue_wait,) = [s for s in tracer.roots if s.name == "batcher.queue_wait"]
    return queue_wait.attributes["flush_reason"]


def make_request(items, k=5, similarity="match_ratio", timeout_ms=None, op="knn",
                 threshold=None):
    message = {"id": None, "op": op, "items": list(items), "similarity": similarity}
    if op == "knn":
        message["k"] = k
    if threshold is not None:
        message["threshold"] = threshold
    if timeout_ms is not None:
        message["timeout_ms"] = timeout_ms
    return parse_query(message)


class TestCoalescing:
    def test_compatible_requests_share_one_engine_call(self):
        engine = StubEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=8)
            requests = [make_request([i, i + 1]) for i in range(4)]
            results = await asyncio.gather(
                *(batcher.submit(r) for r in requests)
            )
            await batcher.drain()
            return results

        results = asyncio.run(scenario())
        assert len(engine.calls) == 1
        _, targets = engine.calls[0]
        assert targets == [[i, i + 1] for i in range(4)]
        # De-multiplexed in submission order: result i echoes target i.
        for i, (neighbors, stats) in enumerate(results):
            assert neighbors == [Neighbor(tid=2, similarity=float(2 * i + 1))]
            assert stats.transactions_accessed == 2

    def test_incompatible_keys_do_not_coalesce(self):
        engine = StubEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=8)
            await asyncio.gather(
                batcher.submit(make_request([1], k=3)),
                batcher.submit(make_request([2], k=4)),
                batcher.submit(make_request([3], similarity="jaccard", k=3)),
                batcher.submit(make_request([4], op="range", k=None, threshold=0.5)),
            )
            await batcher.drain()

        asyncio.run(scenario())
        assert len(engine.calls) == 4
        keys = {key for key, _ in engine.calls}
        assert len(keys) == 4

    def test_full_batch_flushes_before_the_timer(self):
        engine = StubEngine()

        async def scenario():
            # Four requests in one loop turn: only the size bound splits them.
            batcher = MicroBatcher(engine, max_batch_size=2)
            await asyncio.gather(
                *(batcher.submit(make_request([i])) for i in range(4))
            )
            await batcher.drain()

        asyncio.run(scenario())
        assert [len(targets) for _, targets in engine.calls] == [2, 2]

    def test_lone_request_flushes_idle_without_a_timer(self):
        """An idle engine runs a lone request at the end of the loop turn
        that admitted it: the batcher schedules no delayed call."""
        engine = StubEngine()

        async def scenario():
            loop = asyncio.get_running_loop()
            call_later = loop.call_later
            delayed = []

            def counting(delay, callback, *args, **kwargs):
                # asyncio.wait_for arms its own deadline timer; count the rest.
                if not callback.__module__.startswith("asyncio"):
                    delayed.append((delay, callback))
                return call_later(delay, callback, *args, **kwargs)

            loop.call_later = counting
            batcher = MicroBatcher(engine, max_batch_size=64)
            tracer = Tracer()
            await batcher.submit(make_request([1, 2, 3]), tracer=tracer)
            await batcher.drain()
            return delayed, tracer

        delayed, tracer = asyncio.run(scenario())
        assert len(engine.calls) == 1
        assert delayed == []
        assert flush_reason(tracer) == "idle"

    def test_arrivals_during_a_batch_form_the_next_batch(self):
        """Requests admitted while a batch executes accumulate, whatever
        loop turns they arrive in, and flush together ``ready`` when the
        running batch completes."""
        engine = GatedEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=64)
            blocker = await hold(batcher, engine)
            tracers = [Tracer() for _ in range(3)]
            riders = []
            for i, tracer in enumerate(tracers, start=1):
                riders.append(asyncio.ensure_future(
                    batcher.submit(make_request([i]), tracer=tracer)
                ))
                await asyncio.sleep(0.01)
            assert len(engine.calls) == 0  # still held
            engine.release()
            await asyncio.gather(blocker, *riders)
            await batcher.drain()
            return tracers, batcher.metrics

        tracers, metrics = asyncio.run(scenario())
        assert [targets for _, targets in engine.calls] == [
            [[0]], [[1], [2], [3]],
        ]
        assert [flush_reason(t) for t in tracers] == ["ready"] * 3
        # Every rider's queue wait is observed once, the blocker's too.
        (waits,) = metrics.registry.to_json()[
            "repro_batch_queue_wait_seconds"
        ]["samples"]
        assert waits["value"]["count"] == 4
        assert metrics.snapshot()["batching"]["mean_queue_wait_ms"] > 0.0


class TestAdmissionControl:
    def test_overload_rejected_with_structured_code(self):
        engine = StubEngine(delay=0.05)

        async def scenario():
            batcher = MicroBatcher(
                engine, max_batch_size=1, max_queue=2
            )
            outcomes = await asyncio.gather(
                *(batcher.submit(make_request([i])) for i in range(4)),
                return_exceptions=True,
            )
            await batcher.drain()
            return outcomes

        outcomes = asyncio.run(scenario())
        rejected = [
            o for o in outcomes
            if isinstance(o, ProtocolError) and o.code == "overloaded"
        ]
        completed = [o for o in outcomes if isinstance(o, tuple)]
        assert len(rejected) == 2  # admissions beyond max_queue=2
        assert len(completed) == 2

    def test_queue_slot_freed_after_completion(self):
        engine = StubEngine()

        async def scenario():
            batcher = MicroBatcher(
                engine, max_batch_size=1, max_queue=1
            )
            for i in range(3):  # sequential: never more than 1 in flight
                await batcher.submit(make_request([i]))
            assert batcher.in_flight == 0
            await batcher.drain()

        asyncio.run(scenario())
        assert len(engine.calls) == 3


class TestDeadlines:
    def test_expired_while_queued_never_executes(self):
        engine = GatedEngine()

        async def scenario():
            # The engine is held past the deadline: the request expires
            # in the bucket and must not reach the engine.
            batcher = MicroBatcher(engine, max_batch_size=64)
            blocker = await hold(batcher, engine)
            with pytest.raises(ProtocolError) as excinfo:
                await batcher.submit(make_request([1], timeout_ms=20))
            engine.release()
            await blocker
            await batcher.drain()
            return excinfo.value

        error = asyncio.run(scenario())
        assert error.code == "timeout"
        assert [targets for _, targets in engine.calls] == [[[0]]]

    def test_expired_mid_execution_unblocks_the_waiter(self):
        engine = StubEngine(delay=0.2)

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=1)
            started = time.monotonic()
            with pytest.raises(ProtocolError) as excinfo:
                await batcher.submit(make_request([1], timeout_ms=30))
            elapsed = time.monotonic() - started
            await batcher.drain()
            return excinfo.value, elapsed

        error, elapsed = asyncio.run(scenario())
        assert error.code == "timeout"
        assert elapsed < 0.15  # unblocked well before the 200 ms batch

    def test_timed_out_peer_does_not_poison_the_batch(self):
        engine = StubEngine(delay=0.05)

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=2)
            outcomes = await asyncio.gather(
                batcher.submit(make_request([1], timeout_ms=10)),
                batcher.submit(make_request([2, 3], timeout_ms=5_000)),
                return_exceptions=True,
            )
            await batcher.drain()
            return outcomes

        timed_out, completed = asyncio.run(scenario())
        assert isinstance(timed_out, ProtocolError)
        assert timed_out.code == "timeout"
        neighbors, _ = completed
        assert neighbors == [Neighbor(tid=2, similarity=5.0)]


class TestFailureAndDrain:
    def test_engine_failure_maps_to_internal_error(self):
        engine = StubEngine(fail=True)

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=2)
            outcomes = await asyncio.gather(
                batcher.submit(make_request([1])),
                batcher.submit(make_request([2])),
                return_exceptions=True,
            )
            await batcher.drain()
            return outcomes

        outcomes = asyncio.run(scenario())
        assert all(
            isinstance(o, ProtocolError) and o.code == "internal"
            for o in outcomes
        )

    def test_drain_completes_inflight_then_rejects_new(self):
        engine = GatedEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=64)
            blocker = await hold(batcher, engine)
            # Queued but not yet flushed (the engine is held): drain must
            # flush and answer it rather than drop it.
            tracer = Tracer()
            pending = asyncio.ensure_future(
                batcher.submit(make_request([9]), tracer=tracer)
            )
            await asyncio.sleep(0.01)
            draining = asyncio.ensure_future(batcher.drain())
            await asyncio.sleep(0.01)
            engine.release()
            await draining
            await blocker
            neighbors, _ = await pending
            with pytest.raises(ProtocolError) as excinfo:
                await batcher.submit(make_request([1]))
            return neighbors, excinfo.value, tracer

        neighbors, error, tracer = asyncio.run(scenario())
        assert neighbors == [Neighbor(tid=1, similarity=9.0)]
        assert error.code == "shutting_down"
        assert flush_reason(tracer) == "drain"
        assert [targets for _, targets in engine.calls] == [[[0]], [[9]]]

    def test_metrics_see_batches_and_queue_depth(self):
        engine = StubEngine()

        async def scenario():
            batcher = MicroBatcher(engine, max_batch_size=4)
            await asyncio.gather(
                *(batcher.submit(make_request([i])) for i in range(4))
            )
            await batcher.drain()
            return batcher.metrics

        metrics = asyncio.run(scenario())
        snapshot = metrics.snapshot()
        assert snapshot["batching"]["batches"] == 1
        assert metrics.batch_size_histogram == {4: 1}
        assert snapshot["requests"]["in_flight"] == 0
