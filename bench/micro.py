"""Functions too fine to wrap without distorting them, timed in tight
loops on inputs recorded from the run: `popcount`, the eight codec calls
and `Tracer.span`."""

from __future__ import annotations

import time

from harness import summarise


def per_call(fn, budget=0.06, rounds=5):
    """Seconds per call of `fn()`: `rounds` loops sized to `budget`
    seconds in all, one sample each."""
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    count = max(int(budget / rounds / once), 3)
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(count):
            fn()
        samples.append((time.perf_counter() - start) / count)
    return samples


def popcount_ns_word(db, target):
    """`kernels.popcount` over the packed rows ANDed with one packed
    target, per 64-bit word."""
    from repro.core import kernels

    rows = db.packed_rows()
    words = rows & kernels.pack_items(target, db.universe_size)[None, :]
    samples = per_call(lambda: kernels.popcount(words))
    return summarise([1e9 * s / words.size for s in samples])


def tracer_span_us():
    from repro.obs import Tracer

    tracer = Tracer()

    def one():
        with tracer.span("bench.micro"):
            pass

    with tracer.activate():
        samples = per_call(one)
    return summarise([1e6 * s for s in samples])


def codec_us(message, reply):
    """The eight codec calls on one recorded request and its reply."""
    from repro.service import frames, protocol

    request_id = reply.get("id")
    payload = {key: reply[key] for key in ("results", "stats", "correlation_id") if key in reply}
    query_bytes = frames.encode_query(message)
    result_bytes = frames.encode_result(request_id, payload)
    line = protocol.encode_request(message).decode("utf-8")
    response = protocol.ok_response(request_id, payload).decode("utf-8")
    parsed = protocol.parse_request(line)
    calls = {
        "service.frames.encode_query_us": lambda: frames.encode_query(message),
        "service.frames.decode_query_us": lambda: frames.decode_query(query_bytes),
        "service.frames.encode_result_us": lambda: frames.encode_result(request_id, payload),
        "service.frames.decode_result_us": lambda: frames.decode_result(result_bytes),
        "service.protocol.encode_request_us": lambda: protocol.encode_request(message),
        "service.protocol.parse_query_us": lambda: protocol.parse_query(parsed),
        "service.protocol.ok_response_us": lambda: protocol.ok_response(request_id, payload),
        "service.protocol.decode_response_us": lambda: protocol.decode_response(response),
    }
    return {
        name: summarise([1e6 * s for s in per_call(fn, budget=0.03)])
        for name, fn in calls.items()
    }


def timed_each(fn, inputs):
    """``fn(x)`` for every input: the seconds each took, and the results."""
    seconds, results = [], []
    for item in inputs:
        start = time.perf_counter()
        results.append(fn(item))
        seconds.append(time.perf_counter() - start)
    return seconds, results
