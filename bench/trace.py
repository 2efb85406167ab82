"""Spans recorded by the benchmark itself, around calls into each layer.

The program is not instrumented: `Recorder.wrap` replaces a public
callable of `repro` with a timing shim for the length of a traced run
and `Recorder.unwrap_all` puts the original back.  A span is
``[name, start, end, parent, request id]`` with `time.perf_counter`
times, which on Linux is CLOCK_MONOTONIC and therefore comparable
between the harness and the server process it starts.  Spans stay in
memory until `dump` writes them.

`repro.obs.Tracer` is a different thing: product telemetry, whose cost
the `traced` phase of `batch_exact` measures.  It stays off here because
activating it makes the engine take the scalar path.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

NAME, START, END, PARENT, RID = range(5)


class Recorder:
    """In-memory span list plus the shims that fill it."""

    def __init__(self):
        self.spans = []
        self.enabled = True
        self._local = threading.local()
        self._wrapped = []

    # -- recording ------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        """Start a span on this thread; returns its index."""
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(
            [name, time.perf_counter(), None, stack[-1] if stack else None, None]
        )
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def add(self, name, start, end, parent=None, rid=None):
        """Record a span whose times were taken elsewhere."""
        self.spans.append([name, start, end, parent, rid])
        return len(self.spans) - 1

    # -- shims ----------------------------------------------------------
    def wrap(self, owner, attr, name, rid_of=None, on_exit=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``rid_of(args, kwargs, result)`` gives the request id, when the
        call belongs to one request.  ``on_exit(span, args, kwargs,
        result)`` may record counts at the same boundary.  A function
        imported by name into other `repro` modules is replaced there
        too, so that the callers the program really uses are timed.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        plain = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original

        @functools.wraps(plain)
        def shim(*args, **kwargs):
            if not self.enabled:
                return plain(*args, **kwargs)
            index = self.open(name)
            result = None
            try:
                result = plain(*args, **kwargs)
                return result
            finally:
                self.close(index)
                span = self.spans[index]
                if rid_of is not None:
                    span[RID] = rid_of(args, kwargs, result)
                if on_exit is not None:
                    on_exit(span, args, kwargs, result)

        replacement = shim
        if isinstance(original, staticmethod):
            replacement = staticmethod(shim)
        elif isinstance(original, classmethod):
            replacement = classmethod(shim)
        self._replace(owner, attr, original, replacement)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                if (
                    module is not owner
                    and getattr(module, "__name__", "").startswith("repro.")
                    and module.__dict__.get(attr) is original
                ):
                    self._replace(module, attr, original, replacement)

    def wrap_async(self, owner, attr, name, rid_of):
        """As `wrap`, for a coroutine method.  Coroutines of many requests
        interleave on one thread, so these spans take no parent from the
        thread's stack; `rid_of` ties them to their request."""
        original = owner.__dict__[attr]

        @functools.wraps(original)
        async def shim(*args, **kwargs):
            if not self.enabled:
                return await original(*args, **kwargs)
            rid = rid_of(args, kwargs)
            start = time.perf_counter()
            try:
                return await original(*args, **kwargs)
            finally:
                self.add(name, start, time.perf_counter(), None, rid)

        self._replace(owner, attr, original, shim)

    def _replace(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._wrapped.append((owner, attr, original))

    def unwrap_all(self):
        while self._wrapped:
            owner, attr, original = self._wrapped.pop()
            setattr(owner, attr, original)

    # -- files ----------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its child spans cover (children may overlap each other)."""
    children = {}
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(index)
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][START]):
            lo = max(spans[child][START], cursor)
            hi = min(spans[child][END], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def by_name(spans, values=None):
    """Group durations (or the given per-span values) by span name."""
    groups = {}
    for index, span in enumerate(spans):
        value = span[END] - span[START] if values is None else values[index]
        groups.setdefault(span[NAME], []).append(value)
    return groups


def layer_sum_frac(spans, root_name):
    """Share of the root spans' time that spans below them account for.

    The self times of a root's descendants add up to the part of the
    root its children cover, so this is 1 minus the share of the root
    that no layer span explains.  A value outside [0.9, 1.1] means the
    shims missed a blocking step or span times are inconsistent.
    """
    selfs = self_times(spans)
    root_total = 0.0
    root_self = 0.0
    for index, span in enumerate(spans):
        if span[NAME] == root_name:
            root_total += span[END] - span[START]
            root_self += selfs[index]
    if root_total <= 0.0:
        return 0.0
    return (root_total - root_self) / root_total
