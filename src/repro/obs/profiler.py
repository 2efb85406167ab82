"""Low-overhead wall-clock sampling profiler (continuous profiling).

A :class:`SamplingProfiler` runs a daemon thread that wakes ``hz`` times
per second, snapshots every other thread's Python stack via
``sys._current_frames()``, and folds each stack into the
``frame;frame;frame`` **folded-stack** format that flamegraph tooling
(``flamegraph.pl``, speedscope, inferno) consumes directly.

The cost model is the sampler's whole point: the profiled code is never
instrumented — it pays nothing — and the sampler itself costs one
GIL-protected frame walk per tick (every 15 ms at the default 67 Hz);
when stopped, the cost is zero.

The default rate is deliberately a prime-ish 67 (not 100) so the
sampler cannot phase-lock with second-aligned periodic work and
systematically over- or under-sample it.

Servers expose a profiler through the ``profile`` control op (one-shot
or continuous; see :mod:`repro.service.server`) and the ``repro
profile`` CLI writes the folded output to stdout, ready for::

    repro profile --port 7800 --duration 2 > out.folded
    flamegraph.pl out.folded > flame.svg
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "DEFAULT_HZ",
    "MAX_STACK_DEPTH",
    "SamplingProfiler",
    "render_folded",
]

#: Default sampling rate (samples per second, per thread).
DEFAULT_HZ = 67.0

#: Frames kept per stack (deepest dropped first) — bounds memory on
#: pathological recursion.
MAX_STACK_DEPTH = 64


def _fold_frame(frame) -> List[str]:
    """One thread's stack as outermost-first ``module:func`` frames."""
    parts: List[str] = []
    while frame is not None and len(parts) < MAX_STACK_DEPTH:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}:{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return parts


class SamplingProfiler:
    """Wall-clock stack sampler aggregating into folded-stack counts.

    Parameters
    ----------
    hz:
        Samples per second (clamped to ``0.1 .. 1000``).
    include:
        Optional thread-name substring filter; ``None`` samples every
        thread except the sampler itself.
    """

    def __init__(self, hz: float = DEFAULT_HZ, include: Optional[str] = None):
        hz = float(hz)
        if not (0.1 <= hz <= 1000.0):
            raise ValueError(f"hz must be in [0.1, 1000], got {hz}")
        self.hz = hz
        self.include = include
        self._interval = 1.0 / hz
        self._stacks: Dict[str, int] = {}
        self._samples = 0
        self._started_s: Optional[float] = None
        self._elapsed_s = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        """Start the sampler thread (no-op if already running)."""
        if self.running:
            return self
        self._stop.clear()
        self._started_s = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling (idempotent); accumulated stacks are kept."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._started_s is not None:
            self._elapsed_s += time.perf_counter() - self._started_s
            self._started_s = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        own_id = threading.get_ident()
        names = {}
        while not self._stop.wait(self._interval):
            if self.include is not None:
                names = {
                    thread.ident: thread.name
                    for thread in threading.enumerate()
                }
            frames = sys._current_frames()
            folded: List[str] = []
            for thread_id, frame in frames.items():
                if thread_id == own_id:
                    continue
                if self.include is not None and self.include not in names.get(
                    thread_id, ""
                ):
                    continue
                parts = _fold_frame(frame)
                if parts:
                    folded.append(";".join(parts))
            with self._lock:
                self._samples += 1
                for stack in folded:
                    self._stacks[stack] = self._stacks.get(stack, 0) + 1

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Drop accumulated stacks and counters (sampling continues)."""
        with self._lock:
            self._stacks.clear()
            self._samples = 0
            self._elapsed_s = 0.0
            if self._started_s is not None:
                self._started_s = time.perf_counter()

    def snapshot(self, reset: bool = False) -> Dict[str, object]:
        """The accumulated profile as a JSON-safe dict.

        ``stacks`` maps folded stack -> sample count; ``samples`` is the
        number of sampler ticks, ``elapsed_s`` the wall time covered.
        """
        with self._lock:
            elapsed = self._elapsed_s
            if self._started_s is not None:
                elapsed += time.perf_counter() - self._started_s
            payload = {
                "hz": self.hz,
                "samples": self._samples,
                "elapsed_s": elapsed,
                "stacks": dict(self._stacks),
            }
            if reset:
                self._stacks.clear()
                self._samples = 0
                self._elapsed_s = 0.0
                if self._started_s is not None:
                    self._started_s = time.perf_counter()
        return payload

    def folded(self) -> str:
        """The profile in folded-stack text (``stack count`` per line).

        Sorted by descending count then stack, so the hottest paths come
        first and output is deterministic for tests.
        """
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return "\n".join(f"{stack} {count}" for stack, count in items)


def render_folded(snapshot: Dict[str, object]) -> str:
    """Folded-stack text from a :meth:`SamplingProfiler.snapshot` dict
    (the shape the ``profile`` control op returns over the wire)."""
    stacks = snapshot.get("stacks") or {}
    items = sorted(stacks.items(), key=lambda kv: (-int(kv[1]), kv[0]))
    return "\n".join(f"{stack} {count}" for stack, count in items)
