"""What every workload shares: inputs from the seed, closed timing loops,
summary statistics, the oracle and the host probes.

Importing this module imports `repro`; `run.py` pins the BLAS thread
count and puts `src/` on the path before it does so.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from repro.core.partitioning import partition_items
from repro.core.table import SignatureTable
from repro.data.generator import MarketBasketGenerator, parse_spec
from repro.data.transaction import as_item_array
from repro.sketch import SketchIndex

#: The indexed corpus is the same for every seed.  `partition_items` is
#: unstable under resampling (7k to 10k occupied entries on T10.I6.D25K,
#: throughput +-13%), which no run length averages out; what `--seed`
#: draws is the traffic: held-out baskets from the same generator, and
#: the order of mutations.
CORPUS_SEED = 1999

FULL_SPEC, FULL_K = "T10.I6.D25K", 15
SMALL_SPEC, SMALL_K = "T5.I3.D2K", 10
TOP_K = 10
SETUP_REPEATS = 2


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def summarise(samples):
    """Median, quartiles and count of a list of repetitions."""
    values = [float(v) for v in samples]
    if not values:
        return {"value": 0.0, "median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "median": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


def single(value, n=1):
    """A metric that is one number (a count, a ratio, a one-off time)."""
    value = float(value)
    return {"value": value, "median": value, "q1": value, "q3": value, "n": n}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Corpus:
    generator: MarketBasketGenerator
    db: object
    scheme: object
    table: SignatureTable
    timings: dict

    def held_out(self, seed, stream, count):
        """`count` baskets from the corpus' generator that are not in the
        corpus; `stream` separates the draws of one seed."""
        rng = np.random.default_rng([int(seed), int(stream)])
        drawn = self.generator.generate(count, rng=rng)
        return [drawn.items_of(t) for t in range(count)]


def build_corpus(spec, num_signatures, sketch=False):
    """Generate, partition and build, timing each public call."""
    timings = {}
    start = time.perf_counter()
    generator = MarketBasketGenerator(parse_spec(spec, seed=CORPUS_SEED))
    db = generator.generate()
    timings["data.generator.generate_s"] = time.perf_counter() - start
    start = time.perf_counter()
    scheme = partition_items(db, num_signatures=num_signatures, rng=0)
    timings["core.partitioning.partition_s"] = time.perf_counter() - start
    start = time.perf_counter()
    table = SignatureTable.build(db, scheme)
    timings["core.table.build_s"] = time.perf_counter() - start
    if sketch:
        start = time.perf_counter()
        table.attach_sketch(SketchIndex.build(db))
        timings["sketch.index.build_s"] = time.perf_counter() - start
    timings["core.table.memory_mb"] = table.memory_bytes() / 2**20
    return Corpus(generator, db, scheme, table, timings)


def timed_setup(make, close=None, repeats=SETUP_REPEATS):
    """Run `make()` `repeats` times; keep the last product.

    Returns ``(product, seconds per repetition)``.  Earlier products are
    closed and collected first, so that peak memory is that of one.
    """
    seconds = []
    product = None
    for _ in range(repeats):
        if product is not None:
            if close is not None:
                close(product)
            product = None
            gc.collect()
        start = time.perf_counter()
        product = make()
        seconds.append(time.perf_counter() - start)
    return product, seconds


# ----------------------------------------------------------------------
# Timing loops
# ----------------------------------------------------------------------
#: Batches the timed loop keeps cycling over once every batch has been
#: called.  Batches differ in cost by up to 25% (the scalar scan's time
#: follows each target's access fraction), so time is taken per batch;
#: these few are timed often enough for their medians to shed a hiccup.
TIMING_SET = 4


def run_calls(call, batches, seconds, count_pass=True, min_samples=3):
    """Closed loop of `call(batch)`.

    With `count_pass`, one pass over all of `batches` first, so that
    counts cover the same inputs on every run; then, until `seconds`
    have gone by and every batch of the timing set has `min_samples`
    samples, cycles over the first `TIMING_SET` batches.

    Returns ``(samples, outputs of the count pass)``; `samples[j]` are
    the seconds each call on batch `j` took.
    """
    timing_set = min(TIMING_SET, len(batches))
    samples = [[] for _ in batches]

    def timed(index):
        start = time.perf_counter()
        out = call(batches[index])
        samples[index].append(time.perf_counter() - start)
        return out

    deadline = time.perf_counter() + seconds
    outputs = [timed(index) for index in range(len(batches))] if count_pass else []
    cycle = 0
    while time.perf_counter() < deadline or len(samples[timing_set - 1]) < min_samples:
        timed(cycle % timing_set)
        cycle += 1
    return samples, outputs


def batch_rate(samples, batches):
    """Queries per second of a `run_calls` loop: the queries of every
    batch that was called, over the sum of their median call times.  The
    repetitions reported beside it are the rates of the single calls."""
    called = [(batch, times) for batch, times in zip(batches, samples) if times]
    queries = sum(len(batch) for batch, _ in called)
    seconds = sum(statistics.median(times) for _, times in called)
    out = summarise([len(batch) / t for batch, times in called for t in times])
    out["value"] = queries / seconds
    return out


def batch_call_ms(samples):
    """Milliseconds of one call: the batches' median call times, averaged."""
    medians = [statistics.median(times) for times in samples if times]
    out = summarise([1e3 * t for times in samples for t in times])
    out["value"] = 1e3 * statistics.fmean(medians)
    return out


def chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def top_k(db, target, similarity, k):
    """The oracle: the k best similarity values of `target` against every
    row of `db`, descending, and all the similarities.

    The computation is `LinearScanIndex`'s (match counts, hamming
    distance, the bound similarity), with `numpy.partition` where it uses
    a heap, because the heap costs 6.6 ms a query on 25k rows.  The
    signature table is not involved.
    """
    items = as_item_array(target, db.universe_size)
    x = db.match_counts(items)
    y = db.sizes + items.size - 2 * x
    sims = np.asarray(similarity.bind(items.size).evaluate(x, y), dtype=np.float64)
    k = min(k, sims.size)
    return np.sort(np.partition(sims, sims.size - k)[sims.size - k:])[::-1], sims


def check_answers(db, similarity, targets, answers, k, exact):
    """Compare kNN answers (lists of ``(tid, similarity)``) over the rows
    of `db` with the oracle.

    Returns ``(failed, recalls)``.  An answer fails when a reported
    similarity is not the true one for its tid, when it is not sorted or
    is too long, and, if `exact`, when its similarity values differ from
    the oracle's top k (a lossy tier may return fewer than k).  Recall is
    the share of returned neighbours at least as similar as the true k-th.
    """
    failed = 0
    recalls = []
    for target, answer in zip(targets, answers):
        best, sims = top_k(db, target, similarity, k)
        values = [s for _, s in answer]
        ok = (
            (len(answer) == best.size or (not exact and len(answer) < best.size))
            and all(sims[tid] == s for tid, s in answer)
            and values == sorted(values, reverse=True)
        )
        if ok and exact:
            ok = values == best.tolist()
        if not ok:
            failed += 1
        kth = best[-1] if best.size else float("-inf")
        recalls.append(sum(1 for s in values if s >= kth) / max(best.size, 1))
    return failed, recalls


def pairs(neighbors):
    """`Neighbor` objects to plain ``(tid, similarity)`` tuples."""
    return [(int(nb.tid), float(nb.similarity)) for nb in neighbors]


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------
def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_ticks():
    with open("/proc/stat", "r", encoding="ascii") as handle:
        fields = handle.readline().split()[1:]
    ticks = [int(f) for f in fields]
    steal = ticks[7] if len(ticks) > 7 else 0
    return steal, sum(ticks[:8])


def _calibrate():
    """A fixed numpy + Python kernel (about 10 ms): if it slows down, the
    host did, not the program."""
    start = time.perf_counter()
    a = np.arange(400_000, dtype=np.float64)
    for _ in range(8):
        a = np.sqrt(a * a + 1.0)
    total = 0
    for i in range(60_000):
        total += i & 7
    return 1000.0 * (time.perf_counter() - start)


class HostProbe:
    """Steal, load and the calibration kernel around each phase.  The
    numbers explain a noisy run; nothing is rescaled by them."""

    def __init__(self):
        self.calib_ms = []
        self.loadavg = []
        self._first = _cpu_ticks()
        self.mark()

    def mark(self):
        self.calib_ms.append(_calibrate())
        self.loadavg.append(os.getloadavg()[0])

    def metrics(self):
        steal, total = _cpu_ticks()
        elapsed = max(total - self._first[1], 1)
        return {
            "host.steal_frac": single((steal - self._first[0]) / elapsed),
            "host.loadavg1": summarise(self.loadavg),
            "host.calib_ms": summarise(self.calib_ms),
        }
