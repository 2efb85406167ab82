"""The five workloads.  Each takes a `Context`, sets the system up from
the seed, runs its timed phases, checks the answers against an oracle
and returns ``{"metrics", "attempted", "failed", "valid", "notes"}``.

A workload always computes its end-to-end metrics.  With `ctx.trace` it
also wraps the layer boundaries (`layers.py`) and adds the per-layer
metrics.  Every phase then spends a quarter of its time with the shims
switched off, half of it before and half after the wrapped slice, so that
the cost of the wrapping (`bench.trace_overhead_frac`) comes from one
process on one set-up and a drift of the host weighs on both sides.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

import layers
import micro
import trace
from client import LoadClient, control
from harness import (
    FULL_K, FULL_SPEC, SMALL_K, SMALL_SPEC, TIMING_SET, TOP_K,
    HostProbe, build_corpus, check_answers, chunks, pairs,
    batch_call_ms, batch_rate, peak_rss_mb, run_calls, single, summarise, timed_setup,
)
from repro.core.engine import QueryEngine
from repro.core.search import SignatureTableSearcher
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.live import LiveIndex
from repro.obs import Tracer
from repro.service.protocol import encode_search_stats

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Share of a phase that a traced run spends unwrapped.
PLAIN_SHARE = 0.25


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work_dir: Path
    recorder: trace.Recorder
    host: HostProbe

    def spec(self, small=False):
        if small or self.smoke:
            return SMALL_SPEC, SMALL_K
        return FULL_SPEC, FULL_K


@dataclass
class Phase:
    batches: list
    samples: list        # `run_calls` samples (of the wrapped calls in a traced run)
    plain: list          # the same, unwrapped
    first_pass: list     # output of the count pass
    spans: list          # spans of the wrapped calls, [] when not tracing
    queries: int         # queries answered, both slices

    def ops_s(self):
        return batch_rate(self.samples, self.batches)

    def trace_overhead(self):
        """Share of throughput the wrapping costs, 1 - wrapped / unwrapped,
        on the timing set, which is all the unwrapped slice runs."""
        timing_set = [j for j, times in enumerate(self.plain) if times]
        wrapped = batch_rate([self.samples[j] for j in timing_set], self.batches)
        plain = batch_rate([self.plain[j] for j in timing_set], self.batches)
        return single(1.0 - wrapped["value"] / plain["value"])


def run_phase(ctx, call, batches, seconds):
    """One closed-loop phase over `batches`; see the module docstring."""
    ctx.host.mark()
    rec = ctx.recorder
    answered = 0

    def counted(batch):
        nonlocal answered
        answered += len(batch)
        return call(batch)

    if not ctx.trace:
        samples, first = run_calls(counted, batches, seconds)
        return Phase(batches, samples, samples, first, [], answered)

    def unwrapped():
        return run_calls(
            counted, batches, seconds * PLAIN_SHARE / 2, count_pass=False, min_samples=1
        )[0]

    for batch in batches[:TIMING_SET]:
        counted(batch)  # warm-up: the first calls after set-up run slow
    plain = unwrapped()
    rec.enabled = True

    def rooted(batch):
        index = rec.open("bench.call")
        try:
            return counted(batch)
        finally:
            rec.close(index)

    samples, first = run_calls(rooted, batches, seconds * (1 - PLAIN_SHARE))
    spans = list(rec.spans)
    rec.spans.clear()
    rec.enabled = False
    plain = [before + after for before, after in zip(plain, unwrapped())]
    return Phase(batches, samples, plain, first, spans, answered)


def flatten(first_pass):
    """First-pass outputs of `knn_batch` to per-query answers and stats."""
    answers, stats = [], []
    for results, batch_stats in first_pass:
        answers.extend(pairs(r) for r in results)
        stats.extend(batch_stats)
    return answers, stats


def scaled(groups, name, scale):
    return summarise([scale * v for v in groups.get(name, ())])


def mean_of(values):
    values = list(values)
    return single(statistics.fmean(values), len(values))


def end_to_end(setup, main_ops, alt_ops, op_ms, recalls, alt_recalls, stats, rss):
    """The eight end-to-end metrics; `stats` are the `SearchStats` of the
    main phase's count pass."""
    return {
        "setup_s": summarise(setup),
        "main_ops_s": main_ops,
        "alt_ops_s": alt_ops,
        "op_p50_ms": op_ms,
        "recall": mean_of(recalls),
        "alt_recall": mean_of(alt_recalls),
        "access_frac": mean_of(s.access_fraction for s in stats),
        "peak_rss_mb": single(rss),
    }


def reconcile(spans, root_name):
    """`bench.layer_sum_frac` of a traced run and whether it passes."""
    frac = trace.layer_sum_frac(spans, root_name)
    return single(frac), 0.9 <= frac <= 1.1


def build_metrics(corpus):
    return {name: single(value) for name, value in corpus.timings.items()}


# ----------------------------------------------------------------------
# batch_exact, batch_budgeted: in-process QueryEngine.knn_batch
# ----------------------------------------------------------------------
def core_metrics(main, scalar):
    """`core` layer metrics: the packed path from the spans of phase
    `main`, the scalar path from those of phase `scalar`."""
    groups = trace.by_name(main.spans)
    selfs = trace.by_name(main.spans, trace.self_times(main.spans))
    out = {
        "core.engine.knn_batch_ms": scaled(groups, "core.engine.knn_batch", 1e3),
        "core.engine.self_ms": scaled(selfs, "core.engine.knn_batch", 1e3),
        "core.kernels.activation_counts_ms": scaled(groups, "core.kernels.activation_counts", 1e3),
        "core.bounds.optimistic_ms": scaled(groups, "core.bounds.optimistic", 1e3),
        "data.transaction.match_counts_ms": scaled(groups, "data.transaction.match_counts", 1e3),
        "core.kernels.knn_scan_ms": scaled(groups, "core.kernels.knn_scan", 1e3),
    }
    out["core.search.knn_ms"] = scaled(trace.by_name(scalar.spans), "core.search.knn", 1e3)
    return out


def scalar_calls_per_query(phase, queries_per_call):
    calls = sum(1 for s in phase.spans if s[trace.NAME] == "core.search.knn")
    roots = sum(1 for s in phase.spans if s[trace.NAME] == "bench.call")
    return single(calls / (roots * queries_per_call) if roots else 0.0)


def count_spans(tracer):
    def size(span):
        return 1 + sum(size(child) for child in span.children)
    return sum(size(root) for root in tracer.roots)


def batch_exact(ctx):
    spec, num_signatures = ctx.spec()
    similarity = get_similarity("match_ratio")
    # The traced phase answers 50 queries a second against 420, so it
    # makes its count pass over half as many targets.
    num_targets, num_traced = (64, 32) if ctx.smoke else (256, 128)

    def make():
        corpus = build_corpus(spec, num_signatures)
        targets = corpus.held_out(ctx.seed, 0, num_targets)
        engine = QueryEngine.for_table(corpus.table, corpus.db)
        engine.knn_batch(targets[:2], similarity, k=TOP_K)  # lazy caches belong to set-up
        return corpus, targets, engine

    (corpus, targets, engine), setup = timed_setup(make)
    if ctx.trace:
        layers.install_core(ctx.recorder)
    last_tracer = []

    def exact(batch):
        return engine.knn_batch(batch, similarity, k=TOP_K)

    def traced(batch):
        tracer = Tracer()
        with tracer.activate():
            out = engine.knn_batch(batch, similarity, k=TOP_K)
        last_tracer[:] = [tracer]
        return out

    main = run_phase(ctx, exact, chunks(targets, 64), 0.4 * ctx.seconds)
    alt = run_phase(ctx, traced, chunks(targets[:num_traced], 16), 0.6 * ctx.seconds)
    ctx.host.mark()
    rss = peak_rss_mb()

    answers, stats = flatten(main.first_pass)
    failed, recalls = check_answers(corpus.db, similarity, targets, answers, TOP_K, exact=True)
    alt_answers, _ = flatten(alt.first_pass)
    alt_failed, alt_recalls = check_answers(
        corpus.db, similarity, targets[:num_traced], alt_answers, TOP_K, exact=True
    )
    metrics = end_to_end(
        setup, main.ops_s(), alt.ops_s(), batch_call_ms(main.samples),
        recalls, alt_recalls, stats, rss,
    )
    valid = True
    if ctx.trace:
        frac, valid = reconcile(main.spans, "bench.call")
        metrics.update(build_metrics(corpus))
        metrics.update(core_metrics(main, alt))
        metrics.update({
            "core.search.calls_per_query": scalar_calls_per_query(main, 64),
            "core.search.entries_scanned": mean_of(s.entries_scanned for s in stats),
            "core.kernels.popcount_ns_word": micro.popcount_ns_word(corpus.db, targets[0]),
            "obs.trace.spans_per_query": single(count_spans(last_tracer[0]) / 16),
            "obs.trace.span_us": micro.tracer_span_us(),
            "bench.trace_overhead_frac": main.trace_overhead(),
            "bench.layer_sum_frac": frac,
        })
    return {
        "metrics": metrics,
        "attempted": main.queries + alt.queries,
        "failed": failed + alt_failed,
        "valid": valid,
    }


def batch_budgeted(ctx):
    spec, num_signatures = ctx.spec()
    similarity = get_similarity("jaccard")
    # Recall is a mean over targets, and its spread from seed to seed falls
    # with their number; `early` answers 400 queries a second and can
    # afford four times as many as `lsh` at 57.
    num_lsh, num_early = (64, 128) if ctx.smoke else (256, 1024)

    def make():
        corpus = build_corpus(spec, num_signatures, sketch=True)
        targets = corpus.held_out(ctx.seed, 0, num_early)
        engine = QueryEngine.for_table(corpus.table, corpus.db)
        engine.knn_batch(targets[:2], similarity, k=TOP_K)  # lazy caches belong to set-up
        return corpus, targets, engine

    (corpus, targets, engine), setup = timed_setup(make)
    if ctx.trace:
        layers.install_core(ctx.recorder)
        layers.install_sketch(ctx.recorder)

    def lsh(batch):
        return engine.knn_batch(
            batch, similarity, k=TOP_K, candidate_tier="lsh", target_recall=0.95
        )

    def early(batch):
        return engine.knn_batch(batch, similarity, k=TOP_K, early_termination=0.02)

    main = run_phase(ctx, lsh, chunks(targets[:num_lsh], 16), 0.6 * ctx.seconds)
    alt = run_phase(ctx, early, chunks(targets, 64), 0.4 * ctx.seconds)
    ctx.host.mark()
    rss = peak_rss_mb()

    answers, stats = flatten(main.first_pass)
    failed, recalls = check_answers(
        corpus.db, similarity, targets[:num_lsh], answers, TOP_K, exact=False
    )
    alt_answers, _ = flatten(alt.first_pass)
    alt_failed, alt_recalls = check_answers(
        corpus.db, similarity, targets, alt_answers, TOP_K, exact=False
    )
    metrics = end_to_end(
        setup, main.ops_s(), alt.ops_s(), batch_call_ms(main.samples),
        recalls, alt_recalls, stats, rss,
    )
    valid = True
    if ctx.trace:
        groups = trace.by_name(main.spans)
        frac, valid = reconcile(main.spans, "bench.call")
        estimated = statistics.fmean(s.estimated_recall for s in stats)
        metrics.update(build_metrics(corpus))
        metrics.update(core_metrics(main, main))
        metrics.update({
            "core.search.calls_per_query": scalar_calls_per_query(main, 16),
            "core.search.entries_scanned": mean_of(s.entries_scanned for s in stats),
            "sketch.signer.sign_us": scaled(groups, "sketch.signer.sign", 1e6),
            "sketch.index.probe_us": scaled(groups, "sketch.index.probe", 1e6),
            "sketch.index.mask_us": scaled(groups, "sketch.index.mask", 1e6),
            "sketch.index.candidates": mean_of(s.sketch_candidates for s in stats),
            "sketch.index.est_recall_gap": single(
                estimated - metrics["recall"]["value"], len(stats)),
            "bench.trace_overhead_frac": main.trace_overhead(),
            "bench.layer_sum_frac": frac,
        })
    return {
        "metrics": metrics,
        "attempted": main.queries + alt.queries,
        "failed": failed + alt_failed,
        "valid": valid,
    }


# ----------------------------------------------------------------------
# serve_scan, serve_wire: `python -m repro serve` as its own process
# ----------------------------------------------------------------------
class Server:
    """A `repro serve` process on a port the kernel chose.  A traced one
    goes through `serve_entry.py`, which wraps the layer boundaries with
    shims that start switched off, and then calls the same CLI entry
    point."""

    def __init__(self, work_dir, traced):
        self.spans_path = work_dir / "server-spans.json" if traced else None
        serve = ["serve", str(work_dir / "db.npz"), str(work_dir / "table.npz"), "--port", "0"]
        if traced:
            command = [sys.executable, str(BENCH_DIR / "serve_entry.py"),
                       "--spans-out", str(self.spans_path)] + serve
        else:
            command = [sys.executable, "-m", "repro"] + serve
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            banner = self.process.stdout.readline()
            self.port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            if not control(self.port, {"op": "ping"}).get("pong"):
                raise RuntimeError("server did not answer ping")
        except Exception:
            self.kill()
            raise

    def cpu_seconds(self):
        with open(f"/proc/{self.process.pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self):
        with open(f"/proc/{self.process.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def toggle_shims(self):
        """Switch the shims of a traced server on or off; the ping returns
        once its event loop has run the signal handler."""
        self.process.send_signal(signal.SIGUSR1)
        control(self.port, {"op": "ping"})

    def stop(self):
        """Ask for a drain, wait for the exit; returns the spans of a
        traced server."""
        try:
            control(self.port, {"op": "shutdown"})
            self.process.wait(timeout=30)
        except Exception:
            self.kill()
        finally:
            self.process.stdout.close()
        if self.spans_path is not None and self.spans_path.exists():
            return trace.Recorder.load(self.spans_path)
        return []

    def kill(self):
        self.process.kill()
        self.process.wait()


@dataclass
class ServePhase:
    name: str
    wire: str
    connections: int
    depth: int
    share: float      # of the run's seconds


def knn_message(items, similarity):
    return {"op": "knn", "items": [int(i) for i in items], "similarity": similarity, "k": TOP_K}


def chunk_rates(done, start, chunks=20):
    """Completions per second over `chunks` runs of equally many
    completions.  Replies arrive in bursts of a batch, so windows of equal
    time would hold a whole number of bursts and quantise the rate."""
    rates = []
    previous = start
    for index in range(1, chunks + 1):
        upto = index * len(done) // chunks
        since = (index - 1) * len(done) // chunks
        if upto > since and done[upto - 1] > previous:
            rates.append((upto - since) / (done[upto - 1] - previous))
            previous = done[upto - 1]
    return rates


def drive(server, phases, messages, ids, seconds, full_pass, traced):
    """Run every phase against `server`; returns per-phase measurements."""
    out = {}
    for phase in phases:
        client = LoadClient(server.port, phase.wire, phase.connections, phase.depth, ids)
        try:
            client.run(messages[:50], 0.0)  # warm-up: connection, codecs, first batches
            spans = [] if traced else None
            client.wire_bytes = 0
            cpu_server, cpu_client = server.cpu_seconds(), time.process_time()
            start = time.perf_counter()
            done, latencies, replies = client.run(
                messages, seconds * phase.share, full_pass=full_pass, spans=spans
            )
            end = time.perf_counter()
            out[phase.name] = {
                "done": done, "latencies": latencies, "replies": replies,
                "start": start, "end": end, "spans": spans or [],
                "server_cpu": server.cpu_seconds() - cpu_server,
                "client_cpu": time.process_time() - cpu_client,
                "wire_bytes": client.wire_bytes,
            }
        finally:
            client.close()
    return out


def check_replies(replies, expected):
    """Replies must be byte-identical to direct `knn_batch`: the same
    ``(tid, similarity)`` pairs and the same search statistics."""
    failed = 0
    for reply, (neighbors, stats) in zip(replies, expected):
        if reply is None or not reply.get("ok"):
            failed += 1
            continue
        got = [(r["tid"], r["similarity"]) for r in reply["results"]]
        want_stats = encode_search_stats(stats)
        got_stats = dict(reply["stats"])
        for volatile in ("latency_ms",):
            want_stats.pop(volatile, None)
            got_stats.pop(volatile, None)
        if got != pairs(neighbors) or got_stats != want_stats:
            failed += 1
    return failed


def serve(ctx, small, phases, main, alt):
    """Both served workloads; `main` and `alt` name the phases behind
    `main_ops_s` and `alt_ops_s`, and `lat` is always the latency phase."""
    spec, num_signatures = ctx.spec(small)
    similarity = "match_ratio"
    num_targets = 64 if ctx.smoke else 256

    def make():
        corpus = build_corpus(spec, num_signatures)
        corpus.db.save(str(ctx.work_dir / "db.npz"))
        corpus.table.save(str(ctx.work_dir / "table.npz"))
        targets = corpus.held_out(ctx.seed, 0, num_targets)
        return corpus, targets, Server(ctx.work_dir, traced=ctx.trace)

    (corpus, targets, server), setup = timed_setup(make, close=lambda made: made[2].stop())
    messages = [knn_message(t, similarity) for t in targets]
    ids = itertools.count(1000)
    server_spans = []
    try:
        ctx.host.mark()
        if ctx.trace:
            half = ctx.seconds * PLAIN_SHARE / 2
            before = drive(server, phases, messages, ids, half, False, False)
            server.toggle_shims()
            runs = drive(
                server, phases, messages, ids, ctx.seconds * (1 - PLAIN_SHARE), True, True
            )
            server.toggle_shims()
            after = drive(server, phases, messages, ids, half, False, False)
            plain_rate = statistics.median(
                chunk_rates(before[main]["done"], before[main]["start"], 10)
                + chunk_rates(after[main]["done"], after[main]["start"], 10)
            )
            extra = sum(len(r["done"]) for r in list(before.values()) + list(after.values()))
        else:
            runs = drive(server, phases, messages, ids, ctx.seconds, True, False)
            extra = 0
        # Both wires answer identically: check NDJSON even when no timed
        # phase uses it.
        ndjson = LoadClient(server.port, "ndjson", 1, 4, ids)
        try:
            _, _, ndjson_replies = ndjson.run(messages[:32], 0.0)
        finally:
            ndjson.close()
        ctx.host.mark()
        rss = server.peak_rss_mb()
    finally:
        server_spans = server.stop()

    engine = QueryEngine.for_table(corpus.table, corpus.db)
    results, stats = engine.knn_batch(targets, get_similarity(similarity), k=TOP_K)
    expected = list(zip(results, stats))
    failed = check_replies(ndjson_replies, expected[:32])
    for run in runs.values():
        failed += check_replies(run["replies"], expected)
    # The direct answers are themselves checked, so that a wrong engine
    # cannot vouch for a wrong server.
    direct_failed, recalls = check_answers(
        corpus.db, get_similarity(similarity), targets,
        [pairs(r) for r in results], TOP_K, exact=True,
    )
    failed += direct_failed
    attempted = 32 + extra + sum(len(r["done"]) for r in runs.values())

    def ops_s(run):
        return summarise(chunk_rates(run["done"], run["start"]))

    lat = runs["lat"]
    metrics = end_to_end(
        setup, ops_s(runs[main]), ops_s(runs[alt]),
        summarise([1e3 * s for s in lat["latencies"]]), recalls, recalls, stats, rss,
    )
    valid = True
    if ctx.trace:
        server_trace = layers.ServerTrace(server_spans)
        tree = server_trace.stitch(lat["spans"])
        frac, valid = reconcile(tree, "service.client.request")
        selfs = trace.by_name(tree, trace.self_times(tree))
        cap = runs[main]
        batches = server_trace.batches_between(cap["start"], cap["end"])
        requests = max(len(cap["done"]), 1)
        latencies = sorted(lat["latencies"])
        engine_spans = trace.by_name(server_spans)
        metrics.update(build_metrics(corpus))
        metrics.update(micro.codec_us(dict(messages[0], id=1), lat["replies"][0]))
        metrics.update({
            "service.batcher.queue_wait_ms": summarise(
                [1e3 * w for w in server_trace.queue_waits(cap["start"], cap["end"])]),
            "service.batcher.batch_size": summarise([len(b[layers.RIDERS]) for b in batches]),
            "service.batcher.batches": single(len(batches)),
            "core.engine.run_batch_ms": summarise(
                [1e3 * (b[trace.END] - b[trace.START]) for b in batches]),
            "core.engine.knn_batch_ms": scaled(engine_spans, "core.engine.knn_batch", 1e3),
            "core.kernels.knn_scan_ms": scaled(engine_spans, "core.kernels.knn_scan", 1e3),
            "service.server.self_ms": scaled(selfs, "service.server.request", 1e3),
            "service.server.cpu_ms_req": single(1e3 * cap["server_cpu"] / requests),
            "service.client.cpu_ms_req": single(1e3 * cap["client_cpu"] / requests),
            "service.server.wire_bytes_req": single(cap["wire_bytes"] / requests),
            "service.req_p99_ms": single(
                1e3 * latencies[int(0.99 * (len(latencies) - 1))], len(latencies)),
            "core.search.entries_scanned": mean_of(s.entries_scanned for s in stats),
            "bench.trace_overhead_frac": single(
                1.0 - metrics["main_ops_s"]["value"] / plain_rate),
            "bench.layer_sum_frac": frac,
        })
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "valid": valid}


def serve_scan(ctx):
    phases = [
        ServePhase("lat", "binary", 1, 1, 0.5),
        ServePhase("cap", "binary", 2, 8, 0.5),
    ]
    return serve(ctx, False, phases, main="cap", alt="lat")


def serve_wire(ctx):
    phases = [
        ServePhase("lat", "binary", 1, 1, 0.3),
        ServePhase("cap", "binary", 2, 8, 0.35),
        ServePhase("cap_ndjson", "ndjson", 2, 8, 0.35),
    ]
    return serve(ctx, True, phases, main="cap", alt="cap_ndjson")


# ----------------------------------------------------------------------
# live_mixed: writes beside reads on a LiveIndex
# ----------------------------------------------------------------------
def rows_of(db):
    return [tuple(db.items_of(t).tolist()) for t in range(len(db))]


LIVE_CYCLES_PER_S = 5


class Cycle(NamedTuple):
    """One cycle of `live_mixed`: 16 mutations, then one kNN."""
    mutate_s: float
    query_s: float
    end: float
    stats: object

#: Targets whose answers on the final state are compared with a fresh
#: build; a live query costs about 140 ms, so this is kept small.
LIVE_CHECKED = 8


def live_mixed(ctx):
    spec, num_signatures = ctx.spec()
    similarity = get_similarity("match_ratio")
    live_dir = ctx.work_dir / "live"
    num_targets = 32

    def make():
        corpus = build_corpus(spec, num_signatures)
        fresh = corpus.held_out(ctx.seed, 1, 4096)
        targets = corpus.held_out(ctx.seed, 0, num_targets)
        shutil.rmtree(live_dir, ignore_errors=True)
        index = LiveIndex.create(str(live_dir), corpus.db, table=corpus.table, fsync_interval=8)
        preload = len(corpus.db) // 20
        for row in fresh[:preload]:
            index.insert(row)
        return corpus, fresh, targets, index, preload

    (corpus, fresh, targets, index, cursor), setup = timed_setup(
        make, close=lambda made: made[3].close()
    )
    # The model the final state is checked against: the logical rows, in
    # logical tid order, under the same operations.
    model = rows_of(corpus.db) + [tuple(r.tolist()) for r in fresh[:cursor]]
    num_base = len(corpus.db)
    rng = np.random.default_rng([ctx.seed, 2])
    rec = ctx.recorder
    if ctx.trace:
        layers.install_core(rec)
        layers.install_live(rec)

    def cycle(number):
        """8 inserts, 4 deletes of base rows, 4 of delta rows, one kNN."""
        nonlocal cursor, num_base
        start = time.perf_counter()
        for _ in range(8):
            row = fresh[cursor % len(fresh)]
            cursor += 1
            index.insert(row)
            model.append(tuple(row.tolist()))
        for _ in range(4):
            tid = int(rng.integers(0, num_base))
            index.delete(tid)
            del model[tid]
            num_base -= 1
        for _ in range(4):
            tid = int(rng.integers(num_base, len(model)))
            index.delete(tid)
            del model[tid]
        middle = time.perf_counter()
        _, stats = index.knn(targets[number % len(targets)], similarity, k=TOP_K)
        end = time.perf_counter()
        return Cycle(middle - start, end - middle, end, stats)

    # A query costs more the more tombstones have accumulated, so a loop
    # bounded by time would measure a later state on a faster machine.
    # The loop does a fixed number of cycles instead, `LIVE_CYCLES_PER_S`
    # for each second asked for (about 0.1 s a cycle on the 2-core host).
    total = max(int(LIVE_CYCLES_PER_S * ctx.seconds), len(targets))
    ctx.host.mark()
    half = int(total * PLAIN_SHARE / 2) if ctx.trace else 0
    plain = [cycle(number) for number in range(half)]
    rec.enabled = ctx.trace
    cycles = []
    loop_start = time.perf_counter()
    for number in range(half, total - half):
        root = rec.open("bench.cycle") if ctx.trace else None
        cycles.append(cycle(number))
        if root is not None:
            rec.close(root)
    rec.enabled = False
    plain += [cycle(number) for number in range(total - half, total)]
    spans = list(rec.spans)
    rec.spans.clear()
    ctx.host.mark()
    rss = peak_rss_mb()

    # Queries saw a different state each, so the gate is on the final
    # state: the logical rows equal the model, a fresh build over them
    # answers identically, and recovery from the directory alone
    # reproduces every acknowledged operation.
    failed = 0
    logical = index.logical_db()
    if rows_of(logical) != model:
        failed += 1
    frozen = SignatureTableSearcher(SignatureTable.build(logical, corpus.scheme), logical)
    checked = targets[:LIVE_CHECKED]
    live_each, live_answers = micro.timed_each(
        lambda t: pairs(index.knn(t, similarity, k=TOP_K)[0]), checked)
    frozen_each, frozen_answers = micro.timed_each(
        lambda t: pairs(frozen.knn(t, similarity, k=TOP_K)[0]), checked)
    failed += sum(1 for a, b in zip(live_answers, frozen_answers) if a != b)
    oracle_failed, recalls = check_answers(
        logical, similarity, checked, live_answers, TOP_K, exact=True
    )
    failed += oracle_failed
    index.close()
    start = time.perf_counter()
    recovered = LiveIndex.recover(str(live_dir), fsync_interval=8)
    recover_s = time.perf_counter() - start
    try:
        if rows_of(recovered.logical_db()) != model:
            failed += 1
        checkpoint_s = compact_s = 0.0
        if ctx.trace:
            start = time.perf_counter()
            recovered.checkpoint()
            checkpoint_s = time.perf_counter() - start
            start = time.perf_counter()
            recovered.compact()
            compact_s = time.perf_counter() - start
            if rows_of(recovered.logical_db()) != model:
                failed += 1
    finally:
        recovered.close()

    first_pass = [c.stats for c in cycles[:len(targets)]]
    metrics = end_to_end(
        setup,
        summarise([16 / c.mutate_s for c in cycles]),
        summarise([17 * r for r in chunk_rates([c.end for c in cycles], loop_start, 10)]),
        summarise([1e3 * c.query_s for c in cycles]),
        recalls, recalls, first_pass, rss,
    )
    valid = True
    if ctx.trace:
        groups = trace.by_name(spans)
        selfs = trace.by_name(spans, trace.self_times(spans))
        frac, valid = reconcile(spans, "bench.cycle")
        appends = [s for s in spans if s[trace.NAME] == "live.wal.append"]
        fsyncs = len(groups.get("live.wal.fsync", ()))
        plain_rate = statistics.median(16 / c.mutate_s for c in plain)
        metrics.update(build_metrics(corpus))
        metrics.update({
            "live.index.insert_us": scaled(groups, "live.index.insert", 1e6),
            "live.index.delete_us": scaled(groups, "live.index.delete", 1e6),
            "live.wal.append_us": scaled(groups, "live.wal.append", 1e6),
            "live.wal.fsync_us": scaled(groups, "live.wal.fsync", 1e6),
            "live.wal.fsyncs_per_kop": single(1e3 * fsyncs / max(len(appends), 1)),
            "live.wal.bytes_op": single(
                statistics.fmean(s[layers.WAL_BYTES] for s in appends) if appends else 0.0,
                len(appends)),
            "live.delta.insert_us": scaled(groups, "live.delta.insert", 1e6),
            "live.delta.snapshot_us": scaled(groups, "live.delta.snapshot", 1e6),
            "live.delta.knn_candidates_ms": scaled(groups, "live.delta.knn_candidates", 1e3),
            "live.index.base_scan_ms": scaled(groups, "core.search.knn", 1e3),
            "live.index.merge_self_ms": scaled(selfs, "live.index.knn", 1e3),
            "live.index.frozen_ratio": single(
                statistics.median(live_each) / statistics.median(frozen_each), len(checked)),
            "live.index.checkpoint_s": single(checkpoint_s),
            "live.index.compact_s": single(compact_s),
            "live.index.recover_s": single(recover_s),
            "core.search.knn_ms": scaled(groups, "core.search.knn", 1e3),
            "core.search.calls_per_query": single(
                len(groups.get("core.search.knn", ())) / len(cycles)),
            "core.search.entries_scanned": mean_of(s.entries_scanned for s in first_pass),
            "bench.trace_overhead_frac": single(
                1.0 - metrics["main_ops_s"]["value"] / plain_rate),
            "bench.layer_sum_frac": frac,
        })
    return {
        "metrics": metrics,
        "attempted": 17 * (len(cycles) + len(plain)) + 2 * len(checked),
        "failed": failed,
        "valid": valid,
    }


WORKLOADS = {
    "batch_exact": batch_exact,
    "batch_budgeted": batch_budgeted,
    "serve_scan": serve_scan,
    "serve_wire": serve_wire,
    "live_mixed": live_mixed,
}
