"""Which public callables of `repro` a traced run times, by layer.

Each `install_*` takes a `trace.Recorder` and wraps the boundary calls
of one layer.  Span names are the per-layer metric names of
BENCHMARK.json without their unit suffix.
"""

from __future__ import annotations

from trace import END, NAME, RID, START

#: Extra fields some spans carry after the five common ones.
RIDERS = 5             # core.engine.run_batch: request ids of the batch
WAL_BYTES = 5          # live.wal.append: bytes appended
ENCODED, RECEIVED = 5, 6   # service.client.request: encode done, reply read


def install_core(rec):
    from repro.core import kernels
    from repro.core.bounds import BatchBoundCalculator
    from repro.core.engine import QueryEngine
    from repro.core.search import SignatureTableSearcher
    from repro.data.transaction import TransactionDatabase

    rec.wrap(QueryEngine, "knn_batch", "core.engine.knn_batch")
    rec.wrap(kernels, "batch_activation_counts", "core.kernels.activation_counts")
    rec.wrap(BatchBoundCalculator, "optimistic_similarity", "core.bounds.optimistic")
    rec.wrap(TransactionDatabase, "match_counts_batch", "data.transaction.match_counts")
    rec.wrap(kernels, "knn_scan_batch", "core.kernels.knn_scan")
    rec.wrap(SignatureTableSearcher, "knn", "core.search.knn")


def install_sketch(rec):
    from repro.sketch import SketchIndex, SketchProbe, SuperMinHasher

    rec.wrap(SuperMinHasher, "sign", "sketch.signer.sign")
    rec.wrap(SketchIndex, "probe", "sketch.index.probe")
    rec.wrap(SketchProbe, "mask", "sketch.index.mask")


def install_live(rec):
    from repro.live.delta import DeltaIndex, DeltaSnapshot
    from repro.live.index import LiveIndex
    from repro.live.wal import WalFile, WriteAheadLog

    def wal_bytes(span, args, kwargs, result):
        span.append(result)  # bytes appended, a count at the boundary

    rec.wrap(LiveIndex, "insert", "live.index.insert")
    rec.wrap(LiveIndex, "delete", "live.index.delete")
    rec.wrap(LiveIndex, "knn", "live.index.knn")
    rec.wrap(WriteAheadLog, "append", "live.wal.append", on_exit=wal_bytes)
    rec.wrap(WalFile, "fsync", "live.wal.fsync")
    rec.wrap(DeltaIndex, "insert", "live.delta.insert")
    rec.wrap(DeltaIndex, "snapshot", "live.delta.snapshot")
    rec.wrap(DeltaSnapshot, "knn_candidates", "live.delta.knn_candidates")


def install_service(rec):
    """Server side of a request.  A request is followed by its `id`:
    decoding yields it, encoding takes it, and the batcher's riders are
    matched to their engine batch through the identity of the `items`
    list that `parse_query` builds and `run_batch` receives."""
    # The server module first: it imports the codec functions by name,
    # and `wrap` replaces them in every module that already holds them.
    import repro.service.server  # noqa: F401
    from repro.core.engine import QueryEngine
    from repro.service import frames, protocol
    from repro.service.batcher import MicroBatcher

    submitted = {}

    def message_id(args, kwargs, result):
        return result.get("id") if isinstance(result, dict) else None

    def first_arg(args, kwargs, result):
        return args[0] if args else None

    def submit_id(args, kwargs):
        request = args[1]
        submitted[id(request.items)] = request.id
        return request.id

    def batch_riders(span, args, kwargs, result):
        span.append([submitted.pop(id(t), None) for t in args[3]])

    rec.wrap(frames, "decode_payload", "service.server.decode", rid_of=message_id)
    rec.wrap(protocol, "parse_request", "service.server.decode", rid_of=message_id)
    rec.wrap(
        protocol, "parse_query", "service.protocol.parse_query",
        rid_of=lambda args, kwargs, result: args[0].get("id"),
    )
    rec.wrap_async(MicroBatcher, "submit", "service.batcher.submit", submit_id)
    rec.wrap(QueryEngine, "run_batch", "core.engine.run_batch", on_exit=batch_riders)
    rec.wrap(frames, "encode_ok_frame", "service.server.encode", rid_of=first_arg)
    rec.wrap(protocol, "ok_response", "service.server.encode", rid_of=first_arg)


class ServerTrace:
    """The server's spans, indexed so that client spans can be joined to
    them.  Wire legs are differences between timestamps of the two
    processes, which share CLOCK_MONOTONIC."""

    def __init__(self, spans):
        self.by_rid = {}
        self.batches = []
        for span in spans:
            if span[NAME] == "core.engine.run_batch":
                self.batches.append(span)
            elif span[RID] is not None:
                self.by_rid.setdefault(span[RID], {}).setdefault(span[NAME], span)
        self.batch_of = {
            rid: span for span in self.batches for rid in span[RIDERS]
        }

    def batches_between(self, start, end):
        return [b for b in self.batches if start <= b[START] and b[END] <= end]

    def queue_waits(self, start, end):
        """Seconds each rider of the batches in the window waited between
        `MicroBatcher.submit` and the start of its engine batch."""
        waits = []
        for batch in self.batches_between(start, end):
            for rid in batch[RIDERS]:
                submit = self.by_rid.get(rid, {}).get("service.batcher.submit")
                if submit is not None:
                    waits.append(batch[START] - submit[START])
        return waits

    def stitch(self, client_spans):
        """One tree per request: the client's root span gets the wire
        legs and the server's handling as children, the batcher's queue
        wait and the engine batch below that."""
        out = []
        for span in client_spans:
            rid = span[RID]
            server = self.by_rid.get(rid, {})
            decode = server.get("service.server.decode")
            encode = server.get("service.server.encode")
            submit = server.get("service.batcher.submit")
            batch = self.batch_of.get(rid)
            if None in (decode, encode, submit, batch):
                continue
            encoded, received = span[ENCODED], span[RECEIVED]
            root = len(out)
            out.append(["service.client.request", span[START], span[END], None, rid])
            out.append(["service.client.encode", span[START], encoded, root, rid])
            out.append(["service.wire.request", encoded, decode[START], root, rid])
            handle = len(out)
            out.append(["service.server.request", decode[START], encode[END], root, rid])
            out.append(["service.server.decode", decode[START], decode[END], handle, rid])
            parse = server.get("service.protocol.parse_query")
            if parse is not None:
                out.append([parse[NAME], parse[START], parse[END], handle, rid])
            sub = len(out)
            out.append(["service.batcher.submit", submit[START], submit[END], handle, rid])
            out.append(["service.batcher.queue_wait", submit[START], batch[START], sub, rid])
            out.append(["core.engine.run_batch", batch[START], batch[END], sub, rid])
            out.append(["service.server.encode", encode[START], encode[END], handle, rid])
            out.append(["service.wire.response", encode[END], received, root, rid])
            out.append(["service.client.decode", received, span[END], root, rid])
        return out
