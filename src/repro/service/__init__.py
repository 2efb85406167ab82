"""Online query serving: async server, micro-batcher, metrics, client.

The serving subsystem keeps one batched engine
(:class:`~repro.core.engine.QueryEngine`, or the live-index and cluster
router adapters with the same ``run_batch``) resident and exposes it
to concurrent clients over a newline-delimited-JSON TCP protocol:

* :mod:`repro.service.protocol` — the NDJSON wire format and error
  codes;
* :mod:`repro.service.frames` — the length-prefixed binary frame
  protocol a connection can negotiate instead (see ``docs/wire.md``);
* :mod:`repro.service.batcher` — dynamic micro-batching with admission
  control and per-request deadlines;
* :mod:`repro.service.metrics` — live counters behind the ``stats`` op;
* :mod:`repro.service.server` — the asyncio TCP server with graceful
  drain (and :func:`serve_in_background` for in-process harnesses);
* :mod:`repro.service.client` — a blocking client plus the closed-loop
  load generator.

Quickstart::

    engine = QueryEngine.for_table(table, db)
    handle = serve_in_background(engine, max_batch_size=32, max_wait_ms=2.0)
    host, port = handle.address
    with ServiceClient(host, port) as client:
        neighbors, stats = client.knn([3, 17, 42], "match_ratio", k=5)
    handle.stop()
"""

from repro.service.batcher import MicroBatcher
from repro.service.client import (
    LoadResult,
    RequestRecord,
    ServiceClient,
    ServiceError,
    run_load,
    wait_ready,
)
from repro.service.frames import FrameError
from repro.service.metrics import ServiceMetrics
from repro.service.protocol import ProtocolError, QueryRequest
from repro.service.server import BackgroundServer, QueryServer, serve_in_background

__all__ = [
    "BackgroundServer",
    "FrameError",
    "LoadResult",
    "MicroBatcher",
    "ProtocolError",
    "QueryRequest",
    "QueryServer",
    "RequestRecord",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "run_load",
    "serve_in_background",
    "wait_ready",
]
