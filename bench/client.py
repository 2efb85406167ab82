"""The load generator for the served workloads: one thread, a selector,
`connections` sockets with `depth` requests in flight on each.

It is closed-loop: a slot sends its next request only when the reply to
the previous one has been decoded.  Requests and replies go through the
program's public codecs (`service.frames`, `service.protocol`), so what
a request costs the client is what it costs a real caller.
"""

from __future__ import annotations

import selectors
import socket
import time

from repro.service import frames, protocol


def control(port, message, timeout=30.0):
    """One NDJSON request on its own connection (ping, stats, shutdown)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(protocol.encode_request(message))
        with sock.makefile("r", encoding="utf-8", newline="\n") as reader:
            line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return protocol.decode_response(line)


class _Connection:
    def __init__(self, port, wire):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.binary = wire == "binary"
        if self.binary:
            hello = {"op": "hello", "wire": "binary", "id": 0}
            self.sock.sendall(protocol.encode_request(hello))
            line = b""
            while not line.endswith(b"\n"):
                chunk = self.sock.recv(4096)
                if not chunk:
                    raise ConnectionError("server closed the connection during hello")
                line += chunk
            if not protocol.decode_response(line.decode("utf-8")).get("ok"):
                raise ConnectionError("server refused the binary wire")
        self.sock.setblocking(False)
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.inflight = {}

    def encode(self, message):
        if self.binary:
            return frames.encode_request_frame(message)
        return protocol.encode_request(message)

    def flush(self):
        """Send what is buffered; True when nothing is left."""
        while self.outbuf:
            try:
                sent = self.sock.send(self.outbuf)
            except BlockingIOError:
                return False
            del self.outbuf[:sent]
        return True

    def replies(self):
        """Decode, one at a time, every complete reply in the input buffer."""
        if self.binary:
            header = frames.HEADER.size
            while len(self.inbuf) >= header:
                frame_type, length = frames.decode_header(bytes(self.inbuf[:header]))
                if len(self.inbuf) < header + length:
                    break
                payload = bytes(self.inbuf[header:header + length])
                del self.inbuf[:header + length]
                yield frames.decode_payload(frame_type, payload)
        else:
            while True:
                end = self.inbuf.find(b"\n")
                if end < 0:
                    break
                line = bytes(self.inbuf[:end])
                del self.inbuf[:end + 1]
                yield protocol.decode_response(line.decode("utf-8"))


class LoadClient:
    """`connections` sockets to one server.  `ids` is an iterator of
    request ids shared by every client of a run, so that an id names one
    request in the server's spans."""

    def __init__(self, port, wire, connections, depth, ids):
        self.depth = depth
        self.conns = [_Connection(port, wire) for _ in range(connections)]
        self.ids = ids
        self.wire_bytes = 0

    def close(self):
        for conn in self.conns:
            conn.sock.close()

    def run(self, messages, seconds, full_pass=True, spans=None):
        """Send `messages` round-robin for `seconds`, and at least once
        each if `full_pass`.

        Returns ``(done, latencies, replies)``: completion times and
        send-to-decoded latencies in seconds, in completion order, and
        the reply to the first sending of each message.  With `spans`
        (a list), each request appends a `service.client.request` span.
        """
        selector = selectors.DefaultSelector()
        for conn in self.conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        done, latencies = [], []
        replies = [None] * len(messages)
        must_send = len(messages) if full_pass else 0
        sent = 0
        deadline = time.perf_counter() + seconds
        try:
            while True:
                stopping = sent >= must_send and time.perf_counter() >= deadline
                for conn in self.conns:
                    while not stopping and len(conn.inflight) < self.depth:
                        rid = next(self.ids)
                        message = dict(messages[sent % len(messages)], id=rid)
                        start = time.perf_counter()
                        data = conn.encode(message)
                        encoded = time.perf_counter()
                        conn.outbuf += data
                        self.wire_bytes += len(data)
                        conn.inflight[rid] = (sent, start, encoded)
                        sent += 1
                    events = selectors.EVENT_READ
                    if not conn.flush():
                        events |= selectors.EVENT_WRITE
                    selector.modify(conn.sock, events, conn)
                if stopping and not any(conn.inflight for conn in self.conns):
                    break
                for key, _ in selector.select(timeout=1.0):
                    conn = key.data
                    try:
                        data = conn.sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    if not data:
                        raise ConnectionError("server closed the connection")
                    received = time.perf_counter()
                    self.wire_bytes += len(data)
                    conn.inbuf += data
                    for reply in conn.replies():
                        finished = time.perf_counter()
                        index, start, encoded = conn.inflight.pop(reply.get("id"))
                        done.append(finished)
                        latencies.append(finished - start)
                        if index < len(messages):
                            replies[index] = reply
                        if spans is not None:
                            spans.append([
                                "service.client.request", start, finished, None,
                                reply.get("id"), encoded, received,
                            ])
        finally:
            selector.close()
        return done, latencies, replies
