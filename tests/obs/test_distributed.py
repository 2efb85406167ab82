"""Trace-context wire format, remote span grafting, fan-out rendering."""

import pytest

from repro.obs.distributed import (
    TraceContext,
    graft_remote_trace,
    new_span_id,
    new_trace_id,
    render_fanout,
)
from repro.obs.trace import Span, Tracer


class TestTraceContext:
    def test_encode_decode_roundtrip(self):
        for sampled in (True, False):
            ctx = TraceContext(
                trace_id=new_trace_id(),
                parent_span_id=new_span_id(),
                sampled=sampled,
            )
            again = TraceContext.decode(ctx.encode())
            assert again == ctx

    def test_wire_shape(self):
        ctx = TraceContext("4f2a09c31b77de05", "9c41aa20", sampled=True)
        assert ctx.encode() == "4f2a09c31b77de05-9c41aa20-01"
        assert TraceContext.decode(
            "4f2a09c31b77de05-9c41aa20-00"
        ).sampled is False

    def test_unknown_flag_bits_are_ignored(self):
        # Forward compatibility: only bit 0 is defined today.
        ctx = TraceContext.decode("4f2a09c31b77de05-9c41aa20-ff")
        assert ctx.sampled is True

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not-a-context",
            "4f2a09c31b77de05-9c41aa20",        # missing flags
            "4f2a09c31b77de0-9c41aa20-01",      # trace id too short
            "4f2a09c31b77de05-9c41aa2-01",      # span id too short
            "4F2A09C31B77DE05-9C41AA20-01",     # uppercase
            "4f2a09c31b77de05-9c41aa20-001",    # flags too long
            "4f2a09c31b77de05-9c41aa20-zz",     # non-hex flags
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            TraceContext.decode(text)

    def test_non_string_rejected(self):
        with pytest.raises(ValueError):
            TraceContext.decode(12345)

    def test_id_minting_shapes(self):
        assert len(new_trace_id()) == 16
        assert len(new_span_id()) == 8
        int(new_trace_id(), 16)
        int(new_span_id(), 16)


class TestSpanFromDict:
    def _tree(self):
        root = Span("service.request", 10.0, op="knn")
        root.end_s = 10.5
        root.add_event("queued", depth=3)
        child = Span("engine.run_batch", 10.1)
        child.end_s = 10.4
        root.children.append(child)
        return root

    def test_roundtrip_preserves_structure(self):
        root = self._tree()
        payload = root.to_dict()
        rebuilt = Span.from_dict(payload, base_s=200.0)
        assert rebuilt.name == "service.request"
        assert rebuilt.attributes == {"op": "knn"}
        assert rebuilt.start_s == pytest.approx(200.0)
        assert rebuilt.duration_s == pytest.approx(0.5)
        assert len(rebuilt.children) == 1
        assert rebuilt.children[0].name == "engine.run_batch"
        assert rebuilt.children[0].start_s == pytest.approx(200.1)
        assert rebuilt.children[0].duration_s == pytest.approx(0.3)
        assert rebuilt.events[0]["name"] == "queued"
        assert rebuilt.events[0]["depth"] == 3

    def test_roundtrip_is_exact_up_to_anchor(self):
        payload = self._tree().to_dict()
        rebuilt = Span.from_dict(payload, base_s=10.0)
        assert rebuilt.to_dict() == payload


class TestGraftRemoteTrace:
    def _remote_payloads(self):
        remote = Tracer(correlation_id="cid-1", trace_id="a" * 16)
        with remote.activate():
            with remote.span("service.request", op="knn"):
                with remote.span("engine.run_batch"):
                    pass
        return remote.to_dicts()

    def test_grafts_under_open_span(self):
        payloads = self._remote_payloads()
        local = Tracer()
        with local.span("router.request"):
            grafted = graft_remote_trace(local, payloads, 50.0, shard="s0")
        assert len(grafted) == 1
        root = local.roots[0]
        assert [c.name for c in root.children] == ["service.request"]
        remote_root = root.children[0]
        assert remote_root.attributes["shard"] == "s0"
        assert remote_root.attributes["trace_id"] == "a" * 16
        assert remote_root.start_s >= 50.0
        assert [c.name for c in remote_root.children] == ["engine.run_batch"]

    def test_grafts_under_explicit_parent(self):
        """The router parents shard trees under retroactively recorded
        leg spans, which are never on the tracer's open stack."""
        payloads = self._remote_payloads()
        local = Tracer()
        leg = local.record("router.scatter", 50.0, 50.2, shard="s0")
        graft_remote_trace(local, payloads, 50.0, parent=leg, shard="s0")
        assert local.roots == [leg]
        assert [c.name for c in leg.children] == ["service.request"]

    def test_empty_payload_is_noop(self):
        local = Tracer()
        assert graft_remote_trace(local, [], 1.0) == []
        assert local.roots == []


class TestRenderFanout:
    def _fanout_tree(self):
        tracer = Tracer()
        leg0 = tracer.record(
            "router.scatter", 100.0, 100.050, shard="s0", phase="scatter"
        )
        tracer.record(
            "router.scatter", 100.010, 100.120, shard="s1", phase="scatter"
        )
        tracer.record("router.merge", 100.120, 100.125, queries=1)
        leg0.children.append(Span("service.request", 100.001))
        return tracer.to_dicts()

    def test_renders_one_line_per_leg(self):
        text = render_fanout(self._fanout_tree())
        lines = text.splitlines()
        assert "2 shard legs" in lines[0]
        assert lines[1].lstrip().startswith("s0")
        assert lines[2].lstrip().startswith("s1")
        assert "#" in lines[1] and "#" in lines[2]
        assert "merge" in lines[3]

    def test_straggler_bar_is_longer(self):
        text = render_fanout(self._fanout_tree())
        s0_line = next(l for l in text.splitlines() if "s0" in l)
        s1_line = next(l for l in text.splitlines() if "s1" in l)
        assert s1_line.count("#") > s0_line.count("#")

    def test_no_scatter_spans_renders_empty(self):
        tracer = Tracer()
        with tracer.span("service.request"):
            pass
        assert render_fanout(tracer.to_dicts()) == ""

