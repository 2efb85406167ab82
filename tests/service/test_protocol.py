"""Wire-protocol tests: parsing, validation, exact round-trips."""

import json
import math

import pytest

from repro.core.search import Neighbor
from repro.service.protocol import (
    ProtocolError,
    decode_neighbors,
    decode_response,
    encode_neighbors,
    encode_request,
    error_response,
    ok_response,
    parse_query,
    parse_request,
)


class TestParseRequest:
    def test_valid_knn(self):
        message = parse_request(
            '{"id": 7, "op": "knn", "items": [1, 2], "similarity": "hamming"}'
        )
        assert message["op"] == "knn"
        assert message["id"] == 7

    def test_control_ops_pass_through(self):
        for op in ("stats", "ping", "shutdown"):
            assert parse_request(json.dumps({"op": op}))["op"] == op

    def test_invalid_json_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("{not json")
        assert excinfo.value.code == "bad_request"

    def test_non_object_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request("[1, 2, 3]")
        assert excinfo.value.code == "bad_request"

    def test_unknown_op_is_bad_request(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "explode"}')
        assert excinfo.value.code == "bad_request"


class TestParseQuery:
    def make(self, **overrides):
        message = {
            "id": 1,
            "op": "knn",
            "items": [3, 17],
            "similarity": "match_ratio",
            "k": 5,
        }
        message.update(overrides)
        return message

    def test_knn_defaults(self):
        request = parse_query(self.make())
        assert request.key.op == "knn"
        assert request.key.k == 5
        assert request.items == [3, 17]
        assert request.timeout_ms is None

    def test_k_normalised_to_int(self):
        a = parse_query(self.make(k=5)).key
        b = parse_query(self.make(k=5.0)).key
        assert a == b

    def test_range_requires_threshold(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query(self.make(op="range", k=None))
        assert excinfo.value.code == "bad_request"

    def test_range_key(self):
        request = parse_query(
            self.make(op="range", k=None, threshold=0.5)
        )
        assert request.key.op == "range"
        assert request.key.threshold == 0.5
        assert request.key.k is None

    def test_threshold_on_knn_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query(self.make(threshold=0.5))
        assert excinfo.value.code == "bad_request"

    def test_sort_by_rejected_unless_optimistic(self):
        assert parse_query(self.make(sort_by="optimistic")).key == parse_query(
            self.make()
        ).key
        for op in (dict(), dict(op="range", k=None, threshold=0.5)):
            with pytest.raises(ProtocolError) as excinfo:
                parse_query(self.make(sort_by="supercoordinate", **op))
            assert excinfo.value.code == "bad_request"

    def test_empty_items_rejected(self):
        for items in ([], None, "abc", [1, "x"], [True]):
            with pytest.raises(ProtocolError):
                parse_query(self.make(items=items))

    def test_unknown_similarity_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query(self.make(similarity="nope"))
        assert excinfo.value.code == "bad_request"

    def test_bad_timeout_rejected(self):
        for timeout in (0, -5, "soon"):
            with pytest.raises(ProtocolError):
                parse_query(self.make(timeout_ms=timeout))

    def test_same_parameters_coalesce_different_items_do_not_matter(self):
        a = parse_query(self.make(items=[1, 2]))
        b = parse_query(self.make(items=[90, 91, 92]))
        assert a.key == b.key  # items are per-request, not part of the key


class TestEncoding:
    def test_neighbor_round_trip_is_exact(self):
        neighbors = [
            Neighbor(tid=3, similarity=1 / 3),
            Neighbor(tid=9, similarity=0.1 + 0.2),  # classic non-representable
            Neighbor(tid=0, similarity=5.0),
        ]
        wire = json.loads(json.dumps(encode_neighbors(neighbors)))
        assert decode_neighbors(wire) == neighbors

    def test_ok_response_shape(self):
        line = ok_response(42, {"results": []})
        message = decode_response(line.decode("utf-8"))
        assert message == {"id": 42, "ok": True, "results": []}

    def test_error_response_shape(self):
        line = error_response(7, "overloaded", "try later")
        message = decode_response(line.decode("utf-8"))
        assert message["ok"] is False
        assert message["error"]["code"] == "overloaded"

    def test_error_response_rejects_unknown_code(self):
        with pytest.raises(AssertionError):
            error_response(1, "weird", "nope")

    def test_encode_request_is_one_line(self):
        line = encode_request({"op": "ping", "id": 1}).decode("utf-8")
        assert line.endswith("\n")
        assert "\n" not in line[:-1]

    def test_decode_response_rejects_non_response(self):
        with pytest.raises(ValueError):
            decode_response('{"id": 1}')
        with pytest.raises(ValueError):
            decode_response("3.14")

    def test_nan_free_floats_survive(self):
        # All similarities the engine emits are finite; the wire keeps
        # them bit-exact through repr round-tripping.
        value = math.nextafter(1.0, 0.0)
        [decoded] = decode_neighbors(
            json.loads(json.dumps(encode_neighbors([Neighbor(0, value)])))
        )
        assert decoded.similarity == value
