"""Fuzz tests of the HTTP/1.1 request parser (``repro.server.http``).

The parser is driven directly over an :class:`asyncio.StreamReader`, with
the stream limit the server uses, so every case runs in microseconds:

* a valid request parses the same whether it arrives in one piece or in
  arbitrary chunks;
* header blocks and bodies right around the caps get 431 and 413;
* ``Content-Length`` is accepted exactly when it is ASCII digits
  (RFC 9110 §8.6), and differing repeats are rejected (RFC 9112 §6.3);
* arbitrary bytes yield a request, ``None`` or :class:`ProtocolError` —
  never another exception;
* the ``POST /update`` body decoder, fed arbitrary JSON values, either keeps
  every event row exactly as sent (JSON integer node ids, finite JSON number
  weights) or answers 400 — it never coerces a value and never raises
  anything else; so does the ``POST /solve`` decoder of ``b``.
"""

from __future__ import annotations

import asyncio
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server.app import batch_from_payload, rhs_from_payload
from repro.server.http import HttpRequest, ProtocolError, read_request

MAX_HEADER = 512
MAX_BODY = 1024
FUZZ = settings(max_examples=60, deadline=None)


def parse(chunks, *, max_header_bytes=MAX_HEADER, max_body_bytes=MAX_BODY):
    """Feed ``chunks`` one event-loop turn apart, then EOF; return the parse
    result, or the :class:`ProtocolError` it raised."""

    async def run():
        reader = asyncio.StreamReader(limit=max_header_bytes)

        async def feed():
            for chunk in chunks:
                reader.feed_data(chunk)
                await asyncio.sleep(0)
            reader.feed_eof()

        feeder = asyncio.ensure_future(feed())
        try:
            return await read_request(reader, max_header_bytes=max_header_bytes,
                                      max_body_bytes=max_body_bytes)
        except ProtocolError as exc:
            return exc
        finally:
            await feeder

    return asyncio.run(run())


def request_bytes(method="POST", target="/update?x=1", headers=(), body=b""):
    lines = [f"{method} {target} HTTP/1.1", *headers]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def split_at(blob, cuts):
    points = sorted({cut % (len(blob) + 1) for cut in cuts})
    return [blob[a:b] for a, b in zip([0, *points], [*points, len(blob)])]


def as_tuple(request):
    assert isinstance(request, HttpRequest), request
    return (request.method, request.path, request.query, request.headers, request.body)


header_names = st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12).filter(
    lambda name: name not in ("content-length", "transfer-encoding"))
digit_runs = st.text(alphabet="0123456789", max_size=2)
header_values = st.text(alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7e), max_size=20)


class TestChunking:
    @FUZZ
    @given(st.lists(st.tuples(header_names, header_values), max_size=5),
           st.binary(max_size=200), st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=8))
    def test_a_request_split_anywhere_parses_as_in_one_piece(self, headers, body, cuts):
        blob = request_bytes(headers=[f"{name}: {value}" for name, value in headers], body=body)
        whole = parse([blob])
        assert as_tuple(parse(split_at(blob, cuts))) == as_tuple(whole)
        assert whole.body == body


class TestCaps:
    @FUZZ
    @given(st.integers(min_value=MAX_HEADER - 40, max_value=MAX_HEADER + 40),
           st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4))
    def test_header_blocks_around_the_cap(self, size, cuts):
        head = request_bytes(method="GET", target="/health")
        filler = f"X-Filler: {'a' * max(0, size - len(head) - 12)}"
        blob = request_bytes(method="GET", target="/health", headers=[filler])
        result = parse(split_at(blob, cuts))
        if len(blob) <= MAX_HEADER:
            assert isinstance(result, HttpRequest)
        else:
            assert isinstance(result, ProtocolError) and result.status == 431

    @FUZZ
    @given(st.integers(min_value=MAX_BODY - 8, max_value=MAX_BODY + 8))
    def test_bodies_around_the_cap(self, length):
        blob = request_bytes(body=b"x" * length)
        result = parse([blob])
        if length <= MAX_BODY:
            assert isinstance(result, HttpRequest) and len(result.body) == length
        else:
            assert isinstance(result, ProtocolError) and result.status == 413


class TestContentLength:
    @settings(max_examples=150, deadline=None)
    @given(st.builds("{}{}{}{}{}".format, st.sampled_from(["", "+", "-", " ", "\t", "\xa0", "0x"]),
                     digit_runs, st.sampled_from(["", "_", " ", ",", ".", "e", "²", "٣"]),
                     digit_runs, st.sampled_from(["", " ", "\t", "\xa0", "L"])))
    def test_accepted_exactly_when_ascii_digits(self, value):
        wire = value.encode("latin-1", "replace")
        head = b"POST /update HTTP/1.1\r\nContent-Length: " + wire + b"\r\n\r\n"
        seen = wire.decode("latin-1").strip(" \t")
        digits = bool(seen) and all(char in "0123456789" for char in seen)
        # Enough bytes for any length, so a lax parser would not hit EOF.
        supply = b"y" * 10 ** 4
        result = parse([head + supply], max_body_bytes=10 ** 6)
        if digits:
            assert isinstance(result, HttpRequest) and result.body == supply[:int(seen)]
        else:
            assert isinstance(result, ProtocolError) and result.status == 400

    @pytest.mark.parametrize("value", ["1_0", "+3", "-1", " ", "", "0x5", "3 3", "3,3"])
    def test_int_lookalikes_answer_400(self, value):
        result = parse([f"POST /update HTTP/1.1\r\nContent-Length: {value}\r\n\r\n"
                        "0123456789".encode()])
        assert isinstance(result, ProtocolError) and result.status == 400

    def test_differing_repeats_answer_400_and_equal_ones_parse(self):
        conflicting = parse([b"POST /update HTTP/1.1\r\nContent-Length: 3\r\n"
                             b"Content-Length: 5\r\n\r\nabcde"])
        assert isinstance(conflicting, ProtocolError) and conflicting.status == 400
        agreeing = parse([b"POST /update HTTP/1.1\r\nContent-Length: 3\r\n"
                          b"Content-Length: 3\r\n\r\nabc"])
        assert agreeing.body == b"abc"

    def test_oversized_digit_runs_answer_413(self):
        result = parse([b"POST /update HTTP/1.1\r\nContent-Length: " + b"9" * 400 + b"\r\n\r\n"])
        assert isinstance(result, ProtocolError) and result.status == 413
        zeros = parse([b"POST /update HTTP/1.1\r\nContent-Length: " + b"0" * 400 + b"2\r\n\r\nok"])
        assert zeros.body == b"ok"


class TestRequestLine:
    @pytest.mark.parametrize("line", [b"GET  HTTP/1.1", b" /health HTTP/1.1",
                                      b"GET http://[::1/ HTTP/1.1", b"GET / HTTP/2"])
    def test_malformed_request_lines_answer_400(self, line):
        result = parse([line + b"\r\n\r\n"])
        assert isinstance(result, ProtocolError) and result.status == 400


class TestArbitraryBytes:
    @FUZZ
    @given(st.binary(max_size=300), st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4))
    def test_only_a_request_none_or_a_protocol_error(self, blob, cuts):
        result = parse(split_at(blob, cuts))
        assert result is None or isinstance(result, (HttpRequest, ProtocolError))

    @FUZZ
    @given(st.binary(max_size=120))
    def test_garbage_after_a_request_line_and_headers(self, tail):
        result = parse([b"POST /update HTTP/1.1\r\n" + tail + b"\r\n\r\n"])
        assert isinstance(result, (HttpRequest, ProtocolError))


EVENT_FIELDS = ("insertions", "deletions", "weight_changes")
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.sampled_from([2 ** 63, -2 ** 64, 10 ** 400])
                | st.floats() | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children,
                                                                      max_size=2),
    max_leaves=8)


def mostly(valid, other):
    """``valid`` nine draws in ten, ``other`` otherwise — so both the
    accepting and the rejecting branch of the decoder are exercised."""
    return st.integers(min_value=0, max_value=9).flatmap(lambda k: valid if k else other)


def event_rows(arity):
    node = mostly(st.integers(min_value=0, max_value=50), json_scalars)
    amount = mostly(st.floats(min_value=0.1, max_value=10.0) | st.integers(min_value=1, max_value=5),
                    json_scalars)
    row = st.tuples(node, node, *([amount] if arity == 3 else [])).map(list)
    return mostly(st.lists(mostly(row, json_values), max_size=3), json_values)


update_payloads = st.tuples(
    st.fixed_dictionaries({}, optional={"insertions": event_rows(3), "deletions": event_rows(2),
                                        "weight_changes": event_rows(3)}),
    mostly(st.just({}), st.dictionaries(st.text(max_size=6), json_values, max_size=2)),
).map(lambda pair: {**pair[1], **pair[0]})


class TestUpdateDecoder:
    @settings(max_examples=150, deadline=None)
    @given(update_payloads)
    def test_rows_are_the_json_values_or_400(self, payload):
        try:
            batch = batch_from_payload(payload)
        except ProtocolError as exc:
            assert exc.status == 400
            return
        assert set(payload) <= set(EVENT_FIELDS)
        for key in EVENT_FIELDS:
            rows = getattr(batch, key)
            assert [list(row) for row in rows] == payload.get(key, [])
            for row in rows:
                assert all(type(node) is int for node in row[:2])
                assert all(type(value) in (int, float) for value in row[2:])


SOLVE_NODES = 3
solve_payloads = st.fixed_dictionaries({}, optional={
    "b": mostly(st.lists(mostly(st.floats(allow_nan=False, allow_infinity=False) | st.integers(),
                                json_values),
                         min_size=SOLVE_NODES - 1, max_size=SOLVE_NODES + 1),
                json_values)})


class TestSolveDecoder:
    @settings(max_examples=150, deadline=None)
    @given(solve_payloads)
    def test_b_is_the_json_values_or_400(self, payload):
        try:
            b = rhs_from_payload(payload, SOLVE_NODES)
        except ProtocolError as exc:
            assert exc.status == 400
            return
        assert b == payload["b"] and len(b) == SOLVE_NODES
        assert all(type(value) in (int, float) and math.isfinite(value) for value in b)
