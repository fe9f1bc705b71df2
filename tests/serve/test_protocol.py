"""Wire-layer unit tests: framing and the submission schema, no socket."""

import asyncio
import json

import pytest

from repro.exec.registry import all_scenarios
from repro.serve.protocol import (LAST_CHUNK, MAX_BODY_BYTES,
                                  ProtocolError, chunk, chunked_head,
                                  error_body, json_body,
                                  parse_submission, read_request,
                                  render_response, spec_from_submission)


def parse(raw: bytes):
    """Run read_request over an in-memory StreamReader."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(go())


# ----------------------------------------------------------------------
# request parsing
# ----------------------------------------------------------------------

def test_parses_request_line_headers_query_and_body():
    body = b'{"scenario": "atm.staggered"}'
    raw = (b"POST /jobs?verbose=1 HTTP/1.1\r\n"
           b"Host: x\r\n"
           b"Content-Type: application/json\r\n"
           b"Content-Length: " + str(len(body)).encode() + b"\r\n"
           b"\r\n" + body)
    req = parse(raw)
    assert req.method == "POST"
    assert req.path == "/jobs"
    assert req.query == {"verbose": ["1"]}
    assert req.headers["content-type"] == "application/json"
    assert req.json() == {"scenario": "atm.staggered"}
    assert not req.wants_close


def test_eof_before_any_request_is_none():
    assert parse(b"") is None


def test_malformed_request_line_is_400():
    with pytest.raises(ProtocolError) as err:
        parse(b"NONSENSE\r\n\r\n")
    assert err.value.status == 400


def test_bad_content_length_is_400():
    raw = b"POST /jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == 400


def test_truncated_body_is_400():
    raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort"
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == 400


def test_oversized_body_is_413():
    raw = (b"POST /jobs HTTP/1.1\r\nContent-Length: "
           + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n")
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == 413


def test_long_header_line_is_431():
    raw = (b"GET / HTTP/1.1\r\nX-Pad: " + b"x" * 10_000 + b"\r\n\r\n")
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == 431


def test_header_line_over_stream_limit_is_431():
    # past the StreamReader's own 64 KiB limit readline raises
    # ValueError instead of returning the line; still must map to 431
    raw = (b"GET / HTTP/1.1\r\nX-Pad: " + b"x" * (1 << 17) + b"\r\n\r\n")
    with pytest.raises(ProtocolError) as err:
        parse(raw)
    assert err.value.status == 431


def test_connection_close_is_honoured():
    req = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
    assert req.wants_close


def test_non_json_body_is_400():
    raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
    req = parse(raw)
    with pytest.raises(ProtocolError) as err:
        req.json()
    assert err.value.status == 400


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------

def test_render_response_frames_body_and_headers():
    raw = render_response(202, json_body({"id": "j1"}),
                          headers={"X-Allowed-Rate": "5.0"})
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0] == "HTTP/1.1 202 Accepted"
    assert f"Content-Length: {len(body)}" in lines
    assert "X-Allowed-Rate: 5.0" in lines
    assert json.loads(body) == {"id": "j1"}


def test_render_response_close_flag():
    raw = render_response(503, error_body(503, "draining"), close=True)
    assert b"Connection: close" in raw


def test_chunked_stream_framing():
    head = chunked_head(headers={"X-Allowed-Rate": "1.0"})
    assert b"Transfer-Encoding: chunked" in head
    piece = chunk(b"hello\n")
    assert piece == b"6\r\nhello\n\r\n"
    assert LAST_CHUNK == b"0\r\n\r\n"


# ----------------------------------------------------------------------
# submission schema
# ----------------------------------------------------------------------

def scenarios():
    return all_scenarios()


def test_valid_submission_normalises():
    fields = parse_submission(
        {"scenario": "atm.staggered", "params": {"duration": 0.02},
         "seed": 7, "probes": ["s0.acr"]}, scenarios())
    spec = spec_from_submission(fields, default_task_id="serve-1")
    assert spec.task_id == "serve-1"
    assert spec.scenario == "atm.staggered"
    assert spec.params == {"duration": 0.02}
    assert spec.seed == 7
    assert spec.probes == ("s0.acr",)


def test_explicit_task_id_wins():
    fields = parse_submission(
        {"scenario": "atm.staggered", "task_id": "mine"}, scenarios())
    assert spec_from_submission(fields, "serve-1").task_id == "mine"


def test_unknown_scenario_lists_the_registry():
    with pytest.raises(ProtocolError) as err:
        parse_submission({"scenario": "nope"}, scenarios())
    assert err.value.status == 400
    for name in scenarios():
        assert name in err.value.message


@pytest.mark.parametrize("scenario,params,message", [
    ("atm.staggered", {"tracer": 1},
     "atm.staggered takes no tracer; its keys: algorithm, "),
    ("fluid.staggered", {"bogus": 1}, "fluid.staggered takes no bogus"),
    ("atm.staggered", {"algorithm": "bogus"},
     "unknown algorithm 'bogus'; known: aprc, capc, eprca, erica, phantom, phantom-binary"),
    ("tcp.many", {"policy": "bogus"}, "unknown policy 'bogus'; known: "),
    ("fuzz.generic", {"config": "S1-S2"}, "config must be a mapping"),
])
def test_params_are_checked_against_the_entry(scenario, params, message):
    with pytest.raises(ProtocolError) as err:
        parse_submission({"scenario": scenario, "params": params},
                         scenarios())
    assert err.value.status == 400
    assert message in err.value.message


@pytest.mark.parametrize("payload", [
    "not a dict",
    {},                                        # no scenario
    {"scenario": ""},
    {"scenario": "atm.staggered", "bogus": 1},
    {"scenario": "atm.staggered", "params": [1, 2]},
    {"scenario": "atm.staggered", "seed": "seven"},
    {"scenario": "atm.staggered", "probes": "s0.acr"},
    {"scenario": "atm.staggered", "probes": [1]},
    {"scenario": "atm.staggered", "task_id": ""},
    {"scenario": "atm.staggered", "params": {"f": object()}},
])
def test_invalid_submissions_are_400(payload):
    with pytest.raises(ProtocolError) as err:
        parse_submission(payload, scenarios())
    assert err.value.status == 400
