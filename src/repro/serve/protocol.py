"""Minimal HTTP/1.1 framing and the job-submission wire schema.

Pure stdlib, pure functions: request parsing over an asyncio
``StreamReader``, response rendering to bytes, chunked-transfer helpers
for the ``/jobs/<id>/events`` stream, and validation of job submissions
against the exec scenario registry.  Keeping the whole wire layer here
leaves :mod:`repro.serve.server` with routing and policy only, and lets
the tests exercise framing without a socket.

The server speaks a deliberate sliver of HTTP/1.1: request bodies are
``Content-Length``-framed (no chunked *requests*), responses are either
``Content-Length``-framed JSON/text or a chunked event stream, and
connections are keep-alive until either side asks to close.  That
sliver is exactly what ``http.client`` (the :mod:`repro.serve.client`
transport) and curl need.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qs, unquote

from repro.exec.registry import ScenarioEntry
from repro.exec.spec import TaskSpec, check_jsonable

#: Request-line / header-line ceiling; longer lines are a 431.
MAX_LINE_BYTES = 8192
#: Header-count ceiling per request.
MAX_HEADERS = 100
#: Request-body ceiling — specs are small JSON; anything bigger is abuse.
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A client error that maps directly onto an HTTP status."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def wants_close(self) -> bool:
        return self.headers.get("connection", "").lower() == "close"

    def json(self) -> Any:
        """The body decoded as JSON, or a 400."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: "
                                     f"{exc}") from exc


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await reader.readline()
    except ValueError as exc:
        # the StreamReader's own limit (64 KiB by default) trips before
        # our check can; surface it as the same 431
        raise ProtocolError(431, "header line too long") from exc
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(431, "header line too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request off ``reader``; None on a clean EOF."""
    line = await _read_line(reader)
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(400, f"malformed request line {line!r}")
    method, target, _version = parts

    headers: dict[str, str] = {}
    while True:
        hline = await _read_line(reader)
        if hline in (b"\r\n", b"\n", b""):
            break
        if len(headers) >= MAX_HEADERS:
            raise ProtocolError(431, "too many headers")
        name, sep, value = hline.decode("latin-1").partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line {hline!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise ProtocolError(400, "bad Content-Length") from exc
        if length < 0:
            raise ProtocolError(400, "bad Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(413, f"body of {length} bytes exceeds the "
                                     f"{MAX_BODY_BYTES}-byte limit")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "body shorter than "
                                     "Content-Length") from exc

    path, _, qs = target.partition("?")
    return HttpRequest(method=method, path=unquote(path),
                       query=parse_qs(qs), headers=headers, body=body)


# ----------------------------------------------------------------------
# response rendering
# ----------------------------------------------------------------------
def render_response(status: int, body: bytes, *,
                    content_type: str = "application/json",
                    headers: Mapping[str, str] | None = None,
                    close: bool = False) -> bytes:
    """A complete Content-Length-framed response."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    if close:
        lines.append("Connection: close")
    head = "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"
    return head + body


def json_body(payload: Any) -> bytes:
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def error_body(status: int, message: str) -> bytes:
    return json_body({"error": message, "status": status})


def chunked_head(status: int = 200, *,
                 content_type: str = "application/x-ndjson",
                 headers: Mapping[str, str] | None = None) -> bytes:
    """Response head opening a chunked-transfer stream."""
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             f"Content-Type: {content_type}",
             "Transfer-Encoding: chunked"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n"


def chunk(data: bytes) -> bytes:
    """One chunked-transfer chunk."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


#: Terminates a chunked stream.
LAST_CHUNK = b"0\r\n\r\n"


# ----------------------------------------------------------------------
# job-submission schema
# ----------------------------------------------------------------------
def parse_submission(data: Any,
                     scenarios: Mapping[str, ScenarioEntry]
                     ) -> dict[str, Any]:
    """Validate a ``POST /jobs`` payload against the scenario registry.

    Returns the normalised submission fields; raises
    :class:`ProtocolError` (400) with an explanation — including the
    known scenario names on an unknown one, so the error is the
    discovery mechanism.
    """
    if not isinstance(data, dict):
        raise ProtocolError(400, "submission must be a JSON object")
    unknown = sorted(set(data) - {"task_id", "scenario", "params", "seed",
                                  "probes"})
    if unknown:
        raise ProtocolError(400, f"unknown submission field(s): "
                                 f"{', '.join(unknown)}")
    scenario = data.get("scenario")
    if not isinstance(scenario, str) or not scenario:
        raise ProtocolError(400, "submission needs a 'scenario' name")
    if scenario not in scenarios:
        raise ProtocolError(
            400, f"unknown scenario {scenario!r}; known: "
                 f"{', '.join(sorted(scenarios))}")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError(400, "'params' must be a JSON object")
    try:
        check_jsonable(params, "params")
        scenarios[scenario].check_params(params)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(400, str(exc)) from exc
    seed = data.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise ProtocolError(400, "'seed' must be an integer or null")
    probes = data.get("probes", [])
    if (not isinstance(probes, list)
            or any(not isinstance(p, str) for p in probes)):
        raise ProtocolError(400, "'probes' must be a list of series names")
    task_id = data.get("task_id")
    if task_id is not None and (not isinstance(task_id, str) or not task_id):
        raise ProtocolError(400, "'task_id' must be a non-empty string")
    return {"task_id": task_id, "scenario": scenario, "params": params,
            "seed": seed, "probes": tuple(probes)}


def spec_from_submission(fields: dict[str, Any],
                         default_task_id: str) -> TaskSpec:
    """Build the :class:`TaskSpec` a validated submission describes."""
    return TaskSpec(task_id=fields["task_id"] or default_task_id,
                    scenario=fields["scenario"],
                    params=fields["params"], seed=fields["seed"],
                    probes=fields["probes"])
