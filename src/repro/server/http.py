"""Minimal HTTP/1.1 wire layer for the asyncio serving front end.

The container this project targets ships **no** third-party web stack — no
FastAPI, no aiohttp, no uvicorn — so the network front end speaks HTTP/1.1
directly over :mod:`asyncio` streams.  This module is the wire half: a
strict, bounded request parser and a JSON response encoder.  Everything
application-level (routing, the ingest queue, metrics) lives in
:mod:`repro.server.app`.

Scope is deliberately small and explicit:

* request line + headers + ``Content-Length`` bodies only — ``chunked``
  transfer encoding is rejected with ``501`` (no endpoint needs streaming
  request bodies);
* hard limits on header block and body size, enforced *before* buffering
  (an oversized body is never read into memory);
* a strict ``Content-Length``: ASCII digits only, and repeated headers must
  agree (RFC 9110 §8.6, RFC 9112 §6.3);
* persistence as RFC 9112 §9.3 sets it: an HTTP/1.1 connection stays open
  unless either side says ``Connection: close``, and an HTTP/1.0 one closes
  after its response unless the request says ``Connection: keep-alive``;
* every parse failure raises :class:`ProtocolError` carrying the exact
  status code the connection handler should answer with before closing.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

#: Reason phrases for every status the server emits.
REASONS: Dict[int, str] = {
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
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_HEADER_END = b"\r\n\r\n"


class ProtocolError(Exception):
    """A malformed or over-limit request; ``status`` is the HTTP answer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = int(status)
        self.message = message


def keeps_alive(version: str, connection: str) -> bool:
    """Whether a connection stays open after a message of HTTP ``version``
    with ``Connection`` header value ``connection`` (RFC 9112 §9.3): an
    HTTP/1.0 one only on ``keep-alive``, any other unless it says ``close``."""
    tokens = {token.strip() for token in connection.lower().split(",")}
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        return keeps_alive(self.version, self.headers.get("connection", ""))

    def json(self) -> dict:
        """Decode the body as a JSON object; ``{}`` for an empty body.

        Raises :class:`ProtocolError` (400) on undecodable bytes, invalid
        JSON, or a non-object top level — every endpoint takes an object.
        """
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ProtocolError(400, f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ProtocolError(400, "request body must be a JSON object")
        return payload


async def read_request(reader: asyncio.StreamReader, *,
                       max_header_bytes: int = 16384,
                       max_body_bytes: int = 8 * 1024 * 1024) -> Optional[HttpRequest]:
    """Read one request off ``reader``; ``None`` on clean EOF between requests.

    The caller must have created the stream with ``limit >= max_header_bytes``
    (the asyncio stream limit is what bounds the header scan); the body limit
    is checked against ``Content-Length`` before a single body byte is read.
    """
    try:
        blob = await reader.readuntil(_HEADER_END)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean EOF: the peer closed an idle connection
        raise ProtocolError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(431, f"header block exceeds {max_header_bytes} bytes") from exc
    if len(blob) > max_header_bytes:
        raise ProtocolError(431, f"header block exceeds {max_header_bytes} bytes")

    try:
        head = blob[:-len(_HEADER_END)].decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 never fails
        raise ProtocolError(400, "undecodable request head") from exc
    lines = head.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[0] or not parts[1] or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, target, version = parts

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        name = name.strip().lower()
        if not sep or not name:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        value = value.strip(" \t")
        if name == "content-length" and headers.get(name, value) != value:
            # RFC 9112 §6.3: differing lengths make the framing ambiguous.
            raise ProtocolError(400, "conflicting Content-Length headers")
        headers[name] = value

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError(501, "chunked request bodies are not supported")

    body = b""
    length_header = headers.get("content-length")
    if length_header is not None:
        # RFC 9110 §8.6: digits only (int() would also take "+3" or "1_0").
        if not (length_header.isascii() and length_header.isdigit()):
            raise ProtocolError(400, f"invalid Content-Length: {length_header!r}")
        digits = length_header.lstrip("0") or "0"
        length = int(digits) if len(digits) <= 18 else max_body_bytes + 1
        if length > max_body_bytes:
            raise ProtocolError(413, f"body of {length} bytes exceeds the "
                                     f"{max_body_bytes}-byte limit")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise ProtocolError(400, "connection closed mid-body") from exc

    try:
        split = urlsplit(target)
    except ValueError as exc:  # e.g. an unbalanced IPv6 bracket
        raise ProtocolError(400, f"malformed request target: {target!r}") from exc
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return HttpRequest(method=method.upper(), path=split.path or "/",
                       query=query, headers=headers, body=body, version=version)


def encode_response(status: int, payload: Optional[dict] = None, *,
                    extra_headers: Optional[Dict[str, str]] = None,
                    keep_alive: bool = True, include_body: bool = True) -> bytes:
    """Encode one JSON response (status line + headers + body) as bytes.

    Without ``include_body`` (the answer to ``HEAD``) the head is the same,
    ``Content-Length`` included, and no body follows (RFC 9110 §9.3.2).
    """
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}",
             "Content-Type: application/json",
             f"Content-Length: {len(body)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body if include_body else b"")


def error_payload(status: int, message: str) -> Tuple[int, dict]:
    """The uniform error body every failure path answers with."""
    return status, {"error": message, "status": status}
