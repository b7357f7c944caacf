"""Blocking HTTP client for the sparsifier server — stdlib only.

:func:`repro.api.connect` returns a :class:`SparsifierClient`: one
keep-alive socket, one method per endpoint, and the server's JSON wire
schema decoded for you.  It is what the repo benchmark's ``serve-mixed``
workload, the CI smoke job and the tests drive the server with, and the
reference for writing a client in any other stack.

The client frames HTTP/1.1 itself (RFC 9112), for the subset the server
speaks: each request — request line, headers and body — leaves in one
``sendall``, and each response is read off a buffered reader, its body
length taken from ``Content-Length`` (§6.3; without one, the body runs to
the connection's close; an answer to ``HEAD`` has none) and its persistence
from the status line's version and ``Connection`` (§9.3).

Error contract: a transport failure raises :class:`OSError` (a refused,
reset or timed-out socket; :class:`http.client.RemoteDisconnected` when
the server closed without answering) or :class:`http.client.HTTPException`
(a malformed or cut-off response); either way the socket is dropped and the
next call reconnects.  Statuses of 400 or above raise
:class:`ServerRequestError` carrying ``status`` and the decoded error
``payload``.  202 (write accepted but still queued) is a *success* shape
callers must be able to observe without exception handling.
"""

from __future__ import annotations

import json
import re
import socket
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    InvalidURL,
    LineTooLong,
    RemoteDisconnected,
)
from typing import BinaryIO, Dict, List, Optional, Sequence, Tuple

from repro.server.http import keeps_alive

#: Bounds on one response head, as :mod:`http.client` sets them.
_MAX_LINE = 65536
_MAX_HEADERS = 100
#: A request line must not carry these (header injection, a split target).
_UNSAFE_IN_REQUEST_LINE = re.compile(r"[\x00-\x20\x7f]")


def _read_response(reader: BinaryIO, *, to_head: bool = False) -> Tuple[int, bytes, bool]:
    """Read one response; returns ``(status, body, keep_alive)``.

    The body is ``Content-Length`` bytes, or runs to the connection's close
    when the head gives no length; an answer to ``HEAD`` (``to_head``) has
    none, whatever its head says.  Raises :class:`RemoteDisconnected` on EOF
    before a status line, and another :class:`HTTPException` on a malformed
    head or a response cut short.
    """
    line = reader.readline(_MAX_LINE + 1)
    if not line:
        raise RemoteDisconnected("server closed the connection without a response")
    if len(line) > _MAX_LINE:
        raise LineTooLong("status line")
    version, _, rest = line.decode("latin-1").rstrip("\r\n").partition(" ")
    code = rest[:3]
    if not (version.startswith("HTTP/1.") and len(code) == 3 and code.isascii()
            and code.isdigit() and rest[3:4] in ("", " ")):
        raise BadStatusLine(line.decode("latin-1"))
    status = int(code)
    length: Optional[int] = None
    connection = ""
    for _ in range(_MAX_HEADERS + 1):
        line = reader.readline(_MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            break
        if not line:
            raise IncompleteRead(b"")
        if len(line) > _MAX_LINE:
            raise LineTooLong("header line")
        name, _, value = line.decode("latin-1").partition(":")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length":
            if not (value.isascii() and value.isdigit()) or length not in (None, int(value)):
                raise HTTPException(f"invalid Content-Length: {value!r}")
            length = int(value)
        elif name == "connection":
            connection += "," + value
    else:
        raise HTTPException(f"got more than {_MAX_HEADERS} headers")
    if to_head:
        return status, b"", keeps_alive(version, connection)
    if length is None:
        return status, reader.read(), False
    body = reader.read(length)
    if len(body) < length:
        raise IncompleteRead(body, length - len(body))
    return status, body, keeps_alive(version, connection)


class ServerRequestError(RuntimeError):
    """A non-success HTTP answer from the server."""

    def __init__(self, status: int, payload: dict) -> None:
        message = payload.get("error", "request failed") if isinstance(payload, dict) else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = int(status)
        self.payload = payload

    @property
    def retry_after(self) -> Optional[float]:
        """Backpressure hint on 429 answers (seconds), else ``None``."""
        if isinstance(self.payload, dict) and "retry_after" in self.payload:
            return float(self.payload["retry_after"])
        return None


class SparsifierClient:
    """One keep-alive connection to a :class:`SparsifierHTTPServer`.

    Not thread-safe (one underlying socket); give each thread its own client.
    Usable as a context manager.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8752, *,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._conn: Optional[socket.socket] = None
        self._reader: Optional[BinaryIO] = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _connection(self) -> Tuple[socket.socket, BinaryIO]:
        if self._conn is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._reader = sock.makefile("rb")
            except OSError:
                sock.close()
                raise
            self._conn = sock
        return self._conn, self._reader

    def close(self) -> None:
        if self._conn is not None:
            # The reader holds a reference on the socket: close it first.
            self._reader.close()
            self._conn.close()
            self._conn = self._reader = None

    def __enter__(self) -> "SparsifierClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                payload: Optional[dict] = None) -> Tuple[int, dict]:
        """One round trip; returns ``(status, decoded_json)`` without raising.

        Retry discipline: a connection error is retried once on a fresh
        socket **only when the server cannot have acted on the request** —
        the send itself failed (a stale keep-alive socket refuses before a
        complete request reaches the server), or the method is idempotent
        (GET/HEAD).  A timeout or lost response *after* a non-idempotent
        POST went out is never retried: the server may already have applied
        the write, and silently re-sending it would double-apply the batch
        and advance the epoch twice, breaking bit-exact parity.  A malformed
        or cut-off response is never retried.
        """
        if _UNSAFE_IN_REQUEST_LINE.search(method) or _UNSAFE_IN_REQUEST_LINE.search(path):
            raise InvalidURL(f"method or target holds a control character or space: "
                             f"{method!r} {path!r}")
        to_head = method.upper() == "HEAD"
        idempotent = to_head or method.upper() == "GET"
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if body:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        elif not idempotent:
            head += "Content-Length: 0\r\n"
        message = (head + "\r\n").encode("ascii") + body
        for attempt in (0, 1):
            sent = False
            try:
                sock, reader = self._connection()
                sock.sendall(message)
                sent = True
                status, raw, keep_alive = _read_response(reader, to_head=to_head)
                break
            except (OSError, HTTPException) as exc:
                # Always drop the socket: whatever it still holds belongs to
                # no request the next call could match it to.
                self.close()
                # ConnectionError (never its OSError siblings like
                # socket.timeout) at send time is the stale-keep-alive
                # signature; anything else, or any failure after the POST
                # went out, surfaces to the caller to resolve via /epoch.
                safe_to_resend = isinstance(exc, OSError) and (
                    idempotent or (not sent and isinstance(exc, ConnectionError)))
                if attempt or not safe_to_resend:
                    raise
        if not keep_alive:
            self.close()
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        return status, decoded

    def _call(self, method: str, path: str,
              payload: Optional[dict] = None) -> dict:
        status, decoded = self.request(method, path, payload)
        if status >= 400:
            raise ServerRequestError(status, decoded)
        return decoded

    # ------------------------------------------------------------------ #
    # Read endpoints
    # ------------------------------------------------------------------ #
    def health(self) -> dict:
        return self._call("GET", "/health")

    def epoch(self) -> dict:
        return self._call("GET", "/epoch")

    def report(self, *, full: bool = False, version: Optional[int] = None) -> dict:
        query = []
        if full:
            query.append("full=1")
        if version is not None:
            query.append(f"version={int(version)}")
        path = "/report" + ("?" + "&".join(query) if query else "")
        return self._call("GET", path)

    def metrics(self) -> dict:
        return self._call("GET", "/metrics")

    def edges(self, *, on: str = "sparsifier",
              version: Optional[int] = None) -> dict:
        path = f"/edges?on={on}"
        if version is not None:
            path += f"&version={int(version)}"
        return self._call("GET", path)

    def resistance(self, u: int, v: int, *, on: str = "sparsifier",
                   version: Optional[int] = None) -> dict:
        path = "/resistance" + (f"?version={int(version)}" if version is not None else "")
        return self._call("POST", path, {"u": int(u), "v": int(v), "on": on})

    def resistance_many(self, pairs: Sequence[Tuple[int, int]], *,
                        on: str = "sparsifier") -> dict:
        return self._call("POST", "/resistance",
                          {"pairs": [[int(u), int(v)] for u, v in pairs], "on": on})

    def solve(self, b: Sequence[float], *, preconditioned: bool = True) -> dict:
        return self._call("POST", "/solve",
                          {"b": [float(x) for x in b], "preconditioned": preconditioned})

    # ------------------------------------------------------------------ #
    # Write endpoints
    # ------------------------------------------------------------------ #
    def update(self, *, insertions: Sequence[Tuple[int, int, float]] = (),
               deletions: Sequence[Tuple[int, int]] = (),
               weight_changes: Sequence[Tuple[int, int, float]] = ()) -> dict:
        payload: Dict[str, List] = {}
        if insertions:
            payload["insertions"] = [[int(u), int(v), float(w)] for u, v, w in insertions]
        if deletions:
            payload["deletions"] = [[int(u), int(v)] for u, v in deletions]
        if weight_changes:
            payload["weight_changes"] = [[int(u), int(v), float(d)]
                                         for u, v, d in weight_changes]
        return self._call("POST", "/update", payload)

    def checkpoint(self, path: Optional[str] = None) -> dict:
        payload = {"path": str(path)} if path is not None else {}
        return self._call("POST", "/checkpoint", payload)

    def shutdown(self) -> dict:
        """Request graceful shutdown (drain + checkpoint); closes the socket."""
        result = self._call("POST", "/shutdown")
        self.close()
        return result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SparsifierClient(http://{self.host}:{self.port})"


def connect(host: str = "127.0.0.1", port: int = 8752, *,
            timeout: float = 30.0) -> SparsifierClient:
    """Open a client for a running sparsifier server (the public helper)."""
    return SparsifierClient(host, port, timeout=timeout)
