"""Blocking HTTP client for the sparsifier server — stdlib only.

:func:`repro.api.connect` returns a :class:`SparsifierClient`: a thin,
dependency-free wrapper over :class:`http.client.HTTPConnection` with one
method per endpoint and the server's JSON wire schema decoded for you.
It is what the repo benchmark's ``serve-mixed`` workload, the CI smoke job
and the tests drive the server with, and the reference for writing a
client in any other stack.

Error contract: non-2xx responses raise :class:`ServerRequestError` carrying
``status`` and the decoded error ``payload`` — except 202 (write accepted
but still queued), which is a *success* shape callers must be able to
observe without exception handling.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from http.client import HTTPConnection


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
        self._conn: Optional[HTTPConnection] = None

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

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
        and advance the epoch twice, breaking bit-exact parity.
        """
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        idempotent = method.upper() in ("GET", "HEAD")
        for attempt in (0, 1):
            conn = self._connection()
            sent = False
            try:
                conn.request(method, path, body=body, headers=headers)
                sent = True
                response = conn.getresponse()
                raw = response.read()
                break
            except (ConnectionError, OSError) as exc:
                # Always drop the connection — a half-used HTTPConnection
                # would wedge every subsequent call in CannotSendRequest
                # instead of surfacing a clean, retryable OSError.
                self.close()
                # ConnectionError (never its OSError siblings like
                # socket.timeout) at send time is the stale-keep-alive
                # signature; anything else, or any failure after the POST
                # went out, surfaces to the caller to resolve via /epoch.
                safe_to_resend = idempotent or (
                    not sent and isinstance(exc, ConnectionError))
                if attempt or not safe_to_resend:
                    raise
        if response.getheader("Connection", "").lower() == "close":
            self.close()
        decoded = json.loads(raw.decode("utf-8")) if raw else {}
        return response.status, decoded

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
