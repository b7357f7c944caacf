"""The asyncio HTTP application serving a :class:`~repro.service.SparsifierService`.

Architecture — one event loop, two disciplines:

* **reads never wait for the writer, and the loop runs nothing of unbounded
  cost.**  A read pins one :class:`~repro.snapshot.SparsifierSnapshot` and
  answers entirely from it — a reader can never observe a torn epoch, no
  matter how the writer races.  The writer publishes each epoch's snapshot
  as it makes it, and the current-epoch handout reads that reference without
  a lock.  So ``POST /resistance`` for one pair at the current epoch answers
  directly on the loop when the published snapshot already holds its solver:
  one solve, no worker-thread round trip.  Every other read runs on a worker
  thread (:func:`asyncio.to_thread`) under the request timeout: a
  single-pair read that must build the solver (each epoch's first), pair
  lists (their cost grows with their length), versioned reads, ``/solve``,
  ``/report``, ``/edges``, ``/epoch`` and ``/metrics``.  A versioned
  handout, ``retained_versions`` and ``write_stats`` take the service lock,
  which the writer holds for the whole duration of a driver update: taking
  it on the loop would stall every connection — including ``/health`` and
  the ``/epoch`` polls that 202 answers direct clients to — for as long as
  one write runs.  ``/health`` answers on the loop from lock-free fields, so
  liveness probes stay cheap under any load.

* **writes funnel through one bounded ingest queue.**  ``POST /update``
  (every mutation: deletions, weight changes and insertions in one
  :class:`~repro.streams.edge_stream.MixedBatch`) and ``POST /checkpoint``
  enqueue a job onto a single :class:`asyncio.Queue` drained by one writer
  task, which applies jobs strictly in arrival order through the service's
  write lock.  A batch the driver rejects is answered ``400`` and changes
  nothing — no edge, no epoch.  A full queue
  is answered immediately with ``429`` + ``Retry-After`` — explicit
  backpressure instead of unbounded buffering; a write that is queued but
  not applied within the request timeout is answered ``202`` (it *will*
  apply, in order — the connection just stops waiting).

Connections are kept alive (HTTP/1.0 ones only on request).  Each holds one
idle deadline: ``keep_alive_timeout`` seconds from the end of its last
response (or from its accept) until the next request has been read in full.
It is one timer per connection, re-armed per request by moving the deadline,
not a timeout wrapped around each read; a connection that misses it is
closed without an answer.

Graceful shutdown (``POST /shutdown``, :meth:`SparsifierHTTPServer.stop`, or
SIGINT/SIGTERM under :func:`serve`) closes the listener, **drains every
queued write**, gives in-flight connections a grace period, and — when a
checkpoint directory is configured — saves a checkpoint
(:mod:`repro.checkpoint`), so a restarted server resumes bit-exact at the
last applied epoch.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.server.http import (
    HttpRequest,
    ProtocolError,
    encode_response,
    error_payload,
    read_request,
)
from repro.server.metrics import ServerMetrics
from repro.service import SparsifierService
from repro.streams.edge_stream import MixedBatch
from repro.utils.logging import get_logger

logger = get_logger("server")

Handler = Callable[[HttpRequest], Awaitable[Tuple[int, dict, Optional[Dict[str, str]]]]]

_STOP = object()


@dataclass
class ServerConfig:
    """Configuration of the HTTP front end (everything has a safe default)."""

    #: Bind address; use ``port=0`` to let the OS pick (tests, benchmarks).
    host: str = "127.0.0.1"
    port: int = 8752
    #: Ingest-queue bound: writes beyond this are answered 429 + Retry-After.
    queue_bound: int = 64
    #: Per-request budget: reads answer 504, writes answer 202 (still queued).
    request_timeout: float = 30.0
    #: Seconds an idle keep-alive connection is held open.
    keep_alive_timeout: float = 30.0
    #: Parser limits (see :mod:`repro.server.http`).
    max_header_bytes: int = 16384
    max_body_bytes: int = 8 * 1024 * 1024
    #: Saved to on graceful shutdown (and by ``POST /checkpoint`` with no
    #: explicit path) when set; enables bit-exact resume after restart.
    checkpoint_dir: Optional[str] = None
    checkpoint_on_shutdown: bool = True
    #: Grace period for in-flight connections after the write queue drains.
    shutdown_grace: float = 5.0
    #: ``Retry-After`` seconds advertised on 429 responses.
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _int_field(payload: dict, key: str) -> int:
    value = payload.get(key)
    if not _is_int(value):
        raise ProtocolError(400, f"field {key!r} must be an integer")
    return value


def _event_rows(payload: dict, key: str, arity: int, kinds: str) -> List[tuple]:
    """Decode one event list (``[[u, v, ...], ...]``) with strict validation.

    Nothing is coerced: node ids must be JSON integers and a third column
    (weight or delta) a finite JSON number; booleans, strings, null and
    nested values answer 400 naming the field.  The rows hold the decoded
    JSON values unchanged.
    """
    raw = payload.get(key, [])
    if not isinstance(raw, list):
        raise ProtocolError(400, f"field {key!r} must be a list of {kinds}")
    rows: List[tuple] = []
    for item in raw:
        if not isinstance(item, list) or len(item) != arity:
            raise ProtocolError(400, f"every {key!r} entry must be {kinds}")
        if not (_is_int(item[0]) and _is_int(item[1])):
            raise ProtocolError(400, f"invalid {key!r} entry {item!r}: node ids must be integers")
        if arity == 3 and not _is_finite_number(item[2]):
            raise ProtocolError(400, f"invalid {key!r} entry {item!r}: "
                                     f"{item[2]!r} is not a finite number")
        rows.append(tuple(item))
    return rows


def batch_from_payload(payload: dict) -> MixedBatch:
    """Decode the ``POST /update`` wire schema into a :class:`MixedBatch`."""
    unknown = set(payload) - {"insertions", "deletions", "weight_changes"}
    if unknown:
        raise ProtocolError(400, f"unknown update fields: {sorted(unknown)}")
    batch = MixedBatch(
        insertions=_event_rows(payload, "insertions", 3, "[u, v, weight]"),
        deletions=_event_rows(payload, "deletions", 2, "[u, v]"),
        weight_changes=_event_rows(payload, "weight_changes", 3, "[u, v, delta]"),
    )
    if not batch:
        raise ProtocolError(400, "update batch holds no events")
    return batch


def checkpoint_path_from_payload(payload: dict, default: Optional[str]) -> str:
    """Decode ``POST /checkpoint``: ``path``, a non-empty JSON string, or
    ``default`` (the configured ``checkpoint_dir``) when it is absent.
    Nothing is coerced: any other ``path`` value, and any other field,
    answers 400 naming it."""
    unknown = set(payload) - {"path"}
    if unknown:
        raise ProtocolError(400, f"unknown checkpoint fields: {sorted(unknown)}")
    if "path" not in payload:
        if not default:
            raise ProtocolError(400, "no 'path' given and no checkpoint_dir configured")
        return default
    path = payload["path"]
    if not isinstance(path, str) or not path:
        raise ProtocolError(400, "field 'path' must be a non-empty string")
    return path


def rhs_from_payload(payload: dict, num_nodes: int) -> list:
    """Decode ``POST /solve``'s ``b``: a flat list of ``num_nodes`` finite JSON
    numbers, returned unchanged.  Nothing is coerced: booleans, strings, null,
    non-finite and nested values, and lists of another length, answer 400."""
    b = payload.get("b")
    if not (isinstance(b, list) and len(b) == num_nodes and all(map(_is_finite_number, b))):
        raise ProtocolError(400, f"field 'b' must be a list of {num_nodes} finite numbers")
    return b


class _IdleTimer:
    """One connection's idle deadline: calls ``on_idle`` once a wait for the
    next request outlasts ``timeout`` seconds.

    :meth:`arm` starts a wait and :meth:`disarm` ends it; both only move the
    deadline.  The one pending loop timer fires when it was set to, and sets
    itself again if the deadline moved on meanwhile, so a busy connection
    costs the loop one timer per ``timeout`` seconds, not one per request.
    """

    def __init__(self, loop: asyncio.AbstractEventLoop, timeout: float,
                 on_idle: Callable[[], object]) -> None:
        self._loop = loop
        self._timeout = timeout
        self._on_idle = on_idle
        self._deadline: Optional[float] = None  # None: no wait in progress
        self._handle: Optional[asyncio.TimerHandle] = None

    def arm(self) -> None:
        self._deadline = self._loop.time() + self._timeout
        if self._handle is None:
            self._handle = self._loop.call_at(self._deadline, self._fire)

    def disarm(self) -> None:
        self._deadline = None

    def cancel(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        when = self._handle.when()
        self._handle = None
        if self._deadline is None:
            return  # a request is in hand; the next arm() sets a timer again
        if self._deadline > when:
            self._handle = self._loop.call_at(self._deadline, self._fire)
        else:
            self._on_idle()


@dataclass
class _Route:
    method: str
    path: str
    handler: Handler = field(repr=False)


class SparsifierHTTPServer:
    """The stdlib-asyncio HTTP/1.1 front end over one :class:`SparsifierService`.

    Lifecycle: either :meth:`serve_forever` (blocking, current thread — what
    :func:`serve` and the ``repro serve`` CLI use) or :meth:`start` /
    :meth:`stop` (background thread with its own event loop — what the tests
    use).  ``config.port=0`` binds an ephemeral port, published as
    :attr:`port` once the listener is up.
    """

    def __init__(self, service: SparsifierService,
                 config: Optional[ServerConfig] = None) -> None:
        self._service = service
        self._config = config if config is not None else ServerConfig()
        self.metrics = ServerMetrics()
        self.port: Optional[int] = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._finished = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._shutdown_event: Optional[asyncio.Event] = None
        self._queue: Optional[asyncio.Queue] = None
        self._draining = False
        self._connections: set = set()

        self._routes: Dict[str, Dict[str, Handler]] = {}
        for route in self._build_routes():
            self._routes.setdefault(route.path, {})[route.method] = route.handler

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def service(self) -> SparsifierService:
        return self._service

    @property
    def config(self) -> ServerConfig:
        return self._config

    def serve_forever(self) -> None:
        """Run the server on the calling thread until shutdown is requested."""
        asyncio.run(self._main())

    def start(self, *, timeout: float = 10.0) -> "SparsifierHTTPServer":
        """Run the server on a background thread; returns once it is bound."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-http-server", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("server did not start within the timeout")
        if self._startup_error is not None:
            self._thread.join(timeout=timeout)
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def stop(self, *, timeout: float = 30.0) -> None:
        """Request graceful shutdown (drain + checkpoint) and wait for it."""
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
        else:
            self._finished.wait(timeout)

    def request_shutdown(self) -> None:
        """Thread-safe, idempotent shutdown trigger (does not wait)."""
        loop = self._loop
        if loop is not None and not loop.is_closed():
            def _set() -> None:
                if self._shutdown_event is not None:
                    self._shutdown_event.set()
            try:
                loop.call_soon_threadsafe(_set)
            except RuntimeError:  # loop already closed: nothing left to stop
                pass

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - surfaced via start()
            self._startup_error = exc
            self._started.set()
        finally:
            self._finished.set()

    # ------------------------------------------------------------------ #
    # Event-loop main
    # ------------------------------------------------------------------ #
    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self._config.queue_bound)
        self._draining = False
        writer_task = asyncio.create_task(self._writer_loop())

        server = await asyncio.start_server(
            self._on_connection, self._config.host, self._config.port,
            limit=max(self._config.max_header_bytes, 65536))
        self.port = server.sockets[0].getsockname()[1]
        logger.info("serving on http://%s:%d (queue bound %d)",
                    self._config.host, self.port, self._config.queue_bound)
        self._started.set()

        try:
            await self._shutdown_event.wait()
        finally:
            # 1. stop accepting new connections.
            server.close()
            await server.wait_closed()
            # 2. stop accepting new writes, drain every queued one.
            self._draining = True
            await self._queue.put((_STOP, None, None))
            await writer_task
            # 3. grace period for in-flight connections, then cut them.
            deadline = time.monotonic() + self._config.shutdown_grace
            while self._connections and time.monotonic() < deadline:
                await asyncio.sleep(0.02)
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            # 4. persist, so a restart resumes at the last applied epoch.
            if self._config.checkpoint_dir and self._config.checkpoint_on_shutdown:
                await asyncio.to_thread(self._service.save_checkpoint,
                                        self._config.checkpoint_dir)
                logger.info("shutdown checkpoint saved to %s (epoch %d)",
                            self._config.checkpoint_dir, self._service.latest_version)
            logger.info("server stopped at epoch %d after %d applied batches",
                        self._service.latest_version, self._service.applied_batches)

    async def _writer_loop(self) -> None:
        """The single writer: applies queued jobs strictly in arrival order."""
        assert self._queue is not None
        while True:
            job, future, _label = await self._queue.get()
            try:
                if job is _STOP:
                    return
                try:
                    result = await asyncio.to_thread(job)
                except BaseException as exc:
                    # Always delivered through the future: either the handler
                    # is still awaiting it, or the abandoned-write callback
                    # (attached when the 202 timeout fired) consumes and logs
                    # it — never an unretrieved-exception warning from asyncio.
                    if future is not None and not future.done():
                        future.set_exception(exc)
                    else:  # pragma: no cover - future cancelled externally
                        logger.warning("queued write failed after caller left: %s", exc)
                else:
                    if future is not None and not future.done():
                        future.set_result(result)
            finally:
                self._queue.task_done()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    def _on_connection(self, reader: asyncio.StreamReader,
                       writer: asyncio.StreamWriter) -> None:
        self.metrics.observe_connection()
        task = asyncio.ensure_future(self._handle_connection(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        # An idle connection is cancelled out of its read, as a timeout
        # around each read would, and closed quietly below.
        idle = _IdleTimer(asyncio.get_running_loop(), self._config.keep_alive_timeout,
                          asyncio.current_task().cancel)
        try:
            while True:
                idle.arm()
                try:
                    request = await read_request(
                        reader, max_header_bytes=self._config.max_header_bytes,
                        max_body_bytes=self._config.max_body_bytes)
                except ProtocolError as exc:
                    idle.disarm()
                    status, payload = error_payload(exc.status, exc.message)
                    self.metrics.observe("protocol-error", status, 0.0)
                    writer.write(encode_response(status, payload, keep_alive=False))
                    await writer.drain()
                    break
                idle.disarm()
                if request is None:
                    break  # peer closed
                status, payload, headers = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._draining
                writer.write(encode_response(status, payload,
                                             extra_headers=headers,
                                             keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
            pass
        finally:
            idle.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, request: HttpRequest) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        methods = self._routes.get(request.path)
        if methods is None:
            label = "unmatched"
            status, payload = error_payload(404, f"unknown endpoint {request.path}")
            self.metrics.observe(label, status, 0.0)
            return status, payload, None
        handler = methods.get(request.method)
        label = f"{request.method} {request.path}"
        if handler is None:
            allowed = ", ".join(sorted(methods))
            status, payload = error_payload(
                405, f"{request.method} not allowed on {request.path} (allowed: {allowed})")
            self.metrics.observe(label, status, 0.0)
            return status, payload, {"Allow": allowed}
        begin = time.perf_counter()
        try:
            status, payload, headers = await handler(request)
        except ProtocolError as exc:
            status, payload = error_payload(exc.status, exc.message)
            headers = None
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            logger.exception("handler for %s failed", label)
            status, payload = error_payload(500, f"internal error: {exc}")
            headers = None
        self.metrics.observe(label, status, time.perf_counter() - begin)
        return status, payload, headers

    # ------------------------------------------------------------------ #
    # Shared handler machinery
    # ------------------------------------------------------------------ #
    async def _run_query(self, fn: Callable[[], dict]) -> Tuple[int, dict, None]:
        """Run one read query on a worker thread under the request timeout."""
        try:
            payload = await asyncio.wait_for(asyncio.to_thread(fn),
                                             timeout=self._config.request_timeout)
        except asyncio.TimeoutError:
            status, payload = error_payload(
                504, f"query exceeded the {self._config.request_timeout:g}s budget")
            return status, payload, None
        return 200, payload, None

    async def _enqueue_write(self, label: str,
                             job: Callable[[], dict]) -> Tuple[int, dict, Optional[Dict[str, str]]]:
        """Funnel one write through the bounded ingest queue."""
        assert self._queue is not None and self._loop is not None
        if self._draining:
            status, payload = error_payload(503, "server is shutting down")
            return status, payload, None
        future: asyncio.Future = self._loop.create_future()
        try:
            self._queue.put_nowait((job, future, label))
        except asyncio.QueueFull:
            status, payload = error_payload(
                429, f"ingest queue full ({self._config.queue_bound} pending writes)")
            payload["retry_after"] = self._config.retry_after
            payload["queue_depth"] = self._queue.qsize()
            return status, payload, {"Retry-After": f"{self._config.retry_after:g}"}
        try:
            # shield: a timeout stops *waiting*, it must not cancel the queued
            # job — writes apply in arrival order or the epoch contract breaks.
            result = await asyncio.wait_for(asyncio.shield(future),
                                            timeout=self._config.request_timeout)
        except asyncio.TimeoutError:
            # The future is still pending (shield) with nobody awaiting it;
            # attach a consumer so the writer's eventual set_exception is
            # retrieved and logged instead of dying as asyncio's "exception
            # was never retrieved" noise.
            future.add_done_callback(self._abandoned_write_observer(label))
            return 202, {"applied": False, "pending": True, "operation": label,
                         "detail": "write is queued and will apply in order; "
                                   "poll /epoch to observe it"}, None
        except ValueError as exc:
            status, payload = error_payload(400, str(exc))
            return status, payload, None
        except Exception as exc:  # noqa: BLE001 - surfaced as 500 below
            status, payload = error_payload(500, f"write failed: {exc}")
            return status, payload, None
        result = dict(result)
        result.setdefault("applied", True)
        return 200, result, None

    @staticmethod
    def _abandoned_write_observer(label: str) -> Callable[["asyncio.Future"], None]:
        def _observe(future: asyncio.Future) -> None:
            if future.cancelled():
                return
            exc = future.exception()
            if exc is not None:
                logger.warning("queued %s write failed after caller stopped "
                               "waiting (202): %s", label, exc)
        return _observe

    def _snapshot_for(self, request: HttpRequest):
        version = request.query.get("version")
        if version is None:
            return self._service.snapshot()
        try:
            return self._service.snapshot(int(version))
        except ValueError as exc:
            raise ProtocolError(400, f"invalid version {version!r}") from exc
        except KeyError as exc:
            raise ProtocolError(404, str(exc.args[0]) if exc.args else "version evicted") from exc

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _build_routes(self) -> List[_Route]:
        return [
            _Route("GET", "/health", self._handle_health),
            _Route("GET", "/epoch", self._handle_epoch),
            _Route("GET", "/report", self._handle_report),
            _Route("GET", "/edges", self._handle_edges),
            _Route("GET", "/metrics", self._handle_metrics),
            _Route("POST", "/resistance", self._handle_resistance),
            _Route("POST", "/solve", self._handle_solve),
            _Route("POST", "/update", self._handle_update),
            _Route("POST", "/checkpoint", self._handle_checkpoint),
            _Route("POST", "/shutdown", self._handle_shutdown),
        ]

    async def _handle_health(self, request: HttpRequest):
        # No snapshot capture: /health must stay cheap under any load.
        assert self._queue is not None
        return 200, {"status": "ok",
                     "version": self._service.latest_version,
                     "applied_batches": self._service.applied_batches,
                     "queue_depth": self._queue.qsize(),
                     "queue_bound": self._config.queue_bound,
                     "draining": self._draining}, None

    async def _handle_epoch(self, request: HttpRequest):
        # retained_versions/write_stats take the service lock — off the loop,
        # or a long driver update would stall the very endpoint 202 answers
        # tell clients to poll.
        def read() -> dict:
            return {"version": self._service.latest_version,
                    "retained_versions": self._service.retained_versions,
                    "applied_batches": self._service.applied_batches,
                    "write_stats": self._service.write_stats}
        return await self._run_query(read)

    async def _handle_report(self, request: HttpRequest):
        full = request.query.get("full") in ("1", "true", "yes")

        def read() -> dict:
            snap = self._snapshot_for(request)
            if full:
                return {"version": snap.version, "report": snap.report().as_dict()}
            return {"version": snap.version, "snapshot": snap.describe()}
        return await self._run_query(read)

    async def _handle_edges(self, request: HttpRequest):
        on = request.query.get("on", "sparsifier")
        if on not in ("sparsifier", "graph"):
            raise ProtocolError(400, f"unknown edges target {on!r}")

        def read() -> dict:
            snap = self._snapshot_for(request)
            us, vs, ws = (snap.sparsifier_arrays() if on == "sparsifier"
                          else snap.graph_arrays())
            return {"version": snap.version, "on": on,
                    "num_nodes": snap.num_nodes,
                    "edges": [[int(u), int(v), float(w)]
                              for u, v, w in zip(us, vs, ws)]}
        return await self._run_query(read)

    async def _handle_metrics(self, request: HttpRequest):
        assert self._queue is not None
        queue_depth, queue_bound = self._queue.qsize(), self._config.queue_bound

        def read() -> dict:
            return self.metrics.snapshot(
                queue_depth=queue_depth,
                queue_bound=queue_bound,
                version=self._service.latest_version,
                applied_batches=self._service.applied_batches,
                retained_snapshots=len(self._service.retained_versions),
                write_stats=self._service.write_stats,
            )
        return await self._run_query(read)

    async def _handle_resistance(self, request: HttpRequest):
        payload = request.json()
        on = payload.get("on", "sparsifier")
        if on not in ("sparsifier", "graph"):
            raise ProtocolError(400, f"unknown resistance target {on!r}")
        if "pairs" in payload:
            pairs = _event_rows(payload, "pairs", 2, "[u, v]")

            def many() -> dict:
                snap = self._snapshot_for(request)
                try:
                    values = snap.effective_resistance_many(pairs, on=on)
                except ValueError as exc:
                    raise ProtocolError(400, str(exc)) from exc
                return {"version": snap.version, "on": on, "resistances": values}
            self.metrics.observe_read(on_loop=False)
            return await self._run_query(many)
        u, v = _int_field(payload, "u"), _int_field(payload, "v")

        def single(snap) -> dict:
            try:
                value = snap.effective_resistance(u, v, on=on)
            except ValueError as exc:
                raise ProtocolError(400, str(exc)) from exc
            return {"version": snap.version, "on": on, "u": u, "v": v,
                    "resistance": value}
        if "version" not in request.query:
            snap = self._service.snapshot()  # the published epoch, lock-free
            if snap.solver_ready(on):
                # One solve costs less than the worker-thread round trip.
                self.metrics.observe_read(on_loop=True)
                return 200, single(snap), None
        self.metrics.observe_read(on_loop=False)
        return await self._run_query(lambda: single(self._snapshot_for(request)))

    async def _handle_solve(self, request: HttpRequest):
        payload = request.json()
        preconditioned = payload.get("preconditioned", True)
        if not isinstance(preconditioned, bool):
            raise ProtocolError(400, "field 'preconditioned' must be a boolean")

        def solve() -> dict:
            import numpy as np

            snap = self._snapshot_for(request)
            rhs = np.asarray(rhs_from_payload(payload, snap.num_nodes), dtype=np.float64)
            report = snap.solve(rhs, preconditioned=preconditioned)
            return {"version": snap.version,
                    "x": report.solution.tolist(),
                    "iterations": report.iterations,
                    "residual_norm": report.residual_norm,
                    "converged": report.converged}
        return await self._run_query(solve)

    async def _handle_update(self, request: HttpRequest):
        batch = batch_from_payload(request.json())

        def job() -> dict:
            self._service.apply(batch)
            return {"version": self._service.latest_version,
                    "applied_batches": self._service.applied_batches,
                    "events": batch.num_events}
        return await self._enqueue_write("update", job)

    async def _handle_checkpoint(self, request: HttpRequest):
        path = checkpoint_path_from_payload(request.json(), self._config.checkpoint_dir)

        def job() -> dict:
            # Through the queue: the checkpoint lands between batches, never
            # mid-write, and observes every write enqueued before it.
            self._service.save_checkpoint(path)
            return {"version": self._service.latest_version, "path": path,
                    "checkpointed": True}
        return await self._enqueue_write("checkpoint", job)

    async def _handle_shutdown(self, request: HttpRequest):
        assert self._loop is not None
        # Respond first, then trigger: the event fires on the next loop tick,
        # after this response hits the socket.
        def _set() -> None:
            if self._shutdown_event is not None:
                self._shutdown_event.set()
        self._loop.call_soon(_set)
        return 200, {"status": "shutting-down",
                     "version": self._service.latest_version,
                     "pending_writes": self._queue.qsize() if self._queue else 0,
                     "checkpoint_dir": self._config.checkpoint_dir}, None


def serve(service: SparsifierService,
          config: Optional[ServerConfig] = None) -> SparsifierHTTPServer:
    """Serve ``service`` over HTTP until SIGINT/SIGTERM — the blocking facade.

    Installs signal handlers for a graceful exit (drain + checkpoint), runs
    the server on the calling thread, and returns the (stopped) server so
    callers can inspect final metrics.
    """
    import contextlib
    import signal

    server = SparsifierHTTPServer(service, config)

    def _graceful(signum, frame):  # pragma: no cover - signal delivery
        logger.info("signal %s: shutting down gracefully", signum)
        server.request_shutdown()

    with contextlib.ExitStack() as stack:
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous = signal.signal(signum, _graceful)
            except ValueError:  # pragma: no cover - non-main thread
                continue
            stack.callback(signal.signal, signum, previous)
        server.serve_forever()
    return server
