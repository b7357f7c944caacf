"""Tests for the stdlib-asyncio HTTP front end (`repro.server`).

Covers the wire protocol (malformed/oversized requests), the read endpoints'
snapshot pinning, the bounded write queue's backpressure contract (429 /
202-pending), per-request timeouts, concurrent readers during writes (no
torn epochs, writer trajectory bit-exact vs an offline replay) and the
kill/restart → bit-exact-resume drill over HTTP, with readers on both sides
of the restart.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import threading
import time
from http.client import HTTPException, RemoteDisconnected

import pytest

from repro.api import (
    InGrassConfig,
    DynamicScenarioConfig,
    MixedBatch,
    ServerConfig,
    ServerRequestError,
    SparsifierHTTPServer,
    SparsifierService,
    build_churn_scenario,
    connect,
    grid_circuit_2d,
    is_checkpoint,
)
from repro.graphs.validation import removals_keep_connected
from repro.server.app import batch_from_payload
from repro.server.client import _read_response
from repro.server.http import ProtocolError
from repro.snapshot import SparsifierSnapshot

SEED = 3


@pytest.fixture(scope="module")
def scenario():
    graph = grid_circuit_2d(8, seed=SEED)
    return build_churn_scenario(
        graph, DynamicScenarioConfig(num_iterations=6, deletion_fraction=0.3,
                                     seed=SEED))


def fresh_service(scenario) -> SparsifierService:
    service = SparsifierService(InGrassConfig(seed=SEED))
    service.setup(scenario.graph, scenario.initial_sparsifier,
                  target_condition_number=scenario.initial_condition_number)
    return service


def offline_replay(scenario, batches) -> SparsifierService:
    service = fresh_service(scenario)
    for batch in batches:
        service.apply(batch)
    return service


@contextlib.contextmanager
def running_server(service, **config_kwargs):
    """A started server on an ephemeral port plus one connected client."""
    config = ServerConfig(port=0, **config_kwargs)
    server = SparsifierHTTPServer(service, config).start()
    client = connect(port=server.port)
    try:
        yield server, client
    finally:
        client.close()
        server.stop()


def raw_exchange(port: int, data: bytes, *, timeout: float = 10.0) -> bytes:
    """Send raw bytes; read until the server closes (error answers do)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def read_message(stream) -> tuple:
    """Read one HTTP message off a buffered socket reader: ``(head, body)``,
    the body framed by ``Content-Length`` (none without it)."""
    lines = []
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        lines.append(line)
    head = b"".join(lines)
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return head, stream.read(length)


@contextlib.contextmanager
def scripted_server(replies):
    """A listener that reads one request per connection, answers the i-th
    request it reads with the raw bytes ``replies[i]`` (nothing once the
    script runs out, or for ``None``) and closes that connection.

    Yields ``(port, requests)``: every request read, head and body, in order.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.1)
    requests: list = []
    stop = threading.Event()

    def serve() -> None:
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except socket.timeout:
                continue
            conn.settimeout(10)
            with conn, conn.makefile("rb") as stream:
                head, body = read_message(stream)
                if not head:
                    continue
                requests.append(head + body)
                reply = replies[len(requests) - 1] if len(requests) <= len(replies) else None
                if reply:
                    conn.sendall(reply)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1], requests
    finally:
        stop.set()
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


def response_status(blob: bytes) -> int:
    return int(blob.split(b" ", 2)[1])


def response_json(blob: bytes) -> dict:
    head, _, body = blob.partition(b"\r\n\r\n")
    assert head
    return json.loads(body.decode("utf-8"))


def sparsifier_edges(client, **kwargs):
    return client.edges(on="sparsifier", **kwargs)["edges"]


def post_batch(client, batch: MixedBatch) -> dict:
    return client.update(insertions=batch.insertions, deletions=batch.deletions,
                         weight_changes=batch.weight_changes)


@contextlib.contextmanager
def concurrent_readers(port: int, count: int = 2):
    """``count`` reader threads query ``port`` while the block runs.

    Yields ``(versions, errors)``: the epoch of every answer, and every
    error but a 404 (an evicted version, benign).  Each reader re-reads its
    answer's epoch pinned, twice, and counts differing edges as a torn
    epoch.  On exit the readers stop once each has answered (30 s at most),
    so a slow host cannot pass a check on no answers.
    """
    versions: list = []
    errors: list = []
    stop = threading.Event()
    answered = [threading.Event() for _ in range(count)]

    def reader(first_answer: threading.Event) -> None:
        with connect(port=port) as client:
            while not stop.is_set():
                try:
                    version = client.resistance(0, 7)["version"]
                    edges = sparsifier_edges(client, version=version)
                    if sparsifier_edges(client, version=version) != edges:
                        errors.append(f"torn epoch at version {version}")
                    versions.append(version)
                    first_answer.set()
                except ServerRequestError as exc:
                    if exc.status != 404:
                        errors.append(repr(exc))
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append(repr(exc))

    threads = [threading.Thread(target=reader, args=(event,)) for event in answered]
    for thread in threads:
        thread.start()
    try:
        yield versions, errors
    finally:
        deadline = time.monotonic() + 30.0
        for event in answered:
            event.wait(timeout=max(0.0, deadline - time.monotonic()))
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        errors.extend("reader did not stop" for thread in threads if thread.is_alive())


# --------------------------------------------------------------------------- #
# Wire protocol
# --------------------------------------------------------------------------- #
class TestWireProtocol:
    @pytest.fixture(scope="class")
    def wire(self, scenario):
        with running_server(fresh_service(scenario),
                            max_header_bytes=4096,
                            max_body_bytes=2048) as pair:
            yield pair

    def test_malformed_request_line_answers_400(self, wire):
        server, _ = wire
        blob = raw_exchange(server.port, b"NOT-HTTP\r\n\r\n")
        assert response_status(blob) == 400
        assert b"Connection: close" in blob

    def test_bad_json_body_answers_400(self, wire):
        server, client = wire
        status, payload = client.request("POST", "/resistance")
        assert status == 400  # empty body -> no 'u' field
        blob = raw_exchange(
            server.port,
            b"POST /resistance HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: 9\r\n\r\nnot json!")
        assert response_status(blob) == 400
        assert "not valid JSON" in response_json(blob)["error"]

    def test_non_object_json_answers_400(self, wire):
        server, _ = wire
        blob = raw_exchange(
            server.port,
            b"POST /update HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: 7\r\n\r\n[1,2,3]")
        assert response_status(blob) == 400
        assert "JSON object" in response_json(blob)["error"]

    def test_unknown_endpoint_answers_404(self, wire):
        _, client = wire
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert payload["status"] == 404

    def test_wrong_method_answers_405_with_allow(self, wire):
        server, _ = wire
        blob = raw_exchange(
            server.port,
            b"GET /update HTTP/1.1\r\nConnection: close\r\n\r\n")
        assert response_status(blob) == 405
        assert b"Allow: POST" in blob

    def test_oversized_header_block_answers_431(self, wire):
        server, _ = wire
        filler = b"X-Filler: " + b"a" * 5000 + b"\r\n"
        blob = raw_exchange(server.port,
                            b"GET /health HTTP/1.1\r\n" + filler + b"\r\n")
        assert response_status(blob) == 431

    def test_oversized_body_answers_413_without_buffering(self, wire):
        server, _ = wire
        head = b"POST /update HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        blob = raw_exchange(server.port, head)  # body never sent
        assert response_status(blob) == 413

    def test_invalid_content_length_answers_400(self, wire):
        server, _ = wire
        blob = raw_exchange(
            server.port,
            b"POST /update HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
        assert response_status(blob) == 400

    def test_chunked_transfer_answers_501(self, wire):
        server, _ = wire
        blob = raw_exchange(
            server.port,
            b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        assert response_status(blob) == 501

    def test_keep_alive_serves_many_requests_on_one_connection(self, wire):
        _, client = wire
        connections = client.metrics()["connections_total"]
        first = client.health()
        second = client.epoch()
        third = client.health()
        assert first["status"] == "ok" and third["status"] == "ok"
        assert second["version"] == first["version"]
        # A client that reconnected per request would have grown the count.
        assert client.metrics()["connections_total"] == connections

    def test_http10_request_closes_after_its_response(self, wire):
        # RFC 9112 §9.3: no "Connection: keep-alive", so the server closes;
        # the read reaches EOF long before the 30 s idle deadline.
        server, _ = wire
        blob = raw_exchange(server.port, b"GET /health HTTP/1.0\r\n\r\n", timeout=5.0)
        assert response_status(blob) == 200
        assert b"Connection: close" in blob
        assert response_json(blob)["status"] == "ok"

    def test_http10_keep_alive_request_is_answered_twice_on_one_socket(self, wire):
        server, _ = wire
        request = b"GET /health HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock, \
                sock.makefile("rb") as stream:
            for _ in range(2):
                sock.sendall(request)
                head, body = read_message(stream)
                assert head.startswith(b"HTTP/1.1 200 ")
                assert b"Connection: keep-alive" in head
                assert json.loads(body)["status"] == "ok"


# --------------------------------------------------------------------------- #
# Payload validation
# --------------------------------------------------------------------------- #
class TestBatchDecoding:
    def test_round_trips_every_event_kind(self):
        batch = batch_from_payload({
            "insertions": [[0, 1, 1.5]],
            "deletions": [[2, 3]],
            "weight_changes": [[4, 5, -0.25]],
        })
        assert batch.insertions == [(0, 1, 1.5)]
        assert batch.deletions == [(2, 3)]
        assert batch.weight_changes == [(4, 5, -0.25)]

    @pytest.mark.parametrize("payload, fragment", [
        ({}, "no events"),
        ({"bogus": []}, "unknown update fields"),
        ({"insertions": "nope"}, "must be a list"),
        ({"insertions": [[1, 2]]}, "entry must be"),
        ({"deletions": [[1, "x"]]}, "invalid"),
        # Node ids are never coerced: no truncation, no strings, no booleans.
        ({"insertions": [[1.7, 20, 1.0]]}, "'insertions'"),
        ({"insertions": [["3", "20", "1.0"]]}, "'insertions'"),
        ({"insertions": [[True, 20, 1.0]]}, "'insertions'"),
        ({"deletions": [[3, False]]}, "'deletions'"),
        # Weights and deltas are finite JSON numbers.
        ({"insertions": [[1, 2, "1.0"]]}, "'insertions'"),
        ({"insertions": [[1, 2, True]]}, "'insertions'"),
        ({"weight_changes": [[1, 2, None]]}, "'weight_changes'"),
        ({"weight_changes": [[1, 2, float("nan")]]}, "'weight_changes'"),
        ({"weight_changes": [[1, 2, 10**400]]}, "'weight_changes'"),
    ])
    def test_rejects_malformed_payloads(self, payload, fragment):
        with pytest.raises(ProtocolError) as excinfo:
            batch_from_payload(payload)
        assert excinfo.value.status == 400
        assert fragment in excinfo.value.message


# --------------------------------------------------------------------------- #
# Read endpoints
# --------------------------------------------------------------------------- #
class TestReadEndpoints:
    @pytest.fixture(scope="class")
    def served(self, scenario):
        service = fresh_service(scenario)
        with running_server(service) as (server, client):
            yield service, server, client

    def test_health_reports_queue_and_epoch(self, served):
        service, _, client = served
        health = client.health()
        assert health["status"] == "ok"
        assert health["version"] == service.latest_version
        assert health["queue_depth"] == 0
        assert health["draining"] is False

    def test_report_describe_and_full(self, served):
        service, _, client = served
        brief = client.report()
        assert brief["snapshot"]["version"] == service.latest_version
        full = client.report(full=True)
        assert full["report"]["num_nodes"] == service.snapshot().num_nodes

    def test_resistance_matches_direct_snapshot_query(self, served):
        service, _, client = served
        snap = service.snapshot()
        answer = client.resistance(0, 5)
        assert answer["resistance"] == snap.effective_resistance(0, 5)
        many = client.resistance_many([(0, 5), (1, 2)], on="graph")
        assert many["resistances"] == [snap.effective_resistance(0, 5, on="graph"),
                                       snap.effective_resistance(1, 2, on="graph")]

    def test_resistance_validates_target_and_nodes(self, served):
        _, _, client = served
        with pytest.raises(ServerRequestError) as excinfo:
            client.resistance(0, 1, on="bogus")
        assert excinfo.value.status == 400
        with pytest.raises(ServerRequestError) as excinfo:
            client.resistance(0, 10**6)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("pairs", [[[0, 999]], [[-1, 3]], [[0, 1], [2, 10**6]]])
    def test_batched_resistance_outside_the_graph_answers_400(self, served, pairs):
        _, _, client = served
        status, payload = client.request("POST", "/resistance", {"pairs": pairs})
        assert status == 400, payload
        assert "outside" in payload["error"]

    def test_solve_matches_direct_snapshot_solve(self, served):
        service, _, client = served
        snap = service.snapshot()
        b = [0.0] * snap.num_nodes
        b[0], b[-1] = 1.0, -1.0
        answer = client.solve(b)
        report = snap.solve(__import__("numpy").asarray(b))
        assert answer["converged"] is True
        assert answer["iterations"] == report.iterations
        assert answer["x"] == report.solution.tolist()

    def test_solve_rejects_wrong_length(self, served):
        _, _, client = served
        with pytest.raises(ServerRequestError) as excinfo:
            client.solve([1.0, -1.0])
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("b, preconditioned", [
        ([[0.0, 1.0]] * 64, True),   # nested rows: used to escape as a 500
        ([None] * 64, True),         # null: used to become NaN and answer x = 0
        ([True] * 64, True),
        (["1"] * 64, True),
        ([float("inf")] + [0.0] * 63, True),
        ([0.0] * 64, "no"),
        ([0.0] * 64, 1),
    ], ids=["nested", "null", "bool", "string", "infinite", "string-flag", "int-flag"])
    def test_solve_rejects_malformed_input(self, served, b, preconditioned):
        service, _, client = served
        assert service.snapshot().num_nodes == 64
        status, payload = client.request("POST", "/solve", {"b": b, "preconditioned": preconditioned})
        assert status == 400, payload

    def test_metrics_expose_histograms_and_gauges(self, served):
        _, _, client = served
        client.health()
        metrics = client.metrics()
        assert metrics["requests_total"] >= 1
        assert "GET /health" in metrics["endpoints"]
        health_stats = metrics["endpoints"]["GET /health"]
        assert health_stats["latency"]["count"] >= 1
        assert health_stats["statuses"].get("200", 0) >= 1
        assert metrics["gauges"]["queue_bound"] == 64
        assert metrics["connections_total"] >= 1


# --------------------------------------------------------------------------- #
# Write path
# --------------------------------------------------------------------------- #
class TestWritePath:
    def test_served_writes_match_offline_replay(self, scenario):
        offline = offline_replay(scenario, scenario.batches)
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            for batch in scenario.batches:
                answer = post_batch(client, batch)
                assert answer["applied"] is True
            assert client.epoch()["version"] == offline.latest_version
            served = sparsifier_edges(client)
        snap = offline.snapshot()
        us, vs, ws = snap.sparsifier_arrays()
        expected = [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]
        assert served == expected

    def test_remove_and_reweight_endpoints(self, scenario):
        # The old convenience routes are gone: a deletion-only or a
        # weight-change-only write is an ordinary /update batch.
        service = fresh_service(scenario)
        offline = fresh_service(scenario)
        us, vs, ws = offline.snapshot().graph_arrays()
        victim = (int(us[0]), int(vs[0]))
        target = (int(us[1]), int(vs[1]), float(ws[1]) * 0.5)
        with running_server(service) as (_, client):
            for path in ("/remove", "/reweight"):
                status, _ = client.request("POST", path, {"deletions": [list(victim)]})
                assert status == 404
            removed = client.update(deletions=[victim])
            assert removed["applied"] is True and removed["events"] == 1
            changed = client.update(weight_changes=[target])
            assert changed["applied"] is True
        offline.driver.apply_batch(MixedBatch(deletions=[victim]))
        offline.driver.apply_batch(MixedBatch(weight_changes=[target]))
        assert service.latest_version == offline.latest_version
        assert (service.driver.sparsifier.edge_list()
                == offline.driver.sparsifier.edge_list())
        assert service.driver.graph.edge_list() == offline.driver.graph.edge_list()

    def test_rejected_batch_leaves_no_trace(self, scenario):
        # A batch the driver rejects (here: a valid deletion next to an
        # out-of-range insertion) answers 400 between two accepted writes;
        # the served state must equal the offline replay of the accepted ones.
        accepted = scenario.batches[:2]
        middle = offline_replay(scenario, accepted[:1]).driver.graph
        victim = next(edge for edge in middle.edges()
                      if removals_keep_connected(middle, [edge]))
        offline = offline_replay(scenario, accepted)
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            post_batch(client, accepted[0])
            epoch = client.epoch()["version"]
            status, payload = client.request("POST", "/update", {
                "deletions": [list(victim)], "insertions": [[0, 999, 1.0]]})
            assert status == 400, payload
            assert client.epoch()["version"] == epoch
            post_batch(client, accepted[1])
            assert client.epoch()["version"] == offline.latest_version
            served = {on: client.edges(on=on)["edges"] for on in ("graph", "sparsifier")}
        snap = offline.snapshot()
        for on, (us, vs, ws) in (("graph", snap.graph_arrays()),
                                 ("sparsifier", snap.sparsifier_arrays())):
            assert served[on] == [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]

    def test_version_pinned_reads_survive_writes(self, scenario):
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            # Setup published (and retains) the epoch-1 snapshot; pinned
            # reads can address it by version after writes land.
            before = sparsifier_edges(client)
            post_batch(client, scenario.batches[0])
            pinned = sparsifier_edges(client, version=1)
            assert pinned == before
            latest = client.edges()
            assert latest["version"] == 2

    def test_empty_update_answers_400(self, scenario):
        with running_server(fresh_service(scenario)) as (_, client):
            status, payload = client.request("POST", "/update", {})
            assert status == 400
            assert "no events" in payload["error"]

    def test_backpressure_202_then_429_when_queue_fills(self, scenario, monkeypatch):
        service = fresh_service(scenario)
        slow_apply = service.apply

        def stalled(batch):
            time.sleep(0.8)
            return slow_apply(batch)

        monkeypatch.setattr(service, "apply", stalled)
        with running_server(service, queue_bound=1, request_timeout=0.15,
                            retry_after=0.5) as (server, client):
            first = post_batch(client, scenario.batches[0])
            assert first == {"applied": False, "pending": True,
                             "operation": "update",
                             "detail": first["detail"]}
            second = post_batch(client, scenario.batches[1])
            assert second["pending"] is True
            with pytest.raises(ServerRequestError) as excinfo:
                post_batch(client, scenario.batches[2])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.5
            # Pending writes drain in order during graceful shutdown.
        assert service.applied_batches == 2
        assert service.latest_version == 3
        assert server.metrics.snapshot()["rejected_writes_total"] == 1

    def test_slow_read_answers_504(self, scenario, monkeypatch):
        def glacial(self, u, v, *, on="sparsifier"):
            time.sleep(1.0)
            return 0.0

        monkeypatch.setattr(SparsifierSnapshot, "effective_resistance", glacial)
        with running_server(fresh_service(scenario),
                            request_timeout=0.1) as (_, client):
            with pytest.raises(ServerRequestError) as excinfo:
                client.resistance(0, 1)
            assert excinfo.value.status == 504
            metrics = client.metrics()
            assert metrics["timeouts_total"] == 1


# --------------------------------------------------------------------------- #
# Concurrent readers during writes
# --------------------------------------------------------------------------- #
class TestConcurrentReaders:
    def test_no_torn_epochs_and_writer_stays_bit_exact(self, scenario):
        offline = offline_replay(scenario, scenario.batches)
        service = fresh_service(scenario)
        with running_server(service) as (server, client):
            with concurrent_readers(server.port) as (versions, errors):
                for batch in scenario.batches:
                    assert post_batch(client, batch)["applied"] is True
            final = sparsifier_edges(client)
        assert errors == []
        assert versions, "readers never completed a query"
        assert all(1 <= v <= offline.latest_version for v in versions)
        snap = offline.snapshot()
        us, vs, ws = snap.sparsifier_arrays()
        assert final == [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]


# --------------------------------------------------------------------------- #
# Reads on the event loop
# --------------------------------------------------------------------------- #
class TestLoopReads:
    """A single-pair read at the current epoch answers on the event loop once
    the published snapshot holds its solver; every other read takes a worker
    thread."""

    def test_held_write_stalls_neither_reads_nor_health(self, scenario, monkeypatch):
        service = fresh_service(scenario)
        entered, release = threading.Event(), threading.Event()
        apply_batch = service.driver.apply_batch

        def held(batch):
            entered.set()
            release.wait(timeout=60.0)
            return apply_batch(batch)

        monkeypatch.setattr(service.driver, "apply_batch", held)
        written: list = []
        with running_server(service) as (server, client):
            warm = client.resistance(0, 7)  # builds the current epoch's solver
            with connect(port=server.port) as write_client, \
                    connect(port=server.port, timeout=1.0) as quick:
                writer = threading.Thread(target=lambda: written.append(
                    post_batch(write_client, scenario.batches[0])))
                writer.start()
                try:
                    assert entered.wait(timeout=10.0)
                    # The write holds the service lock mid-apply; each answer
                    # must still come within the 1 s socket timeout.
                    during = quick.resistance(0, 7)
                    health = quick.health()
                finally:
                    release.set()
                    writer.join(timeout=60.0)
            assert not writer.is_alive()
            assert during == warm
            assert health["version"] == warm["version"]
            assert written and written[0]["applied"] is True
            after = client.resistance(0, 7)
        assert after["version"] == warm["version"] + 1

    @pytest.mark.parametrize("on", ["sparsifier", "graph"])
    def test_worker_loop_and_in_process_answers_are_one_float(self, scenario, on):
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            post_batch(client, scenario.batches[0])
            first = client.resistance(0, 9, on=on)  # builds the solver on a worker
            again = client.resistance(0, 9, on=on)  # answered on the loop
            metrics = client.metrics()
        snap = service.snapshot()
        assert first["version"] == again["version"] == snap.version
        assert first["resistance"] == again["resistance"] == snap.effective_resistance(0, 9, on=on)
        assert (metrics["reads_on_worker_total"], metrics["reads_on_loop_total"]) == (1, 1)

    def test_metrics_count_reads_by_where_they_answer(self, scenario):
        with running_server(fresh_service(scenario)) as (_, client):
            version = post_batch(client, scenario.batches[0])["version"]
            for _ in range(3):
                client.resistance(0, 9)
            metrics = client.metrics()
            assert (metrics["reads_on_loop_total"], metrics["reads_on_worker_total"]) == (2, 1)
            # With the solver built, pair lists and versioned reads still
            # take a worker thread.
            client.resistance_many([(0, 9), (1, 2)])
            client.resistance(0, 9, version=version)
            metrics = client.metrics()
        assert (metrics["reads_on_loop_total"], metrics["reads_on_worker_total"]) == (2, 3)


# --------------------------------------------------------------------------- #
# Checkpoint / restart drill
# --------------------------------------------------------------------------- #
class TestRestartDrill:
    def test_graceful_shutdown_saves_checkpoint_and_resume_is_bit_exact(
            self, scenario, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        offline = offline_replay(scenario, scenario.batches)
        final_epoch = offline.latest_version
        half = len(scenario.batches) // 2

        service = fresh_service(scenario)
        config = ServerConfig(port=0, checkpoint_dir=str(checkpoint_dir))
        server = SparsifierHTTPServer(service, config).start()
        client = connect(port=server.port)
        with concurrent_readers(server.port) as (fresh_versions, fresh_errors):
            for batch in scenario.batches[:half]:
                post_batch(client, batch)
        mid_epoch = client.epoch()["version"]
        answer = client.shutdown()  # drains + saves the shutdown checkpoint
        assert answer["status"] == "shutting-down"
        server.stop()
        assert is_checkpoint(checkpoint_dir)

        restored = SparsifierService.restore(checkpoint_dir)
        assert restored.latest_version == mid_epoch
        with running_server(restored) as (resumed, resumed_client):
            assert resumed_client.epoch()["version"] == mid_epoch
            with concurrent_readers(resumed.port) as (resumed_versions, resumed_errors):
                for batch in scenario.batches[half:]:
                    post_batch(resumed_client, batch)
            assert resumed_client.epoch()["version"] == final_epoch
            final = sparsifier_edges(resumed_client)
            final_graph = resumed_client.edges(on="graph")["edges"]
        # Readers answered in both phases, without an error, and after the
        # restart only from epochs the restored server made.
        assert fresh_errors == [] and resumed_errors == []
        assert fresh_versions and resumed_versions
        assert all(1 <= v <= mid_epoch for v in fresh_versions)
        assert all(mid_epoch <= v <= final_epoch for v in resumed_versions)
        snap = offline.snapshot()
        us, vs, ws = snap.sparsifier_arrays()
        assert final == [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]
        gus, gvs, gws = snap.graph_arrays()
        assert final_graph == [[int(u), int(v), float(w)]
                               for u, v, w in zip(gus, gvs, gws)]

    def test_checkpoint_endpoint_lands_between_batches(self, scenario, tmp_path):
        mid_dir = tmp_path / "mid"
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            post_batch(client, scenario.batches[0])
            answer = client.checkpoint(str(mid_dir))
            assert answer["checkpointed"] is True
            assert answer["version"] == 2
            post_batch(client, scenario.batches[1])
        assert is_checkpoint(mid_dir)
        restored = SparsifierService.restore(mid_dir)
        reference = offline_replay(scenario, scenario.batches[:1])
        assert restored.latest_version == 2
        assert (restored.driver.sparsifier.edge_list()
                == reference.driver.sparsifier.edge_list())

    def test_checkpoint_without_path_or_config_answers_400(self, scenario):
        with running_server(fresh_service(scenario)) as (_, client):
            with pytest.raises(ServerRequestError) as excinfo:
                client.checkpoint()
            assert excinfo.value.status == 400

    @pytest.mark.parametrize("payload, field", [
        ({"path": 5}, "'path'"),
        ({"path": 0}, "'path'"),
        ({"path": True}, "'path'"),
        ({"path": None}, "'path'"),
        ({"path": ""}, "'path'"),
        ({"path": ["ckpt"]}, "'path'"),
        ({"path": "ckpt", "bogus": 1}, "'bogus'"),
    ])
    def test_checkpoint_path_must_be_a_non_empty_string(self, scenario, tmp_path,
                                                        monkeypatch, payload, field):
        # A coerced path would land relative to the working directory.
        monkeypatch.chdir(tmp_path)
        with running_server(fresh_service(scenario), checkpoint_dir=str(tmp_path / "configured"),
                            checkpoint_on_shutdown=False) as (_, client):
            status, answer = client.request("POST", "/checkpoint", payload)
            assert status == 400
            assert field in answer["error"]
        assert list(tmp_path.iterdir()) == []


# --------------------------------------------------------------------------- #
# Client behaviour
# --------------------------------------------------------------------------- #
class TestClient:
    def test_error_carries_status_and_payload(self):
        error = ServerRequestError(429, {"error": "full", "status": 429,
                                         "retry_after": 2.5})
        assert error.status == 429
        assert error.retry_after == 2.5
        assert "full" in str(error)
        assert ServerRequestError(404, {"error": "x"}).retry_after is None

    def test_client_reconnects_after_server_side_close(self, scenario):
        with running_server(fresh_service(scenario),
                            keep_alive_timeout=0.2) as (_, client):
            first = client.health()
            time.sleep(0.6)  # idle long enough for the server to drop the socket
            second = client.health()  # must transparently reconnect
            assert second["version"] == first["version"]

    def test_idle_deadline_moves_with_each_request(self, scenario, monkeypatch):
        # Against a 0.5 s idle deadline: requests 0.1 s apart, and one read
        # that takes 0.8 s to answer, all share one connection; only a 1.2 s
        # silence closes it.
        slow = SparsifierSnapshot.effective_resistance

        def slower(self, u, v, *, on="sparsifier"):
            time.sleep(0.8)
            return slow(self, u, v, on=on)

        with running_server(fresh_service(scenario),
                            keep_alive_timeout=0.5) as (_, client):
            for _ in range(8):
                client.health()
                time.sleep(0.1)
            monkeypatch.setattr(SparsifierSnapshot, "effective_resistance", slower)
            client.resistance(0, 1)
            monkeypatch.undo()
            assert client.metrics()["connections_total"] == 1
            time.sleep(1.2)
            client.health()  # the server closed the idle socket: reconnects
            assert client.metrics()["connections_total"] == 2

    def test_failed_retry_leaves_client_reusable(self):
        # Against a dead port every attempt must surface a clean, retryable
        # OSError and leave no socket behind for the next call to trip on.
        client = connect(port=1, timeout=2.0)
        for _ in range(2):
            with pytest.raises(OSError):
                client.health()
            assert client._conn is None

    def test_context_manager_closes(self, scenario):
        with running_server(fresh_service(scenario)) as (server, _):
            with connect(port=server.port) as client:
                assert client.health()["status"] == "ok"
            assert client._conn is None

    def test_post_leaves_in_one_sendall(self, scenario, monkeypatch):
        with running_server(fresh_service(scenario)) as (server, client):
            client.health()  # connected before counting
            calls = []

            def spy(name):
                original = getattr(socket.socket, name)

                def send(sock, data, *args):
                    if sock.family == socket.AF_INET and sock.getpeername()[1] == server.port:
                        calls.append((name, bytes(data)))
                    return original(sock, data, *args)
                return send

            for name in ("send", "sendall"):
                monkeypatch.setattr(socket.socket, name, spy(name))
            answer = client.resistance(0, 7)
            monkeypatch.undo()
        assert answer["resistance"] > 0.0
        assert [name for name, _ in calls] == ["sendall"]
        head, _, body = calls[0][1].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /resistance HTTP/1.1\r\n")
        assert json.loads(body) == {"u": 0, "v": 7, "on": "sparsifier"}

    def test_response_cut_off_mid_body_raises_and_next_call_reconnects(self):
        cut = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + b'{"version": 1, "resist'
        body = json.dumps({"version": 1, "resistance": 0.5}).encode()
        whole = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        with scripted_server([cut, whole]) as (port, requests):
            with connect(port=port, timeout=10) as client:
                with pytest.raises((OSError, HTTPException)):
                    client.resistance(0, 1)
                assert client._conn is None
                assert client.resistance(0, 1) == {"version": 1, "resistance": 0.5}
        assert len(requests) == 2

    def test_connection_close_answer_drops_the_socket(self):
        reply = b'HTTP/1.1 200 OK\r\nContent-Length: 16\r\nConnection: close\r\n\r\n{"status": "ok"}'
        with scripted_server([reply]) as (port, _):
            with connect(port=port, timeout=10) as client:
                assert client.health() == {"status": "ok"}
                assert client._conn is None

    def test_unanswered_post_is_sent_once(self):
        # The listener reads the write and closes without answering: the
        # server may have applied it, so the client must not send it again.
        with scripted_server([None]) as (port, requests):
            with connect(port=port, timeout=10) as client:
                with pytest.raises((OSError, HTTPException)):
                    client.update(insertions=[(0, 1, 1.0)])
        assert len(requests) == 1
        assert requests[0].startswith(b"POST /update HTTP/1.1\r\n")

    @pytest.mark.parametrize("blob, expected", [
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}tail", (200, b"{}", True)),
        (b"HTTP/1.1 400 Bad Request\r\nConnection: close\r\nContent-Length: 2\r\n\r\n{}",
         (400, b"{}", False)),
        (b"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}", (200, b"{}", False)),
        (b"HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\nContent-Length: 2\r\n\r\n{}",
         (200, b"{}", True)),
        (b"HTTP/1.1 200 OK\r\n\r\n{} to the close", (200, b"{} to the close", False)),
        (b"", RemoteDisconnected),
        (b"HTTP/1.1 OK\r\n\r\n", HTTPException),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}", HTTPException),
        (b"HTTP/1.1 200 OK\r\nContent-Length: +2\r\n\r\n{}", HTTPException),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n", HTTPException),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}", HTTPException),
    ], ids=["keep-alive", "close", "http10", "http10-keep-alive", "to-close", "eof",
            "bad-status", "conflicting-length", "signed-length", "cut-head", "cut-body"])
    def test_response_framing_follows_rfc9112(self, blob, expected):
        reader = io.BytesIO(blob)
        if isinstance(expected, tuple):
            assert _read_response(reader) == expected
        else:
            with pytest.raises(expected):
                _read_response(reader)

    def test_large_edges_body_decodes_intact(self):
        payload = {"version": 3, "on": "graph", "num_nodes": 20001,
                   "edges": [[i, i + 1, 1.0 + i / 7.0] for i in range(20000)]}
        body = json.dumps(payload).encode()
        assert len(body) > 300_000
        reply = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body
        with scripted_server([reply]) as (port, requests):
            with connect(port=port, timeout=10) as client:
                assert client.edges(on="graph") == payload
        assert requests[0].startswith(b"GET /edges?on=graph HTTP/1.1\r\n")
