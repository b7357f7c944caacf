"""Tests for the stdlib-asyncio HTTP front end (`repro.server`).

Covers the wire protocol (malformed/oversized requests), the read endpoints'
snapshot pinning, the bounded write queue's backpressure contract (429 /
202-pending), per-request timeouts, concurrent readers during writes (no
torn epochs, writer trajectory bit-exact vs an offline replay) and the
kill/restart → bit-exact-resume drill over HTTP.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
import time

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


def raw_exchange(port: int, data: bytes) -> bytes:
    """Send raw bytes; read until the server closes (error answers do)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def response_status(blob: bytes) -> int:
    return int(blob.split(b" ", 2)[1])


def response_json(blob: bytes) -> dict:
    head, _, body = blob.partition(b"\r\n\r\n")
    assert head
    return json.loads(body.decode("utf-8"))


def sparsifier_edges(client, **kwargs):
    return client.edges(on="sparsifier", **kwargs)["edges"]


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
        first = client.health()
        second = client.epoch()
        third = client.health()
        assert first["status"] == "ok" and third["status"] == "ok"
        assert second["version"] == first["version"]


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


# --------------------------------------------------------------------------- #
# Write path
# --------------------------------------------------------------------------- #
class TestWritePath:
    def test_served_writes_match_offline_replay(self, scenario):
        offline = offline_replay(scenario, scenario.batches)
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            for batch in scenario.batches:
                answer = client.update_batch(batch)
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
            client.update_batch(accepted[0])
            epoch = client.epoch()["version"]
            status, payload = client.request("POST", "/update", {
                "deletions": [list(victim)], "insertions": [[0, 999, 1.0]]})
            assert status == 400, payload
            assert client.epoch()["version"] == epoch
            client.update_batch(accepted[1])
            assert client.epoch()["version"] == offline.latest_version
            served = {on: client.edges(on=on)["edges"] for on in ("graph", "sparsifier")}
        snap = offline.snapshot()
        for on, (us, vs, ws) in (("graph", snap.graph_arrays()),
                                 ("sparsifier", snap.sparsifier_arrays())):
            assert served[on] == [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]

    def test_version_pinned_reads_survive_writes(self, scenario):
        service = fresh_service(scenario)
        with running_server(service) as (_, client):
            # An unpinned read captures (and retains) the epoch-1 snapshot;
            # pinned reads can then address it by version after writes land.
            before = sparsifier_edges(client)
            client.update_batch(scenario.batches[0])
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
            first = client.update_batch(scenario.batches[0])
            assert first == {"applied": False, "pending": True,
                             "operation": "update",
                             "detail": first["detail"]}
            second = client.update_batch(scenario.batches[1])
            assert second["pending"] is True
            with pytest.raises(ServerRequestError) as excinfo:
                client.update_batch(scenario.batches[2])
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 0.5
            # Pending writes drain in order during graceful shutdown.
        assert service.applied_batches == 2
        assert service.latest_version == 3
        assert server.metrics.rejected_writes == 1

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
        errors: list = []
        versions_seen: list = []
        stop = threading.Event()

        def reader() -> None:
            with connect(port=port) as reader_client:
                while not stop.is_set():
                    try:
                        answer = reader_client.resistance(0, 7)
                        version = answer["version"]
                        edges = sparsifier_edges(reader_client, version=version)
                        versions_seen.append(version)
                        # The pinned re-read proves the epoch was not torn:
                        # the same version must answer with identical state.
                        again = sparsifier_edges(reader_client, version=version)
                        if again != edges:
                            errors.append(f"torn epoch at version {version}")
                    except ServerRequestError as exc:
                        if exc.status != 404:  # 404: version evicted, benign
                            errors.append(repr(exc))
                    except Exception as exc:  # noqa: BLE001 - collected for the assert
                        errors.append(repr(exc))

        with running_server(service) as (server, client):
            port = server.port
            threads = [threading.Thread(target=reader) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                for batch in scenario.batches:
                    assert client.update_batch(batch)["applied"] is True
            finally:
                stop.set()
                for thread in threads:
                    thread.join(timeout=30)
            final = sparsifier_edges(client)
        assert errors == []
        assert versions_seen, "readers never completed a query"
        assert all(1 <= v <= offline.latest_version for v in versions_seen)
        snap = offline.snapshot()
        us, vs, ws = snap.sparsifier_arrays()
        assert final == [[int(u), int(v), float(w)] for u, v, w in zip(us, vs, ws)]


# --------------------------------------------------------------------------- #
# Checkpoint / restart drill
# --------------------------------------------------------------------------- #
class TestRestartDrill:
    def test_graceful_shutdown_saves_checkpoint_and_resume_is_bit_exact(
            self, scenario, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        offline = offline_replay(scenario, scenario.batches)
        half = len(scenario.batches) // 2

        service = fresh_service(scenario)
        config = ServerConfig(port=0, checkpoint_dir=str(checkpoint_dir))
        server = SparsifierHTTPServer(service, config).start()
        client = connect(port=server.port)
        for batch in scenario.batches[:half]:
            client.update_batch(batch)
        mid_epoch = client.epoch()["version"]
        answer = client.shutdown()  # drains + saves the shutdown checkpoint
        assert answer["status"] == "shutting-down"
        server.stop()
        assert is_checkpoint(checkpoint_dir)

        restored = SparsifierService.restore(checkpoint_dir)
        assert restored.latest_version == mid_epoch
        with running_server(restored) as (_, resumed_client):
            for batch in scenario.batches[half:]:
                resumed_client.update_batch(batch)
            assert resumed_client.epoch()["version"] == offline.latest_version
            final = sparsifier_edges(resumed_client)
            final_graph = resumed_client.edges(on="graph")["edges"]
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
            client.update_batch(scenario.batches[0])
            answer = client.checkpoint(str(mid_dir))
            assert answer["checkpointed"] is True
            assert answer["version"] == 2
            client.update_batch(scenario.batches[1])
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

    def test_failed_retry_leaves_client_reusable(self):
        # Against a dead port every attempt must surface a clean, retryable
        # OSError — a half-sent HTTPConnection left behind by the reconnect
        # path would wedge the next call in http.client.CannotSendRequest.
        client = connect(port=1, timeout=2.0)
        for _ in range(2):
            with pytest.raises(OSError):
                client.health()

    def test_context_manager_closes(self, scenario):
        with running_server(fresh_service(scenario)) as (server, _):
            with connect(port=server.port) as client:
                assert client.health()["status"] == "ok"
            assert client._conn is None
