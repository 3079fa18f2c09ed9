"""Keep-alive transport between :class:`FleetClient` and the fleet service.

The client keeps one persistent HTTP/1.1 connection per thread; the
service keeps connections open, says ``Connection: close`` whenever it
will not, closes idle ones after a fixed timeout, and runs with Nagle's
algorithm off.  These tests pin each half of that contract: connection
reuse (scraped from ``repro_service_connections_total``), error replies
that close the socket, reconnection after the server dropped an idle
connection, the drain contract on an already-open connection, a shared
client hammered from many threads, and the Nagle stall regression.
"""

import gc
import http.client
import socket
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import repro.obs as obs
from repro.fleet import (
    DeviceRegistry,
    FleetClient,
    FleetScheduler,
    FleetServiceError,
    serve,
)
from repro.fleet.durability import IngestJournal, read_journal
from repro.fleet.service import _FleetRequestHandler

GOOD_BITS = "01" * 64  # one n=128 sequence


def _counter(name, **labels):
    metric = obs.registry().get(name)
    return 0.0 if metric is None else metric.value(**labels)


def _connections():
    return _counter("repro_service_connections_total")


def _stale_reconnects():
    return _counter("repro_fleet_client_retries_total", reason="stale_connection")


class _Server:
    """A live service on an ephemeral port (optionally with a WAL)."""

    def __init__(self, journal_path=None):
        self.scheduler = FleetScheduler(DeviceRegistry("n128_light", alpha=0.01))
        if journal_path is not None:
            self.scheduler.journal = IngestJournal(journal_path)
        self.server = serve(self.scheduler, host="127.0.0.1", port=0)
        self.service = self.server.service
        host, port = self.server.server_address
        self.host, self.port = host, port
        self.url = f"http://{host}:{port}"
        self._thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self._thread.start()

    def stop(self):
        self.server.shutdown()  # idempotent: a test may have stopped accepting
        self.server.server_close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()
        if self.scheduler.journal is not None:
            self.scheduler.journal.close()
        self.scheduler.close()


@pytest.fixture
def live():
    server = _Server()
    yield server
    server.stop()


def _raw(server):
    return http.client.HTTPConnection(server.host, server.port, timeout=10)


def _post(connection, path, body):
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    reply = connection.getresponse()
    return reply, reply.read()


class TestConnectionReuse:
    def test_one_client_uses_one_connection(self, live):
        before = _connections()
        with FleetClient(live.url, retries=0) as client:
            client.register_device("reuse")
            for seq in range(50):
                client.ingest("reuse", GOOD_BITS, seq=seq)
        assert _connections() - before == 1

    def test_client_error_closes_then_next_request_reconnects(self, live):
        with FleetClient(live.url, retries=0) as client:
            client.register_device("bad-then-good")
            stale = _stale_reconnects()
            with pytest.raises(FleetServiceError) as excinfo:
                client.ingest("bad-then-good", "not-bits")
            assert excinfo.value.status == 400
            body = client.ingest("bad-then-good", GOOD_BITS)
            assert body["sequences"] == 1
        # The 400 said "Connection: close", so the client dropped the socket
        # itself instead of discovering a dead one.
        assert _stale_reconnects() == stale

    @pytest.mark.parametrize(
        "body, status",
        [
            (b'{"device_id": "kc", "bits": "not-bits"}', 400),
            (b"{not json", 400),
            (b'{"device_id": "kc", "bits": "' + b"01" * 64 + b'", "seq": 5}', 409),
            (b'{"device_id": "nobody", "bits": "01"}', 404),
        ],
        ids=["malformed-bits", "bad-json", "seq-gap", "unknown-device"],
    )
    def test_post_errors_announce_connection_close(self, live, body, status):
        connection = _raw(live)
        try:
            reply, _ = _post(connection, "/devices", b'{"device_id": "kc"}')
            assert reply.status == 201 and not reply.will_close
            reply, _ = _post(
                connection, "/ingest", b'{"device_id": "kc", "bits": "' + GOOD_BITS.encode() + b'", "seq": 0}'
            )
            assert reply.status == 200 and not reply.will_close
            reply, _ = _post(connection, "/ingest", body)
            assert reply.status == status
            assert reply.getheader("Connection") == "close"
            assert reply.will_close
        finally:
            connection.close()

    def test_get_500_announces_connection_close(self, live, monkeypatch):
        def explode(path):
            raise RuntimeError("synthetic bug")

        monkeypatch.setattr(live.service, "handle_get", explode)
        connection = _raw(live)
        try:
            connection.request("GET", "/fleet/summary")
            reply = connection.getresponse()
            reply.read()
            assert reply.status == 500
            assert reply.getheader("Connection") == "close"
            assert reply.will_close
        finally:
            connection.close()

    def test_success_keeps_the_connection_open(self, live):
        connection = _raw(live)
        try:
            connection.request("GET", "/fleet/summary")
            reply = connection.getresponse()
            reply.read()
            assert reply.status == 200
            assert reply.getheader("Connection") is None
            assert not reply.will_close
        finally:
            connection.close()


class TestStaleConnections:
    def test_client_survives_server_closing_an_idle_connection(self, monkeypatch):
        # Shrink the server's idle timeout so it drops the kept-alive
        # connection between two requests; retries=0 proves the reconnect
        # does not spend a retry.
        monkeypatch.setattr(_FleetRequestHandler, "timeout", 0.2)
        server = _Server()
        try:
            with FleetClient(server.url, retries=0) as client:
                client.register_device("idle")
                client.ingest("idle", GOOD_BITS, seq=0)
                stale, connections = _stale_reconnects(), _connections()
                time.sleep(0.6)
                body = client.ingest("idle", GOOD_BITS, seq=1)
                assert body["last_seq"] == 1 and "duplicate" not in body
                assert client.device_health("idle")["sequences_monitored"] == 2
            assert _stale_reconnects() - stale == 1
            assert _connections() - connections == 1
        finally:
            server.stop()

    def test_drained_service_sheds_on_an_open_connection(self, tmp_path):
        # fleet serve's shutdown order: stop accepting, then drain.  A
        # kept-alive connection outlives the accept loop, so the drain must
        # still shed on it, and close it.
        server = _Server(journal_path=tmp_path / "wal.log")
        connection = _raw(server)
        try:
            reply, _ = _post(connection, "/devices", b'{"device_id": "drain"}')
            assert reply.status == 201
            chunk = b'{"device_id": "drain", "bits": "' + GOOD_BITS.encode() + b'", "seq": %d}'
            reply, _ = _post(connection, "/ingest", chunk % 0)
            assert reply.status == 200 and not reply.will_close
            health = server.service.device_health("drain")
            server.server.shutdown()
            assert server.service.drain(timeout=5)
            reply, body = _post(connection, "/ingest", chunk % 1)
            assert reply.status == 503
            assert b"draining" in body
            assert reply.getheader("Connection") == "close"
            assert reply.will_close
            assert server.service.device_health("drain") == health
            records, torn = read_journal(tmp_path / "wal.log")
            assert not torn
            assert [(r["t"], r.get("seq")) for r in records] == [
                ("device", None),
                ("ingest", 0),
            ]
        finally:
            connection.close()
            server.stop()


class TestSharedClient:
    def test_threads_share_one_client(self, live):
        threads, chunks_per_device = 8, 6
        rng = np.random.default_rng(2024)
        chunks = {
            f"hammer-{index}": [
                "".join(map(str, rng.integers(0, 2, 128 * 4))) for _ in range(chunks_per_device)
            ]
            for index in range(threads)
        }
        acked = {device_id: [] for device_id in chunks}
        errors = []
        barrier = threading.Barrier(threads)

        def feed(client, device_id):
            try:
                client.register_device(device_id)
                barrier.wait(timeout=10)
                for seq, bits in enumerate(chunks[device_id]):
                    acked[device_id].append(client.ingest(device_id, bits, seq=seq)["last_seq"])
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with FleetClient(live.url, retries=0) as client:
                workers = [
                    threading.Thread(target=feed, args=(client, device_id))
                    for device_id in chunks
                ]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
                assert not any(worker.is_alive() for worker in workers)
                assert errors == []
                served = {device_id: client.device_health(device_id) for device_id in chunks}
        finally:
            sys.setswitchinterval(interval)
        assert acked == {device_id: list(range(chunks_per_device)) for device_id in chunks}

        registry = DeviceRegistry("n128_light", alpha=0.01)
        with FleetScheduler(registry) as control:
            for device_id, device_chunks in chunks.items():
                registry.register(device_id)
                for seq, bits in enumerate(device_chunks):
                    control.ingest(device_id, bits, seq=seq)
            expected = {device_id: registry.get(device_id).snapshot() for device_id in chunks}
        assert served == expected

    def test_with_block_leaves_no_open_socket(self, live):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with FleetClient(live.url, retries=0) as client:
                client.register_device("tidy")
                client.ingest("tidy", GOOD_BITS)
            del client
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_closed_client_reopens_on_demand(self, live):
        client = FleetClient(live.url, retries=0)
        client.register_device("reopen")
        client.close()
        stale = _stale_reconnects()
        assert client.device_health("reopen")["device_id"] == "reopen"
        client.close()
        assert _stale_reconnects() == stale

    @pytest.mark.parametrize("url", ["https://127.0.0.1:1", "127.0.0.1:1", "http://"])
    def test_rejects_non_http_urls(self, url):
        with pytest.raises(ValueError):
            FleetClient(url)


class TestNagleRegression:
    def test_both_ends_disable_nagle(self, monkeypatch):
        seen = []
        original = _FleetRequestHandler.setup

        def recording_setup(handler):
            original(handler)
            seen.append(
                handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )

        monkeypatch.setattr(_FleetRequestHandler, "setup", recording_setup)
        server = _Server()
        try:
            with FleetClient(server.url, retries=0) as client:
                client.fleet_summary()
                connection = client._connection()
                assert connection.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            assert len(seen) == 1 and seen[0]
        finally:
            server.stop()

    def test_sequential_keepalive_ingests_do_not_stall(self, live):
        # A Nagle/delayed-ACK stall costs ~40 ms per request, i.e. >= 2 s
        # here; healthy keep-alive ingests take a few milliseconds each.
        with FleetClient(live.url, retries=0) as client:
            client.register_device("nagle")
            client.ingest("nagle", GOOD_BITS, seq=0)
            start = time.perf_counter()
            for seq in range(1, 51):
                client.ingest("nagle", GOOD_BITS, seq=seq)
            elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"50 keep-alive ingests took {elapsed:.2f} s"
