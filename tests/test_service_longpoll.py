"""Long-polled job completion and the pooled keep-alive transport.

``GET /v1/jobs/{id}?wait=<s>`` answers once the job is terminal (or the
wait runs out); :class:`ServiceClient` reuses keep-alive connections
from a LIFO pool, retries GETs only, and never resends a POST.
"""

import http.client
import json
import statistics
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro import Instance
from repro.api import Session
from repro.faults import injection
from repro.service import (SchedulingService, ServiceClient, ServiceError,
                           WorkerNode, open_store)
from repro.service import server as server_mod
from repro.service import worker as worker_mod


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture
def service(tmp_path):
    svc = SchedulingService(tmp_path / "lp.db", port=0, drainers=2).start()
    yield svc
    svc.shutdown()


@pytest.fixture
def idle_service(tmp_path):
    """Accept-only: jobs stay queued unless another node drains them."""
    svc = SchedulingService(f"sqlite:///{tmp_path / 'idle.db'}", port=0,
                            drainers=0).start()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as client:
        yield client


@pytest.fixture
def idle_client(idle_service):
    with ServiceClient(idle_service.url) as client:
        yield client


def _get(svc, path):
    conn = http.client.HTTPConnection(svc.host, svc.port, timeout=60)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


class TestKeepAlive:
    def test_keep_alive_requests_do_not_stall(self, service):
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=30)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            conn.request("GET", "/v1/healthz")
            resp = conn.getresponse()
            resp.read()
            times.append(time.perf_counter() - t0)
            assert resp.status == 200
        conn.close()
        # without TCP_NODELAY each request waits out the delayed ACK
        assert statistics.median(times) < 0.005

    def test_bodies_are_compact_json(self, service):
        conn = http.client.HTTPConnection(service.host, service.port)
        conn.request("GET", "/v1/healthz")
        body = conn.getresponse().read()
        conn.close()
        assert b'"status":"ok"' in body and b"\n  " not in body


class TestWaitParameter:
    @pytest.mark.parametrize("raw", ["abc", "-1", "nan", "inf"])
    def test_bad_wait_is_invalid_request(self, service, client_job, raw):
        status, body = _get(service, f"/v1/jobs/{client_job}?wait={raw}")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_unknown_id_is_404_without_waiting(self, service):
        t0 = time.monotonic()
        status, body = _get(service, "/v1/jobs/nope?wait=20")
        assert status == 404 and body["error"]["code"] == "not_found"
        assert time.monotonic() - t0 < 1.0

    def test_wait_above_the_cap_is_clamped(self, idle_service, idle_client,
                                           inst, monkeypatch):
        monkeypatch.setattr(server_mod, "MAX_WAIT_SECONDS", 0.3)
        jid = idle_client.submit(inst, ["lpt"])["id"]
        t0 = time.monotonic()
        status, body = _get(idle_service, f"/v1/jobs/{jid}?wait=1000")
        assert status == 200 and body["status"] == "queued"
        assert 0.3 <= time.monotonic() - t0 < 5.0

    @pytest.fixture
    def client_job(self, client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        client.wait(jid)
        return jid


class TestLongPoll:
    def test_queued_job_returns_after_the_wait(self, idle_client, inst):
        jid = idle_client.submit(inst, ["lpt"])["id"]
        t0 = time.monotonic()
        job = idle_client.job(jid, wait=0.5)
        elapsed = time.monotonic() - t0
        assert job["status"] == "queued"
        assert 0.5 <= elapsed < 5.0

    def test_job_finished_by_another_node_is_seen(self, idle_service,
                                                  idle_client, inst):
        # the fleet case: nothing in the server process is notified, the
        # store re-read finds the job
        jid = idle_client.submit(inst, ["lpt"])["id"]
        result = {}

        def poll():
            result["job"] = idle_client.job(jid, wait=20)
            result["at"] = time.time()

        poller = threading.Thread(target=poll)
        poller.start()
        store = open_store(idle_service.store.url)
        node = WorkerNode(store, workers=1, poll_interval=0.02).start()
        try:
            poller.join(20)
        finally:
            node.stop()
            store.close()
        assert not poller.is_alive()
        assert result["job"]["status"] == "done"
        lag = result["at"] - result["job"]["finished_at"]
        assert lag < worker_mod.STORE_REREAD_SECONDS + 0.25

    def test_no_missed_wake_up(self, client, monkeypatch):
        # only the drainers' signal can end these waits in time; each
        # solve takes 20 ms, so the long-poll is there before the job ends
        monkeypatch.setattr(worker_mod, "STORE_REREAD_SECONDS", 10.0)
        prev = injection.configure("solve_delay:1:0.02")
        try:
            for k in range(20):
                fresh = Instance((5, 3, 8, 6, 2 + k), (0, 0, 1, 2, 2), 2, 2)
                jid = client.submit(fresh, ["lpt"])["id"]
                t0 = time.monotonic()
                job = client.job(jid, wait=20)
                assert job["status"] == "done"
                assert time.monotonic() - t0 < 1.0
        finally:
            injection.configure(prev)

    def test_wait_uses_one_long_poll(self, client, inst, monkeypatch):
        calls = []
        job = client.job
        monkeypatch.setattr(client, "job", lambda *a, **kw: calls.append(
            kw) or job(*a, **kw))
        jid = client.submit(inst, ["lpt", "splittable"])["id"]
        assert len(client.wait(jid)) == 2
        assert len(calls) == 1 and calls[0]["wait"] > 0

    def test_shutdown_answers_pending_long_polls(self, tmp_path, inst):
        svc = SchedulingService(tmp_path / "s.db", port=0, drainers=0).start()
        with ServiceClient(svc.url) as client:
            jid = client.submit(inst, ["lpt"])["id"]
            result = {}
            poller = threading.Thread(
                target=lambda: result.update(job=client.job(jid, wait=20)))
            poller.start()
            time.sleep(0.2)
            t0 = time.monotonic()
            svc.shutdown()
            poller.join(10)
        assert not poller.is_alive()
        assert result["job"]["status"] == "queued"
        assert time.monotonic() - t0 < 5.0

    def test_remote_stream_waits_in_submission_order(self, service, inst):
        other = Instance((7, 4, 4, 2), (0, 1, 1, 0), 2, 2)
        got = list(Session(service.url).stream(
            [("a", inst), ("b", other)], algorithms=["lpt", "greedy"]))
        assert [(r.instance_label, r.algorithm) for r in got] == \
            [("a", "lpt"), ("a", "greedy"), ("b", "lpt"), ("b", "greedy")]


class TestConnectionPool:
    def test_short_lived_threads_share_one_connection(self, client):
        for _ in range(10):
            t = threading.Thread(target=client.health)
            t.start()
            t.join(30)
            assert not t.is_alive()
        assert len(client._idle) == 1

    def test_idle_connections_bounded_by_concurrency(self, client):
        barrier = threading.Barrier(3)

        def call():
            barrier.wait()
            for _ in range(5):
                client.health()

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        assert 1 <= len(client._idle) <= 3

    def test_close_and_context_manager(self, service):
        with ServiceClient(service.url) as client:
            client.health()
            (conn,) = client._idle
            assert conn.sock is not None
        assert client._idle == [] and conn.sock is None
        assert client.health()["status"] == "ok"    # still usable

    def test_post_is_not_duplicated_across_restart(self, tmp_path, inst):
        first = SchedulingService(tmp_path / "a.db", port=0,
                                  drainers=0).start()
        with ServiceClient(first.url) as client:
            client.submit(inst, ["lpt"])
            first.shutdown()
            second = SchedulingService(tmp_path / "b.db", port=first.port,
                                       drainers=0).start()
            try:
                # the pooled connection to the stopped service is dropped
                # before reuse: the POST goes out once, on a new connection
                client.submit(inst, ["lpt"])
                assert second.store.count_jobs() == 1
            finally:
                second.shutdown()


class _Stub(BaseHTTPRequestHandler):
    """Answers 503 + ``Retry-After: 0`` to the first request, then 200."""

    protocol_version = "HTTP/1.1"
    seen: list = []
    payload = b'{"status":"ok"}'

    def log_message(self, *args) -> None:
        pass

    def _answer(self) -> None:
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        type(self).seen.append(self.command)
        first = len(type(self).seen) == 1
        body = b'{"error":{"code":"busy","message":"busy"}}' if first \
            else self.payload
        self.send_response(503 if first else 200)
        if first:
            self.send_header("Retry-After", "0")
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    do_GET = do_POST = _answer


@pytest.fixture
def stub():
    _Stub.seen = []
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    httpd.daemon_threads = True
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestRetries:
    def test_get_retries_after_503(self, stub):
        with ServiceClient(stub) as client:
            assert client.health() == {"status": "ok"}
        assert _Stub.seen == ["GET", "GET"]

    def test_post_is_never_resent(self, stub, inst):
        with ServiceClient(stub) as client, \
                pytest.raises(ServiceError) as err:
            client.submit(inst, ["lpt"])
        assert err.value.status == 503 and err.value.code == "busy"
        assert _Stub.seen == ["POST"]

    def test_wait_pauses_when_answered_early(self, stub, monkeypatch):
        # a server without ?wait= answers at once; wait() must not spin
        monkeypatch.setattr(_Stub, "payload",
                            b'{"id":"j","status":"running"}')
        with ServiceClient(stub) as client, pytest.raises(TimeoutError):
            client.wait("j", timeout=0.5)
        assert len(_Stub.seen) <= 0.5 / ServiceClient._REASK_INTERVAL + 3
