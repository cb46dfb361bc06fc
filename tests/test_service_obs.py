"""Observability end-to-end: /v1/metrics, trace propagation, log lines.

These tests run a real service on an ephemeral port and assert the
whole correlation chain: a client-chosen trace id must appear in the
HTTP response (header and body), on the persisted job row, in the
structured log lines emitted by the server *and* the drainer thread,
and inside every resulting ``SolveReport.extra``.
"""

import io
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Instance
from repro.__main__ import main
from repro.obs.log import set_level, set_stream
from repro.obs.metrics import REGISTRY, parse_exposition
from repro.obs.trace import TRACE_HEADER, trace_context
from repro.service import JobStore, SchedulingService, ServiceClient
from repro.service.worker import QUEUE_DEPTH


@pytest.fixture
def service(tmp_path):
    svc = SchedulingService(tmp_path / "svc.db", port=0, drainers=2).start()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as client:
        yield client


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture
def log_lines():
    """Capture every structured log line emitted during the test."""
    buf = io.StringIO()
    prev_stream = set_stream(buf)
    prev_level = set_level("debug")
    yield lambda: [json.loads(line)
                   for line in buf.getvalue().splitlines()]
    set_stream(prev_stream)
    set_level(prev_level)


def _get(url: str, headers: dict | None = None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req) as resp:
        return resp.status, dict(resp.headers), resp.read()


class TestMetricsEndpoint:
    def test_exposition_parses_and_covers_the_stack(self, client, inst,
                                                    service):
        job = client.submit(inst, ["splittable"])
        client.wait(job["id"])
        client.submit(inst, ["splittable"])     # repeat -> cache hit
        status, headers, body = _get(f"{service.url}/v1/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        families, samples = parse_exposition(body.decode())
        # the acceptance bar: >= 12 families spanning HTTP, queue,
        # cache, pool and per-solver latency
        expected = {"repro_http_requests_total",
                    "repro_http_request_seconds",
                    "repro_queue_depth", "repro_jobs_active",
                    "repro_jobs_submitted_total",
                    "repro_jobs_completed_total",
                    "repro_job_drain_seconds",
                    "repro_cache_hits_total", "repro_cache_misses_total",
                    "repro_pool_width", "repro_pool_tasks_total",
                    "repro_pool_batches_active",
                    "repro_batch_cells_total", "repro_batch_chunk_cells",
                    "repro_solve_seconds"}
        assert expected <= set(families)
        assert len(expected) >= 12
        # the workload just run is visible in the samples
        assert samples[("repro_jobs_completed_total",
                        frozenset({("status", "done")}))] >= 1
        # >= 1, not 2: the counter increments just *after* the response
        # bytes go out, so the fetch may race the very last POST's bump
        assert samples[("repro_http_requests_total",
                        frozenset({("route", "/jobs"), ("method", "POST"),
                                   ("status", "201")}))] >= 1

    def test_metrics_is_v1_only(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{service.url}/metrics")
        assert err.value.code == 404

    def test_healthz_agrees_with_registry(self, client, inst, service):
        job = client.submit(inst, ["splittable"])
        client.wait(job["id"])
        job = client.submit(inst, ["splittable"])
        client.wait(job["id"])                  # digest repeat -> hit
        health = client.health()
        _, _, body = _get(f"{service.url}/v1/metrics")
        _, samples = parse_exposition(body.decode())
        hits = samples.get(("repro_cache_hits_total",
                            frozenset({("cache", "service")})), 0.0)
        misses = samples.get(("repro_cache_misses_total",
                              frozenset({("cache", "service")})), 0.0)
        # healthz is a readout of the same registry (modulo requests
        # that land between the two fetches, hence >=)
        assert health["cache"]["hits"] >= 1
        assert hits >= health["cache"]["hits"]
        assert misses >= health["cache"]["misses"]

    def test_queue_depth_is_read_from_the_store(self, tmp_path, inst):
        # a submit's gauge push can land after the claim that emptied the
        # queue; both readouts re-read the store instead of trusting it
        svc = SchedulingService(tmp_path / "depth.db", port=0,
                                drainers=0).start()     # accept-only
        try:
            with ServiceClient(svc.url) as client:
                client.submit(inst, ["lpt"])
                QUEUE_DEPTH.set(7)                      # a stale push
                assert client.health()["queue_depth"] == 1
                QUEUE_DEPTH.set(7)
                _, _, body = _get(f"{svc.url}/v1/metrics")
            _, samples = parse_exposition(body.decode())
            assert samples[("repro_queue_depth", frozenset())] == 1
        finally:
            svc.shutdown()


    def test_submits_and_claims_do_not_count_the_queue(self, tmp_path,
                                                       inst):
        # every connection the store opens logs its statements with the
        # thread that ran them; only readouts and the supervisor count
        store = JobStore(tmp_path / "count.db")
        seen: list[tuple[str, str]] = []
        connect = store._connect

        def traced():
            conn = connect()
            conn.set_trace_callback(lambda sql: seen.append(
                (threading.current_thread().name, sql)))
            return conn

        store._connect = traced
        svc = SchedulingService(store, port=0, drainers=1,
                                lease_seconds=300.0).start()
        try:
            with ServiceClient(svc.url) as client:
                for _ in range(3):
                    client.wait(client.submit(inst, ["lpt"])["id"])
        finally:
            svc.shutdown()
            store.close()
        threads = {name for name, _ in seen}
        assert any(name.startswith("repro-drainer") for name in threads)
        counted = [(name, sql) for name, sql in seen
                   if "COUNT(" in sql.upper()
                   and not name.startswith("repro-supervisor")]
        assert counted == []


class TestTracePropagation:
    def test_client_trace_reaches_job_reports_and_logs(self, client, inst,
                                                       log_lines):
        with trace_context("e2e-trace-0042"):
            job = client.submit(inst, ["splittable", "lpt"])
            reports = client.wait(job["id"])
        # job row persisted the submission trace
        assert job["trace_id"] == "e2e-trace-0042"
        assert client.job(job["id"])["trace_id"] == "e2e-trace-0042"
        # every report the drainer produced carries it
        assert all(r.extra.get("trace_id") == "e2e-trace-0042"
                   for r in reports)
        # and both the HTTP layer and the drainer logged under it
        traced = [line for line in log_lines()
                  if line["trace_id"] == "e2e-trace-0042"]
        events = {(line["logger"], line["event"]) for line in traced}
        assert ("repro.service.server", "http_request") in events
        assert ("repro.service.worker", "job_started") in events
        assert ("repro.service.worker", "job_finished") in events

    def test_response_header_and_body_echo_the_trace(self, service, inst):
        status, headers, body = _get(
            f"{service.url}/v1/healthz",
            headers={TRACE_HEADER: "my-trace"})
        assert headers[TRACE_HEADER] == "my-trace"
        assert json.loads(body)["trace_id"] == "my-trace"

    def test_invalid_header_gets_a_fresh_id(self, service):
        _, headers, body = _get(
            f"{service.url}/v1/healthz",
            headers={TRACE_HEADER: "bad trace id!"})
        echoed = headers[TRACE_HEADER]
        assert echoed != "bad trace id!"
        assert json.loads(body)["trace_id"] == echoed

    def test_errors_carry_a_trace_id(self, service):
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{service.url}/v1/jobs/does-not-exist",
                 headers={TRACE_HEADER: "err-trace"})
        assert err.value.code == 404
        assert err.value.headers[TRACE_HEADER] == "err-trace"
        envelope = json.loads(err.value.read())
        assert envelope["trace_id"] == "err-trace"
        assert envelope["error"]["code"] == "not_found"

    def test_untraced_submission_still_gets_an_id(self, client, inst):
        job = client.submit(inst, ["splittable"])
        assert job["trace_id"]      # server-generated at the front door
        (rep,) = client.wait(job["id"])
        assert rep.extra.get("trace_id") == job["trace_id"]

    def test_unversioned_paths_carry_the_trace(self, service):
        # a path outside /v1 is an ordinary 404: traced like any other
        # response, counted under the route label "other"
        def other_404s() -> float:
            _, samples = parse_exposition(REGISTRY.render())
            return samples.get((
                "repro_http_requests_total",
                frozenset({("route", "other"), ("method", "GET"),
                           ("status", "404")})), 0.0)

        before = other_404s()
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(f"{service.url}/jobs", headers={TRACE_HEADER: "old-path"})
        assert err.value.code == 404
        assert err.value.headers[TRACE_HEADER] == "old-path"
        assert "Deprecation" not in err.value.headers
        envelope = json.loads(err.value.read())
        assert envelope["trace_id"] == "old-path"
        assert envelope["error"]["code"] == "not_found"
        # the counter moves just after the response bytes go out
        deadline = time.monotonic() + 5.0
        while other_404s() == before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert other_404s() == before + 1


class TestMetricsCLI:
    def test_local_registry_dump(self, capsys):
        REGISTRY.counter("repro_cli_probe_total").inc()
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        families, samples = parse_exposition(out)
        assert "repro_cli_probe_total" in families

    def test_url_fetches_the_service_registry(self, service, client, inst,
                                              capsys):
        job = client.submit(inst, ["splittable"])
        client.wait(job["id"])
        assert main(["metrics", "--url", service.url]) == 0
        out = capsys.readouterr().out
        families, samples = parse_exposition(out)
        assert "repro_jobs_completed_total" in families

    def test_unreachable_url_exits_with_error(self):
        with pytest.raises(SystemExit) as err:
            main(["metrics", "--url", "http://127.0.0.1:9"])
        assert "error:" in str(err.value)


class TestReportWireFormat:
    def test_trace_id_survives_report_roundtrip(self, client, inst):
        with trace_context("wire-trace"):
            job = client.submit(inst, ["splittable"])
        (rep,) = client.wait(job["id"])
        d = rep.to_dict()
        assert d["extra"]["trace_id"] == "wire-trace"
        from repro.engine import SolveReport
        assert SolveReport.from_dict(d).extra["trace_id"] == "wire-trace"
