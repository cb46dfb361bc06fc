"""Tests for the versioned ``/v1`` HTTP surface: the error envelope,
pagination, the synchronous solve endpoint, deprecated legacy aliases,
and the remote backend's byte-identical request round-trip."""

import json
import socket
import urllib.error
import urllib.request

import pytest

from repro import Instance
from repro.__main__ import main
from repro.api import Session, SolveRequest, SolverQuery
from repro.service import SchedulingService, ServiceClient, ServiceError


@pytest.fixture
def service(tmp_path):
    svc = SchedulingService(tmp_path / "v1.db", port=0, drainers=2).start()
    yield svc
    svc.shutdown()


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as client:
        yield client


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


def _raw(service, method, path, body=None, headers=None):
    """Plain urllib round trip returning (status, payload, headers)."""
    req = urllib.request.Request(
        service.url + path, method=method,
        data=json.dumps(body).encode() if body is not None else None,
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _raw_bytes(service, method, path, data):
    req = urllib.request.Request(
        service.url + path, method=method, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


# --------------------------------------------------------------------- #
# the error envelope
# --------------------------------------------------------------------- #

class TestErrorEnvelope:
    def test_bad_json_body(self, service):
        status, body = _raw_bytes(service, "POST", "/v1/jobs",
                                  b"{not json")
        assert status == 400
        assert body["error"]["code"] == "invalid_json"
        assert "not valid JSON" in body["error"]["message"]

    def test_unknown_solver_includes_suggestions(self, service, inst):
        status, body, _ = _raw(
            service, "POST", "/v1/jobs",
            {"instance": {"processing_times": [5, 3], "classes": [0, 0],
                          "machines": 1, "class_slots": 1},
             "algorithms": ["splitable"]})
        assert status == 400
        err = body["error"]
        assert err["code"] == "unknown_solver"
        assert "splittable" in err["detail"]["suggestions"]

    def test_unknown_job_id(self, service):
        status, body, _ = _raw(service, "GET", "/v1/jobs/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        status, body, _ = _raw(service, "GET", "/v1/jobs/nope/reports")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_route(self, service):
        status, body, _ = _raw(service, "GET", "/v1/wat")
        assert status == 404 and body["error"]["code"] == "not_found"

    def test_oversized_body_is_413(self, service):
        # claim a huge body; the server must refuse without reading it
        with socket.create_connection((service.host, service.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/solve HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 5000000\r\n\r\n")
            data = b""
            while True:     # server closes after the error response
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b" 413 " in data.split(b"\r\n", 1)[0]
        assert b"body_too_large" in data

    def test_client_decodes_envelope(self, client, inst):
        with pytest.raises(ServiceError) as err:
            client.submit(inst, ["splitable"])
        assert err.value.status == 400
        assert err.value.code == "unknown_solver"
        assert "splittable" in err.value.detail["suggestions"]

    def test_infeasible_instance_rejected_at_submission(self, client):
        # C=3 > c*m=2: no solver could schedule it — the stable
        # 'infeasible' envelope code, uniform across /v1/jobs and
        # /v1/solve, instead of queueing work every solver refuses
        bad = Instance((1, 1, 1), (0, 1, 2), 1, 2)
        with pytest.raises(ServiceError) as err:
            client.submit(bad, ["splittable"])
        assert err.value.status == 400
        assert err.value.code == "infeasible"
        assert err.value.detail == {"num_classes": 3, "slot_budget": 2}
        with pytest.raises(ServiceError) as err:
            client.solve(SolveRequest(bad, algorithm="splittable"))
        assert err.value.code == "infeasible"


# --------------------------------------------------------------------- #
# pagination
# --------------------------------------------------------------------- #

class TestJobsPagination:
    def test_pages_chain_without_overlap(self, service, client, inst):
        ids = [client.submit(inst, ["lpt"], label=f"j{i}")["id"]
               for i in range(5)]
        for jid in ids:
            client.wait(jid)
        seen, offset = [], 0
        while offset is not None:
            page = client.jobs_page(limit=2, offset=offset)
            assert page["total"] == 5 and page["limit"] == 2
            seen.extend(j["id"] for j in page["jobs"])
            offset = page["next_offset"]
        assert sorted(seen) == sorted(ids)       # every job exactly once

    def test_status_filter_and_bad_params(self, service, client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        client.wait(jid)
        assert client.jobs(status="done")
        assert client.jobs(status="failed") == []
        status, body, _ = _raw(service, "GET", "/v1/jobs?status=zombie")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        status, body, _ = _raw(service, "GET", "/v1/jobs?limit=nope")
        assert status == 400
        status, body, _ = _raw(service, "GET", "/v1/jobs?limit=100000")
        assert status == 400


# --------------------------------------------------------------------- #
# POST /v1/solve
# --------------------------------------------------------------------- #

class TestSyncSolve:
    def test_request_round_trips_byte_identically(self, client, inst):
        req = SolveRequest(inst, algorithm="preemptive", label="sync")
        payload = client.solve_raw(req)
        echoed = SolveRequest.from_dict(payload["request"])
        assert echoed.canonical_json() == req.canonical_json()

    def test_local_and_remote_reports_agree_exactly(self, service, inst):
        req = SolveRequest(inst, algorithm="preemptive", label="x")
        local = Session().solve(req)
        remote = Session(service.url).solve(req)
        # exact fractions survive the wire; identity up to wall time
        assert remote.makespan == local.makespan
        assert remote.guess == local.guess
        assert remote.algorithm == local.algorithm
        assert remote.validated and local.validated

    def test_capability_query_over_the_wire(self, client, inst):
        rep = client.solve(SolveRequest(inst, query=SolverQuery(
            variant="nonpreemptive", max_ratio="7/3", time_budget=1.0)))
        assert rep.algorithm == "nonpreemptive" and rep.ok

    def test_want_schedule_round_trips(self, client, inst):
        rep = client.solve(SolveRequest(inst, algorithm="nonpreemptive",
                                        want_schedule=True))
        assert rep.extra["schedule"]["kind"] == "nonpreemptive"

    def test_no_matching_solver_code(self, service, inst):
        req = SolveRequest(inst, query=SolverQuery(variant="splittable",
                                                   kind="baseline"))
        status, body, _ = _raw(service, "POST", "/v1/solve", req.to_dict())
        assert status == 400
        assert body["error"]["code"] == "no_matching_solver"

    def test_oversized_instance_redirected_to_jobs(self, service):
        big = Instance((1,) * 600, (0,) * 600, 2, 2)
        req = SolveRequest(big, algorithm="lpt")
        status, body, _ = _raw(service, "POST", "/v1/solve", req.to_dict())
        assert status == 400
        assert body["error"]["code"] == "too_large"
        assert "/v1/jobs" in body["error"]["message"]

    def test_invalid_request_shape(self, service):
        status, body, _ = _raw(service, "POST", "/v1/solve",
                               {"instance": {"machines": 1}})
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_invalid_query_fields_are_400_not_dropped(self, service, inst):
        base = SolveRequest(inst, algorithm="lpt").to_dict()
        for query in ({"variant": "bogus"}, {"max_ratio": "1/0"},
                      {"epsilon": 0}):
            body = dict(base, algorithm=None, query=query)
            status, payload, _ = _raw(service, "POST", "/v1/solve", body)
            assert status == 400, query
            assert payload["error"]["code"] == "invalid_request"

    def test_non_positive_timeout_is_400(self, service, inst):
        body = dict(SolveRequest(inst, algorithm="lpt").to_dict(),
                    timeout=-5)
        status, payload, _ = _raw(service, "POST", "/v1/solve", body)
        assert status == 400
        assert payload["error"]["code"] == "invalid_request"
        assert "positive" in payload["error"]["message"]


# --------------------------------------------------------------------- #
# legacy aliases
# --------------------------------------------------------------------- #

class TestLegacyAliases:
    def test_legacy_routes_work_and_announce_deprecation(self, service,
                                                         client, inst):
        jid = client.submit(inst, ["lpt"])["id"]
        client.wait(jid)
        status, body, headers = _raw(service, "GET", f"/jobs/{jid}")
        assert status == 200 and body["status"] == "done"
        assert headers.get("Deprecation") == "true"
        assert f"/v1/jobs/{jid}" in headers.get("Link", "")
        # /v1 responses carry no deprecation header
        _, _, v1_headers = _raw(service, "GET", f"/v1/jobs/{jid}")
        assert "Deprecation" not in v1_headers

    def test_legacy_errors_keep_flat_shape(self, service):
        status, body, _ = _raw(service, "GET", "/jobs/nope")
        assert status == 404
        assert body["error"] == "no job 'nope'"    # a string, not a dict

    def test_legacy_jobs_listing_stays_permissive(self, service, client,
                                                  inst):
        client.wait(client.submit(inst, ["lpt"])["id"])
        # the PR 2 contract: any integer limit, no pagination metadata
        status, body, _ = _raw(service, "GET", "/jobs?limit=1000")
        assert status == 200
        assert set(body) == {"jobs"} and len(body["jobs"]) == 1
        status, body, _ = _raw(service, "GET", "/jobs?status=zombie")
        assert status == 200 and body["jobs"] == []
        status, body, _ = _raw(service, "GET", "/jobs?limit=nope")
        assert status == 400    # was a 400 before /v1 too

    def test_legacy_client_against_legacy_routes(self, service, inst):
        old = ServiceClient(service.url, api_prefix="")
        (rep,) = old.wait(old.submit(inst, ["lpt"])["id"])
        assert rep.ok
        with pytest.raises(ServiceError) as err:
            old.submit(inst, ["splitable"])
        assert err.value.status == 400 and err.value.code == ""

    def test_solve_is_v1_only(self, service, inst):
        req = SolveRequest(inst, algorithm="lpt")
        status, body, _ = _raw(service, "POST", "/solve", req.to_dict())
        assert status == 404


# --------------------------------------------------------------------- #
# not-ready reports + remote session streaming
# --------------------------------------------------------------------- #

class TestQueueStates:
    def test_reports_conflict_while_queued(self, tmp_path, inst):
        svc = SchedulingService(tmp_path / "q.db", port=0,
                                drainers=0).start()     # accept-only
        try:
            jid = ServiceClient(svc.url).submit(inst, ["lpt"])["id"]
            status, body, _ = _raw(svc, "GET", f"/v1/jobs/{jid}/reports")
            assert status == 409
            assert body["error"]["code"] == "not_ready"
            assert body["error"]["detail"]["status"] == "queued"
        finally:
            svc.shutdown()

    def test_remote_stream_yields_all_reports(self, service, inst):
        other = Instance((7, 4, 4, 2), (0, 1, 1, 0), 2, 2)
        got = list(Session(service.url).stream(
            [("a", inst), ("b", other)], algorithms=["lpt", "greedy"]))
        assert sorted((r.instance_label, r.algorithm) for r in got) == \
            [("a", "greedy"), ("a", "lpt"), ("b", "greedy"), ("b", "lpt")]


# --------------------------------------------------------------------- #
# CLI submit exit codes
# --------------------------------------------------------------------- #

class TestRemoteCLIErrors:
    def test_batch_remote_connection_refused_is_clean(self, tmp_path,
                                                      inst):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        with pytest.raises(SystemExit, match="error:"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1"])
        with pytest.raises(SystemExit, match="error:"):
            main(["compare", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1"])

    def test_remote_rejects_local_only_flags(self, tmp_path, inst):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        with pytest.raises(SystemExit, match="--workers has no effect"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1", "--workers", "0"])
        with pytest.raises(SystemExit, match="--cache-dir cannot"):
            main(["batch", str(path), "--algorithms", "lpt",
                  "--remote", "http://127.0.0.1:1",
                  "--cache-dir", str(tmp_path / "c")])


class TestSubmitExitCode:
    def test_wait_exits_zero_on_success(self, service, inst, tmp_path,
                                        capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        rv = main(["submit", str(path), "--url", service.url,
                   "--algorithms", "lpt", "--wait"])
        assert rv == 0

    def test_wait_exits_nonzero_when_job_fails(self, service, inst,
                                               tmp_path, monkeypatch,
                                               capsys):
        # force the drainer's facade call to blow up server-side so the
        # job lands in 'failed'
        monkeypatch.setattr(
            "repro.api.session.Session.solve_batch",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("induced drainer failure")))
        path = tmp_path / "boom.json"
        path.write_text(json.dumps({
            "processing_times": list(inst.processing_times),
            "classes": list(inst.classes),
            "machines": inst.machines, "class_slots": inst.class_slots}))
        rv = main(["submit", str(path), "--url", service.url,
                   "--algorithms", "lpt", "--wait"])
        assert rv == 1
        err = capsys.readouterr().err
        assert "induced drainer failure" in err
