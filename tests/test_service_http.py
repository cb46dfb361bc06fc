"""End-to-end tests for the scheduling service: HTTP API + queue + client.

Every test runs a real :class:`SchedulingService` on an ephemeral port
and talks to it over actual HTTP through :class:`ServiceClient`.
"""

import json
import threading
import urllib.request
from fractions import Fraction

import numpy as np
import pytest

from repro import Instance
from repro.engine import SolveReport, execute
from repro.service import SchedulingService, ServiceClient, ServiceError
from repro.workloads import uniform_instance


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


class TestHTTPBasics:
    def test_submit_wait_reports(self, client, inst):
        job = client.submit(inst, ["splittable", "nonpreemptive"],
                            label="basic")
        assert job["status"] == "queued" and job["label"] == "basic"
        reports = client.wait(job["id"])
        assert [r.algorithm for r in reports] == ["splittable",
                                                  "nonpreemptive"]
        assert all(r.ok and r.validated for r in reports)
        done = client.job(job["id"])
        assert done["status"] == "done" and done["finished_at"] is not None

    def test_reports_match_direct_execute(self, client, inst):
        job = client.submit(inst, ["splittable"])
        (via_http,) = client.wait(job["id"])
        direct = execute(inst, "splittable")
        assert via_http.makespan == direct.makespan
        assert via_http.instance_digest == direct.instance_digest

    def test_solvers_endpoint_renders_registry(self, client):
        solvers = client.solvers()
        names = {s["name"] for s in solvers}
        assert {"splittable", "nonpreemptive", "ptas-splittable",
                "mcnaughton"} <= names
        (ptas,) = [s for s in solvers if s["name"] == "ptas-splittable"]
        assert ptas["needs_milp"] and "delta" in ptas["accepts"]
        assert ptas["ratio"] == "1+eps"

    def test_healthz_counts_and_cache_stats(self, client, inst):
        health = client.health()
        assert health["status"] == "ok"
        assert health["jobs"] == {"queued": 0, "running": 0, "done": 0,
                                  "failed": 0, "quarantined": 0}
        client.wait(client.submit(inst, ["splittable"])["id"])
        client.wait(client.submit(inst, ["splittable"])["id"])
        health = client.health()
        assert health["jobs"]["done"] == 2
        assert health["cache"]["hits"] >= 1        # second job hit the cache
        assert 0.0 < health["cache"]["hit_rate"] <= 1.0

    def test_jobs_listing(self, client, inst):
        ids = [client.submit(inst, ["lpt"], label=f"j{k}")["id"]
               for k in range(3)]
        for jid in ids:
            client.wait(jid)
        listed = client.jobs(status="done")
        assert {j["id"] for j in listed} >= set(ids)

    def test_ndjson_streaming(self, service, client, inst):
        job = client.submit(inst, ["splittable", "lpt"])
        client.wait(job["id"])
        with urllib.request.urlopen(
                f"{service.url}/jobs/{job['id']}/reports?format=ndjson"
        ) as resp:
            assert resp.headers["Content-Type"] == "application/x-ndjson"
            lines = [ln for ln in resp.read().decode().splitlines() if ln]
        reports = [SolveReport.from_dict(json.loads(ln)) for ln in lines]
        assert [r.algorithm for r in reports] == ["splittable", "lpt"]


class TestHTTPErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("doesnotexist")
        assert err.value.status == 404

    def test_unknown_solver_rejected_at_submit(self, client, inst):
        with pytest.raises(ServiceError) as err:
            client.submit(inst, ["definitely-not-a-solver"])
        assert err.value.status == 400
        assert "unknown solver" in err.value.message

    def test_bad_kwargs_rejected_at_submit(self, client, inst):
        with pytest.raises(ServiceError) as err:
            client.submit(inst, [("lpt", {"delta": 2})])
        assert err.value.status == 400

    def test_invalid_instance_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"processing_times": [0], "classes": [0],
                           "machines": 1, "class_slots": 1}, ["lpt"])
        assert err.value.status == 400
        assert "invalid instance" in err.value.message

    def test_reports_before_done_409(self, tmp_path, inst):
        svc = SchedulingService(tmp_path / "paused.db", port=0,
                                drainers=0).start()     # accept-only
        try:
            client = ServiceClient(svc.url)
            job = client.submit(inst, ["splittable"])
            with pytest.raises(ServiceError) as err:
                client.reports(job["id"])
            assert err.value.status == 409
        finally:
            svc.shutdown()

    def test_unroutable_path_404(self, service):
        req = urllib.request.Request(f"{service.url}/nope")
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req)
        assert err.value.code == 404


class TestRestartSurvival:
    def test_queued_jobs_survive_restart(self, tmp_path, inst):
        db = tmp_path / "svc.db"
        # phase 1: accept-only server — jobs persist but never run
        svc1 = SchedulingService(db, port=0, drainers=0).start()
        c1 = ServiceClient(svc1.url)
        ids = [c1.submit(inst, ["splittable"], label=f"queued-{k}")["id"]
               for k in range(5)]
        assert c1.health()["jobs"]["queued"] == 5
        svc1.shutdown()

        # phase 2: a fresh process picks the same db up and drains it
        svc2 = SchedulingService(db, port=0, drainers=2).start()
        assert svc2.recovered == 5
        c2 = ServiceClient(svc2.url)
        for jid in ids:
            (rep,) = c2.wait(jid)
            assert rep.ok and rep.makespan is not None
        assert c2.health()["jobs"] == {"queued": 0, "running": 0, "done": 5,
                                       "failed": 0, "quarantined": 0}
        svc2.shutdown()


class TestConcurrentLoad:
    def test_50_concurrent_jobs_roundtrip_and_cache(self, service, client):
        """The acceptance-criteria workload: >= 50 jobs submitted
        concurrently via the client; every report comes back with exact
        fraction round-trip, and repeated digests produce cache hits."""
        rng = np.random.default_rng(42)
        unique = [uniform_instance(np.random.default_rng(1000 + k),
                                   10, 3, 3, 2) for k in range(25)]
        # 50 jobs = 25 unique instances x 2 submissions each
        workload = [(f"job-{k}", unique[k % 25]) for k in range(50)]
        rng.shuffle(workload)

        results: dict[str, list[SolveReport]] = {}
        errors: list[Exception] = []

        def _one(label: str, instance: Instance) -> None:
            try:
                job = client.submit(instance, ["splittable"], label=label)
                results[label] = (instance,
                                  client.wait(job["id"], timeout=120))
            except Exception as exc:    # noqa: BLE001 — surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=_one, args=(lbl, i))
                   for lbl, i in workload]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert len(results) == 50
        for label, (instance, reports) in results.items():
            (rep,) = reports
            assert rep.ok, f"{label}: {rep.error}"
            assert rep.instance_digest == instance.digest()
            # exact fraction round-trip: recompute ground truth locally
            # (the wire encoding canonicalises integral fractions to
            # ints — equality as Fraction is the exactness guarantee)
            direct = execute(instance, "splittable")
            assert Fraction(rep.makespan) == Fraction(direct.makespan)
            assert Fraction(rep.guess) == Fraction(direct.guess)

        health = client.health()
        assert health["jobs"]["done"] == 50 and not health["queue_depth"]
        # 25 duplicate submissions -> the digest-keyed store must have
        # served a substantial share from cache (a duplicate only misses
        # if both copies were claimed before either finished)
        assert health["cache"]["entries"] == 25
        assert health["cache"]["hits"] >= 10
        # and the cross-client digest view serves every unique instance
        for instance in unique:
            cached = client.results_for_digest(instance.digest())
            assert len(cached) == 1 and cached[0].ok

        # the metrics registry absorbed the same workload consistently —
        # 50 client threads, the handler pool and both drainers all
        # raced into it (counters are process-cumulative, hence >=)
        from repro.obs.metrics import parse_exposition
        raw = urllib.request.urlopen(f"{service.url}/v1/metrics").read()
        _, samples = parse_exposition(raw.decode())

        def total(name: str, **match: str) -> float:
            want = set(match.items())
            return sum(v for (n, labels), v in samples.items()
                       if n == name and want <= set(labels))

        assert total("repro_jobs_submitted_total") >= 50
        assert total("repro_jobs_completed_total", status="done") >= 50
        assert total("repro_job_drain_seconds_count") >= 50
        assert total("repro_http_requests_total", route="/jobs",
                     method="POST", status="201") >= 50
        assert total("repro_cache_hits_total", cache="service") >= 10
        assert samples[("repro_jobs_active", frozenset())] == 0

    def test_priority_orders_draining(self, tmp_path, inst):
        """Jobs submitted while the queue is paused drain high-priority
        first once a single drainer starts."""
        db = tmp_path / "prio.db"
        svc1 = SchedulingService(db, port=0, drainers=0).start()
        c1 = ServiceClient(svc1.url)
        low = c1.submit(inst, ["lpt"], priority=0)["id"]
        high = c1.submit(inst, ["lpt"], priority=10)["id"]
        mid = c1.submit(inst, ["lpt"], priority=5)["id"]
        svc1.shutdown()

        svc2 = SchedulingService(db, port=0, drainers=1).start()
        try:
            c2 = ServiceClient(svc2.url)
            for jid in (low, mid, high):
                c2.wait(jid)
            started = {jid: c2.job(jid)["started_at"]
                       for jid in (low, mid, high)}
            assert started[high] <= started[mid] <= started[low]
        finally:
            svc2.shutdown()
