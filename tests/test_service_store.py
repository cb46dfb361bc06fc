"""Tests for the service persistence layer: JobStore and its result cache."""

from fractions import Fraction

import pytest

from repro import Instance
from repro.engine import SolveReport, cache_key
from repro.resultcache import CACHE_HITS, CACHE_MISSES
from repro.service import JobStore
from repro.service import store as store_mod


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture
def store(tmp_path) -> JobStore:
    s = JobStore(tmp_path / "jobs.db")
    yield s
    s.close()


def _report(inst: Instance, **over) -> SolveReport:
    base = dict(algorithm="splittable", instance_digest=inst.digest(),
                instance_label="x", variant="splittable",
                makespan=Fraction(22, 7), guess=Fraction(11, 7),
                certified_ratio=2.0, proven_ratio="2", wall_time_s=0.01,
                validated=True, extra={"pieces": 3})
    base.update(over)
    return SolveReport(**base)


class TestJobLifecycle:
    def test_create_and_get_roundtrip(self, store, inst):
        job = store.create_job(inst, [("splittable", {}),
                                      ("ptas-splittable", {"delta": 2})],
                               label="demo", priority=7, timeout=12.5)
        back = store.get_job(job.id)
        assert back.status == "queued"
        assert back.priority == 7 and back.label == "demo"
        assert back.timeout == 12.5
        assert back.instance == inst
        assert back.instance_digest == inst.digest()
        assert back.algorithms == (("splittable", {}),
                                   ("ptas-splittable", {"delta": 2}))

    def test_missing_job_is_none(self, store):
        assert store.get_job("nope") is None

    def test_claim_is_exclusive(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id, 30.0)
        assert not store.claim_job(job.id, 30.0)    # second claimer loses
        assert store.get_job(job.id).status == "running"

    def test_finish_and_counts(self, store, inst):
        a = store.create_job(inst, [("lpt", {})])
        b = store.create_job(inst, [("lpt", {})])
        store.claim_job(a.id, 30.0)
        store.finish_job(a.id, [_report(inst)])
        store.claim_job(b.id, 30.0)
        store.finish_job(b.id, [], error="boom")
        assert store.counts() == {"queued": 0, "running": 0,
                                  "done": 1, "failed": 1,
                                  "quarantined": 0}
        assert store.get_job(b.id).error == "boom"
        assert store.get_job(b.id).status == "failed"

    def test_empty_algorithms_rejected(self, store, inst):
        with pytest.raises(ValueError):
            store.create_job(inst, [])

    def test_list_jobs_filter(self, store, inst):
        a = store.create_job(inst, [("lpt", {})])
        store.create_job(inst, [("lpt", {})])
        store.claim_job(a.id, 30.0)
        store.finish_job(a.id, [])
        assert [j.id for j in store.list_jobs(status="done")] == [a.id]
        assert len(store.list_jobs()) == 2


class TestPersistenceAcrossRestart:
    def test_jobs_survive_reopen(self, tmp_path, inst):
        path = tmp_path / "jobs.db"
        s1 = JobStore(path)
        queued = s1.create_job(inst, [("splittable", {})], priority=3)
        running = s1.create_job(inst, [("lpt", {})])
        s1.claim_job(running.id, 30.0)
        s1.close()

        s2 = JobStore(path)             # "the server restarted"
        recovered = s2.recover_incomplete()
        # oldest submission first: restart preserves FIFO within priority
        assert [j.id for j in recovered] == [queued.id, running.id]
        # the interrupted running job is queued again, priority intact
        back = s2.get_job(running.id)
        assert back.status == "queued" and back.started_at is None
        assert s2.get_job(queued.id).priority == 3
        s2.close()

    def test_report_fraction_roundtrip_through_sqlite(self, tmp_path, inst):
        path = tmp_path / "jobs.db"
        s1 = JobStore(path)
        job = s1.create_job(inst, [("splittable", {})])
        s1.claim_job(job.id, 30.0)
        reports = [_report(inst),
                   _report(inst, algorithm="preemptive",
                           makespan=Fraction(10**12 + 1, 3 * 10**8),
                           guess=Fraction(1, 3)),
                   _report(inst, algorithm="lpt", status="infeasible",
                           makespan=None, guess=None, certified_ratio=None,
                           validated=False, error="dead end", extra={})]
        s1.finish_job(job.id, reports)
        s1.close()

        s2 = JobStore(path)
        back = s2.reports_for(job.id)
        assert back == reports          # exact, order preserved
        assert back[1].makespan == Fraction(10**12 + 1, 3 * 10**8)
        assert isinstance(back[0].makespan, Fraction)
        s2.close()


class TestResultCache:
    def test_cache_roundtrip_and_digest_index(self, store, inst):
        other = Instance((4, 4), (0, 1), 2, 1)
        k1 = cache_key(inst, "splittable", {})
        k2 = cache_key(inst, "preemptive", {})
        k3 = cache_key(other, "splittable", {})
        store.cache_put(k1, inst.digest(), _report(inst))
        store.cache_put(k2, inst.digest(), _report(inst,
                                                   algorithm="preemptive"))
        store.cache_put(k3, other.digest(),
                        _report(other, instance_digest=other.digest()))
        assert store.cache_get(k1) == _report(inst)
        assert store.cache_get("missing") is None
        by_digest = store.cached_reports_for_digest(inst.digest())
        assert {r.algorithm for r in by_digest} == {"splittable",
                                                    "preemptive"}
        assert store.cache_size() == 3

    def test_put_overwrites(self, store, inst):
        k = cache_key(inst, "splittable", {})
        store.cache_put(k, inst.digest(), _report(inst))
        newer = _report(inst, makespan=Fraction(5, 2))
        store.cache_put(k, inst.digest(), newer)
        assert store.cache_get(k) == newer
        assert store.cache_size() == 1

    def test_store_cache_speaks_run_batch_protocol(self, store, inst):
        cache = store.cache
        k = cache_key(inst, "splittable", {})
        hits0 = CACHE_HITS.value(cache="service")
        misses0 = CACHE_MISSES.value(cache="service")
        assert cache.get(k) is None
        cache.put(k, _report(inst))
        hit = cache.get(k)
        assert hit is not None and hit.makespan == Fraction(22, 7)
        assert CACHE_HITS.value(cache="service") == hits0 + 1
        assert CACHE_MISSES.value(cache="service") == misses0 + 1
        assert len(cache) == 1
        # digest landed in the index column via report.instance_digest
        assert store.cached_reports_for_digest(inst.digest()) == [hit]


class TestSchemaMigration:
    def test_pre_trace_database_gains_trace_id_column(self, tmp_path, inst):
        """A database created before the observability PR (no trace_id
        column on jobs) must be migrated transparently on open."""
        import sqlite3

        db = tmp_path / "old.db"
        store = JobStore(db)
        job = store.create_job(inst, [("splittable", {})])
        store.close()
        # simulate the old schema
        con = sqlite3.connect(db)
        con.execute("ALTER TABLE jobs DROP COLUMN trace_id")
        con.commit()
        con.close()

        store = JobStore(db)            # reopen: must ALTER, not crash
        back = store.get_job(job.id)
        assert back is not None and back.trace_id is None
        fresh = store.create_job(inst, [("lpt", {})], trace_id="mig-test")
        assert store.get_job(fresh.id).trace_id == "mig-test"
        store.close()

    def test_create_job_persists_trace_id(self, store, inst):
        job = store.create_job(inst, [("splittable", {})],
                               trace_id="abc123")
        assert store.get_job(job.id).trace_id == "abc123"
        assert store.get_job(job.id).to_dict()["trace_id"] == "abc123"


def test_old_sqlite_is_refused_at_open(tmp_path, monkeypatch):
    monkeypatch.setattr(store_mod.sqlite3, "sqlite_version_info", (3, 34, 1))
    with pytest.raises(RuntimeError, match="SQLite >= 3.35"):
        JobStore(tmp_path / "old.db")


class TestStatementsPerStep:
    """What each store step costs in SQL, read off the calling thread's
    connection."""

    @pytest.fixture
    def statements(self, store):
        seen: list[str] = []
        conn = store._connection()
        conn.set_trace_callback(seen.append)
        yield seen
        conn.set_trace_callback(None)

    @staticmethod
    def _verbs(statements):
        return [s.split()[0].upper() for s in statements]

    def test_create_job_is_one_insert(self, store, inst, statements):
        store.create_job(inst, [("lpt", {})])
        assert self._verbs(statements) == ["INSERT"]

    def test_empty_claim_takes_no_write_lock(self, store, statements):
        assert store.claim_next(30.0, worker="w") is None
        assert self._verbs(statements) == ["SELECT"]

    def test_claim_is_a_probe_and_one_write_transaction(self, store, inst,
                                                        statements):
        job = store.create_job(inst, [("lpt", {})])
        statements.clear()
        claimed = store.claim_next(30.0, worker="w")
        assert claimed.id == job.id and claimed.status == "running"
        assert claimed.attempts == 1 and claimed.claimed_by == "w"
        assert claimed.lease_expires_at > claimed.started_at
        assert self._verbs(statements) == ["SELECT", "BEGIN", "UPDATE",
                                           "INSERT", "COMMIT"]
        assert "RETURNING" in statements[2].upper()
        assert store.claims_by_worker() == {"w": 1}

    def test_claim_after_losing_the_probed_head(self, store, inst):
        # a racing node claims the probed head between the probe and the
        # write transaction: the claim takes the next head instead
        first = store.create_job(inst, [("lpt", {})], priority=1)
        second = store.create_job(inst, [("lpt", {})])
        conn = store._connection()
        real = conn.execute

        class Racing:
            def execute(self, sql, *args):
                cur = real(sql, *args)
                if sql.startswith("SELECT id FROM jobs") and not taken:
                    taken.append(store2.claim_job(first.id, 30.0,
                                                  worker="other"))
                return cur

        taken: list = []
        store2 = JobStore(store.path)
        try:
            store._tls.conn = Racing()
            claimed = store.claim_next(30.0, worker="w")
        finally:
            store._tls.conn = conn
            store2.close()
        assert taken == [True]
        assert claimed.id == second.id
        assert store.claims_by_worker() == {"other": 1, "w": 1}
