"""Tests for the service's result cache: :class:`ServiceCache` on its
own (both protocol dialects, in memory and on disk), and as the one
``<db>.cache`` file beside a SQLite job store."""

import json
import sqlite3
from fractions import Fraction

import pytest

from repro import Instance
from repro.engine import SolveReport
from repro.obs.metrics import REGISTRY, parse_exposition
from repro.resultcache import (CACHE_HITS, CACHE_MISSES, ServiceCache,
                               cache_key)
from repro.service import JobStore


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture(params=["memory", "file"])
def cache(request, tmp_path):
    c = ServiceCache(":memory:" if request.param == "memory"
                     else tmp_path / "jobs.db.cache")
    yield c
    c.close()


def _report(inst: Instance, **over) -> SolveReport:
    base = dict(algorithm="splittable", instance_digest=inst.digest(),
                instance_label="x", variant="splittable",
                makespan=Fraction(22, 7), guess=Fraction(11, 7),
                certified_ratio=2.0, proven_ratio="2", wall_time_s=0.01,
                validated=True, extra={})
    base.update(over)
    return SolveReport(**base)


def _lookups() -> tuple[float, float]:
    """(hits, misses) counted under ``cache="service"`` so far."""
    return (CACHE_HITS.value(cache="service"),
            CACHE_MISSES.value(cache="service"))


class TestServiceCache:
    def test_round_trip(self, cache, inst):
        rep = _report(inst)
        cache.store("k", inst.digest(), rep)
        assert cache.peek("k") == rep
        assert cache.peek("missing") is None
        assert cache.size() == len(cache) == 1

    def test_overwrite_keeps_one_row(self, cache, inst):
        cache.store("k", inst.digest(), _report(inst, algorithm="first"))
        cache.store("k", inst.digest(), _report(inst, algorithm="second"))
        assert cache.peek("k").algorithm == "second"
        assert cache.size() == 1

    def test_counting_protocol(self, cache, inst):
        key = cache_key(inst, "splittable")
        before = _lookups()
        assert cache.get(key) is None
        cache.put(key, _report(inst))
        assert cache.get(key) is not None
        assert _lookups() == (before[0] + 1, before[1] + 1)
        assert len(cache) == 1
        # put files the report under its own instance digest
        assert cache.reports_for_digest(inst.digest()) == [_report(inst)]

    def test_lookup_metrics(self, cache, inst):
        # the exposition /v1/metrics serves (CI greps it, perfbench reads
        # it) shows each get under cache="service"; put never counts
        def exposed() -> tuple[float, float]:
            _, samples = parse_exposition(REGISTRY.render())
            label = frozenset({("cache", "service")})
            return (samples.get(("repro_cache_hits_total", label), 0.0),
                    samples.get(("repro_cache_misses_total", label), 0.0))

        key = cache_key(inst, "lpt")
        hits0, misses0 = exposed()
        cache.get(key)
        assert exposed() == (hits0, misses0 + 1)
        cache.put(key, _report(inst, algorithm="lpt"))
        assert exposed() == (hits0, misses0 + 1)
        cache.get(key)
        cache.get(key)
        assert exposed() == (hits0 + 2, misses0 + 1)

    def test_peek_and_store_do_not_count(self, cache, inst):
        before = _lookups()
        cache.store("k", inst.digest(), _report(inst))
        assert cache.peek("k") is not None
        assert cache.peek("absent") is None
        cache.reports_for_digest(inst.digest())
        assert _lookups() == before

    def test_digest_view_in_insertion_order(self, cache, inst):
        other = Instance((4, 4), (0, 1), 2, 1)
        for k in range(6):
            cache.store(f"key-{k}", inst.digest(),
                        _report(inst, algorithm=f"algo-{k}"))
        cache.store("other", other.digest(),
                    _report(other, instance_digest=other.digest()))
        # an overwrite counts as the newest insertion
        cache.store("key-0", inst.digest(), _report(inst, algorithm="again"))
        got = cache.reports_for_digest(inst.digest())
        assert [r.algorithm for r in got] == \
            [f"algo-{k}" for k in range(1, 6)] + ["again"]
        assert cache.reports_for_digest("no-such-digest") == []


class TestStoreCache:
    def test_entries_survive_store_reopen(self, tmp_path, inst):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        keys = [f"key-{k}" for k in range(5)]
        for k, key in enumerate(keys):
            store.cache_put(key, inst.digest(),
                            _report(inst, algorithm=f"algo-{k}"))
        store.close()

        again = JobStore(path)
        for key in keys:
            assert again.cache_get(key) is not None, key
        got = again.cached_reports_for_digest(inst.digest())
        assert [r.algorithm for r in got] == [f"algo-{k}" for k in range(5)]
        assert again.cache_size() == 5
        again.close()

    def test_one_cache_file_beside_the_db(self, tmp_path, inst):
        store = JobStore(tmp_path / "jobs.db")
        store.cache_put("k", inst.digest(), _report(inst))
        store.close()
        names = sorted(p.name for p in tmp_path.iterdir()
                       if not p.name.endswith(("-wal", "-shm")))
        assert names == ["jobs.db", "jobs.db.cache"]

    def test_old_results_table_is_not_read(self, tmp_path, inst):
        # a database from before the separate cache file kept its cached
        # reports in a `results` table; the store opens it and starts cold
        path = tmp_path / "old.db"
        with sqlite3.connect(path) as conn:
            conn.execute("CREATE TABLE results (key TEXT PRIMARY KEY, "
                         "instance_digest TEXT NOT NULL, "
                         "report TEXT NOT NULL, stored_at REAL NOT NULL)")
            conn.execute("INSERT INTO results VALUES (?, ?, ?, ?)",
                         ("old-key", inst.digest(),
                          json.dumps(_report(inst).to_dict()), 1000.0))
        store = JobStore(path)
        assert store.cache_get("old-key") is None
        assert store.cache_size() == 0
        store.close()
