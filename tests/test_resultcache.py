"""Tests for the unified result-cache module: the consistent-hash ring,
the shard implementations, the sharded cache's two protocol dialects,
and shard-count persistence on SQLite-backed stores."""

from fractions import Fraction

import pytest

from repro import Instance
from repro.engine import SolveReport
from repro.resultcache import (CACHE_SHARD_OPS, HashRing, MemoryCacheShard,
                               ShardedReportCache, SqliteCacheShard,
                               cache_key)
from repro.service import JobStore


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


def _report(inst: Instance, **over) -> SolveReport:
    base = dict(algorithm="splittable", instance_digest=inst.digest(),
                instance_label="x", variant="splittable",
                makespan=Fraction(22, 7), guess=Fraction(11, 7),
                certified_ratio=2.0, proven_ratio="2", wall_time_s=0.01,
                validated=True, extra={})
    base.update(over)
    return SolveReport(**base)


class TestHashRing:
    def test_deterministic(self):
        a, b = HashRing(4), HashRing(4)
        for k in range(200):
            assert a.shard_for(f"key-{k}") == b.shard_for(f"key-{k}")

    def test_every_shard_gets_traffic(self):
        ring = HashRing(4)
        counts = [0, 0, 0, 0]
        for k in range(1000):
            counts[ring.shard_for(f"key-{k}")] += 1
        # virtual nodes keep the split roughly even; 10% floor is a loose
        # sanity bound (ideal is 25% each)
        assert all(c >= 100 for c in counts), counts

    def test_resize_moves_only_an_arc(self):
        # consistent hashing's whole point: growing 4 -> 5 shards must
        # relocate roughly 1/5 of the keys, not reshuffle everything
        before, after = HashRing(4), HashRing(5)
        moved = sum(before.shard_for(f"key-{k}") != after.shard_for(f"key-{k}")
                    for k in range(1000))
        assert moved < 500, f"{moved}/1000 keys moved on a +1 resize"

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(4, replicas=0)


class TestShards:
    def test_memory_shard_round_trip(self, inst):
        shard = MemoryCacheShard()
        rep = _report(inst)
        shard.put("k", inst.digest(), rep)
        assert shard.get("k").makespan == rep.makespan
        assert shard.get("missing") is None
        assert shard.size() == 1

    def test_sqlite_shard_persists_across_reopen(self, tmp_path, inst):
        path = tmp_path / "shard-0.db"
        shard = SqliteCacheShard(path)
        shard.put("k", inst.digest(), _report(inst))
        shard.close()
        again = SqliteCacheShard(path)
        assert again.get("k") is not None
        assert again.size() == 1
        again.close()

    def test_sqlite_shard_overwrite_keeps_one_row(self, tmp_path, inst):
        shard = SqliteCacheShard(tmp_path / "s.db")
        shard.put("k", inst.digest(), _report(inst, algorithm="first"))
        shard.put("k", inst.digest(), _report(inst, algorithm="second"))
        assert shard.get("k").algorithm == "second"
        assert shard.size() == 1
        shard.close()


class TestShardedReportCache:
    def _cache(self, n=4, label="test-cache"):
        return ShardedReportCache([MemoryCacheShard() for _ in range(n)],
                                  label=label)

    def test_counting_protocol(self, inst):
        cache = self._cache()
        key = cache_key(inst, "splittable")
        assert cache.get(key) is None
        cache.put(key, _report(inst))
        assert cache.get(key) is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        assert len(cache) == 1

    def test_peek_and_store_do_not_count(self, inst):
        cache = self._cache()
        cache.store("k", inst.digest(), _report(inst))
        assert cache.peek("k") is not None
        assert cache.peek("absent") is None
        assert (cache.hits, cache.misses) == (0, 0)

    def test_keys_spread_over_shards(self, inst):
        cache = self._cache()
        for k in range(64):
            cache.store(f"key-{k}", inst.digest(), _report(inst))
        sizes = [shard.size() for shard in cache.shards]
        assert sum(sizes) == 64
        assert sum(1 for s in sizes if s > 0) >= 2  # not all on one shard

    def test_shard_op_metrics(self, inst):
        cache = self._cache(label="metrics-probe")
        key = cache_key(inst, "lpt")
        shard = str(cache.shard_for(key))
        puts0 = CACHE_SHARD_OPS.value(cache="metrics-probe", shard=shard,
                                      op="put")
        hits0 = CACHE_SHARD_OPS.value(cache="metrics-probe", shard=shard,
                                      op="hit")
        cache.put(key, _report(inst))
        cache.get(key)
        assert CACHE_SHARD_OPS.value(cache="metrics-probe", shard=shard,
                                     op="put") == puts0 + 1
        assert CACHE_SHARD_OPS.value(cache="metrics-probe", shard=shard,
                                     op="hit") == hits0 + 1

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedReportCache([])


class TestStoreShardPersistence:
    def test_shard_count_is_pinned_in_meta(self, tmp_path, inst):
        # the ring must match the shard files on disk; a store created
        # with 2 shards keeps 2 even when reopened asking for 8
        path = tmp_path / "jobs.db"
        store = JobStore(path, cache_shards=2)
        keys = [f"key-{k}" for k in range(16)]
        for key in keys:
            store.cache_put(key, inst.digest(), _report(inst))
        assert len(store.cache.shards) == 2
        store.close()

        again = JobStore(path, cache_shards=8)
        assert len(again.cache.shards) == 2
        for key in keys:
            assert again.cache_get(key) is not None, key
        again.close()

    def test_shard_files_exist_on_disk(self, tmp_path, inst):
        path = tmp_path / "jobs.db"
        store = JobStore(path, cache_shards=3)
        for k in range(12):
            store.cache_put(f"key-{k}", inst.digest(), _report(inst))
        store.close()
        shard_files = sorted(p.name for p in tmp_path.glob("jobs.db.cache-*")
                             if not p.name.endswith(("-wal", "-shm")))
        assert shard_files == ["jobs.db.cache-0", "jobs.db.cache-1",
                               "jobs.db.cache-2"]
