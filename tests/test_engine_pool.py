"""The persistent shared process pool: reuse, sizing, clean shutdown."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Session
from repro.engine import run_batch
from repro.engine.pool import (get_pool, pool_id, pool_max_workers,
                               shutdown_pool)
from repro.engine.runner import _balanced_chunks
from repro.workloads import uniform_instance


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts and ends without a live shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _instances(count, n=24):
    return [(f"i{k}", uniform_instance(np.random.default_rng(k), n=n, C=4,
                                       m=3, c=2, p_hi=50))
            for k in range(count)]


def test_pool_reused_across_run_batch_calls():
    insts = _instances(3)
    assert pool_id() is None
    r1 = run_batch(insts, ["splittable", "nonpreemptive"], workers=2)
    first = pool_id()
    assert first is not None
    r2 = run_batch(insts, ["preemptive", "lpt"], workers=2)
    assert pool_id() == first, "second batch must reuse the warm pool"
    assert len(r1) == len(r2) == 6
    assert all(r.status in ("ok", "infeasible") for r in r1 + r2)


def test_shutdown_then_lazy_rebuild():
    insts = _instances(2)
    run_batch(insts, ["splittable", "lpt"], workers=2)
    assert pool_id() is not None
    shutdown_pool()
    assert pool_id() is None and pool_max_workers() == 0
    # shutdown is idempotent
    shutdown_pool()
    reports = run_batch(insts, ["splittable", "lpt"], workers=2)
    assert pool_id() is not None
    assert all(r.status in ("ok", "infeasible") for r in reports)


def test_pool_grows_but_does_not_shrink_by_default():
    a = get_pool(2)
    assert pool_max_workers() == 2
    assert get_pool(1) is a, "smaller ask reuses the bigger pool"
    b = get_pool(4)
    assert b is not a and pool_max_workers() == 4
    assert get_pool(3) is b


def test_get_pool_shrinks_on_request():
    a = get_pool(4)
    assert pool_max_workers() == 4
    b = get_pool(2, shrink=True)
    assert b is not a and pool_max_workers() == 2
    # shrink to the current width is a no-op reuse
    assert get_pool(2, shrink=True) is b
    # and a plain smaller ask still reuses
    assert get_pool(1) is b and pool_max_workers() == 2


def test_fully_deduped_batch_never_touches_the_pool():
    (label, inst), = _instances(1)
    reports = run_batch([(label, inst)] * 6, ["splittable"], workers=4)
    assert len(reports) == 6
    assert sum(not r.cached for r in reports) == 1
    assert pool_id() is None, \
        "one effective cell after dedupe must run inline"


def test_process_spawn_capped_by_post_dedupe_cells(monkeypatch):
    # pin the core count: widths below are what a box with enough CPUs
    # chooses (core-starved boxes merge chunks, covered separately)
    import repro.engine.runner as runner
    monkeypatch.setattr(runner, "_usable_cores", lambda: 8)
    insts = _instances(2)
    # 8 cells collapse to 2 effective cells -> the pool is sized (and its
    # processes forked) for 2 workers, not the 4 requested
    run_batch(insts * 2, ["splittable", ("splittable", {})], workers=4)
    assert pool_max_workers() == 2
    assert len(get_pool(1)._processes) <= 2
    # a later wider batch grows the pool once and stays correct
    reports = run_batch(_instances(4), ["splittable", "nonpreemptive"],
                        workers=4)
    assert pool_max_workers() == 4
    assert all(r.status in ("ok", "infeasible") for r in reports)


def test_inline_workers_zero_unaffected():
    insts = _instances(2)
    reports = run_batch(insts, ["splittable"], workers=0)
    assert all(r.ok for r in reports)
    assert pool_id() is None


def test_session_pool_backend_reuses_pool():
    insts = _instances(3)
    s = Session(workers=2)
    list(s.stream(insts, algorithms=["splittable"]))
    first = pool_id()
    assert first is not None
    list(s.stream(insts, algorithms=["nonpreemptive"]))
    assert pool_id() == first


def test_fastmath_flag_ships_to_pool_workers():
    # workers are forked once and reused warm, so the reference-path
    # switch must ride with each task, not the fork
    from repro.core.fastmath import use_fast_paths
    insts = _instances(3)
    with use_fast_paths(False):
        ref = run_batch(insts, ["splittable", "preemptive"], workers=2)
    fast = run_batch(insts, ["splittable", "preemptive"], workers=2)
    assert [str(r.makespan) for r in ref] == \
        [str(r.makespan) for r in fast]
    assert all(r.ok for r in ref + fast)


def test_get_pool_growth_does_not_cancel_inflight_futures():
    import threading
    insts = _instances(6)
    errors = []

    def batch(workers):
        try:
            run_batch(insts, ["splittable", "nonpreemptive"],
                      workers=workers)
        except BaseException as exc:    # noqa: BLE001 — recorded for assert
            errors.append(exc)

    threads = [threading.Thread(target=batch, args=(w,))
               for w in (2, 4, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"concurrent batches failed: {errors!r}"


def test_get_pool_rejects_bad_workers():
    with pytest.raises(ValueError):
        get_pool(0)


def test_balanced_chunks_splits_to_target():
    # one big group splits until the target is reached
    chunks = _balanced_chunks([list(range(8))], 4)
    assert len(chunks) == 4
    assert sorted(i for c in chunks for i in c) == list(range(8))
    # single-cell groups cannot split further
    chunks = _balanced_chunks([[0], [1], [2]], 8)
    assert sorted(map(tuple, chunks)) == [(0,), (1,), (2,)]
    # enough groups already: untouched
    chunks = _balanced_chunks([[0, 1], [2, 3]], 2)
    assert len(chunks) == 2


def test_core_starved_box_merges_chunks(monkeypatch):
    # on a box with fewer usable cores than requested workers, chunks
    # merge down to the real parallelism: extra chunks cannot overlap
    # and would only add IPC round trips. The pool is sized accordingly.
    import repro.engine.runner as runner
    monkeypatch.setattr(runner, "_usable_cores", lambda: 1)
    insts = _instances(4)
    pooled = run_batch(insts, ["splittable", "nonpreemptive"], workers=4)
    assert pool_max_workers() == 1
    inline = run_batch(insts, ["splittable", "nonpreemptive"], workers=0)
    assert [str(r.makespan) for r in pooled] == \
        [str(r.makespan) for r in inline]


def test_packed_chunks_merges_deterministically():
    from repro.engine.runner import _packed_chunks
    groups = [[0], [1, 2, 3], [4, 5], [6]]
    chunks = _packed_chunks(groups, 2, lambda i: 1)
    assert sorted(i for c in chunks for i in c) == list(range(7))
    # heaviest group first into the lightest bin, ties to the first
    # bin: deterministic layout
    assert chunks == [[1, 2, 3, 6], [4, 5, 0]]
    # weights, not cell counts, order and balance the groups
    heavy = {0: 10}
    assert _packed_chunks(groups, 2, lambda i: heavy.get(i, 1)) == \
        [[0], [1, 2, 3, 4, 5, 6]]


def test_balanced_chunks_stay_fine_grained_above_target():
    # more groups than the target: left whole, because iter_batch packs
    # them into the target count afterwards (_packed_chunks, by weight);
    # splitting them further would only scatter instances over chunks
    chunks = _balanced_chunks([[0], [1], [2], [3], [4], [5]], 2)
    assert len(chunks) == 6
    assert sorted(i for c in chunks for i in c) == list(range(6))


def test_pooled_batch_ships_one_chunk_per_worker(monkeypatch):
    # a 6-instance x 3-algorithm grid at workers=2 is two pool tasks,
    # not one per instance
    import repro.engine.runner as runner
    from repro.obs.metrics import REGISTRY
    monkeypatch.setattr(runner, "_usable_cores", lambda: 8)
    tasks = REGISTRY.get("repro_pool_tasks_total")
    before = tasks.value()
    reports = run_batch(_instances(6), ["splittable", "preemptive",
                                        "nonpreemptive"], workers=2)
    assert tasks.value() - before == 2
    assert len(reports) == 18 and all(r.ok for r in reports)


def test_pooled_chunks_balance_instance_sizes(monkeypatch):
    # two large instances among four small ones: weighted by job count,
    # each chunk gets one large instance; packed by cell count, both
    # would share a chunk
    import repro.engine.runner as runner
    monkeypatch.setattr(runner, "_usable_cores", lambda: 8)
    shipped = []
    submit_task = runner.submit_task

    def record(width, fn, groups, *args):
        shipped.append(sorted(inst.num_jobs for inst, _ in groups))
        return submit_task(width, fn, groups, *args)

    monkeypatch.setattr(runner, "submit_task", record)
    rng = np.random.default_rng(25)
    grid = [(f"i{k}", uniform_instance(rng, n=n, C=20, m=10, c=3,
                                       p_hi=1000))
            for k, n in enumerate((2000, 200, 2000, 200, 200, 200))]
    algos = ["splittable", "preemptive", "nonpreemptive"]
    pooled = run_batch(grid, algos, workers=2)
    assert sorted(shipped) == [[200, 200, 2000], [200, 200, 2000]]
    inline = run_batch(grid, algos, workers=0)
    assert _without_wall_time(pooled) == _without_wall_time(inline)


def test_run_batch_explicit_downsize_shrinks_wide_pool(monkeypatch):
    # pool already 4 wide; an explicit workers=2 batch completes fine AND
    # releases the unwanted width — a one-off wide batch must not pin
    # max workers forever
    import repro.engine.runner as runner
    monkeypatch.setattr(runner, "_usable_cores", lambda: 8)
    get_pool(4)
    insts = _instances(6)
    reports = run_batch(insts, ["splittable", "nonpreemptive"], workers=2)
    assert len(reports) == 12
    assert all(r.status in ("ok", "infeasible") for r in reports)
    assert pool_max_workers() == 2      # explicit downsize shrinks


def test_run_batch_default_workers_never_shrinks():
    # with no explicit workers= ask, a wide pool is reused as-is
    from repro.engine.runner import DEFAULT_WORKERS
    wide = max(DEFAULT_WORKERS + 2, 5)
    get_pool(wide)
    reports = run_batch(_instances(6), ["splittable"])
    assert all(r.status in ("ok", "infeasible") for r in reports)
    assert pool_max_workers() == wide   # implicit default: reuse, no shrink


def test_chunked_reports_keep_grid_order_and_labels():
    insts = _instances(4)
    algos = ["splittable", "nonpreemptive"]
    pooled = run_batch(insts, algos, workers=3)
    inline = run_batch(insts, algos, workers=0)
    assert [r.instance_label for r in pooled] == \
        [r.instance_label for r in inline]
    assert [r.algorithm for r in pooled] == [r.algorithm for r in inline]
    assert [str(r.makespan) for r in pooled] == \
        [str(r.makespan) for r in inline]


def _without_wall_time(reports):
    out = []
    for rep in reports:
        d = rep.to_dict()
        d.pop("wall_time_s", None)
        out.append(d)
    return out


def test_pooled_batch_matches_inline_past_int64():
    # m past int64: the pickled chunks carry Python ints, and every
    # report equals the inline one
    huge = [(label, inst.with_machines(2 ** 70))
            for label, inst in _instances(3)]
    algos = ["splittable", "preemptive", "nonpreemptive"]
    pooled = run_batch(huge, algos, workers=2)
    assert pool_id() is not None        # the pool did run the batch
    inline = run_batch(huge, algos, workers=0)
    assert _without_wall_time(pooled) == _without_wall_time(inline)


def test_pooled_batch_matches_inline_on_every_fuzz_family():
    from repro.fuzz.generators import GENERATORS, draw_case
    insts = [(family, draw_case(np.random.default_rng([24, k]),
                                only=(family,)).instance)
             for k, family in enumerate(sorted(GENERATORS))]
    algos = ["splittable", "preemptive", "nonpreemptive", "lpt", "greedy",
             "ffd", "round-robin", "mcnaughton"]
    pooled = run_batch(insts, algos, workers=2)
    assert pool_id() is not None
    inline = run_batch(insts, algos, workers=0)
    assert _without_wall_time(pooled) == _without_wall_time(inline)
