"""Named benchmark suites: the kernels and the batch engine.

Two scales per bench family:

* ``smoke`` — seconds-fast shapes for CI and pre-commit sanity,
* ``full``  — the shapes the committed baseline is measured at.

``repro bench --suite full`` runs every family at both scales, so the
committed ``BENCH_results.json`` contains the smoke-scale entries CI's
``--suite smoke`` run is compared against. Bench names embed their shape
tag; the comparator only ever diffs identical names.

Every kernel bench measures the optimised path *and* its pure-Fraction
reference (via :func:`repro.core.fastmath.use_fast_paths`) back to back
and records ``speedup``; the batch bench does the same against a cold
process pool (:func:`repro.engine.pool.shutdown_pool` before each timed
call). A recorded speedup is therefore a same-process, same-moment
comparison — not a diff against a historical file.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from statistics import median
from time import perf_counter
from typing import Callable

import numpy as np

from ..approx.borders import smallest_feasible_border
from ..approx.splitting import split_classes
from ..approx.splittable import solve_splittable
from ..core.bounds import splittable_lower_bound
from ..core.fastmath import use_fast_paths
from ..core.instance import Instance, compute_digest
from ..core.validation import validate_nonpreemptive
from ..engine import run_batch
from ..engine.multicell import solve_many
from ..engine.pool import shutdown_pool
from ..engine.runner import execute
from ..engine.shm import set_shm_enabled, shm_enabled
from ..nfold import NFold, augment, solve_dp, solve_milp
from ..ptas.configurations import (_build_space_cached, _enumerate_cached,
                                   build_configuration_space,
                                   configuration_cache_stats,
                                   splittable_modules)
from ..ptas.nfold_builders import build_splittable_nfold
from ..registry import get_solver
from ..workloads import uniform_instance
from .harness import (BenchResult, BenchRun, measure_calibration,
                      time_callable)

__all__ = ["SUITES", "run_suite", "list_suites"]

#: (n, C, m, c, p_hi) of the kernel workload per scale.
_KERNEL_SHAPES = {
    "smoke": dict(n=400, C=40, m=10, c=3, p_hi=10_000),
    "full": dict(n=2000, C=100, m=50, c=3, p_hi=100_000),
}
#: Border-search shape: many classes, larger m (the reference search runs
#: O(C log m) counts; the fast path bisects at most 2C window borders).
_BORDER_SHAPES = {
    "smoke": dict(C=120, m=64),
    "full": dict(C=500, m=200),
}
#: Batch-throughput shape: instances x algorithms grid and pool fan-out.
_BATCH_SHAPES = {
    "smoke": dict(instances=4, n=40, algorithms=("splittable",
                                                 "nonpreemptive"),
                  workers=2),
    # light cells on purpose: pool spin-up and per-cell shipping are the
    # costs under test, and the service's dominant regime is many small
    # requests — heavy kernels are covered by the kernel benches
    "full": dict(instances=12, n=32, algorithms=("splittable",
                                                 "nonpreemptive"),
                 workers=4),
}


def _kernel_instance(scale: str) -> Instance:
    s = _KERNEL_SHAPES[scale]
    rng = np.random.default_rng(20260730)
    return uniform_instance(rng, n=s["n"], C=s["C"], m=s["m"], c=s["c"],
                            p_hi=s["p_hi"])


def _tag(scale: str) -> str:
    s = _KERNEL_SHAPES[scale]
    return f"n{s['n']}"


def _fast_vs_reference(name: str, fn: Callable[[], object], *,
                       shape: dict, repeats: int,
                       number: int = 1) -> BenchResult:
    """Time ``fn`` under the fast paths and under the reference paths."""
    with use_fast_paths(True):
        fn()                                    # warm caches / JIT imports
        med_fast, min_fast = time_callable(fn, repeats=repeats,
                                           number=number)
    with use_fast_paths(False):
        med_ref, min_ref = time_callable(fn, repeats=repeats,
                                         number=number)
    return BenchResult(name=name, median_s=med_fast, min_s=min_fast,
                       repeats=repeats, number=number, shape=shape,
                       speedup=round(min_ref / min_fast, 3),
                       reference_median_s=med_ref)


# --------------------------------------------------------------------- #
# kernel benches
# --------------------------------------------------------------------- #

def bench_split_classes(scale: str, repeats: int) -> BenchResult:
    inst = _kernel_instance(scale)
    T = Fraction(inst.total_load * 7, inst.machines * 5)
    return _fast_vs_reference(
        f"kernel/split_classes/{_tag(scale)}",
        lambda: split_classes(inst, T),
        shape=_KERNEL_SHAPES[scale], repeats=repeats,
        number=3 if scale == "smoke" else 1)


def bench_border_search(scale: str, repeats: int) -> BenchResult:
    b = _BORDER_SHAPES[scale]
    rng = np.random.default_rng(20260730)
    inst = uniform_instance(rng, n=2 * b["C"], C=b["C"], m=10, c=3,
                            p_hi=100_000)
    loads = inst.class_loads()
    budget = 3 * b["m"]
    return _fast_vs_reference(
        f"kernel/border_search/C{b['C']}",
        lambda: smallest_feasible_border(loads, b["m"], budget),
        shape=b, repeats=repeats)


def _digest_v1_reference(inst: Instance) -> str:
    """The seed's per-int str/encode digest, kept verbatim as the bench
    reference for the struct-packed v2 encoding."""
    h = hashlib.sha256()
    h.update(b"ccs-instance-v1")
    for part in (inst.processing_times, inst.classes,
                 (inst.machines, inst.class_slots)):
        h.update(b"|")
        for v in part:
            h.update(str(int(v)).encode())
            h.update(b",")
    return h.hexdigest()


def bench_digest(scale: str, repeats: int) -> BenchResult:
    inst = _kernel_instance(scale)
    number = 20
    med_fast, min_fast = time_callable(lambda: compute_digest(inst),
                                       repeats=repeats, number=number)
    med_ref, min_ref = time_callable(lambda: _digest_v1_reference(inst),
                                     repeats=repeats, number=number)
    return BenchResult(
        name=f"kernel/instance_digest/{_tag(scale)}",
        median_s=med_fast, min_s=min_fast, repeats=repeats, number=number,
        shape=_KERNEL_SHAPES[scale],
        speedup=round(min_ref / min_fast, 3), reference_median_s=med_ref)


def bench_validate_nonpreemptive(scale: str, repeats: int) -> BenchResult:
    inst = _kernel_instance(scale)
    # the 7/3-approximation always produces a feasible schedule (greedy
    # baselines may dead-end on tight class-slot shapes)
    sched = get_solver("nonpreemptive").solve(inst).schedule
    return _fast_vs_reference(
        f"kernel/validate_nonpreemptive/{_tag(scale)}",
        lambda: validate_nonpreemptive(inst, sched),
        shape=_KERNEL_SHAPES[scale], repeats=repeats, number=5)


def bench_schedule_accounting(scale: str, repeats: int) -> BenchResult:
    inst = _kernel_instance(scale)
    sched = solve_splittable(inst).schedule
    return _fast_vs_reference(
        f"kernel/splittable_accounting/{_tag(scale)}",
        lambda: (sched.makespan(), sched.job_amounts()),
        shape=_KERNEL_SHAPES[scale], repeats=repeats, number=3)


def bench_config_space(scale: str, repeats: int) -> BenchResult:
    q = 3 if scale == "smoke" else 4
    c = 3
    modules = splittable_modules(q, c)
    args = (modules, min(q + 4, c), q * c * (q + 4))

    def cold() -> None:
        _build_space_cached.cache_clear()
        _enumerate_cached.cache_clear()
        build_configuration_space(*args)

    def warm() -> None:
        build_configuration_space(*args)

    warm()                                      # prime the cache
    med_warm, min_warm = time_callable(warm, repeats=repeats, number=5)
    med_cold, min_cold = time_callable(cold, repeats=repeats)
    stats = configuration_cache_stats()
    return BenchResult(
        name=f"kernel/config_space_memo/q{q}",
        median_s=med_warm, min_s=min_warm, repeats=repeats, number=5,
        shape={"q": q, "c": c, "modules": len(modules)},
        speedup=round(min_cold / min_warm, 3), reference_median_s=med_cold,
        extra={"cache_" + layer + "_" + k: v
               for layer, s in stats.items()
               for k, v in s.items()
               if k in ("hits", "misses", "evictions", "weight")})


# --------------------------------------------------------------------- #
# n-fold substrate benches
# --------------------------------------------------------------------- #

#: The reference shape of the `repro list` Theorem-1 column, scaled up
#: three machine orders for the full run — the IP dimensions are
#: machine-count-free, so the two scales SHOULD cost about the same;
#: that flatness is the property under regression watch.
_NFOLD_MACHINES = {"smoke": 128, "full": 4096}


def _nfold_instance(scale: str) -> Instance:
    return Instance((7, 5, 4, 3, 3, 2), (0, 0, 1, 1, 2, 2),
                    _NFOLD_MACHINES[scale], 2)


def bench_nfold_build(scale: str, repeats: int) -> BenchResult:
    """Building the splittable n-fold program with the configuration
    space memoized (warm, the per-guess cost inside a search) against a
    cold build that re-enumerates configurations."""
    inst = _nfold_instance(scale)
    T = splittable_lower_bound(inst)

    def warm() -> None:
        build_splittable_nfold(inst, T, 2)

    def cold() -> None:
        _build_space_cached.cache_clear()
        _enumerate_cached.cache_clear()
        build_splittable_nfold(inst, T, 2)

    warm()                                      # prime the memo
    med_warm, min_warm = time_callable(warm, repeats=repeats, number=5)
    med_cold, min_cold = time_callable(cold, repeats=repeats)
    return BenchResult(
        name=f"kernel/nfold_build/m{inst.machines}",
        median_s=med_warm, min_s=min_warm, repeats=repeats, number=5,
        shape={"m": inst.machines, "n": inst.num_jobs,
               "C": inst.num_classes, "c": inst.class_slots, "q": 2},
        speedup=round(min_cold / min_warm, 3), reference_median_s=med_cold)


def bench_nfold_solve(scale: str, repeats: int) -> BenchResult:
    """End-to-end ``nfold-*`` registry solves (warm start + guess search
    + per-guess ILP) at the reference shape — the trajectory canary for
    the paper's machine-count-free path."""
    inst = _nfold_instance(scale)
    names = ("nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive")

    def body() -> None:
        for name in names:
            get_solver(name).solve(inst)

    body()                                      # warm caches / lazy imports
    med, mn = time_callable(body, repeats=repeats)
    return BenchResult(
        name=f"kernel/nfold_solve/m{inst.machines}",
        median_s=med, min_s=mn, repeats=repeats, number=1,
        shape={"m": inst.machines, "n": inst.num_jobs,
               "C": inst.num_classes, "c": inst.class_slots,
               "solvers": list(names)})


def _tiny_nfold(bricks: int) -> NFold:
    """A synthetic micro n-fold (r=1, s=1, t=3) both the brick DP and
    HiGHS solve in microseconds — the apples-to-apples backend bench."""
    A = [np.array([[1, 0, 0]], dtype=np.int64) for _ in range(bricks)]
    B = [np.array([[1, 1, 1]], dtype=np.int64) for _ in range(bricks)]
    b_global = np.array([bricks], dtype=np.int64)
    b_local = [np.array([2], dtype=np.int64) for _ in range(bricks)]
    lower = np.zeros(3 * bricks, dtype=np.int64)
    upper = np.full(3 * bricks, 2, dtype=np.int64)
    w = np.array([0, 1, 0] * bricks, dtype=np.int64)
    return NFold(A, B, b_global, b_local, lower, upper, w)


def bench_nfold_dp(scale: str, repeats: int) -> BenchResult:
    """The structure-exploiting brick DP against HiGHS on the same micro
    n-fold, plus one Graver augmentation descent from a deliberately
    suboptimal feasible point (the augmentation-rounds histogram's
    driver)."""
    bricks = 4 if scale == "smoke" else 6
    nf = _tiny_nfold(bricks)

    def dp() -> None:
        solve_dp(nf)

    def milp() -> None:
        solve_milp(nf)

    dp()
    med_dp, min_dp = time_callable(dp, repeats=repeats, number=3)
    milp()
    med_milp, min_milp = time_callable(milp, repeats=repeats, number=3)
    # augmentation: half the bricks start on the costly middle column
    x0 = np.array(sum(([2, 0, 0] if i < bricks // 2 else [0, 2, 0]
                       for i in range(bricks)), []), dtype=np.int64)
    stats: dict = {}
    t0 = perf_counter()
    augment(nf, x0, stats=stats)
    aug_s = perf_counter() - t0
    from ..nfold.registry_solvers import AUGMENT_ROUNDS
    AUGMENT_ROUNDS.observe(stats["rounds"], algorithm="bench-nfold-dp")
    return BenchResult(
        name=f"kernel/nfold_dp/N{bricks}",
        median_s=med_dp, min_s=min_dp, repeats=repeats, number=3,
        shape={"bricks": bricks, "r": 1, "s": 1, "t": 3},
        speedup=round(min_milp / min_dp, 3), reference_median_s=med_milp,
        extra={"augment_rounds": stats["rounds"],
               "augment_improvement": stats["improvement"],
               "augment_s": round(aug_s, 6)})


# --------------------------------------------------------------------- #
# batch engine benches
# --------------------------------------------------------------------- #

def bench_batch_throughput(scale: str, repeats: int) -> BenchResult:
    b = _BATCH_SHAPES[scale]
    insts = [(f"bench-{k}",
              uniform_instance(np.random.default_rng(500 + k), n=b["n"],
                               C=8, m=4, c=2, p_hi=100))
             for k in range(b["instances"])]
    algos = list(b["algorithms"])
    cells = len(insts) * len(algos)

    def warm() -> None:
        run_batch(insts, algos, workers=b["workers"])

    warm()                                      # spin the pool up once
    med_warm, min_warm = time_callable(warm, repeats=repeats)
    # cold path: the previous pool is torn down *outside* the timed
    # region — a genuinely cold first batch never pays someone else's
    # teardown, only its own spin-up
    cold_times = []
    for _ in range(repeats):
        shutdown_pool(wait=True)
        t0 = perf_counter()
        run_batch(insts, algos, workers=b["workers"])
        cold_times.append(perf_counter() - t0)
    med_cold, min_cold = median(cold_times), min(cold_times)
    shutdown_pool(wait=True)
    return BenchResult(
        name=f"batch/throughput/{cells}cells",
        median_s=med_warm, min_s=min_warm, repeats=repeats, number=1,
        shape=b,
        speedup=round(min_cold / min_warm, 3), reference_median_s=med_cold,
        extra={"cells": cells,
               "warm_cells_per_s": round(cells / min_warm, 1),
               "cold_cells_per_s": round(cells / min_cold, 1)})


def bench_batch_shm(scale: str, repeats: int) -> BenchResult:
    """Warm pooled batches with the shared-memory instance transport
    against the same batches forced onto the pickle fallback — the
    transport layer is the only variable."""
    b = _BATCH_SHAPES[scale]
    insts = [(f"shmb-{k}",
              uniform_instance(np.random.default_rng(700 + k), n=b["n"],
                               C=8, m=4, c=2, p_hi=100))
             for k in range(b["instances"])]
    algos = list(b["algorithms"])
    cells = len(insts) * len(algos)

    def body() -> None:
        run_batch(insts, algos, workers=b["workers"])

    was_enabled = shm_enabled()
    try:
        set_shm_enabled(True)
        body()                              # warm pool + segment cache
        med_shm, min_shm = time_callable(body, repeats=repeats)
        set_shm_enabled(False)              # also releases live segments
        body()
        med_ref, min_ref = time_callable(body, repeats=repeats)
    finally:
        set_shm_enabled(was_enabled)
        shutdown_pool(wait=True)
    return BenchResult(
        name=f"batch/shm/{cells}cells",
        median_s=med_shm, min_s=min_shm, repeats=repeats, number=1,
        shape=b,
        speedup=round(min_ref / min_shm, 3), reference_median_s=med_ref,
        extra={"cells": cells,
               "shm_cells_per_s": round(cells / min_shm, 1),
               "pickle_cells_per_s": round(cells / min_ref, 1)})


def bench_multicell_kernels(scale: str, repeats: int) -> BenchResult:
    """One :func:`~repro.engine.multicell.solve_many` dispatch over a
    same-algorithm chunk against the equivalent per-cell ``execute``
    loop — the stacked-kernel win in isolation, no pool or transport."""
    b = _BATCH_SHAPES[scale]
    insts = [uniform_instance(np.random.default_rng(800 + k), n=b["n"],
                              C=8, m=4, c=2, p_hi=100)
             for k in range(b["instances"])]
    cells = [(f"mc-{k}-{a}", inst, a, {})
             for k, inst in enumerate(insts) for a in b["algorithms"]]

    def batched() -> None:
        solve_many(cells)

    def per_cell() -> None:
        for label, inst, name, kwargs in cells:
            execute(inst, name, kwargs, label=label)

    batched()                               # warm caches
    med_many, min_many = time_callable(batched, repeats=repeats)
    med_ref, min_ref = time_callable(per_cell, repeats=repeats)
    return BenchResult(
        name=f"kernel/multicell/{len(cells)}cells",
        median_s=med_many, min_s=min_many, repeats=repeats, number=1,
        shape=b,
        speedup=round(min_ref / min_many, 3), reference_median_s=med_ref,
        extra={"cells": len(cells),
               "batched_cells_per_s": round(len(cells) / min_many, 1)})


def bench_solver_suite(scale: str, repeats: int) -> BenchResult:
    """End-to-end inline batch over a deterministic workload grid — the
    regression canary for overall solver throughput (no pool, no
    comparison: just the trajectory)."""
    n = 120 if scale == "smoke" else 400
    insts = [(f"suite-{k}",
              uniform_instance(np.random.default_rng(900 + k), n=n,
                               C=max(4, n // 10), m=max(2, n // 20), c=3,
                               p_hi=1000))
             for k in range(3)]
    algos = ["splittable", "preemptive", "nonpreemptive", "lpt"]

    def body() -> None:
        run_batch(insts, algos, workers=0)

    body()
    med, mn = time_callable(body, repeats=repeats)
    return BenchResult(
        name=f"batch/solver_suite/n{n}",
        median_s=med, min_s=mn, repeats=repeats, number=1,
        shape={"n": n, "instances": len(insts), "algorithms": algos})


# --------------------------------------------------------------------- #
# suite registry
# --------------------------------------------------------------------- #

_KERNEL_FAMILY = (bench_split_classes, bench_border_search, bench_digest,
                  bench_validate_nonpreemptive, bench_schedule_accounting,
                  bench_config_space)
_NFOLD_FAMILY = (bench_nfold_build, bench_nfold_solve, bench_nfold_dp)
_BATCH_FAMILY = (bench_batch_throughput, bench_batch_shm,
                 bench_multicell_kernels, bench_solver_suite)

SUITES: dict[str, tuple[tuple[Callable[[str, int], BenchResult], str], ...]]
SUITES = {
    "smoke": tuple((f, "smoke")
                   for f in (bench_split_classes, bench_border_search,
                             bench_digest, bench_batch_throughput,
                             bench_nfold_solve)),
    "kernel": tuple((f, "full") for f in _KERNEL_FAMILY + _NFOLD_FAMILY),
    "nfold": tuple((f, "full") for f in _NFOLD_FAMILY),
    "batch": tuple((f, "full") for f in _BATCH_FAMILY),
}
SUITES["full"] = SUITES["kernel"] + SUITES["batch"] + SUITES["smoke"]


def list_suites() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, *, repeats: int = 5,
              progress: Callable[[str], None] | None = None) -> BenchRun:
    """Run every bench of suite ``name``; returns the populated run."""
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; expected one of {list_suites()}")
    run = BenchRun(suite=name, calibration_s=measure_calibration())
    for fn, scale in SUITES[name]:
        result = fn(scale, repeats)
        run.add(result)
        if progress is not None:
            speed = f"  ({result.speedup:g}x vs reference)" \
                if result.speedup is not None else ""
            progress(f"{result.name}: median {result.median_s * 1000:.3f}ms"
                     f" min {result.min_s * 1000:.3f}ms{speed}")
    return run
