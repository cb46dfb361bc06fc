"""Multi-cell solving: whole same-algorithm chunks in one dispatch.

The pooled batch path used to run one :func:`~repro.engine.runner.execute`
per cell inside each worker — correct, but every cell paid the scalar
kernels' per-call numpy overhead separately.  :func:`solve_many` runs a
chunk of cells through the stacked kernels in
:mod:`repro.core.batchkernels` instead:

* **splittable** — the border binary searches of *all* cells run in one
  vectorised lockstep pass; each cell's solver then consumes its
  precomputed border as a :func:`~repro.approx.borders.border_hints`
  hint, and the resulting schedules are validated together in one
  stacked exact sweep (:func:`~repro.core.batchkernels.splittable_ok_many`);
  any cell the sweep cannot prove clean re-runs the authoritative
  scalar validator, reproducing its exact error messages.
* **nonpreemptive** — the Theorem 6 integral guess searches of all
  cells run in one vectorised lockstep pass
  (:func:`~repro.core.batchkernels.nonpreemptive_guess_many`), each
  cell's solver consuming its precomputed ``T`` as a digest-keyed
  hint; the resulting schedules are then validated in a single stacked
  ``unique``/``bincount`` sweep; any cell the sweep cannot prove clean
  re-runs the authoritative scalar validator, reproducing its exact
  error messages.

Everything else — foreign algorithms, cells with kwargs, disabled fast
paths, overflow-guard trips — falls back to per-cell ``execute``.  The
contract, enforced by the ``batch`` fuzz oracle and the engine tests, is
that ``solve_many(cells)`` is byte-identical (modulo wall time) to
``[execute(...) for cell in cells]``.
"""

from __future__ import annotations

import time
from typing import Any, Mapping, Sequence

from ..approx.borders import border_hints
from ..approx.nonpreemptive import guess_hints
from ..core.batchkernels import (nonpreemptive_guess_many,
                                 nonpreemptive_slots_ok_many,
                                 smallest_feasible_border_many,
                                 splittable_ok_many)
from ..core.fastmath import fast_paths_enabled
from ..core.instance import Instance
from ..core.schedule import NonPreemptiveSchedule, SplittableSchedule
from ..core.validation import validate
from ..registry import get_solver
from .report import SolveReport
from .runner import (_base_fields, _call_with_timeout, _failure_report,
                     _ok_report, execute)

__all__ = ["solve_many", "MULTI_CELL_ALGOS"]

#: Algorithms with a stacked multi-cell kernel behind them. Everything
#: else runs per-cell through ``execute``.
MULTI_CELL_ALGOS = frozenset({"splittable", "nonpreemptive"})


def solve_many(cells: Sequence[tuple[str, Instance, str,
                                     Mapping[str, Any] | None]],
               *, timeout: float | None = None) -> list[SolveReport]:
    """One report per ``(label, instance, algorithm, kwargs)`` cell.

    Byte-identical (modulo ``wall_time_s``) to calling
    :func:`~repro.engine.runner.execute` per cell, but same-algorithm
    runs of :data:`MULTI_CELL_ALGOS` cells share the vectorised batch
    kernels. Unknown algorithm names raise up front, like ``execute``.
    """
    reports: list[SolveReport | None] = [None] * len(cells)
    groups: dict[str, list[int]] = {}
    for idx, (label, inst, name, kwargs) in enumerate(cells):
        spec = get_solver(name)
        if kwargs or spec.name not in MULTI_CELL_ALGOS \
                or not fast_paths_enabled():
            reports[idx] = execute(inst, name, kwargs, label=label,
                                   timeout=timeout)
        else:
            groups.setdefault(spec.name, []).append(idx)
    for name, idxs in groups.items():
        if name == "splittable":
            _solve_splittable_group(cells, idxs, reports, timeout)
        else:
            _solve_nonpreemptive_group(cells, idxs, reports, timeout)
    return reports      # type: ignore[return-value]


# --------------------------------------------------------------------- #
# splittable: batched border search, replayed through execute
# --------------------------------------------------------------------- #

def _solve_splittable_group(cells, idxs: list[int],
                            reports: list, timeout: float | None) -> None:
    """Precompute every cell's Lemma 2 border in one vectorised pass,
    run the normal solver with the answers installed as hints, then
    validate all resulting schedules in one stacked exact sweep."""
    spec = get_solver("splittable")
    keys: list[tuple[tuple[int, ...], int, int]] = []
    inputs: list[tuple[list[int], int, int]] = []
    seen: set[tuple] = set()
    for idx in idxs:
        inst = cells[idx][1].normalized()
        if not inst.is_feasible():
            continue        # the solver rejects it before the search
        loads = inst._class_loads
        budget = inst.class_slots * inst.machines
        key = (loads, inst.machines, budget)
        if key not in seen:
            seen.add(key)
            keys.append(key)
            inputs.append((list(loads), inst.machines, budget))
    hints: dict[tuple, Any] = {}
    if inputs:
        borders, scalar = smallest_feasible_border_many(inputs)
        skip = set(scalar)
        for pos, key in enumerate(keys):
            if pos not in skip:     # guard trips recompute per cell
                hints[key] = borders[pos]

    solved: list[tuple[int, Instance, Any, dict, float]] = []
    with border_hints(hints):
        for idx in idxs:
            label, inst, _, _ = cells[idx]
            base = _base_fields(spec, inst, label)
            t0 = time.perf_counter()
            try:
                raw = _call_with_timeout(lambda: spec.solve(inst),
                                         timeout)
            except BaseException as exc:  # noqa: BLE001 — to a report
                reports[idx] = _failure_report(
                    exc, base, time.perf_counter() - t0, timeout)
                continue
            solved.append((idx, inst, raw, base, t0))

    # stacked exact validation: pieces of every schedule in one sweep;
    # anything the kernel cannot prove clean re-runs the authoritative
    # scalar validator for its exact error messages
    stacked: list[tuple[int, Instance, Any, dict, float]] = []
    kernel_cells = []
    for rec in solved:
        idx, inst, raw, base, t0 = rec
        sched = raw.schedule
        norm = inst.normalized()
        if (isinstance(sched, SplittableSchedule)
                and sched.num_machines == norm.machines):
            stacked.append(rec)
            kernel_cells.append((*sched.piece_columns(),
                                 norm.processing_times, norm.classes,
                                 norm.machines, norm.class_slots))
        else:
            _finish_scalar(rec, reports, timeout)

    makespans = splittable_ok_many(kernel_cells) if kernel_cells else []
    for rec, makespan in zip(stacked, makespans):
        idx, inst, raw, base, t0 = rec
        if makespan is not None:
            reports[idx] = _ok_report(raw, makespan, True, base,
                                      time.perf_counter() - t0)
        else:
            _finish_scalar(rec, reports, timeout)


# --------------------------------------------------------------------- #
# nonpreemptive: per-cell solve, stacked validation
# --------------------------------------------------------------------- #

def _solve_nonpreemptive_group(cells, idxs: list[int],
                               reports: list,
                               timeout: float | None) -> None:
    spec = get_solver("nonpreemptive")
    # precompute every cell's Theorem 6 guess in one lockstep pass; the
    # per-cell solver then re-derives its group counts once at the
    # hinted T instead of O(log UB) times
    keys: list[str] = []
    inputs: list[tuple] = []
    seen: set[str] = set()
    for idx in idxs:
        norm = cells[idx][1].normalized()
        if not norm.is_feasible():
            continue        # the solver rejects it before the search
        key = norm.digest()
        if key not in seen:
            seen.add(key)
            keys.append(key)
            inputs.append((norm.processing_times, norm.classes,
                           norm.machines, norm.class_slots))
    hints: dict[str, int] = {}
    if inputs:
        t_vals, skip = nonpreemptive_guess_many(inputs)
        skipped = set(skip)
        for pos, key in enumerate(keys):
            if pos not in skipped and t_vals[pos] is not None:
                hints[key] = t_vals[pos]

    solved: list[tuple[int, Instance, Any, dict, float]] = []
    with guess_hints(hints):
        for idx in idxs:
            label, inst, _, _ = cells[idx]
            base = _base_fields(spec, inst, label)
            t0 = time.perf_counter()
            try:
                raw = _call_with_timeout(lambda: spec.solve(inst),
                                         timeout)
            except BaseException as exc:  # noqa: BLE001 — to a report
                reports[idx] = _failure_report(
                    exc, base, time.perf_counter() - t0, timeout)
                continue
            solved.append((idx, inst, raw, base, t0))

    # split into cells the stacked sweep can prove clean and the rest;
    # the preconditions mirror validate_nonpreemptive's scalar prechecks
    stacked: list[tuple[int, Instance, Any, dict, float]] = []
    kernel_cells = []
    for rec in solved:
        idx, inst, raw, base, t0 = rec
        sched = raw.schedule
        norm = inst.normalized()
        if (isinstance(sched, NonPreemptiveSchedule)
                and sched.num_machines == norm.machines
                and sched.num_jobs == norm.num_jobs
                and sched.dense_machine_range()
                and min(sched.assignment, default=-1) >= 0):
            stacked.append(rec)
            kernel_cells.append((sched.assignment, norm.classes,
                                 norm.machines, norm.num_classes,
                                 norm.class_slots))
        else:
            _finish_scalar(rec, reports, timeout)

    ok = nonpreemptive_slots_ok_many(kernel_cells) if kernel_cells else []
    for rec, good in zip(stacked, ok):
        idx, inst, raw, base, t0 = rec
        if good:
            makespan = raw.schedule.makespan(inst.normalized())
            reports[idx] = _ok_report(raw, makespan, True, base,
                                      time.perf_counter() - t0)
        else:
            _finish_scalar(rec, reports, timeout)


def _finish_scalar(rec, reports: list, timeout: float | None) -> None:
    """Validate one solved cell through the authoritative scalar
    validator, with ``execute``'s exact failure mapping."""
    idx, inst, raw, base, t0 = rec
    try:
        if raw.schedule is not None:
            makespan, validated = validate(inst, raw.schedule), True
        else:
            makespan, validated = raw.makespan, False
    except BaseException as exc:        # noqa: BLE001 — mapped to a report
        reports[idx] = _failure_report(exc, base,
                                       time.perf_counter() - t0, timeout)
        return
    reports[idx] = _ok_report(raw, makespan, validated, base,
                              time.perf_counter() - t0)
