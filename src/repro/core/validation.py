"""Authoritative feasibility validation for CCS schedules.

Every algorithm in this library returns a schedule object; these validators
re-derive feasibility from scratch (completeness, class-slot limits, and for
the preemptive regime non-overlap of same-job pieces and same-machine
pieces). Tests always validate through this module rather than trusting the
producing algorithm — a deliberate separation of construction and checking.

All checks are exact. Every validator has a vectorised fast path used
when the magnitudes provably fit int64: ``numpy`` scatter/unique over the
assignment for non-preemptive schedules, and for the fractional regimes
the stacked sweep of :mod:`repro.core.batchkernels`, which puts piece
amounts (and start times) on one common denominator. On any violation or
guard trip the fast paths re-run the scalar reference checks so error
messages are identical byte for byte; ``use_fast_paths(False)`` runs the
reference checks alone.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .batchkernels import preemptive_ok_many, splittable_ok_many
from .errors import InfeasibleScheduleError
from .fastmath import fast_paths_enabled
from .instance import Instance
from .schedule import (NonPreemptiveSchedule, PreemptiveSchedule,
                       SplittableSchedule)

__all__ = [
    "validate_splittable",
    "validate_preemptive",
    "validate_nonpreemptive",
    "validate",
]


def _check_class_slots(classes_on_machine: set[int], c: int,
                       machine: int) -> None:
    if len(classes_on_machine) > c:
        raise InfeasibleScheduleError(
            f"machine runs {len(classes_on_machine)} classes "
            f"{sorted(classes_on_machine)} but has only {c} class slots",
            machine=machine)


def _int64_makespan(kernel, inst: Instance,
                    sched: SplittableSchedule | PreemptiveSchedule
                    ) -> Fraction | None:
    """The int64 sweep's verdict on one schedule: its makespan when it
    provably passes, ``None`` when the scalar checks must run (fast paths
    off, a violation to report, or a guard trip)."""
    if not fast_paths_enabled():
        return None
    (makespan,) = kernel([(*sched.piece_columns(), inst.processing_times,
                           inst.classes, inst.machines, inst.class_slots)])
    return makespan


def validate_splittable(inst: Instance, sched: SplittableSchedule) -> Fraction:
    """Validate a splittable schedule; return its makespan.

    Checks: machine count matches, every job fully scheduled (amounts sum to
    ``p_j`` exactly, no over-assignment), and per-machine class-slot limits.
    """
    inst = inst.normalized()
    if sched.num_machines != inst.machines:
        raise InfeasibleScheduleError(
            f"schedule has {sched.num_machines} machines, instance has "
            f"{inst.machines}")
    makespan = _int64_makespan(splittable_ok_many, inst, sched)
    if makespan is not None:
        return makespan
    amounts = sched.job_amounts()
    for j, p in enumerate(inst.processing_times):
        got = amounts.get(j, Fraction(0))
        if got != p:
            raise InfeasibleScheduleError(
                f"job scheduled amount {got} != processing time {p}", job=j)
    for j in amounts:
        if j < 0 or j >= inst.num_jobs:
            raise InfeasibleScheduleError(f"unknown job index {j}", job=j)
    for i in sched.used_machines:
        _check_class_slots(sched.classes_on(i, inst), inst.class_slots, i)
    return sched.makespan()


def validate_preemptive(inst: Instance, sched: PreemptiveSchedule) -> Fraction:
    """Validate a preemptive schedule; return its makespan.

    Beyond the splittable checks, verifies that (a) pieces on the same
    machine do not overlap in time and (b) pieces of the same job do not
    overlap in time across machines (the defining preemptive constraint).
    """
    inst = inst.normalized()
    if sched.num_machines != inst.machines:
        raise InfeasibleScheduleError(
            f"schedule has {sched.num_machines} machines, instance has "
            f"{inst.machines}")
    makespan = _int64_makespan(preemptive_ok_many, inst, sched)
    if makespan is not None:
        return makespan
    amounts = sched.job_amounts()
    for j, p in enumerate(inst.processing_times):
        got = amounts.get(j, Fraction(0))
        if got != p:
            raise InfeasibleScheduleError(
                f"job scheduled amount {got} != processing time {p}", job=j)
    for j in amounts:
        if j < 0 or j >= inst.num_jobs:
            raise InfeasibleScheduleError(f"unknown job index {j}", job=j)

    # same-machine pieces must not overlap (a machine is sequential)
    for i in sched.used_machines:
        pieces = sched.pieces_on(i)  # sorted by (start, end)
        for a, b in zip(pieces, pieces[1:]):
            if b.start < a.end:
                raise InfeasibleScheduleError(
                    f"pieces of jobs {a.job} and {b.job} overlap on the same "
                    f"machine: [{a.start},{a.end}) vs [{b.start},{b.end})",
                    machine=i)
        _check_class_slots(sched.classes_on(i, inst), inst.class_slots, i)

    # same-job pieces must not overlap across machines (intervals gathered
    # in one pass — per-job rescans made this check quadratic in n)
    by_job = sched.all_job_intervals()
    for j in range(inst.num_jobs):
        intervals = by_job.get(j, [])
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            if s2 < e1:
                raise InfeasibleScheduleError(
                    f"job runs in parallel with itself: [{s1},{e1}) overlaps "
                    f"[{s2},{e2})", job=j)
    return sched.makespan()


def validate_nonpreemptive(inst: Instance,
                           sched: NonPreemptiveSchedule) -> int:
    """Validate a non-preemptive schedule; return its makespan."""
    inst = inst.normalized()
    if sched.num_machines != inst.machines:
        raise InfeasibleScheduleError(
            f"schedule has {sched.num_machines} machines, instance has "
            f"{inst.machines}")
    if sched.num_jobs != inst.num_jobs:
        raise InfeasibleScheduleError(
            f"schedule covers {sched.num_jobs} jobs, instance has "
            f"{inst.num_jobs}")
    if fast_paths_enabled() and _nonpreemptive_ok_vec(inst, sched):
        return sched.makespan(inst)
    for j, i in enumerate(sched.assignment):
        if i < 0:
            raise InfeasibleScheduleError("job is unassigned", job=j)
    for i, classes in sched.classes_per_machine(inst).items():
        _check_class_slots(classes, inst.class_slots, i)
    return sched.makespan(inst)


def _nonpreemptive_ok_vec(inst: Instance,
                          sched: NonPreemptiveSchedule) -> bool:
    """Vectorised assignment + class-slot check.

    Returns ``True`` when the schedule provably passes; ``False`` sends
    the caller down the scalar path — either because a violation must be
    re-derived there for its exact error message, or because the machine
    index range is too large to bin densely.
    """
    if not sched.dense_machine_range():
        return False
    assign = np.asarray(sched.assignment, dtype=np.int64)
    if assign.min(initial=0) < 0:
        return False                      # unassigned job: scalar re-check
    classes = np.asarray(inst.classes, dtype=np.int64)
    # distinct (machine, class) pairs, then distinct classes per machine
    pair = assign * inst.num_classes + classes
    machines_of_pairs = np.unique(pair) // inst.num_classes
    distinct = np.bincount(machines_of_pairs.astype(np.int64),
                           minlength=sched.num_machines)
    return bool((distinct <= inst.class_slots).all())


def validate(inst: Instance, sched) -> Fraction | int:
    """Dispatch to the validator matching the schedule type."""
    if isinstance(sched, SplittableSchedule):
        return validate_splittable(inst, sched)
    if isinstance(sched, PreemptiveSchedule):
        return validate_preemptive(inst, sched)
    if isinstance(sched, NonPreemptiveSchedule):
        return validate_nonpreemptive(inst, sched)
    # compact schedules implement their own validate hook
    hook = getattr(sched, "validate_against", None)
    if hook is not None:
        return hook(inst)
    raise TypeError(f"unknown schedule type {type(sched)!r}")
