"""The 7/3-approximation for non-preemptive CCS (Theorem 6).

Framework of Algorithm 1 with three changes: the lower bound includes
``pmax``; the number of sub-groups per class is the sharper
``C_u = max(ceil(P_u/T), k_u + ceil(l_u/2))`` accounting for jobs larger
than ``T/2`` and ``T/3`` (they cannot share machines freely); and classes
are split into whole-job groups via LPT instead of being cut. An integral
guess search (:func:`~repro.core.bounds.smallest_slot_guess`) replaces the
border search (the optimum is integral but the border structure no longer
captures ``C_u``); it starts at the class-slot threshold of Lemma 2.

Guarantee: makespan at most ``LB + (4/3) T <= (7/3) T <= (7/3) OPT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ..core.bounds import (area_bound, presorted_class_count,
                           smallest_slot_guess, trivial_upper_bound)
from ..core.errors import InfeasibleInstanceError
from ..core.instance import Instance
from ..core.schedule import NonPreemptiveSchedule
from .lpt import lpt_partition
from .round_robin import round_robin_assignment

__all__ = ["NonPreemptiveResult", "solve_nonpreemptive"]


@dataclass(frozen=True)
class NonPreemptiveResult:
    """Outcome of the 7/3-approximation (Theorem 6)."""

    schedule: NonPreemptiveSchedule
    guess: int
    lower_bound: int
    makespan: int

    @property
    def ratio_certificate(self) -> float:
        return self.makespan / self.guess if self.guess > 0 else 0.0


def solve_nonpreemptive(inst: Instance) -> NonPreemptiveResult:
    """Run the 7/3-approximation on ``inst``."""
    inst = inst.normalized()
    inst.require_feasible()
    m, c = inst.machines, inst.class_slots
    budget = c * m

    per_class = [[inst.processing_times[j] for j in inst.jobs_by_class[u]]
                 for u in range(inst.num_classes)]
    # sorted views + sums precomputed once: the guess search re-evaluates
    # the Theorem 6 counts
    per_class_asc = [sorted(pjs) for pjs in per_class]
    per_class_sum = [sum(pjs) for pjs in per_class]

    def group_counts(T: int) -> list[int] | None:
        counts = []
        total = 0
        for pjs, s in zip(per_class_asc, per_class_sum):
            cu = presorted_class_count(pjs, s, T)
            counts.append(cu)
            total += cu
            if total > budget:
                return None
        return counts

    lb = max(inst.pmax, ceil(area_bound(inst)))
    # The upper bound is always feasible: the optimum is <= UB and the
    # counting argument is a valid lower bound on slots used by *any*
    # schedule of makespan T, hence counts(UB) <= counts(OPT) <= c*m.
    T = smallest_slot_guess(per_class_asc, per_class_sum, budget, lb,
                            int(trivial_upper_bound(inst)))
    if T is None:  # pragma: no cover - defensive
        raise InfeasibleInstanceError(inst.num_classes, budget)
    counts = group_counts(T)
    assert counts is not None

    # Split each class into C_u groups of whole jobs via LPT, then round
    # robin the groups by non-ascending load.
    groups: list[list[int]] = []   # lists of job indices
    group_loads: list[int] = []
    for u, pjs in enumerate(per_class):
        jobs = inst.jobs_of_class(u)
        parts = lpt_partition(pjs, counts[u])
        for part in parts:
            if not part and counts[u] > 1:
                # LPT may leave a group empty when a class has fewer jobs
                # than groups; empty groups carry no jobs and no load but
                # still exist conceptually — skip them in the allotment.
                continue
            groups.append([jobs[i] for i in part])
            group_loads.append(sum(pjs[i] for i in part))

    rows = round_robin_assignment(group_loads, m)
    sched = NonPreemptiveSchedule(inst.num_jobs, m)
    for machine_pos, items in enumerate(rows):
        for item in items:
            for j in groups[item]:
                sched.assign(j, machine_pos)
    return NonPreemptiveResult(schedule=sched, guess=T, lower_bound=lb,
                               makespan=sched.makespan(inst))
