"""The 2-approximation for preemptive CCS (Algorithm 1 + 2 / Theorem 5).

Identical to the splittable algorithm except:

* the lower bound also includes ``pmax`` (a job cannot run in parallel with
  itself), which guarantees every job is cut **at most once**;
* after round robin, if any sub-class has load exactly ``T`` (i.e. cutting
  happened), the schedule *above* the first class of every machine is
  shifted to start at time ``T`` (Algorithm 2). Together with the
  concatenation order inside sub-classes — a cut job's tail is the *last*
  piece of its full sub-class (ending exactly at ``T``) and its head the
  *first* piece of the following sub-class — this makes same-job pieces
  non-overlapping;
* ``m >= n`` is solved optimally by giving every job its own machine
  (makespan ``pmax`` = OPT), so the effective machine count is at most
  ``n`` and schedules are always explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from ..core.bounds import area_bound
from ..core.errors import InfeasibleInstanceError
from ..core.fastmath import fast_paths_enabled
from ..core.instance import Instance
from ..core.schedule import PreemptiveSchedule
from .borders import advanced_binary_search
from .round_robin import round_robin_assignment
from .splitting import cut_units, split_classes

__all__ = ["PreemptiveResult", "solve_preemptive"]


@dataclass(frozen=True)
class PreemptiveResult:
    """Outcome of the preemptive 2-approximation (see Theorem 5)."""

    schedule: PreemptiveSchedule
    guess: Fraction
    lower_bound: Fraction
    makespan: Fraction
    optimal: bool = False

    @property
    def ratio_certificate(self) -> Fraction:
        return self.makespan / self.guess if self.guess > 0 else Fraction(0)


def solve_preemptive(inst: Instance) -> PreemptiveResult:
    """Run the preemptive 2-approximation on ``inst``."""
    inst = inst.normalized()
    inst.require_feasible()
    if inst.machines >= inst.num_jobs:
        return _one_job_per_machine(inst)

    loads = inst.class_loads()
    m, c = inst.machines, inst.class_slots
    lb = max(area_bound(inst), Fraction(inst.pmax))
    T = advanced_binary_search(loads, m, c * m, lb)
    if T is None:    # pragma: no cover — ruled out by require_feasible
        raise InfeasibleInstanceError(inst.num_classes, c * m)

    build = _build if fast_paths_enabled() else _build_reference
    sched, makespan = build(inst, T)
    return PreemptiveResult(schedule=sched, guess=T, lower_bound=lb,
                            makespan=makespan)


def _build(inst: Instance, T: Fraction
           ) -> tuple[PreemptiveSchedule, Fraction]:
    """Round robin the sub-classes, with Algorithm 2's shift, on the
    cut's integer units of ``1/den``; one bulk call emits the schedule.
    Returns it with its makespan, the largest final machine clock."""
    num, den = T.numerator, T.denominator
    cut = cut_units(inst, num, den)
    bounds, loads = cut.bounds, cut.loads
    any_full = num in loads
    jobs: list[int] = []
    machines: list[int] = []
    starts: list[int] = []
    amounts: list[int] = []
    makespan = 0                    # units of 1/den, like every clock
    for machine_pos, items in enumerate(
            round_robin_assignment(loads, inst.machines)):
        clock = 0
        for rank, item in enumerate(items):
            if rank == 1 and any_full and clock < num:
                clock = num         # Algorithm 2, see _build_reference
            lo, hi = bounds[item], bounds[item + 1]
            jobs += cut.jobs[lo:hi]
            amounts += cut.units[lo:hi]
            starts += accumulate(cut.units[lo:hi - 1], initial=clock)
            clock += loads[item]
        machines += [machine_pos] * (len(jobs) - len(machines))
        makespan = max(makespan, clock)
    sched = PreemptiveSchedule.from_units(inst.machines, jobs, machines,
                                          starts, amounts, den=den)
    return sched, Fraction(makespan, den)


def _build_reference(inst: Instance, T: Fraction
                     ) -> tuple[PreemptiveSchedule, Fraction]:
    """The per-piece ``Fraction`` construction (reference path)."""
    subs = split_classes(inst, T)
    any_full = any(s.is_full for s in subs)
    sizes = [s.load for s in subs]
    rows = round_robin_assignment(sizes, inst.machines)

    sched = PreemptiveSchedule(inst.machines)
    # a machine's pieces run back to back, so its final clock is its
    # last piece's end and the largest final clock is the makespan
    makespan = Fraction(0)
    for machine_pos, items in enumerate(rows):
        clock = Fraction(0)
        for rank, item in enumerate(items):
            if rank == 1 and any_full:
                # Algorithm 2: everything above the first (largest) class
                # starts at T. clock <= T always holds here because the
                # first class has load <= T.
                clock = max(clock, T)
            for job, amount in subs[item].pieces:
                sched.assign(machine_pos, job, clock, amount)
                clock += amount
        makespan = max(makespan, clock)
    return sched, makespan


def _one_job_per_machine(inst: Instance) -> PreemptiveResult:
    """With m >= n every job gets its own machine — optimal (makespan pmax)."""
    n = inst.num_jobs
    if fast_paths_enabled():
        sched = PreemptiveSchedule.from_units(
            inst.machines, range(n), range(n), [0] * n,
            inst.processing_times)
    else:
        sched = PreemptiveSchedule(inst.machines)
        for j, p in enumerate(inst.processing_times):
            sched.assign(j, j, 0, p)
    lb = Fraction(inst.pmax)
    return PreemptiveResult(schedule=sched, guess=lb, lower_bound=lb,
                            makespan=lb, optimal=True)
