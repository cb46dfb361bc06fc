"""Lower and upper bounds on the optimal makespan.

These bounds drive the binary searches of every algorithm in the paper and
double as certified baselines for the empirical approximation-ratio
experiments (ratio = ALG / LB is a *conservative over-estimate* of the true
ratio, so observed ratios below the proven bound confirm the theorem).

Bounds implemented:

* ``area``           — ``sum p_j / m`` (all regimes).
* ``pmax``           — largest job (preemptive & non-preemptive regimes; in
  the splittable regime jobs may run in parallel with themselves, so pmax is
  *not* a lower bound there).
* ``class-slot``     — the border bound of Lemma 2: any schedule with
  makespan ``T`` uses at least ``ceil(P_u / T)`` class slots for class ``u``
  and there are only ``c * m`` class slots overall. The smallest ``T``
  passing this counting test lower-bounds the optimum in *all three*
  regimes (splitting classes is a relaxation of the other two).
* ``large-job slot`` — the non-preemptive refinement of Theorem 6: jobs
  larger than ``T/2`` need distinct slots; at most one extra job in
  ``(T/3, T/2]`` fits on top of each, and leftover ``(T/3, T/2]`` jobs pack
  at most two per slot.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from math import ceil

from .fastmath import fast_paths_enabled
from .instance import Instance

__all__ = [
    "area_bound",
    "pmax_bound",
    "class_slot_bound",
    "nonpreemptive_class_count",
    "presorted_class_count",
    "smallest_slot_guess",
    "nonpreemptive_slot_bound",
    "splittable_lower_bound",
    "preemptive_lower_bound",
    "nonpreemptive_lower_bound",
    "trivial_upper_bound",
]


def area_bound(inst: Instance) -> Fraction:
    """``sum_j p_j / m``: perfect load balance (valid in every regime)."""
    return Fraction(inst.total_load, inst.machines)


def pmax_bound(inst: Instance) -> int:
    """``max_j p_j``: a single job cannot run in parallel with itself.

    Valid for the preemptive and non-preemptive regimes only.
    """
    return inst.pmax


def class_slot_bound(inst: Instance) -> Fraction:
    """Smallest ``T`` with ``sum_u ceil(P_u / T) <= c * m``.

    The optimum of every regime is at least this value: any schedule with
    makespan ``T`` uses at least ``ceil(P_u / T)`` class slots for class
    ``u`` and only ``c * m`` exist. Returns ``-1`` when no ``T`` works
    (``C > c * m``: the instance admits no schedule at all).
    """
    from ..approx.borders import smallest_feasible_border

    inst = inst.normalized()
    loads = inst.class_loads()
    budget = inst.class_slots * inst.machines
    border = smallest_feasible_border(loads, inst.machines, budget)
    if border is None:
        return Fraction(-1)
    return border


def nonpreemptive_class_count(pjs: list[int], T: int) -> int:
    """``C_u = max(C1_u, C2_u)`` of Theorem 6 for one class.

    ``C1_u = ceil(P_u / T)`` (area); ``C2_u = k_u + ceil(l_u / 2)`` where
    ``k_u`` counts jobs ``> T/2`` and ``l_u`` counts jobs in ``(T/3, T/2]``
    left over after greedily pairing the largest fitting one on top of each
    ``> T/2`` job.
    """
    return presorted_class_count(sorted(pjs), sum(pjs), T)


def presorted_class_count(pjs_asc: list[int], total: int, T: int) -> int:
    """:func:`nonpreemptive_class_count` for callers that loop over guesses
    (the Theorem 6 guess searches): takes the job sizes pre-sorted
    ascending plus their precomputed sum, so the per-guess work drops to
    two bisections and the pairing scan instead of a sort and a sum.

    The count never increases as ``T`` grows, which makes the bisection
    in :func:`smallest_slot_guess` exact: ``ceil(P/T)`` cannot rise, and
    the greedy pairing is a maximum matching on nested sets, so ``2k +
    |mid| - pairs`` never rises either (the property test in
    ``tests/test_bounds.py`` spells the argument out).
    """
    if T <= 0:
        raise ValueError("T must be positive")
    c1 = -((-total) // T)
    # 2*p > T  <=>  p > T/2 exactly for integers; with pjs ascending the
    # big jobs are the suffix from i and the (T/3, T/2] jobs are pjs[j:i]
    i = bisect_right(pjs_asc, T, key=lambda p: 2 * p)
    j = bisect_right(pjs_asc, T, key=lambda p: 3 * p)
    big = pjs_asc[i:][::-1]
    mid = pjs_asc[j:i][::-1]
    k_u = len(big)
    # Greedy pairing: for each big job (any order — largest-first matches the
    # paper), put the largest mid job that still fits (big + mid <= T).
    remaining = mid
    for b in big:
        # find largest mid job fitting next to b
        for idx, q in enumerate(remaining):
            if b + q <= T:
                del remaining[idx]
                break
    l_u = len(remaining)
    c2 = k_u + -((-l_u) // 2)
    return max(c1, c2, 1)


def smallest_slot_guess(per_class_asc: list[list[int]],
                        per_class_sum: list[int], budget: int, lo: int,
                        hi: int) -> int | None:
    """The Theorem 6 guess search: the smallest integral ``T`` in ``[lo,
    hi]`` with ``sum_u C_u(T) <= budget``, or ``None`` when ``hi`` fails.

    ``per_class_asc`` holds each class's job sizes sorted ascending and
    ``per_class_sum`` their sums. ``C_u`` never increases as ``T`` grows
    (:func:`presorted_class_count`), so a bisection over ``[lo, hi]`` is
    exact. The fast path first probes ``max(lo, ceil(T0))``, with ``T0``
    the class-slot threshold of
    :func:`~repro.approx.borders.count_threshold`: ``C_u(T) >=
    ceil(P_u/T)``, so no smaller integer passes, and the probe usually
    does. Only when it is rejected does the bisection go on above it; the
    reference (``use_fast_paths(False)``) bisects all of ``[lo, hi]``.
    Both return the same ``T``.
    """
    def feasible(T: int) -> bool:
        total = 0
        for pjs, s in zip(per_class_asc, per_class_sum):
            total += presorted_class_count(pjs, s, T)
            if total > budget:
                return False
        return True

    if fast_paths_enabled():
        from ..approx.borders import count_threshold

        t0 = count_threshold(per_class_sum, budget)
        # no integer below ceil(T0) passes (C_u(T) >= ceil(P_u/T)), and a
        # passing probe <= hi means hi passes too
        probe = hi + 1 if t0 is None else max(lo, ceil(t0))
        if probe <= hi:
            if feasible(probe):
                return probe
            lo = probe + 1
    if not feasible(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def nonpreemptive_slot_bound(inst: Instance) -> int:
    """Smallest integral ``T >= pmax`` with ``sum_u C_u(T) <= c * m``."""
    inst = inst.normalized()
    per_class = [
        sorted(inst.processing_times[j] for j in inst.jobs_by_class[u])
        for u in range(inst.num_classes)
    ]
    lo = inst.pmax
    T = smallest_slot_guess(per_class, [sum(pjs) for pjs in per_class],
                            inst.class_slots * inst.machines, lo,
                            max(lo, ceil(trivial_upper_bound(inst))))
    return -1 if T is None else T  # None: infeasible instance, C > c*m


def splittable_lower_bound(inst: Instance) -> Fraction:
    """Certified lower bound for the splittable optimum."""
    inst = inst.normalized()
    slot = class_slot_bound(inst)
    if slot < 0:
        return Fraction(-1)
    return max(area_bound(inst), slot)


def preemptive_lower_bound(inst: Instance) -> Fraction:
    """Certified lower bound for the preemptive optimum."""
    inst = inst.normalized()
    slot = class_slot_bound(inst)
    if slot < 0:
        return Fraction(-1)
    return max(area_bound(inst), Fraction(pmax_bound(inst)), slot)


def nonpreemptive_lower_bound(inst: Instance) -> int:
    """Certified integral lower bound for the non-preemptive optimum."""
    inst = inst.normalized()
    slot = nonpreemptive_slot_bound(inst)
    if slot < 0:
        return -1
    area = area_bound(inst)
    return max(ceil(area), pmax_bound(inst), slot)


def trivial_upper_bound(inst: Instance) -> Fraction:
    """``c * max_u P_u`` (the paper's UB) — valid in every regime, since
    round-robin over classes fits ``c`` whole classes per machine."""
    inst = inst.normalized()
    return Fraction(inst.class_slots * max(inst.class_loads()))
