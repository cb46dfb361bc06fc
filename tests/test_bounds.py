"""Tests for the lower/upper bound machinery."""

from fractions import Fraction
from math import ceil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Instance
from repro.approx.nonpreemptive import solve_nonpreemptive
from repro.core.bounds import (area_bound, class_slot_bound,
                               nonpreemptive_class_count,
                               nonpreemptive_lower_bound,
                               nonpreemptive_slot_bound, pmax_bound,
                               preemptive_lower_bound,
                               presorted_class_count,
                               splittable_lower_bound, trivial_upper_bound)
from repro.core.fastmath import use_fast_paths
from repro.exact import opt_nonpreemptive, opt_preemptive, opt_splittable
from repro.fuzz.generators import GENERATORS, draw_case
from repro.workloads import uniform_instance


class TestBasicBounds:
    def test_area(self, small_instance):
        assert area_bound(small_instance) == Fraction(24, 2)

    def test_pmax(self, small_instance):
        assert pmax_bound(small_instance) == 8

    def test_trivial_upper_bound(self, small_instance):
        # c=2, max class load 8
        assert trivial_upper_bound(small_instance) == 16


class TestClassSlotBound:
    def test_single_class_forced_split(self):
        # one class of load 12, m=3, c=1: needs ceil(12/T) <= 3 -> T >= 4
        inst = Instance((4, 4, 4), (0, 0, 0), 3, 1)
        assert class_slot_bound(inst) == 4

    def test_no_splitting_needed(self):
        inst = Instance((5, 5), (0, 1), 2, 1)
        # one slot per class suffices at T = 5 (border P_u/1)
        assert class_slot_bound(inst) <= 5

    def test_infeasible_signalled(self):
        inst = Instance((1, 1, 1), (0, 1, 2), 1, 2)  # C=3 > c*m=2
        assert class_slot_bound(inst) == -1

    def test_huge_machine_count_fast(self):
        inst = Instance(tuple([1000] * 10), tuple(range(10)), 2**50, 2)
        b = class_slot_bound(inst)
        assert b > 0  # completes quickly and returns a positive bound


class TestNonPreemptiveCounting:
    def test_area_count(self):
        # P=10, T=4 -> ceil(10/4)=3; no job > T/2=2
        assert nonpreemptive_class_count([2, 2, 2, 2, 2], 4) == 3

    def test_big_jobs_count(self):
        # two jobs > T/2 must be separated even though area fits
        assert nonpreemptive_class_count([6, 6], 10) == 2

    def test_pairing_reduces_count(self):
        # big job 6 (> T/2=5), mid job 4 in (T/3, T/2] pairs on top: one slot
        assert nonpreemptive_class_count([6, 4], 10) == 1

    def test_leftover_mids_two_per_slot(self):
        # four mid jobs in (T/3, T/2]: ceil(4/2) = 2 slots
        assert nonpreemptive_class_count([4, 4, 4, 4], 10) == 2

    def test_minimum_one(self):
        assert nonpreemptive_class_count([1], 100) == 1

    def test_rejects_nonpositive_T(self):
        with pytest.raises(ValueError):
            nonpreemptive_class_count([1], 0)


class TestBoundsAreLowerBounds:
    """The certified bounds must never exceed the exact optimum."""

    @pytest.mark.parametrize("seed", range(8))
    def test_splittable(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=8, C=3, m=3, c=2, p_hi=15)
        assert float(splittable_lower_bound(inst)) <= opt_splittable(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_preemptive(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=8, C=3, m=3, c=2, p_hi=15)
        assert float(preemptive_lower_bound(inst)) <= opt_preemptive(inst) + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_nonpreemptive(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=8, C=3, m=3, c=2, p_hi=15)
        assert nonpreemptive_lower_bound(inst) <= opt_nonpreemptive(inst)

    def test_regime_ordering(self):
        rng = np.random.default_rng(99)
        inst = uniform_instance(rng, n=8, C=3, m=3, c=2, p_hi=15)
        assert (opt_splittable(inst) <= opt_preemptive(inst) + 1e-9
                <= opt_nonpreemptive(inst) + 2e-9)


class TestSlotBoundNonPreemptive:
    def test_matches_simple_case(self):
        # two jobs of 6 in one class, m=2, c=1: T must be >= 6
        inst = Instance((6, 6), (0, 0), 2, 1)
        assert nonpreemptive_slot_bound(inst) == 6

    def test_infeasible(self):
        inst = Instance((1, 1, 1), (0, 1, 2), 1, 2)
        assert nonpreemptive_slot_bound(inst) == -1

    def test_threshold_probe_rejected(self):
        # 3 x 5 in one class, 2 slots: ceil(15/T) <= 2 first at T = 8,
        # where all three jobs exceed T/2; from T = 10 they pair as mids
        inst = Instance((5, 5, 5), (0, 0, 0), 2, 1)
        for fast in (True, False):
            with use_fast_paths(fast):
                assert nonpreemptive_slot_bound(inst) == 10


@given(st.lists(st.integers(1, 60), min_size=1, max_size=10))
@settings(max_examples=300, deadline=None)
def test_class_count_never_increases_from_pmax(p):
    """``C_u(T) = max(ceil(P/T), C2, 1)`` never increases as ``T`` grows,
    for ``T >= max(p)``: the guess searches bisect over that range.

    ``C1 = ceil(P/T)`` cannot rise. ``C2 = k + ceil(l/2) = ceil(f/2)`` with
    ``f = 2 * |big| + |mid| - M``, ``M`` the number of pairs the greedy
    forms. The mid jobs that fit next to a big job ``b`` are those ``<= T
    - b``, a prefix of the ascending mid jobs; the prefixes are nested,
    smallest for the largest ``b``, which the greedy serves first, so
    ``M`` is a maximum matching. From ``T`` to ``T + 1``: every prefix
    grows, so ``M`` cannot fall; a mid job with ``3p = T + 1`` turns
    small, ``|mid|`` falls by one and ``M`` by at most one; a big job with
    ``2p = T + 1`` turns mid, ``2 * |big|`` falls by two, ``|mid|`` rises
    by one and ``M`` falls by at most one. No step raises ``f``.
    """
    pjs = sorted(p)
    total = sum(pjs)
    counts = [presorted_class_count(pjs, total, T)
              for T in range(pjs[-1], 3 * pjs[-1] + 3)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def _full_bisection(inst: Instance, lo: int) -> int | None:
    """The Theorem 6 search as a plain bisection over all of ``[lo,
    UB]``: the procedure the threshold-first search must agree with."""
    per_class = [sorted(inst.processing_times[j]
                        for j in inst.jobs_by_class[u])
                 for u in range(inst.num_classes)]
    budget = inst.class_slots * inst.machines

    def feasible(T: int) -> bool:
        return sum(presorted_class_count(pjs, sum(pjs), T)
                   for pjs in per_class) <= budget

    hi = max(lo, ceil(trivial_upper_bound(inst)))
    if not feasible(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_guess_searches_match_full_bisection(family):
    for i in range(10):
        inst = draw_case(np.random.default_rng([606, i]),
                         only=(family,)).instance.normalized()
        slot = _full_bisection(inst, inst.pmax)
        lb = max(inst.pmax, ceil(area_bound(inst)))
        guess = _full_bisection(inst, lb) if inst.is_feasible() else None
        for fast in (True, False):
            with use_fast_paths(fast):
                assert nonpreemptive_slot_bound(inst) == \
                    (-1 if slot is None else slot)
                if guess is not None:
                    assert solve_nonpreemptive(inst).guess == guess
