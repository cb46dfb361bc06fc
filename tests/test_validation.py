"""Tests for the feasibility validators — including that they *reject*."""

from fractions import Fraction

import numpy as np
import pytest

from repro import (InfeasibleScheduleError, Instance, NonPreemptiveSchedule,
                   PreemptiveSchedule, SplittableSchedule, validate,
                   validate_nonpreemptive, validate_preemptive,
                   validate_splittable)
from repro.approx.preemptive import solve_preemptive
from repro.approx.splittable import solve_splittable
from repro.core.batchkernels import preemptive_ok_many, splittable_ok_many
from repro.core.fastmath import use_fast_paths
from repro.workloads import uniform_instance


def _full_splittable(inst: Instance) -> SplittableSchedule:
    s = SplittableSchedule(inst.machines)
    for j, p in enumerate(inst.processing_times):
        s.assign(j % inst.machines, j, p)
    return s


class TestSplittableValidation:
    def test_accepts_complete_schedule(self, small_instance):
        s = SplittableSchedule(2)
        # classes 0,1 on machine 0; class 2 on machine 1
        s.assign(0, 0, 5)
        s.assign(0, 1, 3)
        s.assign(0, 2, 8)
        s.assign(1, 3, 6)
        s.assign(1, 4, 2)
        assert validate_splittable(small_instance, s) == 16

    def test_rejects_missing_amount(self, small_instance):
        s = SplittableSchedule(2)
        s.assign(0, 0, 4)  # job 0 has p=5
        with pytest.raises(InfeasibleScheduleError):
            validate_splittable(small_instance, s)

    def test_rejects_over_assignment(self, small_instance):
        s = _full_splittable(small_instance)
        s.assign(1, 0, 1)  # extra unit of job 0
        with pytest.raises(InfeasibleScheduleError):
            validate_splittable(small_instance, s)

    def test_rejects_class_slot_violation(self):
        inst = Instance((1, 1, 1), (0, 1, 2), 2, 1)
        s = SplittableSchedule(2)
        s.assign(0, 0, 1)
        s.assign(0, 1, 1)  # second class on machine 0, but c=1
        s.assign(1, 2, 1)
        with pytest.raises(InfeasibleScheduleError) as exc:
            validate_splittable(inst, s)
        assert exc.value.machine == 0

    def test_rejects_machine_count_mismatch(self, small_instance):
        s = _full_splittable(small_instance.with_machines(3))
        with pytest.raises(InfeasibleScheduleError):
            validate_splittable(small_instance, s)

    def test_fractional_split_accepted(self):
        inst = Instance((3,), (0,), 2, 1)
        s = SplittableSchedule(2)
        s.assign(0, 0, Fraction(3, 2))
        s.assign(1, 0, Fraction(3, 2))
        assert validate_splittable(inst, s) == Fraction(3, 2)


class TestPreemptiveValidation:
    def test_rejects_same_job_parallelism(self):
        inst = Instance((4,), (0,), 2, 1)
        s = PreemptiveSchedule(2)
        s.assign(0, 0, 0, 2)
        s.assign(1, 0, 1, 2)  # overlaps [1,2) with the first piece
        with pytest.raises(InfeasibleScheduleError) as exc:
            validate_preemptive(inst, s)
        assert "parallel" in str(exc.value)

    def test_accepts_sequential_pieces_across_machines(self):
        inst = Instance((4,), (0,), 2, 1)
        s = PreemptiveSchedule(2)
        s.assign(0, 0, 0, 2)
        s.assign(1, 0, 2, 2)
        assert validate_preemptive(inst, s) == 4

    def test_rejects_machine_overlap(self):
        inst = Instance((2, 2), (0, 0), 1, 1)
        s = PreemptiveSchedule(1)
        s.assign(0, 0, 0, 2)
        s.assign(0, 1, 1, 2)  # overlaps on the same machine
        with pytest.raises(InfeasibleScheduleError):
            validate_preemptive(inst, s)

    def test_touching_endpoints_allowed(self):
        inst = Instance((2, 2), (0, 0), 1, 1)
        s = PreemptiveSchedule(1)
        s.assign(0, 0, 0, 2)
        s.assign(0, 1, 2, 2)
        assert validate_preemptive(inst, s) == 4

    def test_idle_gaps_allowed(self):
        inst = Instance((2,), (0,), 1, 1)
        s = PreemptiveSchedule(1)
        s.assign(0, 0, 10, 2)
        assert validate_preemptive(inst, s) == 12


class TestNonPreemptiveValidation:
    def test_rejects_unassigned_job(self, small_instance):
        s = NonPreemptiveSchedule(5, 2)
        s.assign(0, 0)
        with pytest.raises(InfeasibleScheduleError):
            validate_nonpreemptive(small_instance, s)

    def test_rejects_class_slot_violation(self, small_instance):
        # all three classes on machine 0 with c=2
        s = NonPreemptiveSchedule.from_assignment([0, 0, 0, 0, 0], 2)
        with pytest.raises(InfeasibleScheduleError):
            validate_nonpreemptive(small_instance, s)

    def test_accepts_and_returns_makespan(self, small_instance):
        s = NonPreemptiveSchedule.from_assignment([0, 0, 0, 1, 1], 2)
        assert validate_nonpreemptive(small_instance, s) == 16

    def test_dispatch(self, small_instance):
        s = NonPreemptiveSchedule.from_assignment([0, 0, 0, 1, 1], 2)
        assert validate(small_instance, s) == 16
        with pytest.raises(TypeError):
            validate(small_instance, object())


# --------------------------------------------------------------------- #
# the int64 fast paths against the scalar reference
# --------------------------------------------------------------------- #

class TestSplittableValidationReference(TestSplittableValidation):
    """Every splittable case again, on the scalar reference path."""

    @pytest.fixture(autouse=True)
    def _reference(self):
        with use_fast_paths(False):
            yield


class TestPreemptiveValidationReference(TestPreemptiveValidation):
    """Every preemptive case again, on the scalar reference path."""

    @pytest.fixture(autouse=True)
    def _reference(self):
        with use_fast_paths(False):
            yield


def _outcome(validator, inst, sched) -> tuple:
    """What a validator does: its makespan, or the exception it raises
    with every field a caller can read."""
    try:
        makespan = validator(inst, sched)
    except InfeasibleScheduleError as exc:
        return ("raise", type(exc), str(exc), exc.job, exc.machine)
    return ("ok", type(makespan), makespan)


def _on_both_paths(validator, inst, sched) -> tuple:
    with use_fast_paths(True):
        fast = _outcome(validator, inst, sched)
    with use_fast_paths(False):
        reference = _outcome(validator, inst, sched)
    assert fast == reference
    return fast


_SMALL = Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)
#: 16 distinct primes: as piece denominators their LCM, the product, is
#: about 3.3e19, past the int64 guard.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _splittable(m: int, pieces) -> SplittableSchedule:
    s = SplittableSchedule(m)
    for machine, job, amount in pieces:
        s.assign(machine, job, amount)
    return s


def _preemptive(m: int, pieces) -> PreemptiveSchedule:
    s = PreemptiveSchedule(m)
    for machine, job, start, amount in pieces:
        s.assign(machine, job, start, amount)
    return s


_SMALL_SPLIT = [(0, 0, 5), (0, 1, 3), (0, 2, 8), (1, 3, 6), (1, 4, 2)]
_SMALL_TIMED = [(0, 0, 0, 5), (0, 1, 5, 3), (0, 2, 8, 8), (1, 3, 0, 6),
                (1, 4, 6, 2)]

#: name -> (instance, schedule, expected makespan or error fragment)
SPLITTABLE_CASES = {
    "missing-amount": (_SMALL, _splittable(2, [(0, 0, 4)]),
                       "scheduled amount 4 != processing time 5"),
    "over-amount": (_SMALL, _splittable(2, _SMALL_SPLIT + [(1, 0, 1)]),
                    "scheduled amount 6 != processing time 5"),
    "unknown-job": (_SMALL, _splittable(2, _SMALL_SPLIT + [(1, 7, 1)]),
                    "unknown job index 7"),
    "class-slots": (Instance((1, 1, 1), (0, 1, 2), 2, 1),
                    _splittable(2, [(0, 0, 1), (0, 1, 1), (1, 2, 1)]),
                    "only 1 class slots"),
    "complete": (_SMALL, _splittable(2, _SMALL_SPLIT), Fraction(16)),
    "fractional-split": (
        Instance((3, 2), (0, 0), 2, 1),
        _splittable(2, [(0, 0, Fraction(3, 2)), (1, 0, Fraction(3, 2)),
                        (0, 1, Fraction(2, 3)), (1, 1, Fraction(4, 3))]),
        Fraction(17, 6)),
    "int64-large-p": (Instance((2 ** 61, 3), (0, 1), 2, 1),
                      _splittable(2, [(0, 0, 2 ** 61), (1, 1, 3)]),
                      Fraction(2 ** 61)),
    "int64-large-p-missing": (
        Instance((2 ** 61, 3), (0, 1), 2, 1),
        _splittable(2, [(0, 0, 2 ** 61 - 1), (1, 1, 3)]),
        "scheduled amount 2305843009213693951 != processing time"),
    "int64-overflowing-p": (Instance((2 ** 70, 1), (0, 1), 2, 1),
                            _splittable(2, [(0, 0, 2 ** 70), (1, 1, 1)]),
                            Fraction(2 ** 70)),
    "int64-coprime-denominators": (
        Instance((1,) * len(_PRIMES), (0,) * len(_PRIMES), 2, 1),
        _splittable(2, [(i, j, Fraction(1, q) if i == 0
                         else Fraction(q - 1, q))
                        for j, q in enumerate(_PRIMES) for i in (0, 1)]),
        sum((Fraction(q - 1, q) for q in _PRIMES), Fraction(0))),
}

PREEMPTIVE_CASES = {
    "missing-amount": (_SMALL, _preemptive(2, _SMALL_TIMED[1:]),
                       "scheduled amount 0 != processing time 5"),
    "over-amount": (_SMALL, _preemptive(2, _SMALL_TIMED + [(1, 0, 8, 1)]),
                    "scheduled amount 6 != processing time 5"),
    "unknown-job": (_SMALL, _preemptive(2, _SMALL_TIMED + [(1, 9, 8, 1)]),
                    "unknown job index 9"),
    "class-slots": (Instance((1, 1), (0, 1), 1, 1),
                    _preemptive(1, [(0, 0, 0, 1), (0, 1, 1, 1)]),
                    "only 1 class slots"),
    "machine-overlap": (Instance((2, 2), (0, 0), 1, 1),
                        _preemptive(1, [(0, 0, 0, 2), (0, 1, 1, 2)]),
                        "overlap on the same machine: [0,2) vs [1,3)"),
    "same-job-parallel": (Instance((4,), (0,), 2, 1),
                          _preemptive(2, [(0, 0, 0, 2), (1, 0, 1, 2)]),
                          "runs in parallel with itself"),
    "touching-endpoints": (Instance((2, 2), (0, 0), 1, 1),
                           _preemptive(1, [(0, 1, 2, 2), (0, 0, 0, 2)]),
                           Fraction(4)),
    "idle-gaps": (Instance((2, 1), (0, 0), 1, 1),
                  _preemptive(1, [(0, 0, 10, 2), (0, 1, 3, 1)]),
                  Fraction(12)),
    "fractional-split": (
        Instance((3,), (0,), 2, 1),
        _preemptive(2, [(0, 0, Fraction(1, 3), Fraction(3, 2)),
                        (1, 0, Fraction(11, 6), Fraction(3, 2))]),
        Fraction(10, 3)),
    "int64-large-p": (Instance((2 ** 61, 3), (0, 1), 2, 1),
                      _preemptive(2, [(0, 0, 0, 2 ** 61), (1, 1, 5, 3)]),
                      Fraction(2 ** 61)),
    "int64-large-p-overlap": (
        Instance((2 ** 61, 3), (0, 0), 1, 1),
        _preemptive(1, [(0, 0, 0, 2 ** 61), (0, 1, 5, 3)]),
        "overlap on the same machine"),
    "int64-overflowing-start": (Instance((1, 1), (0, 1), 2, 1),
                                _preemptive(2, [(0, 0, 2 ** 70, 1),
                                                (1, 1, 0, 1)]),
                                Fraction(2 ** 70 + 1)),
    "int64-coprime-starts": (
        Instance((1,) * len(_PRIMES), (0,) * len(_PRIMES), len(_PRIMES), 1),
        _preemptive(len(_PRIMES), [(j, j, Fraction(1, q), 1)
                                   for j, q in enumerate(_PRIMES)]),
        Fraction(3, 2)),
}


class TestFastReferenceParity:
    """The fast paths return the reference's makespan and raise its
    exception, message and fields included, on every case."""

    @pytest.mark.parametrize("case", sorted(SPLITTABLE_CASES))
    def test_splittable(self, case):
        inst, sched, expected = SPLITTABLE_CASES[case]
        self._check(validate_splittable, inst, sched, expected)

    @pytest.mark.parametrize("case", sorted(PREEMPTIVE_CASES))
    def test_preemptive(self, case):
        inst, sched, expected = PREEMPTIVE_CASES[case]
        self._check(validate_preemptive, inst, sched, expected)

    @staticmethod
    def _check(validator, inst, sched, expected):
        outcome = _on_both_paths(validator, inst, sched)
        if isinstance(expected, str):
            assert outcome[0] == "raise" and expected in outcome[2]
        else:
            assert outcome == ("ok", Fraction, expected)

    def test_int64_cases_trip_the_guard(self):
        # the int64 cases exercise the fallback, not the kernel
        for cases, kernel in ((SPLITTABLE_CASES, splittable_ok_many),
                              (PREEMPTIVE_CASES, preemptive_ok_many)):
            for name, (inst, sched, _) in cases.items():
                cell = (*sched.piece_columns(), inst.processing_times,
                        inst.classes, inst.machines, inst.class_slots)
                (makespan,) = kernel([cell])
                if name.startswith("int64-"):
                    assert makespan is None, name

    def test_kernel_accepts_the_clean_cases(self):
        for cases, kernel in ((SPLITTABLE_CASES, splittable_ok_many),
                              (PREEMPTIVE_CASES, preemptive_ok_many)):
            for name, (inst, sched, expected) in cases.items():
                if isinstance(expected, str) or name.startswith("int64-"):
                    continue
                cell = (*sched.piece_columns(), inst.processing_times,
                        inst.classes, inst.machines, inst.class_slots)
                assert kernel([cell]) == [expected], name

    @pytest.mark.parametrize("seed", range(4))
    def test_solver_schedules_and_mutations(self, seed):
        # real schedules and random corruptions of them: whatever the
        # reference decides, the fast path decides identically
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=24, C=5, m=4, c=2, p_hi=30)
        spl = solve_splittable(inst).schedule
        pre = solve_preemptive(inst).schedule
        assert _on_both_paths(validate_splittable, inst, spl)[0] == "ok"
        assert _on_both_paths(validate_preemptive, inst, pre)[0] == "ok"
        for _ in range(40):
            _on_both_paths(validate_splittable, inst,
                           _mutate_splittable(spl, rng))
            _on_both_paths(validate_preemptive, inst,
                           _mutate_preemptive(pre, rng))


def _mutate_splittable(sched: SplittableSchedule,
                       rng: np.random.Generator) -> SplittableSchedule:
    pieces = [(i, p.job, p.amount) for i, p in sched.iter_pieces()]
    k = int(rng.integers(len(pieces)))
    i, job, amount = pieces[k]
    kind = int(rng.integers(4))
    if kind == 0:
        pieces[k] = (int(rng.integers(sched.num_machines)), job, amount)
    elif kind == 1:
        pieces[k] = (i, job, amount + Fraction(1, int(rng.integers(1, 5))))
    elif kind == 2:
        half = amount / 2
        pieces[k:k + 1] = [(i, job, half),
                           (int(rng.integers(sched.num_machines)), job,
                            half)]
    else:
        del pieces[k]
    return _splittable(sched.num_machines, pieces)


def _mutate_preemptive(sched: PreemptiveSchedule,
                       rng: np.random.Generator) -> PreemptiveSchedule:
    pieces = [(i, p.job, p.start, p.amount) for i, p in sched.iter_pieces()]
    k = int(rng.integers(len(pieces)))
    i, job, start, amount = pieces[k]
    kind = int(rng.integers(4))
    if kind == 0:
        pieces[k] = (int(rng.integers(sched.num_machines)), job, start,
                     amount)
    elif kind == 1:
        shift = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        pieces[k] = (i, job, max(start + shift, Fraction(0)), amount)
    elif kind == 2:
        half = amount / 2
        pieces[k:k + 1] = [(i, job, start, half),
                           (int(rng.integers(sched.num_machines)), job,
                            start + half, half)]
    else:
        pieces[k] = (i, job, start, amount + 1)
    return _preemptive(sched.num_machines, pieces)
