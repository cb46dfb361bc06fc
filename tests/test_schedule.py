"""Tests for the schedule data structures."""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from repro import (InvalidInstanceError, NonPreemptiveSchedule,
                   PreemptiveSchedule, SplittableSchedule)
from repro.core.fastmath import use_fast_paths
from repro.core.schedule import Piece, TimedPiece
from repro.io import schedule_from_dict, schedule_to_dict


class TestPiece:
    def test_amount_coerced_to_fraction(self):
        p = Piece(0, 3)
        assert p.amount == Fraction(3)
        assert isinstance(p.amount, Fraction)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInstanceError):
            Piece(0, 0)
        with pytest.raises(InvalidInstanceError):
            TimedPiece(0, 0, -1)

    def test_timed_piece_end(self):
        tp = TimedPiece(1, Fraction(1, 2), Fraction(3, 2))
        assert tp.end == 2

    def test_timed_piece_rejects_negative_start(self):
        with pytest.raises(InvalidInstanceError):
            TimedPiece(0, -1, 1)


class TestSplittableSchedule:
    def test_loads_and_makespan(self):
        s = SplittableSchedule(3)
        s.assign(0, 0, 5)
        s.assign(0, 1, Fraction(1, 2))
        s.assign(2, 2, 4)
        assert s.load(0) == Fraction(11, 2)
        assert s.load(1) == 0
        assert s.makespan() == Fraction(11, 2)
        assert s.used_machines == [0, 2]

    def test_job_amounts_aggregate_across_machines(self):
        s = SplittableSchedule(2)
        s.assign(0, 7, 2)
        s.assign(1, 7, 3)
        assert s.job_amounts() == {7: Fraction(5)}

    def test_machine_bounds_checked(self):
        s = SplittableSchedule(2)
        with pytest.raises(InvalidInstanceError):
            s.assign(2, 0, 1)
        with pytest.raises(InvalidInstanceError):
            s.assign(-1, 0, 1)

    def test_huge_machine_count_sparse(self):
        s = SplittableSchedule(2**60)
        s.assign(2**59, 0, 1)
        assert s.load(2**59) == 1
        assert s.num_pieces() == 1

    def test_iter_pieces_sorted_by_machine(self):
        s = SplittableSchedule(3)
        s.assign(2, 0, 1)
        s.assign(0, 1, 1)
        machines = [i for i, _ in s.iter_pieces()]
        assert machines == [0, 2]


class TestPreemptiveSchedule:
    def test_makespan_is_latest_end(self):
        s = PreemptiveSchedule(2)
        s.assign(0, 0, 0, 4)
        s.assign(1, 1, 10, 2)
        assert s.makespan() == 12

    def test_job_intervals_sorted(self):
        s = PreemptiveSchedule(2)
        s.assign(0, 0, 5, 1)
        s.assign(1, 0, 0, 2)
        assert s.job_intervals(0) == [(Fraction(0), Fraction(2)),
                                      (Fraction(5), Fraction(6))]

    def test_pieces_on_sorted_by_time(self):
        s = PreemptiveSchedule(1)
        s.assign(0, 0, 5, 1)
        s.assign(0, 1, 0, 2)
        starts = [p.start for p in s.pieces_on(0)]
        assert starts == sorted(starts)


class TestNonPreemptiveSchedule:
    def test_roundtrip(self, small_instance):
        s = NonPreemptiveSchedule(5, 2)
        for j in range(5):
            s.assign(j, j % 2)
        assert s.jobs_on(0) == [0, 2, 4]
        assert s.machine_of(3) == 1
        assert s.makespan(small_instance) == max(
            s.load(0, small_instance), s.load(1, small_instance))

    def test_from_assignment(self, small_instance):
        s = NonPreemptiveSchedule.from_assignment([0, 0, 1, 1, 0], 2)
        assert s.load(0, small_instance) == 5 + 3 + 2
        assert s.load(1, small_instance) == 8 + 6

    def test_classes_per_machine(self, small_instance):
        s = NonPreemptiveSchedule.from_assignment([0, 0, 1, 1, 1], 2)
        cls = s.classes_per_machine(small_instance)
        assert cls[0] == {0}
        assert cls[1] == {1, 2}

    def test_bounds_checked(self):
        s = NonPreemptiveSchedule(2, 2)
        with pytest.raises(InvalidInstanceError):
            s.assign(0, 5)
        with pytest.raises(InvalidInstanceError):
            s.assign(5, 0)


# --------------------------------------------------------------------- #
# column storage: assign() row by row vs the bulk from_units constructor
# --------------------------------------------------------------------- #

MACHINE_POOLS = {1: [0], 5: list(range(5)),
                 2**60: [0, 1, 2**59, 2**60 - 2, 2**60 - 1]}


def _random_rows(seed, m):
    """Rows ``(job, machine, start, amount, den)``, each on its own
    denominator, in a random machine order."""
    rng = np.random.default_rng(seed)
    pool = MACHINE_POOLS[m]
    return [(int(rng.integers(0, 12)), pool[rng.integers(len(pool))],
             int(rng.integers(0, 90)), int(rng.integers(1, 40)),
             int(rng.choice([1, 2, 3, 6, 7, 12])))
            for _ in range(int(rng.integers(0, 40)))]


def _via_assign(rows, m, timed):
    sched = PreemptiveSchedule(m) if timed else SplittableSchedule(m)
    for job, machine, start, amount, den in rows:
        if timed:
            sched.assign(machine, job, Fraction(start, den),
                         Fraction(amount, den))
        else:
            sched.assign(machine, job, Fraction(amount, den))
    return sched


def _via_bulk(rows, m, timed):
    """The same rows over the lcm of their denominators."""
    den = lcm(*(r[4] for r in rows)) if rows else 1
    jobs = [r[0] for r in rows]
    machines = [r[1] for r in rows]
    starts = [r[2] * (den // r[4]) for r in rows]
    amounts = [r[3] * (den // r[4]) for r in rows]
    if timed:
        return PreemptiveSchedule.from_units(m, jobs, machines, starts,
                                             amounts, den=den)
    return SplittableSchedule.from_units(m, jobs, machines, amounts, den=den)


def _rational_rows(sched, timed):
    """The piece columns as exact ``(job, machine, [start,] amount)``
    rows, sorted: equal contents whatever the denominators."""
    cols = sched.piece_columns()
    jobs, machines = cols[0], cols[1]
    values = [list(map(Fraction, nums, dens))
              for nums, dens in zip(cols[2::2], cols[3::2])]
    return sorted(zip(jobs, machines, *values))


def _reads(sched, timed):
    out = {"used": sched.used_machines,
           "iter": list(sched.iter_pieces()),
           "on": {i: sched.pieces_on(i) for i in sched.used_machines},
           "columns": _rational_rows(sched, timed),
           "makespan": sched.makespan(),
           "jobs": list(sched.job_amounts().items()),
           "pieces": sched.num_pieces(),
           "io": schedule_to_dict(sched)}
    if timed:
        out["intervals"] = list(sched.all_job_intervals().items())
        out["job0"] = sched.job_intervals(0)
    else:
        out["loads"] = list(sched.loads().items())
    return out


class TestColumnSchedules:
    @pytest.mark.parametrize("timed", [False, True],
                             ids=["splittable", "preemptive"])
    @pytest.mark.parametrize("m", sorted(MACHINE_POOLS))
    @pytest.mark.parametrize("seed", range(12))
    def test_bulk_matches_assign(self, seed, m, timed):
        rows = _random_rows(seed, m)
        by_assign = _via_assign(rows, m, timed)
        by_bulk = _via_bulk(rows, m, timed)
        reads = _reads(by_assign, timed)
        assert _reads(by_bulk, timed) == reads
        for i in {r[1] for r in rows}:
            assert by_bulk.load(i) == by_assign.load(i)
        # the reference reads agree with the fast ones
        with use_fast_paths(False):
            assert _reads(by_bulk, timed) == reads
            assert _reads(by_assign, timed) == reads
        # repro.io round trip
        again = schedule_from_dict(reads["io"])
        assert schedule_to_dict(again) == reads["io"]
        assert _rational_rows(again, timed) == reads["columns"]

    def test_assign_after_reads_keeps_machine_index(self):
        s = SplittableSchedule.from_units(3, [0, 1], [2, 0], [3, 5], den=2)
        assert s.used_machines == [0, 2]
        s.assign(2, 4, 1)
        s.assign(1, 5, Fraction(1, 3))
        assert s.pieces_on(2) == [Piece(0, Fraction(3, 2)), Piece(4, 1)]
        assert s.used_machines == [0, 1, 2]
        assert s.loads() == {2: Fraction(5, 2), 0: Fraction(5, 2),
                             1: Fraction(1, 3)}

    def test_reads_group_pieces_by_machine(self):
        # machines in order of first use, pieces in insertion order
        s = PreemptiveSchedule.from_units(3, [5, 7, 6], [2, 0, 2],
                                          [0, 0, 4], [4, 1, 2])
        assert list(s.job_amounts()) == [5, 6, 7]
        assert list(s.all_job_intervals()) == [5, 6, 7]
        assert [p.job for _, p in s.iter_pieces()] == [7, 5, 6]

    def test_preemptive_pieces_on_sorted_like_assign(self):
        rows = [(0, 0, 9, 2, 1), (1, 0, 3, 4, 2), (2, 0, 3, 1, 2)]
        by_bulk = _via_bulk(rows, 1, True)
        assert by_bulk.pieces_on(0) == _via_assign(rows, 1, True).pieces_on(0)
        assert [p.job for p in by_bulk.pieces_on(0)] == [2, 1, 0]


# (rows, timed): each entry's first bad row must fail the same way
BAD_ROWS = {
    "machine-negative": ([(0, 0, 0, 1, 1), (1, -1, 0, 1, 1)], False),
    "machine-too-large": ([(0, 5, 0, 1, 1)], False),
    "amount-zero": ([(0, 1, 0, 1, 4), (3, 2, 0, 0, 4)], False),
    "amount-negative": ([(2, 1, 0, -3, 6)], False),
    "machine-before-amount": ([(0, 7, 0, 0, 1)], False),
    "first-bad-row-wins": ([(0, 1, 0, 0, 2), (1, 9, 0, 1, 2)], False),
    "timed-machine": ([(0, 5, 0, 1, 1)], True),
    "timed-amount": ([(0, 1, 2, 0, 3)], True),
    "timed-start": ([(0, 1, 0, 1, 1), (4, 2, -1, 2, 2)], True),
    "amount-before-start": ([(0, 1, -1, -1, 1)], True),
}


class TestColumnErrors:
    @pytest.mark.parametrize("case", sorted(BAD_ROWS))
    def test_bulk_raises_like_assign(self, case):
        rows, timed = BAD_ROWS[case]
        # one denominator for every row, so both sides see equal values
        den = rows[0][4]
        rows = [r[:4] + (den,) for r in rows]
        with pytest.raises(InvalidInstanceError) as via_assign:
            _via_assign(rows, 5, timed)
        with pytest.raises(InvalidInstanceError) as via_bulk:
            _via_bulk(rows, 5, timed)
        assert str(via_bulk.value) == str(via_assign.value)

    def test_bad_columns_rejected(self):
        with pytest.raises(ValueError, match="den"):
            SplittableSchedule.from_units(2, [0], [0], [1], den=0)
        with pytest.raises(ValueError, match="length"):
            SplittableSchedule.from_units(2, [0, 1], [0], [1, 1])
        with pytest.raises(ValueError, match="length"):
            PreemptiveSchedule.from_units(2, [0], [0], [], [1])

    def test_empty_bulk_schedule(self):
        s = PreemptiveSchedule.from_units(4, [], [], [], [])
        assert s.makespan() == 0 and s.used_machines == []
        assert s.num_pieces() == 0
