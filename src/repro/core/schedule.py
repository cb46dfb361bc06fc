"""Schedule representations for the three CCS regimes.

All quantities that may be fractional (piece sizes, start times) are exact
``fractions.Fraction`` values — feasibility is never decided in floating
point. Machines are indexed ``0..m-1`` but schedules store only *non-empty*
machines sparsely, so an instance with ``m = 2**60`` machines is
representable as long as only polynomially many machines receive load (the
compact big-``m`` representation in :mod:`repro.approx.compact` covers the
case where exponentially many machines receive load).

Classes here are pure data + cheap derived quantities; the authoritative
feasibility checks live in :mod:`repro.core.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInstanceError
from .fastmath import (INT64_SAFE, fast_paths_enabled, max_fraction,
                       sum_fractions)
from .instance import Instance

__all__ = [
    "Piece",
    "TimedPiece",
    "SplittableSchedule",
    "PreemptiveSchedule",
    "NonPreemptiveSchedule",
]

Rational = Fraction | int


def _frac(x: Rational) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Piece:
    """A piece of a job: ``amount`` units of processing of job ``job``."""

    job: int
    amount: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "amount", _frac(self.amount))
        if self.amount <= 0:
            raise InvalidInstanceError(
                f"piece of job {self.job} has non-positive amount {self.amount}")


@dataclass(frozen=True)
class TimedPiece:
    """A job piece with an explicit start time (preemptive regime)."""

    job: int
    start: Fraction
    amount: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _frac(self.start))
        object.__setattr__(self, "amount", _frac(self.amount))
        if self.amount <= 0:
            raise InvalidInstanceError(
                f"piece of job {self.job} has non-positive amount {self.amount}")
        if self.start < 0:
            raise InvalidInstanceError(
                f"piece of job {self.job} starts at negative time {self.start}")

    @property
    def end(self) -> Fraction:
        return self.start + self.amount


class _SparseMachineSchedule:
    """Shared plumbing: a sparse ``machine -> pieces`` mapping."""

    def __init__(self, num_machines: int) -> None:
        if num_machines < 1:
            raise InvalidInstanceError("schedule needs at least one machine")
        self.num_machines = num_machines

    def _check_machine(self, i: int) -> None:
        if i < 0 or i >= self.num_machines:
            raise InvalidInstanceError(
                f"machine index {i} outside 0..{self.num_machines - 1}")


class SplittableSchedule(_SparseMachineSchedule):
    """Assignment of job pieces to machines (pieces may run in parallel).

    The makespan is the maximum total assigned amount over machines.
    """

    def __init__(self, num_machines: int) -> None:
        super().__init__(num_machines)
        self._machines: dict[int, list[Piece]] = {}

    # construction -------------------------------------------------------
    def assign(self, machine: int, job: int, amount: Rational) -> None:
        """Place ``amount`` units of ``job`` on ``machine``."""
        self._check_machine(machine)
        self._machines.setdefault(machine, []).append(Piece(job, _frac(amount)))

    # queries ------------------------------------------------------------
    @property
    def used_machines(self) -> list[int]:
        """Sorted indices of machines with at least one piece."""
        return sorted(self._machines)

    def pieces_on(self, machine: int) -> list[Piece]:
        return list(self._machines.get(machine, []))

    def iter_pieces(self) -> Iterator[tuple[int, Piece]]:
        """Yield ``(machine, piece)`` for every piece."""
        for i in sorted(self._machines):
            for piece in self._machines[i]:
                yield i, piece

    def piece_columns(self) -> tuple[list[int], list[int], list[int],
                                     list[int]]:
        """Every piece as parallel columns ``(jobs, machines,
        amount_numerators, amount_denominators)``, in no particular
        order: the input of the int64 validation sweep."""
        pieces = [p for ps in self._machines.values() for p in ps]
        amounts = [p.amount for p in pieces]
        return ([p.job for p in pieces],
                [i for i, ps in self._machines.items() for _ in ps],
                [a.numerator for a in amounts],
                [a.denominator for a in amounts])

    def load(self, machine: int) -> Fraction:
        if fast_paths_enabled():
            return sum_fractions(
                p.amount for p in self._machines.get(machine, []))
        return sum((p.amount for p in self._machines.get(machine, [])),
                   Fraction(0))

    def loads(self) -> dict[int, Fraction]:
        """Loads of all non-empty machines."""
        return {i: self.load(i) for i in self._machines}

    def makespan(self) -> Fraction:
        if not self._machines:
            return Fraction(0)
        if fast_paths_enabled():
            return max_fraction(self.loads().values())
        return max(self.loads().values())

    def job_amounts(self) -> dict[int, Fraction]:
        """Total scheduled amount per job (for completeness checks)."""
        if fast_paths_enabled():
            return _sum_amounts_by_job(
                (p.job, p.amount)
                for pieces in self._machines.values() for p in pieces)
        out: dict[int, Fraction] = {}
        for pieces in self._machines.values():
            for p in pieces:
                out[p.job] = out.get(p.job, Fraction(0)) + p.amount
        return out

    def classes_on(self, machine: int, inst: Instance) -> set[int]:
        return {inst.classes[p.job] for p in self._machines.get(machine, [])}

    def num_pieces(self) -> int:
        return sum(len(v) for v in self._machines.values())


def _sum_amounts_by_job(pairs: Iterable[tuple[int, Fraction]]
                        ) -> dict[int, Fraction]:
    """Exact per-job amount totals without per-addition gcd churn: one
    running ``(numerator, denominator)`` int pair per job, normalised to
    a ``Fraction`` once at the end (see
    :func:`repro.core.fastmath.sum_fractions` for the idea)."""
    acc: dict[int, tuple[int, int]] = {}
    for job, amount in pairs:
        n, d = amount.numerator, amount.denominator
        cur = acc.get(job)
        if cur is None:
            acc[job] = (n, d)
        elif cur[1] == d:
            acc[job] = (cur[0] + n, d)
        else:
            acc[job] = (cur[0] * d + n * cur[1], cur[1] * d)
    return {job: Fraction(n, d) for job, (n, d) in acc.items()}


class PreemptiveSchedule(_SparseMachineSchedule):
    """Job pieces with start times; same-job pieces must not overlap in time.

    The makespan is the maximum piece end time (idle gaps are allowed, e.g.
    after the repacking shift of Algorithm 2).
    """

    def __init__(self, num_machines: int) -> None:
        super().__init__(num_machines)
        self._machines: dict[int, list[TimedPiece]] = {}

    def assign(self, machine: int, job: int, start: Rational,
               amount: Rational) -> None:
        self._check_machine(machine)
        self._machines.setdefault(machine, []).append(
            TimedPiece(job, _frac(start), _frac(amount)))

    @property
    def used_machines(self) -> list[int]:
        return sorted(self._machines)

    def pieces_on(self, machine: int) -> list[TimedPiece]:
        return sorted(self._machines.get(machine, []),
                      key=lambda p: (p.start, p.end))

    def iter_pieces(self) -> Iterator[tuple[int, TimedPiece]]:
        for i in sorted(self._machines):
            for piece in self.pieces_on(i):
                yield i, piece

    def piece_columns(self) -> tuple[list[int], list[int], list[int],
                                     list[int], list[int], list[int]]:
        """Every piece as parallel columns ``(jobs, machines,
        start_numerators, start_denominators, amount_numerators,
        amount_denominators)``, unsorted: the input of the int64
        validation sweep, read without :meth:`pieces_on`'s sort."""
        pieces = [p for ps in self._machines.values() for p in ps]
        starts = [p.start for p in pieces]
        amounts = [p.amount for p in pieces]
        return ([p.job for p in pieces],
                [i for i, ps in self._machines.items() for _ in ps],
                [s.numerator for s in starts],
                [s.denominator for s in starts],
                [a.numerator for a in amounts],
                [a.denominator for a in amounts])

    def load(self, machine: int) -> Fraction:
        if fast_paths_enabled():
            return sum_fractions(
                p.amount for p in self._machines.get(machine, []))
        return sum((p.amount for p in self._machines.get(machine, [])),
                   Fraction(0))

    def makespan(self) -> Fraction:
        if fast_paths_enabled():
            return max_fraction(
                (p.end for pieces in self._machines.values()
                 for p in pieces), default=Fraction(0))
        end = Fraction(0)
        for pieces in self._machines.values():
            for p in pieces:
                if p.end > end:
                    end = p.end
        return end

    def job_amounts(self) -> dict[int, Fraction]:
        if fast_paths_enabled():
            return _sum_amounts_by_job(
                (p.job, p.amount)
                for pieces in self._machines.values() for p in pieces)
        out: dict[int, Fraction] = {}
        for pieces in self._machines.values():
            for p in pieces:
                out[p.job] = out.get(p.job, Fraction(0)) + p.amount
        return out

    def job_intervals(self, job: int) -> list[tuple[Fraction, Fraction]]:
        """All (start, end) intervals of ``job`` across machines, sorted."""
        out = [(p.start, p.end)
               for pieces in self._machines.values()
               for p in pieces if p.job == job]
        out.sort()
        return out

    def all_job_intervals(self) -> dict[int, list[tuple[Fraction, Fraction]]]:
        """``job -> sorted (start, end) intervals`` for every scheduled job,
        collected in one pass over the pieces. Equivalent to calling
        :meth:`job_intervals` per job, without the quadratic rescan."""
        out: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for pieces in self._machines.values():
            for p in pieces:
                out.setdefault(p.job, []).append((p.start, p.end))
        for intervals in out.values():
            intervals.sort()
        return out

    def classes_on(self, machine: int, inst: Instance) -> set[int]:
        return {inst.classes[p.job] for p in self._machines.get(machine, [])}

    def num_pieces(self) -> int:
        return sum(len(v) for v in self._machines.values())


class NonPreemptiveSchedule:
    """A total assignment ``job -> machine`` (no splitting).

    Stored as a list for O(1) access; ``-1`` marks an unassigned job, which
    validation rejects.
    """

    def __init__(self, num_jobs: int, num_machines: int) -> None:
        if num_machines < 1:
            raise InvalidInstanceError("schedule needs at least one machine")
        if num_jobs < 1:
            raise InvalidInstanceError("schedule needs at least one job")
        self.num_machines = num_machines
        self._assignment: list[int] = [-1] * num_jobs

    @staticmethod
    def from_assignment(assignment: Iterable[int],
                        num_machines: int) -> "NonPreemptiveSchedule":
        assignment = list(assignment)
        sched = NonPreemptiveSchedule(len(assignment), num_machines)
        for j, i in enumerate(assignment):
            sched.assign(j, i)
        return sched

    @property
    def num_jobs(self) -> int:
        return len(self._assignment)

    def assign(self, job: int, machine: int) -> None:
        if machine < 0 or machine >= self.num_machines:
            raise InvalidInstanceError(
                f"machine index {machine} outside 0..{self.num_machines - 1}")
        if job < 0 or job >= len(self._assignment):
            raise InvalidInstanceError(
                f"job index {job} outside 0..{len(self._assignment) - 1}")
        self._assignment[job] = machine

    def machine_of(self, job: int) -> int:
        return self._assignment[job]

    @property
    def assignment(self) -> tuple[int, ...]:
        return tuple(self._assignment)

    def jobs_on(self, machine: int) -> list[int]:
        return [j for j, i in enumerate(self._assignment) if i == machine]

    @property
    def used_machines(self) -> list[int]:
        return sorted({i for i in self._assignment if i >= 0})

    def load(self, machine: int, inst: Instance) -> int:
        return sum(inst.processing_times[j] for j in self.jobs_on(machine))

    def loads(self, inst: Instance) -> dict[int, int]:
        if fast_paths_enabled() and self._vectorizable(inst):
            per_machine, used = self._load_vector(inst)
            return {int(i): int(per_machine[i]) for i in used}
        out: dict[int, int] = {}
        for j, i in enumerate(self._assignment):
            if i >= 0:
                out[i] = out.get(i, 0) + inst.processing_times[j]
        return out

    def makespan(self, inst: Instance) -> int:
        if fast_paths_enabled() and self._vectorizable(inst):
            per_machine, used = self._load_vector(inst)
            return int(per_machine.max()) if used.size else 0
        loads = self.loads(inst)
        return max(loads.values()) if loads else 0

    def dense_machine_range(self) -> bool:
        """Whether the machine index range is small enough to bin densely
        with numpy (shared gate for the vectorised load accounting here
        and the vectorised validation in :mod:`repro.core.validation` —
        ``m`` may be astronomically large, and a dense per-machine array
        must never be allocated for such instances)."""
        return self.num_machines <= 4 * self.num_jobs + 64

    def _vectorizable(self, inst: Instance) -> bool:
        # total_load bounds every machine load, so int64 accumulation in
        # the scatter-add cannot overflow when it fits
        return inst.total_load < INT64_SAFE and self.dense_machine_range()

    def _load_vector(self, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
        """Per-machine load totals accumulated in exact int64 (one
        scatter-add over the assignment, unassigned jobs excluded);
        returns ``(loads, used machine indices)``."""
        assign = np.asarray(self._assignment, dtype=np.int64)
        times = np.asarray(inst.processing_times, dtype=np.int64)
        mask = assign >= 0
        per_machine = np.zeros(self.num_machines, dtype=np.int64)
        np.add.at(per_machine, assign[mask], times[mask])
        return per_machine, np.unique(assign[mask])

    def classes_on(self, machine: int, inst: Instance) -> set[int]:
        return {inst.classes[j] for j in self.jobs_on(machine)}

    def classes_per_machine(self, inst: Instance) -> dict[int, set[int]]:
        out: dict[int, set[int]] = {}
        for j, i in enumerate(self._assignment):
            if i >= 0:
                out.setdefault(i, set()).add(inst.classes[j])
        return out
