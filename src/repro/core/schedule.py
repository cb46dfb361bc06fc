"""Schedule representations for the three CCS regimes.

All quantities that may be fractional (piece sizes, start times) are exact
rationals — feasibility is never decided in floating point. Machines are
indexed ``0..m-1`` but schedules store only *non-empty* machines sparsely,
so an instance with ``m = 2**60`` machines is representable as long as
only polynomially many machines receive load (the compact big-``m``
representation in :mod:`repro.approx.compact` covers the case where
exponentially many machines receive load).

The fractional schedules keep their pieces as parallel integer columns
(job, machine, numerator and denominator of the amount, and of the start
when timed). Solvers whose quantities are all multiples of one ``1/den``
fill the columns in one bulk call (``from_units``) without building a
``Fraction`` per piece; :class:`Piece` and :class:`TimedPiece` are views
built on demand by :meth:`~SplittableSchedule.pieces_on` and
:meth:`~SplittableSchedule.iter_pieces`.

Classes here are pure data + cheap derived quantities; the authoritative
feasibility checks live in :mod:`repro.core.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

import numpy as np

from .errors import InvalidInstanceError
from .fastmath import INT64_SAFE, fast_paths_enabled, max_fraction
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


def _check_amount(job: int, amount: Fraction) -> None:
    if amount <= 0:
        raise InvalidInstanceError(
            f"piece of job {job} has non-positive amount {amount}")


def _check_start(job: int, start: Fraction) -> None:
    if start < 0:
        raise InvalidInstanceError(
            f"piece of job {job} starts at negative time {start}")


@dataclass(frozen=True)
class Piece:
    """A piece of a job: ``amount`` units of processing of job ``job``."""

    job: int
    amount: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "amount", _frac(self.amount))
        _check_amount(self.job, self.amount)


@dataclass(frozen=True)
class TimedPiece:
    """A job piece with an explicit start time (preemptive regime)."""

    job: int
    start: Fraction
    amount: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _frac(self.start))
        object.__setattr__(self, "amount", _frac(self.amount))
        _check_amount(self.job, self.amount)
        _check_start(self.job, self.start)

    @property
    def end(self) -> Fraction:
        return self.start + self.amount


def _sums_by_key(keys: Iterable[int], nums: Iterable[int],
                 dens: Iterable[int]) -> dict[int, Fraction]:
    """Exact ``key -> sum of nums[r] / dens[r]`` over parallel columns,
    keys in order of first appearance. One running ``[numerator,
    denominator]`` pair per key on the lcm of the denominators it has
    seen, so same-denominator rows cost one integer addition; normalised
    to a ``Fraction`` once per key at the end."""
    acc: dict[int, list[int]] = {}
    for k, n, d in zip(keys, nums, dens):
        cur = acc.get(k)
        if cur is None:
            acc[k] = [n, d]
        elif cur[1] == d:
            cur[0] += n
        else:
            common = lcm(cur[1], d)
            cur[0] = cur[0] * (common // cur[1]) + n * (common // d)
            cur[1] = common
    return {k: Fraction(n, d) for k, (n, d) in acc.items()}


class _PieceColumns:
    """Shared plumbing: pieces as parallel integer columns.

    Row ``r`` places ``_nums[r] / _dens[r]`` units of job ``_jobs[r]`` on
    machine ``_machs[r]``; the fractions need not be in lowest terms. All
    entries are plain Python ints, so machine indices may exceed int64.
    ``_rows`` lists the rows of each used machine, machines in order of
    first use: kept up to date by :meth:`assign`, rebuilt on first read
    after a bulk build. Reads group rows by machine through it, so pieces
    come back machine by machine in insertion order, as they always have.
    """

    def __init__(self, num_machines: int) -> None:
        if num_machines < 1:
            raise InvalidInstanceError("schedule needs at least one machine")
        self.num_machines = num_machines
        self._jobs: list[int] = []
        self._machs: list[int] = []
        self._nums: list[int] = []
        self._dens: list[int] = []
        self._rows: dict[int, list[int]] | None = {}

    def _check_machine(self, i: int) -> None:
        if i < 0 or i >= self.num_machines:
            raise InvalidInstanceError(
                f"machine index {i} outside 0..{self.num_machines - 1}")

    def _append(self, machine: int, job: int, amount: Fraction) -> None:
        if self._rows is not None:
            self._rows.setdefault(machine, []).append(len(self._jobs))
        self._jobs.append(job)
        self._machs.append(machine)
        self._nums.append(amount.numerator)
        self._dens.append(amount.denominator)

    def _fill(self, den: int, jobs: Iterable[int], machines: Iterable[int],
              amounts: Iterable[int],
              starts: list[int] | None = None) -> None:
        """Adopt bulk columns over one denominator, after the checks
        :meth:`assign` makes per piece: the first offending row raises
        exactly what assigning the rows in order would. ``starts`` is
        only checked; timed schedules keep it themselves."""
        if den < 1:
            raise ValueError(f"den must be a positive integer, got {den}")
        jobs, machines, amounts = list(jobs), list(machines), list(amounts)
        lengths = {len(jobs), len(machines), len(amounts)}
        if starts is not None:
            lengths.add(len(starts))
        if len(lengths) > 1:
            raise ValueError("piece columns differ in length")
        if jobs and (min(machines) < 0 or max(machines) >= self.num_machines
                     or min(amounts) <= 0
                     or (starts is not None and min(starts) < 0)):
            for r, job in enumerate(jobs):
                self._check_machine(machines[r])
                _check_amount(job, Fraction(amounts[r], den))
                if starts is not None:
                    _check_start(job, Fraction(starts[r], den))
        self._jobs, self._machs, self._nums = jobs, machines, amounts
        self._dens = [den] * len(jobs)
        self._rows = None

    def _by_machine(self) -> dict[int, list[int]]:
        if self._rows is None:
            rows: dict[int, list[int]] = {}
            for r, i in enumerate(self._machs):
                rows.setdefault(i, []).append(r)
            self._rows = rows
        return self._rows

    def _grouped(self) -> list[int]:
        """Every row, machine by machine (the order reads report in)."""
        return [r for rows in self._by_machine().values() for r in rows]

    def _amount(self, r: int) -> Fraction:
        return Fraction(self._nums[r], self._dens[r])

    @property
    def used_machines(self) -> list[int]:
        """Sorted indices of machines with at least one piece."""
        return sorted(self._by_machine())

    def load(self, machine: int) -> Fraction:
        rows = self._by_machine().get(machine, ())
        if fast_paths_enabled():
            return _sums_by_key(
                [machine] * len(rows), [self._nums[r] for r in rows],
                [self._dens[r] for r in rows]).get(machine, Fraction(0))
        return sum((self._amount(r) for r in rows), Fraction(0))

    def job_amounts(self) -> dict[int, Fraction]:
        """Total scheduled amount per job (for completeness checks)."""
        order = self._grouped()
        if fast_paths_enabled():
            return _sums_by_key((self._jobs[r] for r in order),
                                (self._nums[r] for r in order),
                                (self._dens[r] for r in order))
        out: dict[int, Fraction] = {}
        for r in order:
            job = self._jobs[r]
            out[job] = out.get(job, Fraction(0)) + self._amount(r)
        return out

    def classes_on(self, machine: int, inst: Instance) -> set[int]:
        return {inst.classes[self._jobs[r]]
                for r in self._by_machine().get(machine, ())}

    def num_pieces(self) -> int:
        return len(self._jobs)


class SplittableSchedule(_PieceColumns):
    """Assignment of job pieces to machines (pieces may run in parallel).

    The makespan is the maximum total assigned amount over machines.
    """

    # construction -------------------------------------------------------
    def assign(self, machine: int, job: int, amount: Rational) -> None:
        """Place ``amount`` units of ``job`` on ``machine``."""
        self._check_machine(machine)
        amount = _frac(amount)
        _check_amount(job, amount)
        self._append(machine, job, amount)

    @classmethod
    def from_units(cls, num_machines: int, jobs: Iterable[int],
                   machines: Iterable[int], amounts: Iterable[int], *,
                   den: int = 1) -> "SplittableSchedule":
        """A schedule whose row ``r`` places ``amounts[r] / den`` units of
        ``jobs[r]`` on ``machines[r]``: what :meth:`assign` builds row by
        row, with the same checks and errors, and no ``Fraction`` per
        piece."""
        sched = cls(num_machines)
        sched._fill(den, jobs, machines, amounts)
        return sched

    # queries ------------------------------------------------------------
    def pieces_on(self, machine: int) -> list[Piece]:
        return [Piece(self._jobs[r], self._amount(r))
                for r in self._by_machine().get(machine, ())]

    def iter_pieces(self) -> Iterator[tuple[int, Piece]]:
        """Yield ``(machine, piece)`` for every piece."""
        for i in self.used_machines:
            for piece in self.pieces_on(i):
                yield i, piece

    def piece_columns(self) -> tuple[list[int], list[int], list[int],
                                     list[int]]:
        """Every piece as parallel columns ``(jobs, machines,
        amount_numerators, amount_denominators)``, in no particular
        order and not necessarily in lowest terms: the input of the
        int64 validation sweep."""
        return (list(self._jobs), list(self._machs), list(self._nums),
                list(self._dens))

    def loads(self) -> dict[int, Fraction]:
        """Loads of all non-empty machines."""
        if fast_paths_enabled():
            return _sums_by_key(self._machs, self._nums, self._dens)
        return {i: self.load(i) for i in self._by_machine()}

    def makespan(self) -> Fraction:
        if not self._jobs:
            return Fraction(0)
        if fast_paths_enabled():
            return max_fraction(self.loads().values())
        return max(self.loads().values())


class PreemptiveSchedule(_PieceColumns):
    """Job pieces with start times; same-job pieces must not overlap in time.

    The makespan is the maximum piece end time (idle gaps are allowed, e.g.
    after the repacking shift of Algorithm 2). Starts are a second
    numerator/denominator column pair beside the amounts.
    """

    def __init__(self, num_machines: int) -> None:
        super().__init__(num_machines)
        self._start_nums: list[int] = []
        self._start_dens: list[int] = []

    def assign(self, machine: int, job: int, start: Rational,
               amount: Rational) -> None:
        self._check_machine(machine)
        start, amount = _frac(start), _frac(amount)
        _check_amount(job, amount)
        _check_start(job, start)
        self._append(machine, job, amount)
        self._start_nums.append(start.numerator)
        self._start_dens.append(start.denominator)

    @classmethod
    def from_units(cls, num_machines: int, jobs: Iterable[int],
                   machines: Iterable[int], starts: Iterable[int],
                   amounts: Iterable[int], *,
                   den: int = 1) -> "PreemptiveSchedule":
        """A schedule whose row ``r`` runs ``amounts[r] / den`` units of
        ``jobs[r]`` on ``machines[r]`` from time ``starts[r] / den``:
        what :meth:`assign` builds row by row, with the same checks and
        errors, and no ``Fraction`` per piece."""
        sched = cls(num_machines)
        starts = list(starts)
        sched._fill(den, jobs, machines, amounts, starts)
        sched._start_nums, sched._start_dens = starts, [den] * len(starts)
        return sched

    def _start(self, r: int) -> Fraction:
        return Fraction(self._start_nums[r], self._start_dens[r])

    def pieces_on(self, machine: int) -> list[TimedPiece]:
        return sorted((TimedPiece(self._jobs[r], self._start(r),
                                  self._amount(r))
                       for r in self._by_machine().get(machine, ())),
                      key=lambda p: (p.start, p.end))

    def iter_pieces(self) -> Iterator[tuple[int, TimedPiece]]:
        for i in self.used_machines:
            for piece in self.pieces_on(i):
                yield i, piece

    def piece_columns(self) -> tuple[list[int], list[int], list[int],
                                     list[int], list[int], list[int]]:
        """Every piece as parallel columns ``(jobs, machines,
        start_numerators, start_denominators, amount_numerators,
        amount_denominators)``, unsorted and not necessarily in lowest
        terms: the input of the int64 validation sweep."""
        return (list(self._jobs), list(self._machs), list(self._start_nums),
                list(self._start_dens), list(self._nums), list(self._dens))

    def makespan(self) -> Fraction:
        if fast_paths_enabled():
            # ends as exact (numerator, denominator) pairs, compared by
            # cross-multiplication; same-denominator rows stay integer
            best_n, best_d = 0, 1
            for sn, sd, an, ad in zip(self._start_nums, self._start_dens,
                                      self._nums, self._dens):
                n, d = (sn + an, sd) if sd == ad else (sn * ad + an * sd,
                                                       sd * ad)
                if (n > best_n if d == best_d
                        else n * best_d > best_n * d):
                    best_n, best_d = n, d
            return Fraction(best_n, best_d)
        end = Fraction(0)
        for r in range(len(self._jobs)):
            e = self._start(r) + self._amount(r)
            if e > end:
                end = e
        return end

    def job_intervals(self, job: int) -> list[tuple[Fraction, Fraction]]:
        """All (start, end) intervals of ``job`` across machines, sorted."""
        out = [(self._start(r), self._start(r) + self._amount(r))
               for r, j in enumerate(self._jobs) if j == job]
        out.sort()
        return out

    def all_job_intervals(self) -> dict[int, list[tuple[Fraction, Fraction]]]:
        """``job -> sorted (start, end) intervals`` for every scheduled job,
        collected in one pass over the pieces. Equivalent to calling
        :meth:`job_intervals` per job, without the quadratic rescan."""
        out: dict[int, list[tuple[Fraction, Fraction]]] = {}
        for r in self._grouped():
            start = self._start(r)
            out.setdefault(self._jobs[r], []).append(
                (start, start + self._amount(r)))
        for intervals in out.values():
            intervals.sort()
        return out


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
