"""Stacked int64 sweeps behind the splittable and preemptive validators.

:func:`~repro.core.validation.validate_splittable` and
:func:`~repro.core.validation.validate_preemptive` check a schedule with
one sweep over flat arrays instead of a Python loop over its pieces:

* :func:`splittable_ok_many` — completeness and class-slot validation
  of splittable schedules; exact rational piece sums via a per-schedule
  common denominator in int64.
* :func:`preemptive_ok_many` — the same sweep for preemptive schedules,
  with start times on the common denominator too and the same-machine
  and same-job overlap checks as two sorted neighbour scans.

Both take a sequence of schedules and stack them; the validators pass
one. Exactness discipline matches the scalar validators: a schedule is
admitted to the int64 arrays only under magnitude guards that bound
every value and sum the sweep forms; one that fails a guard, or shows a
violation, is reported back so the caller re-runs the authoritative
scalar check (and its exact error message).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .fastmath import INT64_SAFE

__all__ = ["splittable_ok_many", "preemptive_ok_many"]


def splittable_ok_many(
        cells: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int],
                              Sequence[int], Sequence[int], Sequence[int],
                              int, int]]
        ) -> list[Fraction | None]:
    """Validate many splittable schedules at once; exact, in int64.

    ``cells`` is a sequence of ``(piece_jobs, piece_machines, piece_nums,
    piece_dens, processing_times, classes, num_machines, class_slots)``
    where piece ``i`` assigns ``piece_nums[i]/piece_dens[i]`` units of job
    ``piece_jobs[i]`` to machine ``piece_machines[i]``.  The caller has
    already checked that the schedule's machine count matches the
    (normalized) instance.

    Returns one entry per cell: the schedule's exact makespan
    (``Fraction``) when the cell provably passes the completeness and
    class-slot checks of ``validate_splittable``, else ``None`` — a real
    violation (whose exact error message the scalar validator
    re-derives) or a cell whose magnitudes fail the int64 guard.
    """
    return _pieces_ok_many(
        [(jobs, machs, None, (nums, dens), p, cls, m, c)
         for jobs, machs, nums, dens, p, cls, m, c in cells])


def preemptive_ok_many(
        cells: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int],
                              Sequence[int], Sequence[int], Sequence[int],
                              Sequence[int], Sequence[int], int, int]]
        ) -> list[Fraction | None]:
    """Validate many preemptive schedules at once; exact, in int64.

    ``cells`` is a sequence of ``(piece_jobs, piece_machines, start_nums,
    start_dens, piece_nums, piece_dens, processing_times, classes,
    num_machines, class_slots)``: piece ``i`` runs job ``piece_jobs[i]``
    on machine ``piece_machines[i]`` from ``start_nums[i]/start_dens[i]``
    for ``piece_nums[i]/piece_dens[i]`` units.

    Same contract as :func:`splittable_ok_many`, for every check of
    ``validate_preemptive``: completeness and class slots, plus no two
    pieces overlapping on one machine and no job overlapping itself. The
    makespan is the latest piece end.
    """
    return _pieces_ok_many(
        [(jobs, machs, (snums, sdens), (nums, dens), p, cls, m, c)
         for jobs, machs, snums, sdens, nums, dens, p, cls, m, c in cells])


#: The stacked sweeps key a used machine as ``cell << _MACHINE_BITS |
#: machine``, which caps both the machine index and the cell count.
_MACHINE_BITS = 40


class _Scaled(NamedTuple):
    """One admitted cell: int64 arrays, times in units of ``1/scale``."""

    jobs: np.ndarray
    machines: np.ndarray
    processing_times: np.ndarray
    scale: int
    starts: np.ndarray | None
    amounts: np.ndarray


def _admit(jobs, machs, starts, amounts, p, m) -> _Scaled | None:
    """One cell's pieces as exact int64 on a common denominator.

    ``starts`` and ``amounts`` are ``(numerators, denominators)`` column
    pairs (``starts`` is ``None`` for untimed pieces); ``scale`` is the
    LCM of every denominator. ``None`` means the cell needs the scalar
    validator: a job or machine out of range, a non-positive amount or
    negative start, or magnitudes outside the guard.

    The guard bounds every scaled value and every sum the sweeps form
    (per job, per machine, ``start + amount``) below ``INT64_SAFE``: each
    scaled value is at most ``peak * scale``, and no sum has more than
    ``npieces + n`` terms.
    """
    npieces, n = len(jobs), len(p)
    columns = [amounts] if starts is None else [starts, amounts]
    if not (npieces and n and len(machs) == npieces
            and all(len(nums) == len(dens) == npieces
                    for nums, dens in columns)):
        return None
    try:
        # rows: jobs, machines, then numerators and denominators of
        # each column, amounts last
        table = np.array([jobs, machs, *(v for col in columns for v in col)],
                         dtype=np.int64)
        p_a = np.asarray(p, dtype=np.int64)
    except OverflowError:
        return None
    lo, hi = table.min(axis=1).tolist(), table.max(axis=1).tolist()
    if (lo[0] < 0 or hi[0] >= n or lo[1] < 0
            or hi[1] >= min(int(m), 2 ** _MACHINE_BITS)
            or lo[2] < 0 or lo[-2] < 1 or min(lo[3::2]) < 1):
        return None
    scale = 1
    for _, dens in columns:
        for d in set(dens):
            scale = lcm(scale, int(d))
            if scale >= INT64_SAFE:
                return None
    peak = max(int(p_a.max()), *hi[2::2])
    if (npieces + n) * peak * scale >= INT64_SAFE:
        return None
    scaled = table[2::2] * (scale // table[3::2])
    return _Scaled(table[0], table[1], p_a, scale,
                   None if starts is None else scaled[0], scaled[-1])


def _pieces_ok_many(cells) -> list[Fraction | None]:
    """The stacked sweep behind :func:`splittable_ok_many` and
    :func:`preemptive_ok_many`. ``cells`` holds ``(jobs, machines,
    starts, amounts, processing_times, classes, num_machines,
    class_slots)`` with ``starts`` ``None`` for untimed pieces.

    Each check flags its offending elements; a cell is clean when none
    of its elements is flagged. Sorting by (cell, machine) once serves
    the class-slot count, the machine loads and the machine-overlap scan.
    """
    out: list[Fraction | None] = [None] * len(cells)
    if len(cells) >= 2 ** (62 - _MACHINE_BITS):    # pragma: no cover
        return out
    usable: list[tuple[int, _Scaled, Sequence[int], int]] = []
    for idx, (jobs, machs, starts, amounts, p, cls, m, c) in \
            enumerate(cells):
        if len(cls) != len(p):
            continue
        admitted = _admit(jobs, machs, starts, amounts, p, m)
        if admitted is not None:
            usable.append((idx, admitted, cls, int(c)))
    if not usable:
        return out
    scaled = [a for _, a, _, _ in usable]
    timed = scaled[0].starts is not None
    k = len(usable)

    def clean(bad_cells: np.ndarray) -> np.ndarray:
        return np.bincount(bad_cells, minlength=k) == 0

    job_lens = [len(a.processing_times) for a in scaled]
    cell_of_piece = np.repeat(np.arange(k, dtype=np.int64),
                              [len(a.jobs) for a in scaled])
    cell_of_job = np.repeat(np.arange(k, dtype=np.int64), job_lens)
    job_base = np.zeros(k, dtype=np.int64)
    np.cumsum(job_lens[:-1], out=job_base[1:])
    gjob = job_base[cell_of_piece] + np.concatenate([a.jobs for a in scaled])
    amount = np.concatenate([a.amounts for a in scaled])
    scale = np.asarray([a.scale for a in scaled], dtype=np.int64)

    # completeness: per-job scaled sums must equal p_j * scale exactly
    sums = np.zeros(len(cell_of_job), dtype=np.int64)
    np.add.at(sums, gjob, amount)
    p_flat = np.concatenate([a.processing_times for a in scaled])
    fine = clean(cell_of_job[sums != p_flat * scale[cell_of_job]])

    # class slots: in (cell, machine, class) order, count the class
    # changes inside each used machine's run of pieces
    cls_flat = np.concatenate(
        [np.asarray(cls, dtype=np.int64) for _, _, cls, _ in usable])[gjob]
    mach_key = (cell_of_piece << _MACHINE_BITS) + np.concatenate(
        [a.machines for a in scaled])
    order = np.lexsort((cls_flat, mach_key))
    key_s, cls_s = mach_key[order], cls_flat[order]
    new_mach = np.empty(len(order), dtype=bool)
    new_mach[0] = True
    np.not_equal(key_s[1:], key_s[:-1], out=new_mach[1:])
    new_class = new_mach.copy()
    new_class[1:] |= cls_s[1:] != cls_s[:-1]
    mach_starts = np.flatnonzero(new_mach)
    cell_of_mach = key_s[mach_starts] >> _MACHINE_BITS
    distinct = np.add.reduceat(new_class, mach_starts)
    c_arr = np.asarray([c for _, _, _, c in usable], dtype=np.int64)
    fine &= clean(cell_of_mach[distinct > c_arr[cell_of_mach]])

    peak = np.zeros(k, dtype=np.int64)
    if timed:
        start = np.concatenate([a.starts for a in scaled])
        end = start + amount
        # a machine (a job) is overlap-free iff, in start order, every
        # piece starts no earlier than its predecessor ends: pieces have
        # positive length, so any overlap shows between neighbours
        for group in (mach_key, gjob):
            order = np.lexsort((start, group))
            g = group[order]
            clash = (g[1:] == g[:-1]) & \
                (start[order][1:] < end[order][:-1])
            fine &= clean(cell_of_piece[order][1:][clash])
        np.maximum.at(peak, cell_of_piece, end)
    else:
        # makespan: the largest machine load
        loads = np.add.reduceat(amount[order], mach_starts)
        np.maximum.at(peak, cell_of_mach, loads)
    for j, (idx, admitted, _, _) in enumerate(usable):
        if fine[j]:
            out[idx] = Fraction(int(peak[j]), admitted.scale)
    return out
