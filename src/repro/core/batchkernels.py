"""Vectorised multi-cell kernels for the batch engine.

The scalar fast paths in :mod:`repro.approx.borders` and
:mod:`repro.core.validation` each accelerate *one* solve; a pooled
``run_batch`` chunk holds many same-algorithm cells, and dispatching the
scalar kernel per cell leaves numpy's fixed per-call overhead multiplied
by the cell count.  The kernels here stack every cell of a chunk into
one set of flat arrays (concatenated values + per-cell offsets) and run
the whole chunk in a handful of numpy passes:

* :func:`smallest_feasible_border_many` — Lemma 2's border binary search
  for many ``(loads, m, budget)`` cells at once.  All cells' per-load
  searches advance in lockstep; each iteration evaluates every active
  candidate's split count in one vectorised gather + ``reduceat``.
* :func:`split_count_many` — ``sum ceil(P_u * den / num)`` for one guess
  per cell, one pass over the concatenated loads.
* :func:`nonpreemptive_guess_many` — Theorem 6's integral guess binary
  search for many cells in lockstep, with the rare lanes whose greedy
  pairing could decide the count delegated to the exact scalar greedy.
* :func:`nonpreemptive_slots_ok_many` — the class-slot validation of
  many assignments in one ``unique``/``bincount`` sweep, mirroring the
  single-cell ``_nonpreemptive_ok_vec``.
* :func:`splittable_ok_many` — completeness + class-slot validation of
  many splittable schedules at once; exact rational piece sums via a
  per-cell common denominator in int64.
* :func:`preemptive_ok_many` — the same sweep for preemptive schedules,
  with start times on the common denominator too and the same-machine
  and same-job overlap checks as two sorted neighbour scans.

Exactness discipline matches the scalar kernels: every cell is admitted
to the int64 arrays only under the same magnitude guards the scalar
vectorised paths use; cells that fail a guard are reported back to the
caller for the scalar fallback rather than silently risking overflow.
The results are bit-identical to the scalar fast paths, which are in
turn golden-tested against the pure-``Fraction`` reference — so a batch
answer is always byte-identical to the per-cell answer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from .fastmath import INT64_SAFE

__all__ = ["smallest_feasible_border_many", "split_count_many",
           "nonpreemptive_slots_ok_many", "nonpreemptive_guess_many",
           "splittable_ok_many", "preemptive_ok_many"]


def _border_cell_guarded(loads: list[int], m: int, budget: int) -> bool:
    """Whether a border-search cell provably fits the int64 kernel.

    Mirrors the scalar fast path's bound with the worst denominator the
    search can produce (``den = mid <= m``): every intermediate product
    and the fully accumulated count stay below ``INT64_SAFE``.
    """
    if not loads or m < 1 or min(loads) < 1:
        return False
    max_load = max(loads)
    return (0 < max_load < INT64_SAFE and 0 < m < INT64_SAFE
            and 0 <= budget < INT64_SAFE
            and len(loads) * (max_load * m + 1) < INT64_SAFE)


def smallest_feasible_border_many(
        cells: Sequence[tuple[Sequence[int], int, int]]
        ) -> tuple[list[Fraction | None], list[int]]:
    """Lemma 2's smallest feasible border for many cells in lockstep.

    ``cells`` is a sequence of ``(class_loads, m, budget)`` triples.
    Returns ``(borders, scalar_indices)``: ``borders[i]`` is the smallest
    border with ``split_count <= budget`` (``None`` when no border is
    feasible), and ``scalar_indices`` lists the cells whose magnitudes
    failed the int64 guard — their ``borders`` slot is meaningless and
    the caller must run the scalar search for them.

    The same answer as the scalar ``smallest_feasible_border`` per cell,
    by the reference's procedure, not the fast path's: one binary search
    over ``k in 1..m`` per distinct load (every cell's searches in
    lockstep), then the exact cross-multiplied minimum of the winning
    borders. The scalar fast path bisects only the window around the
    threshold instead; the two agree because both return the smallest
    feasible border with ``k <= m``.
    """
    results: list[Fraction | None] = [None] * len(cells)
    scalar: list[int] = []
    usable: list[tuple[int, list[int], int, int]] = []
    for idx, (raw_loads, m, budget) in enumerate(cells):
        loads = [int(P) for P in raw_loads]
        if _border_cell_guarded(loads, int(m), int(budget)):
            usable.append((idx, loads, int(m), int(budget)))
        else:
            scalar.append(idx)
    if not usable:
        return results, scalar

    # One *entry* per (cell, distinct load): the unit the binary searches
    # advance over. Each entry needs its own cell's full load vector to
    # evaluate a split count, so the terms array gathers cell loads once
    # per entry — total work per iteration is sum over cells of
    # (#distinct loads * #loads), all in a single numpy pass.
    loads_cat = np.concatenate(
        [np.asarray(loads, dtype=np.int64) for _, loads, _, _ in usable])
    cell_starts = np.zeros(len(usable) + 1, dtype=np.int64)
    np.cumsum([len(loads) for _, loads, _, _ in usable],
              out=cell_starts[1:])

    ent_P: list[int] = []
    ent_m: list[int] = []
    ent_budget: list[int] = []
    ent_rows: list[np.ndarray] = []
    ent_len: list[int] = []
    entries_of_cell: list[tuple[int, int]] = []
    for j, (_, loads, m, budget) in enumerate(usable):
        rows = np.arange(cell_starts[j], cell_starts[j + 1], dtype=np.int64)
        first = len(ent_P)
        for P in sorted(set(loads)):
            ent_P.append(P)
            ent_m.append(m)
            ent_budget.append(budget)
            ent_rows.append(rows)
            ent_len.append(len(loads))
        entries_of_cell.append((first, len(ent_P)))

    num_entries = len(ent_P)
    gather = np.concatenate(ent_rows)
    ent_starts = np.zeros(num_entries, dtype=np.int64)
    np.cumsum(ent_len[:-1], out=ent_starts[1:])
    ent_of_pos = np.repeat(np.arange(num_entries, dtype=np.int64), ent_len)
    terms_src = loads_cat[gather]
    P_pos = np.asarray(ent_P, dtype=np.int64)[ent_of_pos]

    P_arr = np.asarray(ent_P, dtype=np.int64)
    budget_arr = np.asarray(ent_budget, dtype=np.int64)
    lo = np.ones(num_entries, dtype=np.int64)
    hi = np.asarray(ent_m, dtype=np.int64)
    best_k = np.zeros(num_entries, dtype=np.int64)      # 0: none feasible

    active = lo <= hi
    while active.any():
        # inactive lanes evaluate a harmless mid=1 so one vector pass
        # covers everything; their state is masked out below
        mid = np.where(active, (lo + hi) >> 1, 1)
        # guess T = P_e / mid_e: count = sum ceil(P_l * mid / P_e), via
        # the negated floor division (numpy // rounds toward -inf like
        # Python's)
        counts = np.add.reduceat(
            -((terms_src * -mid[ent_of_pos]) // P_pos), ent_starts)
        feasible = counts <= budget_arr
        take = active & feasible
        best_k = np.where(take, mid, best_k)
        lo = np.where(take, mid + 1, lo)
        hi = np.where(active & ~feasible, mid - 1, hi)
        active = lo <= hi

    # exact per-cell minimum over its entries' winning borders, by
    # cross-multiplication (a handful of python ops per cell)
    for j, (idx, _, _, _) in enumerate(usable):
        first, last = entries_of_cell[j]
        best_num: int | None = None
        best_den = 1
        for e in range(first, last):
            k = int(best_k[e])
            if k >= 1:
                P = int(P_arr[e])
                if best_num is None or P * best_den < best_num * k:
                    best_num, best_den = P, k
        results[idx] = None if best_num is None \
            else Fraction(best_num, best_den)
    return results, scalar


def split_count_many(cells: Sequence[tuple[Sequence[int], int, int]]
                     ) -> tuple[list[int], list[int]]:
    """``split_count`` for one guess ``num/den`` per cell, in one pass.

    ``cells`` is a sequence of ``(class_loads, num, den)``. Returns
    ``(counts, scalar_indices)`` with the same fallback contract as
    :func:`smallest_feasible_border_many`; each admitted cell satisfies
    the exact guard the scalar ``split_count`` fast path uses.
    """
    counts: list[int] = [0] * len(cells)
    scalar: list[int] = []
    usable: list[tuple[int, list[int], int, int]] = []
    for idx, (raw_loads, num, den) in enumerate(cells):
        loads = [int(P) for P in raw_loads]
        num, den = int(num), int(den)
        max_load = max(loads, default=0)
        if (loads and min(loads) >= 0 and 0 < num < INT64_SAFE
                and 0 < den and len(loads) * (max_load * den + 1)
                < INT64_SAFE):
            usable.append((idx, loads, num, den))
        else:
            scalar.append(idx)
    if not usable:
        return counts, scalar
    loads_cat = np.concatenate(
        [np.asarray(loads, dtype=np.int64) for _, loads, _, _ in usable])
    lens = [len(loads) for _, loads, _, _ in usable]
    starts = np.zeros(len(usable), dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    pos_of = np.repeat(np.arange(len(usable), dtype=np.int64), lens)
    nums = np.asarray([num for _, _, num, _ in usable], dtype=np.int64)
    dens = np.asarray([den for _, _, _, den in usable], dtype=np.int64)
    totals = np.add.reduceat(
        -((loads_cat * -dens[pos_of]) // nums[pos_of]), starts)
    for j, (idx, _, _, _) in enumerate(usable):
        counts[idx] = int(totals[j])
    return counts, scalar


def nonpreemptive_guess_many(
        cells: Sequence[tuple[Sequence[int], Sequence[int], int, int]]
        ) -> tuple[list[int | None], list[int]]:
    """Theorem 6's integral guess binary search for many cells at once.

    ``cells`` is a sequence of ``(processing_times, classes, m, c)``
    quadruples of *normalized feasible* instances.  Returns ``(guesses,
    scalar_indices)``: ``guesses[i]`` is the smallest integral ``T`` with
    ``sum_u C_u(T) <= c * m`` — exactly what ``solve_nonpreemptive``'s
    scalar guess search computes — and ``scalar_indices`` lists cells
    whose magnitudes fail the int64 guard (their slot is ``None`` and the
    caller runs the scalar search).

    All cells' searches bisect in lockstep over the full window of the
    scalar's reference search (``lo = max(pmax, ceil(area))``, ``hi = c *
    max_u P_u``); the scalar fast path probes the class-slot threshold
    first, and both return the same ``T`` because the counts never
    increase as ``T`` grows.
    Each iteration computes every class's ``C1_u = ceil(P_u/T)`` and the
    job-size buckets ``k_u`` (``2 p > T``) and ``mid_u`` (``T >= 2 p``,
    ``3 p > T``) in one vectorised pass.  ``C2_u`` needs the greedy
    pairing scan only when it could exceed ``C1_u`` (``k_u > 0``,
    ``mid_u > 0`` and ``k_u + ceil(mid_u/2) > C1_u``); those rare
    (cell, class) lanes call the scalar
    :func:`~repro.core.bounds.presorted_class_count` for its exact
    greedy answer, so the feasibility predicate is bit-identical to the
    scalar search everywhere.
    """
    from .bounds import presorted_class_count

    guesses: list[int | None] = [None] * len(cells)
    scalar: list[int] = []
    usable: list[tuple[int, list[int], list[int], int, int]] = []
    for idx, (p_raw, cls_raw, m, c) in enumerate(cells):
        p = [int(v) for v in p_raw]
        cls = [int(v) for v in cls_raw]
        total = sum(p)
        if (p and len(p) == len(cls) and min(p) >= 1
                and 0 < int(m) < INT64_SAFE
                and 0 < int(c) < INT64_SAFE
                and int(m) * int(c) < INT64_SAFE
                and 3 * max(p) < INT64_SAFE and total < INT64_SAFE
                and int(c) * total < INT64_SAFE):
            usable.append((idx, p, cls, int(m), int(c)))
        else:
            scalar.append(idx)
    if not usable:
        return guesses, scalar

    # flat element layout sorted by (cell, class, p): per-class segments
    # are contiguous and ascending, mirroring the scalar's presorted view
    p_all = np.concatenate(
        [np.asarray(p, dtype=np.int64) for _, p, _, _, _ in usable])
    cls_all = np.concatenate(
        [np.asarray(cls, dtype=np.int64) for _, _, cls, _, _ in usable])
    lens = [len(p) for _, p, _, _, _ in usable]
    cell_of_elem = np.repeat(np.arange(len(usable), dtype=np.int64), lens)
    order = np.lexsort((p_all, cls_all, cell_of_elem))
    flat = p_all[order]
    cls_sorted = cls_all[order]
    cell_sorted = cell_of_elem[order]

    # one lane per (cell, class); classes are dense per cell (normalized
    # instances), so bases accumulate each cell's class count
    num_classes = [max(cls) + 1 for _, _, cls, _, _ in usable]
    class_base = np.zeros(len(usable) + 1, dtype=np.int64)
    np.cumsum(num_classes, out=class_base[1:])
    lane_of_elem = class_base[cell_sorted] + cls_sorted
    lane_sizes = np.bincount(lane_of_elem, minlength=int(class_base[-1]))
    if lane_sizes.min(initial=1) < 1:   # pragma: no cover - defensive
        return guesses, scalar + [idx for idx, *_ in usable]
    lane_starts = np.zeros(len(lane_sizes), dtype=np.int64)
    np.cumsum(lane_sizes[:-1], out=lane_starts[1:])
    cell_of_lane = np.repeat(np.arange(len(usable), dtype=np.int64),
                             num_classes)
    totals = np.add.reduceat(flat, lane_starts)

    m_arr = np.asarray([m for _, _, _, m, _ in usable], dtype=np.int64)
    budget = m_arr * np.asarray([c for _, _, _, _, c in usable],
                                dtype=np.int64)
    cell_total = np.add.reduceat(
        totals, class_base[:-1]) if len(usable) else totals
    pmax_cell = np.maximum.reduceat(flat, lane_starts)
    pmax_cell = np.maximum.reduceat(pmax_cell, class_base[:-1])
    maxload = np.maximum.reduceat(totals, class_base[:-1])
    lo = np.maximum(pmax_cell, -((-cell_total) // m_arr))
    hi = np.asarray([c for _, _, _, _, c in usable],
                    dtype=np.int64) * maxload

    def counts_for(T_cell: np.ndarray) -> np.ndarray:
        """Per-cell ``sum_u max(C1_u, C2_u, 1)`` at guess ``T_cell``."""
        T_lane = T_cell[cell_of_lane]
        T_elem = T_cell[cell_sorted]
        over_half = np.add.reduceat(
            (2 * flat > T_elem).astype(np.int64), lane_starts)
        over_third = np.add.reduceat(
            (3 * flat > T_elem).astype(np.int64), lane_starts)
        k = over_half
        nmid = over_third - over_half
        c1 = -((-totals) // T_lane)
        c2_ub = k + ((nmid + 1) >> 1)
        counts = np.maximum(np.where((k > 0) & (nmid > 0), c1,
                                     np.maximum(c1, c2_ub)), 1)
        # lanes where the pairing could push C2 above C1: exact greedy
        for g in np.flatnonzero((k > 0) & (nmid > 0) & (c2_ub > c1)):
            s, e = int(lane_starts[g]), int(lane_starts[g]
                                            + lane_sizes[g])
            counts[g] = presorted_class_count(
                flat[s:e].tolist(), int(totals[g]),
                int(T_lane[g]))
        return np.add.reduceat(counts, class_base[:-1])

    # the scalar search asserts hi is feasible before bisecting; cells
    # where it is not (cannot happen for feasible instances) go scalar
    bad = counts_for(hi) > budget
    for j in np.flatnonzero(bad):
        scalar.append(usable[j][0])
    alive = ~bad

    while True:
        active = alive & (lo < hi)
        if not active.any():
            break
        mid = np.where(active, (lo + hi) >> 1, np.maximum(hi, 1))
        feasible = counts_for(mid) <= budget
        hi = np.where(active & feasible, mid, hi)
        lo = np.where(active & ~feasible, mid + 1, lo)

    for j, (idx, *_rest) in enumerate(usable):
        if alive[j]:
            guesses[idx] = int(hi[j])
    return guesses, scalar


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


def nonpreemptive_slots_ok_many(
        cells: Sequence[tuple[Sequence[int], Sequence[int], int, int, int]]
        ) -> list[bool]:
    """Class-slot validation of many non-preemptive assignments at once.

    ``cells`` is a sequence of ``(assignment, classes, num_machines,
    num_classes, class_slots)``; the caller guarantees per cell that the
    assignment is total (no ``-1``) with every machine index inside
    ``0..num_machines-1`` — exactly the preconditions the single-cell
    ``_nonpreemptive_ok_vec`` establishes before its pair sweep.

    Returns one bool per cell: ``True`` means the schedule provably
    respects every machine's class-slot limit; ``False`` sends the
    caller down the scalar validator — either a real violation (whose
    exact error message the scalar path re-derives) or a cell whose key
    space does not fit the shared int64 sweep.
    """
    ok = [False] * len(cells)
    usable: list[int] = []
    pair_base: list[int] = []
    machine_base: list[int] = []
    pair_off = machine_off = 0
    for idx, (assignment, classes, m, num_classes, c) in enumerate(cells):
        span = int(m) * int(num_classes)
        if (len(assignment) == len(classes) and span > 0
                and pair_off + span < INT64_SAFE
                and machine_off + int(m) < INT64_SAFE):
            usable.append(idx)
            pair_base.append(pair_off)
            machine_base.append(machine_off)
            pair_off += span
            machine_off += int(m)
    if not usable:
        return ok
    keys = np.concatenate([
        pair_base[j]
        + np.asarray(cells[idx][0], dtype=np.int64) * int(cells[idx][3])
        + np.asarray(cells[idx][1], dtype=np.int64)
        for j, idx in enumerate(usable)])
    uniq = np.unique(keys)
    # map each distinct (cell, machine, class) key back to a globally
    # distinct machine id, then count distinct classes per machine
    bases = np.asarray(pair_base, dtype=np.int64)
    cell_of = np.searchsorted(bases, uniq, side="right") - 1
    C_of = np.asarray([int(cells[idx][3]) for idx in usable],
                      dtype=np.int64)[cell_of]
    machines_global = np.asarray(machine_base, dtype=np.int64)[cell_of] \
        + (uniq - bases[cell_of]) // C_of
    distinct = np.bincount(machines_global, minlength=machine_off)
    slots = np.repeat(
        np.asarray([int(cells[idx][4]) for idx in usable], dtype=np.int64),
        np.asarray([int(cells[idx][2]) for idx in usable], dtype=np.int64))
    fine = distinct <= slots
    starts = np.asarray(machine_base, dtype=np.int64)
    per_cell = np.logical_and.reduceat(fine, starts)
    for j, idx in enumerate(usable):
        ok[idx] = bool(per_cell[j])
    return ok
