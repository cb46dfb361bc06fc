"""Cutting classes into sub-classes of load at most ``T`` (Algorithm 1).

Given a makespan guess ``T``, every class with accumulated load ``P_u > T``
is cut into ``ceil(P_u / T)`` sub-classes: conceptually the jobs of the
class are concatenated (in job-index order) and sliced at multiples of
``T``. All but the last sub-class have load exactly ``T``; a job lying
across a slice boundary is cut there.

The concatenation order matters for the preemptive regime: the tail of a
cut job is the *last* piece of its sub-class and the head is the *first*
piece of the next one, which is exactly what makes the repacking of
Algorithm 2 collision-free (see :mod:`repro.approx.preemptive`).

This is the hottest kernel of the constant-factor solvers, so the default
implementation runs on exact scaled integers: with ``T = num/den`` every
quantity here is a multiple of ``1/den``, so :func:`cut_units` cuts in
units of ``1/den`` on plain ``int``. The Theorem 4 and 5 solvers build
their schedules straight from its integer columns; the fast path of
:func:`split_classes` wraps the same loop and builds ``Fraction`` values
per piece. The pure-``Fraction`` reference implementation is kept for the
golden-equivalence tests and the perf harness
(:func:`repro.core.fastmath.use_fast_paths`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ..core.fastmath import fast_paths_enabled
from ..core.instance import Instance

__all__ = ["SubClass", "Cut", "cut_units", "split_classes"]


@dataclass(frozen=True)
class SubClass:
    """A sub-class produced by cutting: a run of (job, amount) pieces.

    ``pieces`` preserves concatenation order. ``is_full`` marks sub-classes
    of load exactly ``T`` (the paper's ``P_u' = T`` classes).
    """

    original_class: int
    pieces: tuple[tuple[int, Fraction], ...]
    load: Fraction
    is_full: bool

    def jobs(self) -> list[int]:
        return [j for j, _ in self.pieces]


def split_classes(inst: Instance, T: Fraction) -> list[SubClass]:
    """Cut every class of ``inst`` at multiples of ``T``.

    Returns all sub-classes (classes with ``P_u <= T`` yield themselves,
    uncut). Total count equals ``split_count(class_loads, T)``.
    """
    T = Fraction(T)
    if T <= 0:
        raise ValueError("T must be positive")
    if fast_paths_enabled():
        return _split_classes_fast(inst, T)
    return _split_classes_reference(inst, T)


class Cut(NamedTuple):
    """Every sub-class of one cut, in units of ``1/den`` of ``T = num/den``.

    Sub-class ``k`` of class ``classes[k]`` is the run of pieces
    ``bounds[k]:bounds[k + 1]`` of the flat ``jobs``/``units`` columns,
    in concatenation order, with load ``loads[k]`` (``== num`` exactly
    when it is full).
    """

    jobs: list[int]
    units: list[int]
    bounds: list[int]
    loads: list[int]
    classes: list[int]


def cut_units(inst: Instance, num: int, den: int) -> Cut:
    """Cut every class of ``inst`` at multiples of ``T = num/den`` on
    plain ints: the one cutting loop behind the fast paths."""
    times = inst.processing_times
    jobs: list[int] = []
    units: list[int] = []
    bounds = [0]
    loads: list[int] = []
    classes: list[int] = []
    for u, class_jobs in enumerate(inst.jobs_by_class):
        load = 0
        for j in class_jobs:
            remaining = times[j] * den
            while remaining > 0:
                room = num - load
                take = room if room < remaining else remaining
                jobs.append(j)
                units.append(take)
                load += take
                remaining -= take
                if load == num:
                    bounds.append(len(jobs))
                    loads.append(num)
                    classes.append(u)
                    load = 0
        if load:
            bounds.append(len(jobs))
            loads.append(load)
            classes.append(u)
    return Cut(jobs, units, bounds, loads, classes)


def _split_classes_fast(inst: Instance, T: Fraction) -> list[SubClass]:
    """:func:`cut_units`, with each piece and load as a ``Fraction``."""
    num, den = T.numerator, T.denominator
    cut = cut_units(inst, num, den)
    subs: list[SubClass] = []
    for k, (u, load) in enumerate(zip(cut.classes, cut.loads)):
        lo, hi = cut.bounds[k], cut.bounds[k + 1]
        pieces = tuple((j, Fraction(a, den)) for j, a in
                       zip(cut.jobs[lo:hi], cut.units[lo:hi]))
        subs.append(SubClass(u, pieces, Fraction(load, den), load == num))
    return subs


def _split_classes_reference(inst: Instance, T: Fraction) -> list[SubClass]:
    """The original pure-``Fraction`` cutting loop (reference path)."""
    subs: list[SubClass] = []
    for u in range(inst.num_classes):
        jobs = inst.jobs_of_class(u)
        current: list[tuple[int, Fraction]] = []
        current_load = Fraction(0)
        for j in jobs:
            remaining = Fraction(inst.processing_times[j])
            while remaining > 0:
                room = T - current_load
                take = min(room, remaining)
                current.append((j, take))
                current_load += take
                remaining -= take
                if current_load == T:
                    subs.append(SubClass(u, tuple(current), T, True))
                    current = []
                    current_load = Fraction(0)
        if current:
            subs.append(SubClass(u, tuple(current), current_load, False))
    return subs
