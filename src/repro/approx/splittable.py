"""The 2-approximation for splittable CCS (Algorithm 1 / Theorem 4).

Pipeline: advanced border binary search (Lemma 2) for the guess ``T``; cut
classes with ``P_u > T`` into sub-classes of load ``<= T``; round robin the
sub-classes in non-ascending load order. Guarantee: makespan at most
``sum p_j / m + T <= 2 T <= 2 OPT``.

Two output modes:

* **explicit** — a :class:`~repro.core.schedule.SplittableSchedule` holding
  every piece; chosen whenever the sub-class count is polynomially small.
* **compact** — for machine counts exponential in ``n`` the sub-class count
  can itself be astronomic (up to ``m`` full pieces of size exactly ``T``),
  so we return a :class:`~repro.approx.compact.CompactSplittableSchedule`
  that represents the round robin layout functionally and can materialise
  any individual machine on demand. This reproduces the paper's huge-``m``
  handling (output length polynomial in ``n``, running time ``O(n^2 log m)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.bounds import area_bound
from ..core.errors import InfeasibleInstanceError
from ..core.instance import Instance
from ..core.schedule import SplittableSchedule
from .borders import advanced_binary_search, split_count
from .compact import CompactSplittableSchedule
from .round_robin import round_robin_assignment
from .splitting import split_classes

__all__ = ["SplittableResult", "solve_splittable", "splittable_value"]

#: Above this many sub-classes the solver switches to the compact
#: representation. Any instance with m <= n stays far below it.
DEFAULT_PIECE_CAP = 500_000


@dataclass(frozen=True)
class SplittableResult:
    """Outcome of the splittable 2-approximation.

    ``guess`` is the accepted makespan guess ``T`` (a certified lower bound
    on OPT), so ``makespan / guess <= 2`` is the *a posteriori* ratio
    certificate. ``schedule`` is explicit or compact depending on size.
    """

    schedule: SplittableSchedule | CompactSplittableSchedule
    guess: Fraction
    lower_bound: Fraction
    makespan: Fraction

    @property
    def ratio_certificate(self) -> Fraction:
        """``makespan / guess``: provably an upper bound on ALG/OPT."""
        return self.makespan / self.guess if self.guess > 0 else Fraction(0)


def _guess(inst: Instance) -> tuple[Fraction, Fraction]:
    """``(T, lower_bound)`` for a normalized feasible instance: Lemma 2's
    border search from the area bound."""
    m, c = inst.machines, inst.class_slots
    lb = area_bound(inst)
    T = advanced_binary_search(inst.class_loads(), m, c * m, lb)
    if T is None:    # pragma: no cover — ruled out by require_feasible
        raise InfeasibleInstanceError(inst.num_classes, c * m)
    return T, lb


def splittable_value(inst: Instance) -> tuple[Fraction, Fraction]:
    """``(guess, makespan)`` of :func:`solve_splittable`, without building
    its schedule.

    Round robin puts each round's largest sub-class on machine 0, so
    machine 0 carries the makespan: the sum of the non-ascending
    sub-class loads at positions ``0, m, 2m, ...``. Cutting class ``u``
    at ``T`` yields ``floor(P_u / T)`` full sub-classes of load ``T``,
    which sort first, plus one remainder when ``T`` does not divide
    ``P_u``; the full ones are counted, never listed, so the cost is
    ``O(C log C)`` however large ``m`` is.
    """
    inst = inst.normalized()
    inst.require_feasible()
    T, _ = _guess(inst)
    num, den = T.numerator, T.denominator
    m = inst.machines
    full = 0
    remainders = []                 # in units of 1/den
    for P in inst.class_loads():
        k, rem = divmod(P * den, num)
        full += k
        if rem:
            remainders.append(rem)
    remainders.sort(reverse=True)
    rounds_in_full = -(-full // m)  # positions 0, m, ... below `full`
    units = rounds_in_full * num + sum(
        remainders[rounds_in_full * m - full::m])
    return T, Fraction(units, den)


def solve_splittable(inst: Instance,
                     piece_cap: int = DEFAULT_PIECE_CAP) -> SplittableResult:
    """Run Algorithm 1 on ``inst``.

    Raises :class:`InfeasibleInstanceError` when no feasible schedule
    exists (more classes than total class slots, ``C > c * m``).
    """
    inst = inst.normalized()
    inst.require_feasible()
    loads = inst.class_loads()
    T, lb = _guess(inst)

    n_sub = split_count(loads, T)
    # Explicit whenever feasible; the compact two-row layout is only valid
    # (and only needed) when m > n, which n_sub > 2n guarantees.
    if n_sub <= max(piece_cap, 2 * inst.num_jobs):
        sched = _build_explicit(inst, T)
        makespan = sched.makespan()
    else:
        sched = CompactSplittableSchedule.build(inst, T)
        makespan = sched.makespan()
    return SplittableResult(schedule=sched, guess=T, lower_bound=lb,
                            makespan=makespan)


def _build_explicit(inst: Instance, T: Fraction) -> SplittableSchedule:
    subs = split_classes(inst, T)
    sizes = [s.load for s in subs]
    rows = round_robin_assignment(sizes, inst.machines)
    sched = SplittableSchedule(inst.machines)
    for machine_pos, items in enumerate(rows):
        for item in items:
            for job, amount in subs[item].pieces:
                sched.assign(machine_pos, job, amount)
    return sched
