"""The advanced border binary search of Lemma 2.

In the splittable algorithm the only thing a makespan guess ``T`` controls
is how many sub-classes are produced when classes with ``P_u > T`` are cut
into pieces of size ``T``: class ``u`` yields ``ceil(P_u / T)`` sub-classes.
The guess is feasible iff the total sub-class count is at most ``c * m``.
The count only changes at the *borders* ``P_u / k``, so it suffices to
search those; Lemma 2 takes ``k`` in ``1..m``.

The fast path never walks ``k`` class by class. Let ``S`` be the sum of
the ``C'`` positive loads and ``B`` the budget. The threshold without the
``k <= m`` cap, ``T0 = min{T : sum_u ceil(P_u/T) <= B}``, lies in the
window ``[S/B, min(Pmax, S/(B - C'))]``: below ``S/B`` the count exceeds
``S/T > B``, at ``S/(B - C')`` it is below ``S/T + C' = B``, and at
``Pmax`` it is ``C'``. Class ``u`` has at most ``P_u C'/S + 1`` borders in
that window, so it holds at most ``2C'`` borders whatever ``m`` is.
:func:`count_threshold` sorts them exactly and bisects them with about
``log2(2C')`` exact counts. Lemma 2's border is ``T0`` snapped to the
cap: class ``u``'s largest feasible ``k`` is ``min(m, floor(P_u/T0))``,
and the border is the minimum over ``u`` of ``P_u`` over that ``k``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ..core.fastmath import INT64_SAFE, fast_paths_enabled

__all__ = ["split_count", "candidate_borders", "count_threshold",
           "smallest_feasible_border", "advanced_binary_search"]


def _split_count_scaled(class_loads: Sequence[int], num: int,
                        den: int) -> int:
    """``split_count`` for ``T = num/den`` on plain ints (no ``Fraction``
    construction): ``sum ceil(P * den / num)``."""
    total = 0
    for P in class_loads:
        total += -((-P * den) // num)
    return total


def _split_count_vec(loads: np.ndarray, num: int, den: int) -> int:
    """Vectorised ``split_count``; caller guarantees int64 headroom.

    ``numpy`` floor division rounds toward -inf exactly like Python's
    ``//``, so the negated-floor ceiling trick transfers unchanged."""
    return int(-np.sum((loads * -den) // num))


def _counter(loads: list[int]):
    """``(num, den) -> split_count(loads, num/den)`` on the fastest exact
    kernel the magnitudes allow: numpy int64 under the overflow guard,
    Python ints otherwise."""
    nc = len(loads)
    max_load = max(loads, default=0)
    arr = np.asarray(loads, dtype=np.int64) \
        if nc >= 8 and max_load < INT64_SAFE else None

    def count(num: int, den: int) -> int:
        # bound the whole accumulated sum, not just each term: the count
        # of an infeasibly small guess can dwarf any one ceil term
        if arr is not None and 0 < num < INT64_SAFE \
                and nc * (max_load * den + 1) < INT64_SAFE:
            return _split_count_vec(arr, num, den)
        return _split_count_scaled(loads, num, den)
    return count


def split_count(class_loads: Sequence[int], T: Fraction) -> int:
    """Total number of (sub-)classes when every class with ``P_u > T`` is cut
    into ``ceil(P_u / T)`` pieces. Exact integer arithmetic."""
    if T <= 0:
        raise ValueError("T must be positive")
    if fast_paths_enabled():
        return _counter(list(class_loads))(T.numerator, T.denominator)
    return _split_count_scaled(class_loads, T.numerator, T.denominator)


def candidate_borders(class_loads: Sequence[int], m: int,
                      cap: int = 1_000_000) -> list[Fraction]:
    """Sorted, deduplicated border set ``{P_u / k : k in 1..min(m, P_u)}``.

    Full materialisation — only for small ``m`` (tests, figures). The
    algorithms use :func:`smallest_feasible_border`, which never
    materialises the set: it sorts only the at most ``2C'`` borders of the
    window around the threshold (see the module docstring), so its cost
    does not grow with ``m``.
    """
    borders: set[Fraction] = set()
    total = 0
    for P in class_loads:
        if P <= 0:
            continue
        total += m
        if total > cap:
            raise ValueError(
                f"border set would exceed {cap} values; use "
                "smallest_feasible_border for large m")
        for k in range(1, m + 1):
            borders.add(Fraction(P, k))
    return sorted(borders)


def count_threshold(class_loads: Sequence[int],
                    budget: int) -> Fraction | None:
    """``T0 = min{T > 0 : split_count(class_loads, T) <= budget}``, exactly.

    Lemma 2's border without the ``k <= m`` cap, and a lower bound on
    every Theorem 6 guess (its class counts dominate ``ceil(P_u/T)``).
    ``T0`` is a border ``P_u/k`` in the window of the module docstring;
    the window's borders are sorted exactly and bisected, with counts on
    int64 when every product provably fits and on Python ints otherwise.
    Loads must be non-negative. Returns ``None`` when no ``T`` passes:
    ``budget`` is below the number ``C'`` of positive loads.
    """
    pos = [int(P) for P in class_loads if P > 0]
    nc = len(pos)
    if nc == 0 or budget < nc:
        return None
    total = sum(pos)
    slack = budget - nc
    distinct = sorted(set(pos))
    pmax = distinct[-1]
    # class P's window borders are P/k for k in
    # [max(1, ceil(P * slack / S)), floor(P * budget / S)]
    k_max = pmax * budget // total
    if pmax * budget < INT64_SAFE \
            and nc * (pmax * k_max + 1) < INT64_SAFE:
        loads = np.asarray(distinct, dtype=np.int64)
        k_lo = np.maximum(1, -((-loads * slack) // total))
        width = np.maximum(loads * budget // total - k_lo + 1, 0)
        nums = np.repeat(loads, width)
        dens = np.repeat(k_lo - (np.cumsum(width) - width), width) \
            + np.arange(int(width.sum()), dtype=np.int64)
        # rounding is monotone, so the float order can only leave
        # distinct borders tied: verify it exactly, pair by pair
        order = np.argsort(nums / dens, kind="stable")
        nums, dens = nums[order], dens[order]
        if not np.all(nums[:-1] * dens[1:] <= nums[1:] * dens[:-1]):
            nums, dens = _exact_order(zip(nums.tolist(), dens.tolist()))
    else:
        nums, dens = _exact_order(
            (P, k) for P in distinct
            for k in range(max(1, -((-P * slack) // total)),
                           P * budget // total + 1))

    count = _counter(pos)
    # the window's largest border is >= T0, hence feasible
    lo, hi = 0, len(nums) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if count(int(nums[mid]), int(dens[mid])) <= budget:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(int(nums[lo]), int(dens[lo]))


def _exact_order(borders: Iterable[tuple[int, int]]
                 ) -> tuple[list[int], list[int]]:
    """``(num, den)`` borders in exact ascending order, as two columns."""
    ordered = sorted(borders, key=lambda b: Fraction(*b))
    return [num for num, _ in ordered], [den for _, den in ordered]


def smallest_feasible_border(class_loads: Sequence[int], m: int,
                             budget: int) -> Fraction | None:
    """Smallest border ``T = P_u/k`` (``k <= m``) with ``split_count(T) <=
    budget`` (Lemma 2).

    Feasibility is monotone in ``T`` (each ``ceil(P_u/T)`` is
    non-increasing), so the feasible region is ``[T0, inf)``. Class
    ``u``'s smallest border in it is ``P_u / min(m, floor(P_u/T0))``, and
    the answer is the minimum of those over ``u``. The fast path computes
    ``T0`` with :func:`count_threshold` and takes that minimum; the
    reference binary-searches ``k in 1..m`` per class. Neither walks the
    ``m`` borders of a class.

    Returns ``None`` when no border is feasible, i.e. the class count
    alone exceeds the budget (``C > c*m``): no schedule exists at all.
    """
    if fast_paths_enabled():
        return _smallest_feasible_border_fast(class_loads, m, budget)
    return _smallest_feasible_border_reference(class_loads, m, budget)


def _smallest_feasible_border_reference(class_loads: Sequence[int], m: int,
                                        budget: int) -> Fraction | None:
    """Pure-``Fraction`` reference implementation (perf harness + golden
    equivalence); the fast path must return the identical border."""
    best: Fraction | None = None
    for P in set(class_loads):
        if P <= 0:
            continue
        # k ranges over 1..m (Lemma 2): beyond k = m the area bound takes
        # over. Borders may drop below 1 — processing times are integral
        # but split pieces are not.
        kmax = m
        lo, hi = 1, kmax
        best_k = None
        while lo <= hi:
            mid = (lo + hi) // 2
            guess = Fraction(P, mid)
            if _split_count_scaled(class_loads, guess.numerator,
                                   guess.denominator) <= budget:
                best_k = mid
                lo = mid + 1
            else:
                hi = mid - 1
        if best_k is not None:
            cand = Fraction(P, best_k)
            if best is None or cand < best:
                best = cand
    return best


def _smallest_feasible_border_fast(class_loads: Sequence[int], m: int,
                                   budget: int) -> Fraction | None:
    """:func:`count_threshold` snapped to the ``k <= m`` cap."""
    t0 = count_threshold(class_loads, budget)
    if t0 is None:
        return None
    num, den = t0.numerator, t0.denominator
    loads = {int(P) for P in class_loads}
    # while floor(P_u / T0) <= m for every class the cap never binds, and
    # the class whose border T0 is returns T0 itself
    if max(loads) * den // num <= m:
        return t0
    best_num: int | None = None
    best_den = 1
    for P in loads:
        k = min(m, P * den // num)
        if k >= 1 and (best_num is None or P * best_den < best_num * k):
            best_num, best_den = P, k
    return None if best_num is None else Fraction(best_num, best_den)


def advanced_binary_search(class_loads: Sequence[int], m: int, budget: int,
                           lower_bound: Fraction) -> Fraction | None:
    """Lemma 2's search: the guess used by Algorithm 1.

    Returns ``max(lower_bound, smallest feasible border)``. Both terms lower
    bound the optimum: the area/pmax term by definition, the border term
    because any schedule with makespan below it would need more than
    ``c * m`` class slots. ``None`` signals an infeasible instance
    (``C > c * m``).
    """
    border = smallest_feasible_border(class_loads, m, budget)
    if border is None:
        return None
    return max(Fraction(lower_bound), border)
