"""Round robin allotment and the Lemma 3 load bound.

Round robin places items (here: classes or sub-classes) in non-ascending
size order cyclically over the machines: item ``i`` (0-based, sorted) goes to
machine ``i mod m``. Lemma 3 of the paper bounds the resulting maximum load
by ``sum(sizes)/m + max(sizes)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

__all__ = ["round_robin_assignment", "lemma3_bound", "round_robin_rows"]

T = TypeVar("T")


def _sorted_order(sizes: Sequence[Fraction | int]) -> list[int]:
    """Item indices by non-ascending size, ties by index. The sizes are
    compared as they are: ints and ``Fraction`` values compare exactly,
    and a reversed stable sort keeps equal sizes in index order."""
    return sorted(range(len(sizes)), key=sizes.__getitem__, reverse=True)


def round_robin_assignment(sizes: Sequence[Fraction | int],
                           num_machines: int) -> list[list[int]]:
    """Assign item indices to machines via sorted round robin.

    Returns ``machines`` as a list of ``min(num_machines, len(sizes))`` lists
    of item indices (machines beyond the first ``len(sizes)`` stay empty and
    are omitted — callers map positions to real machine ids). Ties are broken
    by item index for determinism.
    """
    if num_machines < 1:
        raise ValueError("need at least one machine")
    order = _sorted_order(sizes)
    # machine k takes sorted positions k, k + m, k + 2m, ...
    return [order[k::num_machines]
            for k in range(min(num_machines, len(sizes)))]


def round_robin_rows(sizes: Sequence[Fraction | int],
                     num_machines: int) -> list[list[int]]:
    """The same assignment organised by *round*: ``rows[r]`` lists the items
    placed in round ``r`` (machine ``k`` receives ``rows[r][k]``). Used by
    the figure-regeneration code, which draws rounds as stacked rows."""
    order = _sorted_order(sizes)
    rows = [order[r:r + num_machines]
            for r in range(0, len(order), num_machines)]
    return rows


def lemma3_bound(sizes: Sequence[Fraction | int],
                 num_machines: int) -> Fraction:
    """Lemma 3: round robin's makespan is at most ``sum/m + max``."""
    if not sizes:
        return Fraction(0)
    total = sum((Fraction(s) for s in sizes), Fraction(0))
    return total / num_machines + max(Fraction(s) for s in sizes)
