"""Exact-arithmetic fast paths and the switch that disables them.

The solver inner loops used to run on :class:`fractions.Fraction`
throughout.  Every ``Fraction`` operation normalises through a gcd, which
dominated the wall-clock of the hot kernels (class splitting, the border
search, schedule load accounting).  The fast paths in this repository
replace that arithmetic with *exact scaled integers*: a common denominator
is factored out once at loop entry, the loop body runs on plain ``int``
(or vectorised ``numpy`` int64 when the magnitudes provably fit), and
``Fraction`` values are reconstructed only at API boundaries.  Results are
mathematically identical — the golden-equivalence tests assert that the
fast and reference paths produce byte-identical ``SolveReport`` JSON.

:func:`use_fast_paths` flips every gated fast path back to the original
pure-``Fraction`` reference implementation.  It exists for two consumers:

* the golden-equivalence tests, which run each workload twice and compare
  the reports byte for byte, and
* the perf harness (``repro bench``), which measures the speedup of each
  kernel against its reference.

Anything whose *output* feeds a persistent key (e.g. ``Instance.digest``)
is deliberately **not** gated — cache keys must never depend on which
arithmetic path computed them.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Iterator

__all__ = ["fast_paths_enabled", "set_fast_paths", "use_fast_paths",
           "max_fraction", "INT64_SAFE"]

#: Conservative magnitude bound under which intermediate products of the
#: vectorised int64 kernels cannot overflow (leaves headroom for one
#: multiply-accumulate over any realistic axis length).
INT64_SAFE = 2 ** 62

_enabled: bool = True


def fast_paths_enabled() -> bool:
    """Whether the scaled-integer fast paths are active (the default)."""
    return _enabled


def set_fast_paths(on: bool) -> bool:
    """Enable/disable the fast paths process-wide; returns the old value."""
    global _enabled
    old = _enabled
    _enabled = bool(on)
    return old


@contextmanager
def use_fast_paths(on: bool) -> Iterator[None]:
    """Context manager form of :func:`set_fast_paths`.

    ``with use_fast_paths(False): ...`` runs the body on the pure-Fraction
    reference implementations.
    """
    old = set_fast_paths(on)
    try:
        yield
    finally:
        set_fast_paths(old)


def max_fraction(values: Iterable[Fraction | int],
                 default: Fraction | None = None) -> Fraction:
    """Maximum of rationals via cross-multiplication on raw ints.

    Avoids ``Fraction.__gt__``'s abc ``isinstance`` dance in tight loops;
    same-denominator runs compare with one integer comparison.
    """
    best_n: int | None = None
    best_d = 1
    for v in values:
        n, d = v.numerator, v.denominator
        if best_n is None or (n > best_n if d == best_d
                              else n * best_d > best_n * d):
            best_n, best_d = n, d
    if best_n is None:
        if default is None:
            raise ValueError("max_fraction() of empty iterable")
        return default
    return Fraction(best_n, best_d)
