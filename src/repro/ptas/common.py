"""Shared PTAS machinery: accuracy handling and dual approximation search.

All three PTASes follow Hochbaum–Shmoys dual approximation: a procedure
``try_guess(T)`` either produces a schedule of makespan ``(1+O(delta))T``
or *proves* that no schedule of makespan ``T`` exists (the configuration
ILP is infeasible). A search over guesses then yields the PTAS.

The searches below probe the low end of their window first: it is a
certified lower bound, and the rounded guess ILPs accept it on most
instances, so one probe usually settles the search. Only after that
probe is rejected do they bisect the rest of the window. The rejection
test is one-sided — failure at ``T`` implies ``OPT > T`` — and this
order keeps the certificate the PTASes rely on: the returned guess is
the low end itself, or its grid predecessor was probed and rejected.
That gives ``T <= (1+delta) * OPT`` on the multiplicative grid
(splittable) and ``T <= OPT`` on the integer grid (the other regimes,
whose optima are integral).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Any, Callable

from ..core.errors import InfeasibleGuessError

__all__ = ["delta_for_epsilon", "PTASResult", "integral_guess_search",
           "geometric_guess_search"]


def delta_for_epsilon(epsilon: float | Fraction, budget: int = 7) -> Fraction:
    """The accuracy parameter ``delta = 1/q`` with ``1/delta`` integral.

    ``budget`` is the constant hidden in the paper's ``eps = O(delta)``:
    our error analyses lose at most ``budget * delta`` overall, so we pick
    ``q = ceil(budget / eps)``, giving a final ratio of at most
    ``1 + epsilon``. Any positive ``epsilon`` is accepted — values above 1
    are the coarse (fast) regime, floored at the minimal grid ``q = 2``,
    where the guarantee ``1 + budget * delta <= 1 + epsilon`` still holds;
    the registry's PTAS default epsilon lives there.
    """
    eps = Fraction(epsilon).limit_denominator(10**6)
    if eps <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    q = max(2, int(ceil(budget / eps)))
    return Fraction(1, q)


@dataclass
class PTASResult:
    """Outcome of a PTAS run.

    ``guess`` is the accepted makespan guess; in the integral regimes it is
    a certified lower bound on OPT, in the splittable regime it is at most
    ``(1+delta) * OPT``. ``makespan / guess`` therefore certifies the
    achieved ratio up to the stated slack.
    """

    schedule: Any
    guess: Fraction
    epsilon: Fraction
    delta: Fraction
    makespan: Fraction
    guesses_tried: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def ratio_certificate(self) -> Fraction:
        return self.makespan / self.guess if self.guess > 0 else Fraction(0)


def integral_guess_search(lb: int, ub: int,
                          try_guess: Callable[[int], Any]) -> tuple[int, Any, int]:
    """Smallest integral accepted guess in ``[lb, ub]``.

    ``try_guess`` returns an artifact on acceptance and raises
    :class:`InfeasibleGuessError` on rejection. ``lb`` is probed first;
    only if it is rejected is ``[lb + 1, ub]`` bisected. The returned
    guess is ``lb`` or its predecessor was probed and rejected, and
    rejection at ``T`` proves ``OPT > T``, so the guess is at most
    ``OPT`` whenever acceptance is guaranteed for every ``T >= OPT`` (the
    PTAS lemmas). Under monotone acceptance it is the smallest accepted
    guess. Returns ``(guess, artifact, guesses_tried)``.
    """
    tried = 0
    lo, hi = lb, ub
    best: tuple[int, Any] | None = None
    while lo <= hi:
        mid = lo if tried == 0 else (lo + hi) // 2
        tried += 1
        try:
            art = try_guess(mid)
        except InfeasibleGuessError:
            lo = mid + 1
            continue
        best = (mid, art)
        hi = mid - 1
    if best is None:
        raise InfeasibleGuessError(
            f"no feasible guess in [{lb}, {ub}] — instance infeasible")
    return best[0], best[1], tried


def geometric_guess_search(lb: Fraction, ub: Fraction, delta: Fraction,
                           try_guess: Callable[[Fraction], Any]
                           ) -> tuple[Fraction, Any, int]:
    """Accepted guess on the grid ``lb * (1+delta)^k``, smallest accepted k.

    Grid point 0 (``lb``) is probed first; only if it is rejected are
    points ``1..kmax`` bisected. Guarantees ``guess <= (1+delta) * OPT``:
    the accepted point is ``lb`` or the grid point directly below it was
    probed and rejected, and rejection at ``T`` proves ``OPT > T``.
    """
    lb, ub = Fraction(lb), Fraction(ub)
    if lb <= 0:
        raise ValueError("lower bound must be positive")
    step = 1 + Fraction(delta)
    # number of grid points
    kmax = 0
    v = lb
    while v < ub:
        v *= step
        kmax += 1
    tried = 0
    lo, hi = 0, kmax
    best: tuple[Fraction, Any] | None = None
    while lo <= hi:
        mid = lo if tried == 0 else (lo + hi) // 2
        T = lb * step ** mid
        tried += 1
        try:
            art = try_guess(T)
        except InfeasibleGuessError:
            lo = mid + 1
            continue
        best = (T, art)
        hi = mid - 1
    if best is None:
        raise InfeasibleGuessError(
            f"no feasible guess in [{lb}, {ub}] — instance infeasible")
    return best[0], best[1], tried
