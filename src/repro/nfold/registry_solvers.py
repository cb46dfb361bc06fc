"""The ``nfold-*`` registry solvers: the paper's n-fold path, end to end.

Each solver runs a warm-started dual-approximation search on makespan
guesses. The warm start is the matching constant-factor algorithm
(Theorems 4/5/6), whose certified guess and achieved makespan bracket
``OPT`` — so the n-fold search begins with a window of width at most the
warm ratio instead of ``[bound, trivial upper bound]``. Every guess ``T``
is turned into the *faithful* Section-4 n-fold IP by
:mod:`repro.ptas.nfold_builders` and solved for feasibility; rejection is
one-sided (IP infeasible at ``T`` proves ``OPT > T``), acceptance yields
a schedule of makespan at most the rounded budget ``T-bar``.

These are *value-only* solvers (``RawSolve.schedule is None``, like the
``milp-*`` family): the certificate is the pair ``(guess, makespan)``
with ``guess <= OPT <= makespan``, plus the achieved accuracy
``extra["epsilon"] = makespan/guess - 1``. What makes them worth having
is the regime they claim: the IP dimensions depend on ``(C, c, q)`` and
the *rounded* size profile — never on the machine count — so they keep
working where the ``milp-*`` solvers cap at ``m <= 64`` and the explicit
preemptive PTAS at ``m <= 12``.

Backend selection per guess: the builder also packs the classes'
modules into a point of the guess's IP
(:func:`repro.ptas.nfold_builders.splittable_nfold_with_point` and its
non-preemptive twin), and when the exact :meth:`NFold.is_feasible`
check certifies that point the guess is accepted without an IP solver
(``"constructed"``). The packing counts machines instead of visiting
them, which is what keeps a solve flat in ``m``. Otherwise the
structure-exploiting DP (:func:`repro.nfold.solvers.solve_dp`) runs
when the estimated brick enumeration volume is small, and HiGHS solves
the assembled ILP when it is not; builder outputs carry wide slack
columns, so the DP engages only on micro programs — the same split the
paper makes between the Theorem-1 algorithm and what is practical to
run. ``extra["backend"]`` names how the accepted guess was decided.
Each run still loads the HiGHS backend once before its search, so a
missing backend reports ``unsupported`` whichever way the guesses go.
Graver augmentation (:func:`repro.nfold.solvers.augment`)
certifies accepted points whenever its candidate enumeration
(``(2 rho + 1)^t`` per brick) is tractable, feeding the
``repro_nfold_augment_rounds`` histogram.

If the n-fold search dead-ends on a shape its enumeration caps cannot
afford (:class:`~repro.core.errors.CapacityExceededError`), the solver
degrades to the warm start's certificate — still sound, honestly labelled
in ``extra["fallback"]`` — instead of reporting a feasible instance
``unsupported``. A missing HiGHS backend is different: that *is*
``unsupported`` (and ``supports()`` says so up front).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from ..core.bounds import pmax_bound
from ..core.errors import (CapacityExceededError, InfeasibleGuessError,
                           UnsupportedInstanceError)
from ..core.instance import Instance
from ..obs.metrics import REGISTRY
from ..ptas.common import (delta_for_epsilon, geometric_guess_search,
                           integral_guess_search)
from ..ptas.nfold_builders import (build_nonpreemptive_nfold,
                                   build_splittable_nfold,
                                   nonpreemptive_nfold_with_point,
                                   splittable_nfold_with_point)
from ..registry import RawSolve
from .milp_backend import _load_backend, solve_milp
from .solvers import augment, solve_dp
from .structure import NFold
from .theory import parameters_of, theorem1_log10_bound

__all__ = [
    "run_nfold_splittable",
    "run_nfold_preemptive",
    "run_nfold_nonpreemptive",
    "reference_theorem1_bound",
]

#: Prefer the exact brick DP when the estimated per-brick enumeration
#: volume stays below this; everything larger goes to HiGHS.
_DP_BRICK_VOLUME_CAP = 100_000

#: Run the Graver-augmentation certification pass only when the brick
#: dimension keeps ``(2 rho + 1)^t`` candidate enumeration tractable.
_AUGMENT_MAX_COLUMNS = 9

#: Machine counts past this overflow the builders' int64 right-hand
#: sides and bounds. Mirrored by ``repro.registry._NFOLD_MACHINE_CAP``
#: so ``supports()`` and the run-time rejection agree.
_MACHINE_CAP = 10**15


def _require_machine_cap(inst: Instance) -> None:
    if inst.machines > _MACHINE_CAP:
        raise UnsupportedInstanceError(
            f"machine count {inst.machines} exceeds the n-fold builders' "
            f"int64 bound {_MACHINE_CAP}")

AUGMENT_ROUNDS = REGISTRY.histogram(
    "repro_nfold_augment_rounds",
    "Graver augmentation rounds per n-fold augment() call "
    "(final no-improvement round included).",
    labelnames=("algorithm",),
    buckets=(1.0, 2.0, 5.0, 10.0, 25.0, 100.0, 1000.0))

GUESSES_TRIED = REGISTRY.histogram(
    "repro_nfold_guesses_tried",
    "Makespan guesses probed per nfold-* solver run (one n-fold "
    "build+solve each).",
    labelnames=("algorithm",),
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))


def _resolve_q(epsilon, delta) -> int:
    """``q = 1/delta`` from exactly one of ``epsilon``/``delta`` — the
    same convention as the explicit PTASes."""
    if (epsilon is None) == (delta is None):
        raise ValueError("pass exactly one of epsilon or delta")
    if epsilon is not None:
        return delta_for_epsilon(epsilon).denominator
    if isinstance(delta, int):
        if delta < 2:
            raise ValueError("q = 1/delta must be at least 2")
        return delta
    d = Fraction(delta)
    if d.numerator != 1 or d.denominator < 2:
        raise ValueError("delta must be 1/q for an integer q >= 2")
    return d.denominator


def _estimated_brick_volume(nf: NFold) -> float:
    """Worst per-brick box volume — the DP's brick enumeration cost."""
    worst = 1.0
    t = nf.t
    for i in range(nf.N):
        lo = nf.lower[i * t:(i + 1) * t]
        hi = nf.upper[i * t:(i + 1) * t]
        vol = 1.0
        for a, b in zip(lo, hi):
            vol *= int(b) - int(a) + 1
            if vol > 1e18:
                return vol
        worst = max(worst, vol)
    return worst


def _solve_feasibility(nf: NFold,
                       point: np.ndarray | None) -> tuple[np.ndarray | None,
                                                          str]:
    """One guess's IP and the backend that decided it: the constructed
    ``point`` when the exact check certifies it, else the brick DP when
    tractable, else HiGHS."""
    if point is not None and nf.is_feasible(point):
        return point, "constructed"
    if _estimated_brick_volume(nf) <= _DP_BRICK_VOLUME_CAP:
        return solve_dp(nf), "dp"
    return solve_milp(nf), "highs"


def _guess_tester(build, inst: Instance, q: int, what: str):
    """``try_guess`` for the searches: build the guess's program and a
    constructed point (``build``), decide it, and return ``(nf, x,
    backend)`` or raise :class:`InfeasibleGuessError`."""
    def try_guess(T):
        nf, point = build(inst, T, q)
        x, backend = _solve_feasibility(nf, point)
        if x is None:
            raise InfeasibleGuessError(f"{what} infeasible at T={T}")
        return nf, x, backend
    return try_guess


def _certify(nf: NFold, x: np.ndarray, algorithm: str) -> int | None:
    """Augmentation pass over an accepted point: with ``w = 0`` it must
    terminate without an improving step; the rounds it ran feed the
    histogram. Skipped (``None``) when candidate enumeration would not
    be tractable for the brick dimension."""
    if nf.t > _AUGMENT_MAX_COLUMNS:
        return None
    stats: dict = {}
    augment(nf, x, stats=stats)
    AUGMENT_ROUNDS.observe(stats["rounds"], algorithm=algorithm)
    return stats["rounds"]


def _nfold_extra(nf: NFold, backend: str, *, q: int, tried: int,
                 epsilon: Fraction, augment_rounds: int | None) -> dict:
    params = parameters_of(nf)
    extra = {
        "epsilon": str(epsilon),
        "delta": str(Fraction(1, q)),
        "guesses_tried": tried,
        "backend": backend,
        "nfold": {"N": params.N, "r": params.r, "s": params.s,
                  "t": params.t, "delta": params.delta, "L": params.L,
                  "theorem1_log10": round(theorem1_log10_bound(params), 3)},
    }
    if augment_rounds is not None:
        extra["augment_rounds"] = augment_rounds
    return extra


def _warm_fallback(guess, makespan, *, q: int, tried: int,
                   reason: str) -> RawSolve:
    """Sound degradation when the n-fold enumeration caps trip: the warm
    start's own certificate, with the honestly measured accuracy."""
    guess, makespan = Fraction(guess), Fraction(makespan)
    eps = makespan / guess - 1 if guess > 0 else Fraction(0)
    return RawSolve(None, guess, makespan=makespan,
                    extra={"epsilon": str(eps),
                           "delta": str(Fraction(1, q)),
                           "guesses_tried": tried,
                           "backend": "warm-start",
                           "fallback": reason})


# --------------------------------------------------------------------- #
# the three solvers
# --------------------------------------------------------------------- #

def run_nfold_splittable(inst: Instance, epsilon=None, delta=None) -> RawSolve:
    """Splittable CCS via the Section-4.1 n-fold IP.

    Search grid ``lb * (1+delta)^k`` over the warm window; acceptance at
    ``T`` certifies a schedule of makespan ``(1+4 delta) T`` (the rounded
    budget), rejection certifies ``OPT > T``.
    """
    from ..approx.splittable import splittable_value
    inst = inst.normalized()
    inst.require_feasible()
    _require_machine_cap(inst)
    q = _resolve_q(epsilon, delta)
    dlt = Fraction(1, q)
    _load_backend()
    # the warm window needs Theorem 4's (guess, makespan), not its schedule
    lb, ub = splittable_value(inst)
    try_guess = _guess_tester(splittable_nfold_with_point, inst, q,
                              "splittable n-fold IP")
    try:
        T, (nf, x, backend), tried = geometric_guess_search(
            lb, ub, dlt, try_guess)
    except (CapacityExceededError, InfeasibleGuessError) as exc:
        return _warm_fallback(lb, ub, q=q, tried=0, reason=str(exc))
    GUESSES_TRIED.observe(tried, algorithm="nfold-splittable")
    rounds = _certify(nf, x, "nfold-splittable")
    # the accepted IP packs the rounded loads into budget
    # T-bar = (1+4 delta) T; un-rounding only shrinks pieces
    makespan = min(Fraction(q + 4, q) * T, ub)
    # the grid point below T was rejected (or was the certified warm
    # lower bound itself), so OPT > T / (1+delta)
    guess = max(lb, T / (1 + dlt))
    eps = makespan / guess - 1 if guess > 0 else Fraction(0)
    return RawSolve(None, guess, makespan=makespan,
                    extra=_nfold_extra(nf, backend, q=q, tried=tried,
                                       epsilon=eps, augment_rounds=rounds))


def run_nfold_preemptive(inst: Instance, epsilon=None, delta=None) -> RawSolve:
    """Preemptive CCS via splittable n-fold feasibility plus wrap-around
    legalisation.

    The splittable IP is a relaxation of preemptive scheduling, so
    rejection at ``T`` proves ``OPT_pre > T``. An accepted splittable
    layout of machine loads at most ``B = (1+4 delta) T`` legalises into
    a preemptive timetable of makespan ``max(B, pmax)`` with the *same*
    job-to-machine assignments (Gonzalez–Sahni wrap-around: per-job
    totals and per-machine loads both fit in ``max(B, pmax)``, and class
    slots are untouched because no job changes machines).
    """
    from ..approx.preemptive import solve_preemptive
    inst = inst.normalized()
    inst.require_feasible()
    q = _resolve_q(epsilon, delta)
    dlt = Fraction(1, q)
    warm = solve_preemptive(inst)
    if warm.optimal:
        # m >= n: one job per machine is optimal (makespan = pmax);
        # no IP can improve on an exact closed form
        guess, makespan = Fraction(warm.guess), Fraction(warm.makespan)
        eps = makespan / guess - 1 if guess > 0 else Fraction(0)
        return RawSolve(None, guess, makespan=makespan,
                        extra={"epsilon": str(eps), "delta": str(dlt),
                               "guesses_tried": 0, "backend": "closed-form",
                               "optimal": True})
    _require_machine_cap(inst)
    _load_backend()
    pmax = Fraction(pmax_bound(inst))
    lb = max(Fraction(warm.guess), pmax)
    ub = Fraction(warm.makespan)
    try_guess = _guess_tester(splittable_nfold_with_point, inst, q,
                              "splittable relaxation")
    try:
        T, (nf, x, backend), tried = geometric_guess_search(
            lb, ub, dlt, try_guess)
    except (CapacityExceededError, InfeasibleGuessError) as exc:
        return _warm_fallback(warm.guess, ub, q=q, tried=0, reason=str(exc))
    GUESSES_TRIED.observe(tried, algorithm="nfold-preemptive")
    rounds = _certify(nf, x, "nfold-preemptive")
    makespan = min(max(Fraction(q + 4, q) * T, pmax), ub)
    guess = max(lb, T / (1 + dlt))
    eps = makespan / guess - 1 if guess > 0 else Fraction(0)
    return RawSolve(None, guess, makespan=makespan,
                    extra=_nfold_extra(nf, backend, q=q, tried=tried,
                                       epsilon=eps, augment_rounds=rounds))


def run_nfold_nonpreemptive(inst: Instance, epsilon=None,
                            delta=None) -> RawSolve:
    """Non-preemptive CCS via the Section-4.2 n-fold IP.

    Integral guess search: the optimum is integral and rejection at ``T``
    proves ``OPT > T``, so the smallest accepted guess is a certified
    lower bound. Acceptance packs the grouped, rounded jobs into budget
    ``T-bar = (1+3 delta)(1+2 delta) T``.
    """
    from ..approx.nonpreemptive import solve_nonpreemptive
    inst = inst.normalized()
    inst.require_feasible()
    _require_machine_cap(inst)
    q = _resolve_q(epsilon, delta)
    _load_backend()
    warm = solve_nonpreemptive(inst)
    lb, ub = int(warm.guess), int(warm.makespan)
    try_guess = _guess_tester(nonpreemptive_nfold_with_point, inst, q,
                              "non-preemptive n-fold IP")
    try:
        T, (nf, x, backend), tried = integral_guess_search(lb, ub, try_guess)
    except (CapacityExceededError, InfeasibleGuessError) as exc:
        return _warm_fallback(lb, ub, q=q, tried=0, reason=str(exc))
    GUESSES_TRIED.observe(tried, algorithm="nfold-nonpreemptive")
    rounds = _certify(nf, x, "nfold-nonpreemptive")
    # T-bar in units is exactly (q+3)(q+2)c, so the budget un-rounds to
    # T (q+3)(q+2)/q^2 — the builder's tbar_factor
    makespan = min(Fraction(T * (q + 3) * (q + 2), q * q), Fraction(ub))
    guess = Fraction(T)
    eps = makespan / guess - 1 if guess > 0 else Fraction(0)
    return RawSolve(None, guess, makespan=makespan,
                    extra=_nfold_extra(nf, backend, q=q, tried=tried,
                                       epsilon=eps, augment_rounds=rounds))


# --------------------------------------------------------------------- #
# Theorem-1 reference bounds (the `repro list` column)
# --------------------------------------------------------------------- #

#: The canonical large-m shape the `repro list` Theorem-1 column is
#: quoted at: past every MILP machine cap, small class structure.
_REFERENCE_INSTANCE = ((7, 5, 4, 3, 3, 2), (0, 0, 1, 1, 2, 2), 128, 2)


@lru_cache(maxsize=None)
def reference_theorem1_bound(variant: str) -> float:
    """``log10`` of the Theorem-1 running-time bound for the n-fold
    program ``variant`` builds at the reference shape (m=128, C=3, c=2,
    default grid q=2) — a comparable scale indicator per solver, not a
    measurement."""
    from ..core.bounds import nonpreemptive_lower_bound, splittable_lower_bound
    p, classes, m, c = _REFERENCE_INSTANCE
    inst = Instance(p, classes, m, c)
    q = 2
    if variant == "nonpreemptive":
        nf = build_nonpreemptive_nfold(inst, int(nonpreemptive_lower_bound(inst)), q)
    else:
        nf = build_splittable_nfold(inst, splittable_lower_bound(inst), q)
    return theorem1_log10_bound(parameters_of(nf))
