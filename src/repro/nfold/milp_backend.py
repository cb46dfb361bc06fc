"""HiGHS (via scipy) backend for N-fold ILPs.

The production path of the PTAS and the ``nfold-*`` registry solvers:
exact, robust, and fast for the block sizes a laptop run produces.
Returns ``None`` for proven infeasibility — the binary searches use that
to reject makespan guesses.

SciPy is imported lazily on the first solve, never at module import:
a container without the MILP backend can still import the registry,
probe ``supports()`` and run the structure-exploiting DP solvers. A
solve attempted without the backend raises
:class:`~repro.core.errors.UnsupportedInstanceError`, which the engine
taxonomy maps to the ``unsupported`` report status.
"""

from __future__ import annotations

import importlib.util

import numpy as np

from ..core.deadline import timed_milp
from ..core.errors import SolverError, UnsupportedInstanceError
from .structure import NFold

__all__ = ["solve_milp", "milp_available"]

#: Lazy backend cache: the imported (Bounds, LinearConstraint, milp,
#: csr_matrix) tuple, or ``None`` before the first solve. ``_BACKEND_ERROR``
#: records a failed import so we neither retry it per guess nor lie in
#: :func:`milp_available`.
_BACKEND: tuple | None = None
_BACKEND_ERROR: str | None = None


def _load_backend() -> tuple:
    global _BACKEND, _BACKEND_ERROR
    from ..faults import injection
    if injection.should_fire("milp_probe") is not None:
        # fault site: the backend flakes for this one solve — maps to the
        # ``unsupported`` report status, like a container without scipy
        raise UnsupportedInstanceError(
            "N-fold MILP backend unavailable: injected fault (milp_probe)")
    if _BACKEND is None and _BACKEND_ERROR is None:
        try:
            from scipy.optimize import Bounds, LinearConstraint, milp
            from scipy.sparse import csr_matrix
            _BACKEND = (Bounds, LinearConstraint, milp, csr_matrix)
        except ImportError as exc:      # pragma: no cover - env-dependent
            _BACKEND_ERROR = str(exc)
    if _BACKEND is None:
        raise UnsupportedInstanceError(
            "N-fold MILP backend unavailable: scipy could not be "
            f"imported ({_BACKEND_ERROR})")
    return _BACKEND


def milp_available() -> bool:
    """Whether the HiGHS/scipy backend can be loaded, without loading it.

    Cheap enough for ``supports()`` predicates: after a failed import it
    answers from the recorded error; before any import it only probes the
    module finder.
    """
    if _BACKEND is not None:
        return True
    if _BACKEND_ERROR is not None:
        return False
    return importlib.util.find_spec("scipy") is not None


def solve_milp(nf: NFold) -> np.ndarray | None:
    """Solve an N-fold ILP exactly; ``None`` iff infeasible."""
    Bounds, LinearConstraint, milp, csr_matrix = _load_backend()
    A, b = nf.assemble_dense()
    nvar = nf.num_variables
    if A.shape[0] == 0:
        # no equality constraints: box-minimise the objective directly
        x = np.where(nf.w >= 0, nf.lower, nf.upper)
        return x.astype(np.int64)
    constraints = LinearConstraint(csr_matrix(A), b.astype(float),
                                   b.astype(float))
    res = timed_milp(milp, c=nf.w.astype(float), constraints=constraints,
                     integrality=np.ones(nvar),
                     bounds=Bounds(nf.lower.astype(float),
                                   nf.upper.astype(float)))
    if res.status == 2:  # infeasible
        return None
    if res.status != 0 or res.x is None:
        raise SolverError(f"HiGHS failed on N-fold: status={res.status} "
                          f"message={res.message!r}")
    x = np.round(res.x).astype(np.int64)
    if not nf.is_feasible(x):
        raise SolverError("HiGHS returned a non-integral/infeasible point "
                          "after rounding")
    return x
