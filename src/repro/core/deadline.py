"""The wall-clock budget of the solve running in the current context.

The engine's per-cell timeout is a ``SIGALRM`` (or a watchdog thread),
and neither interrupts a call into C: HiGHS would run to its own end
before Python saw the signal. So the engine also records the cell's
deadline here, around the timed call, and every ``milp(...)`` call site
goes through :func:`timed_milp`, which passes the remaining budget on to
HiGHS and turns HiGHS's time-limit status into
:class:`DeadlineExceeded` — which the engine reports as the cell's
``timeout``.

The deadline lives in a context variable: a solve moved to a fresh
thread does not inherit it, so the engine sets it inside that thread.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Callable, Iterator

__all__ = ["DeadlineExceeded", "deadline", "timed_milp"]

#: ``scipy.optimize.milp``'s status for "iteration or time limit reached".
_HIGHS_TIME_LIMIT = 1

_DEADLINE: ContextVar[float | None] = ContextVar("repro_solve_deadline",
                                                 default=None)


class DeadlineExceeded(Exception):
    """The solve ran past its wall-clock budget."""


@contextmanager
def deadline(seconds: float) -> Iterator[None]:
    """Give the solve run inside the block ``seconds`` of wall time."""
    token = _DEADLINE.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _DEADLINE.reset(token)


def timed_milp(milp: Callable[..., Any], **kwargs: Any) -> Any:
    """``milp(**kwargs)`` (``scipy.optimize.milp``) with the remaining
    budget as HiGHS's ``time_limit``; raises :class:`DeadlineExceeded`
    when the budget is spent before the call or HiGHS stops at it.
    Without a deadline this is a plain ``milp(**kwargs)``."""
    end = _DEADLINE.get()
    if end is None:
        return milp(**kwargs)
    left = end - time.monotonic()
    if left <= 0:
        raise DeadlineExceeded()
    res = milp(options={"time_limit": left}, **kwargs)
    if res.status == _HIGHS_TIME_LIMIT:
        raise DeadlineExceeded()
    return res
