"""Deterministic, seeded fault injection for the crash-safety harness.

A *fault plan* maps site names to firing rates (plus an optional numeric
argument), spelled ``site:rate[:arg]`` and comma-joined::

    REPRO_FAULTS="worker_kill:0.1,chunk_raise:0.05,store_commit:0.1"
    REPRO_FAULTS_SEED=7

The environment is read lazily and re-checked on change, so pool workers
forked after ``os.environ`` was set inherit the plan, and a test can
install one around a single campaign. :func:`configure` installs a plan
programmatically (overriding the environment) and returns the previous
one so callers can restore it.

Determinism: every site draws from its own counter-indexed stream —
draw ``n`` at site ``s`` under seed ``k`` hashes ``"k:s:n"`` into a
fresh ``random.Random``, so a single-threaded consumer (the fuzz faults
oracle) sees the exact same fault sequence on every run. Child
processes (pool workers) additionally mix their pid into the key:
forked workers all start their counters at zero, and without the pid a
``worker_kill`` plan would fire identically in *every* worker on the
same draw — each retry would re-kill the whole pool forever.

The registry has no dependencies beyond :mod:`repro.obs.metrics`, so
any layer (engine, store, backend probes) can host a site without
import cycles. With no plan installed and no environment variable set,
:func:`should_fire` is a few attribute reads — cold paths stay cold.

Sites currently wired in:

======================  =================================================
``worker_kill``         pool worker ``os._exit(17)`` at chunk entry
``chunk_raise``         pool worker raises at chunk entry
``store_commit``        raise in :meth:`JobStore.finish_job`
``drainer_loop``        raise in the drainer after claiming (thread dies)
``solve_delay``         sleep ``arg`` seconds inside the timed solve
``milp_probe``          HiGHS/scipy backend probe reports unavailable
======================  =================================================
"""

from __future__ import annotations

import multiprocessing
import os
import random
import threading
from contextlib import contextmanager
from dataclasses import dataclass

from ..obs.metrics import REGISTRY

__all__ = ["FaultInjected", "FaultRule", "FaultPlan", "KNOWN_SITES",
           "parse_plan", "configure", "reset", "active_plan",
           "should_fire", "maybe_raise", "maybe_kill_worker", "disabled"]

KNOWN_SITES = frozenset({
    "worker_kill", "chunk_raise", "store_commit", "drainer_loop",
    "solve_delay", "milp_probe",
})

FAULTS_INJECTED = REGISTRY.counter(
    "repro_faults_injected_total",
    "Faults fired by the injection registry, by site.",
    labelnames=("site",))


class FaultInjected(RuntimeError):
    """Raised when an injection site fires. Deliberately a
    ``RuntimeError`` (and picklable) so it crosses the process-pool
    boundary and lands in the queue's *retryable* failure class."""

    def __init__(self, site: str) -> None:
        super().__init__(f"fault injected at site {site!r}")
        self.site = site

    def __reduce__(self):
        return (FaultInjected, (self.site,))


@dataclass(frozen=True)
class FaultRule:
    """One site's firing rate, plus an optional site-specific argument
    (``solve_delay`` reads it as seconds to sleep)."""

    site: str
    rate: float
    arg: float | None = None


class FaultPlan:
    """A parsed plan: per-site rules, a seed, and per-site draw counters."""

    def __init__(self, rules, seed: int = 0) -> None:
        self.rules: dict[str, FaultRule] = {r.site: r for r in rules}
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}

    def spec(self) -> str:
        """The ``site:rate[:arg]`` spelling (round-trips through
        :func:`parse_plan`)."""
        return ",".join(
            f"{r.site}:{r.rate:g}" + (f":{r.arg:g}" if r.arg is not None
                                      else "")
            for r in self.rules.values())

    def draw(self, site: str) -> FaultRule | None:
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            n = self._counters.get(site, 0)
            self._counters[site] = n + 1
        if rule.rate >= 1.0:
            return rule
        if rule.rate <= 0.0:
            return None
        key = f"{self.seed}:{site}:{n}"
        if multiprocessing.parent_process() is not None:
            # decorrelate forked pool workers (their counters all restart
            # at zero); parent-side draws stay fully deterministic
            key += f":{os.getpid()}"
        return rule if random.Random(key).random() < rule.rate else None


def parse_plan(spec: str, seed: int = 0) -> FaultPlan:
    """Parse ``"site:rate[:arg],..."`` into a :class:`FaultPlan`."""
    rules = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        if len(pieces) not in (2, 3):
            raise ValueError(
                f"bad fault spec {part!r}; expected 'site:rate[:arg]'")
        site = pieces[0].strip()
        if site not in KNOWN_SITES:
            raise ValueError(f"unknown fault site {site!r}; one of: "
                             f"{', '.join(sorted(KNOWN_SITES))}")
        try:
            rate = float(pieces[1])
        except ValueError:
            raise ValueError(f"bad fault rate in {part!r}") from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {rate:g}")
        arg = None
        if len(pieces) == 3:
            try:
                arg = float(pieces[2])
            except ValueError:
                raise ValueError(f"bad fault arg in {part!r}") from None
        rules.append(FaultRule(site, rate, arg))
    return FaultPlan(rules, seed)


_lock = threading.Lock()
_configured = False                     # a programmatic plan is installed
_plan: FaultPlan | None = None
_env_spec: str | None = None            # last REPRO_FAULTS value parsed
_suppress = threading.local()


def configure(plan: FaultPlan | str | None,
              seed: int = 0) -> FaultPlan | None:
    """Install ``plan`` process-wide (a spec string, a :class:`FaultPlan`,
    or ``None`` to hand control back to the environment). Returns the
    previously configured plan — ``None`` when the environment was in
    charge — so callers can restore it in a ``finally``."""
    global _configured, _plan, _env_spec
    with _lock:
        prev = _plan if _configured else None
        if plan is None:
            _configured, _plan, _env_spec = False, None, None
        else:
            if isinstance(plan, str):
                plan = parse_plan(plan, seed)
            _configured, _plan = True, plan
        return prev


def reset() -> None:
    """Drop any installed plan and force an environment re-read (with
    fresh draw counters) on the next site check."""
    configure(None)


def active_plan() -> FaultPlan | None:
    """The plan sites draw from right now, resolving the environment."""
    global _plan, _env_spec
    with _lock:
        if _configured:
            return _plan
        spec = os.environ.get("REPRO_FAULTS") or None
        if spec != _env_spec:
            _env_spec = spec
            _plan = None
            if spec:
                seed = int(os.environ.get("REPRO_FAULTS_SEED", "0") or 0)
                _plan = parse_plan(spec, seed)
        return _plan


@contextmanager
def disabled():
    """No faults fire on *this thread* inside the block, regardless of
    plan or environment — chaos and the fuzz faults oracle compute their
    fault-free expected reports under it while the injected service
    keeps faulting on its own threads."""
    prev = getattr(_suppress, "on", False)
    _suppress.on = True
    try:
        yield
    finally:
        _suppress.on = prev


def should_fire(site: str) -> FaultRule | None:
    """The rule for ``site`` when its deterministic draw fires, else
    ``None``. Near-zero cost when no plan is installed or configured."""
    if _plan is None and not _configured \
            and "REPRO_FAULTS" not in os.environ:
        return None
    if getattr(_suppress, "on", False):
        return None
    plan = active_plan()
    if plan is None:
        return None
    rule = plan.draw(site)
    if rule is not None:
        FAULTS_INJECTED.inc(site=site)
    return rule


def maybe_raise(site: str) -> None:
    """Raise :class:`FaultInjected` when ``site`` fires."""
    if should_fire(site) is not None:
        raise FaultInjected(site)


def maybe_kill_worker() -> None:
    """Fire ``worker_kill``: hard-exit the process — but only ever inside
    a pool worker (a child process); the parent is never killed."""
    if multiprocessing.parent_process() is None:
        return
    if should_fire("worker_kill") is not None:
        os._exit(17)
