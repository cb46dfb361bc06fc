"""Model-based test of the store protocol.

One hypothesis state machine drives a file-backed ``JobStore`` and
``JobStore(":memory:")`` in lockstep through the whole lease protocol —
create, ``claim_next``, ``claim_job``, heartbeat, requeue,
``release_lease``, quarantine, finish (with reports and with an error),
``reclaim_expired``, ``recover_incomplete`` — and a clock advance. The
two share their SQL but not their connection and transaction code: one
connection per thread on the file, one shared connection behind a lock
in memory. After every step both stores must have returned equal values
and show an equal ``get_job``, ``counts``, ``claims_by_worker`` and
``reports_for``, with job ids mapped between them. Four lifecycle
invariants are checked on the way:

* a terminal job never changes again;
* ``attempts`` equals the job's successful claims minus its releases;
* a finish on a job that is not running returns False and changes
  nothing;
* a running job cannot be claimed again.

The store module reads ``time.time()``; a fake clock replaces its
``time`` for the run, and every create advances it, so the claim order
(priority, then submission time) never falls back to the random job id.
"""

from __future__ import annotations

import shutil
import tempfile
from fractions import Fraction

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule)

import repro.service.store as store_module
from repro import Instance
from repro.engine import SolveReport
from repro.service import JobStore
from repro.service.store import TERMINAL_STATUSES

INST = Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)

LEASES = st.sampled_from([0.5, 5.0])
WORKERS = st.sampled_from(["alpha", "beta"])
DELAYS = st.sampled_from([0.0, 2.0])
#: Clock steps: inside a short lease, past it, past every lease.
STEPS = st.sampled_from([0.1, 1.0, 10.0])


class _Clock:
    """Stands in for the store module's ``time``."""

    def __init__(self) -> None:
        self.now = 1_700_000_000.0

    def time(self) -> float:
        return self.now


def _backoff(attempts: int) -> float:
    return 0.5 * attempts


def _report(label: str) -> SolveReport:
    return SolveReport(algorithm="lpt", instance_digest=INST.digest(),
                       instance_label=label, variant="nonpreemptive",
                       makespan=Fraction(22, 7), guess=Fraction(11, 7),
                       certified_ratio=2.0, proven_ratio="4/3",
                       wall_time_s=0.0, validated=True, extra={})


class StoreModel(RuleBasedStateMachine):
    jobs = Bundle("jobs")

    def __init__(self) -> None:
        super().__init__()
        self.clock = _Clock()
        self._saved = store_module.time
        store_module.time = self.clock
        self.dir = tempfile.mkdtemp(prefix="store-model-")
        self.stores = [JobStore(f"{self.dir}/jobs.db"), JobStore(":memory:")]
        #: Per job index, its id in each store; and the way back.
        self.ids: list[list[str]] = []
        self.index: list[dict[str, int]] = [{} for _ in self.stores]
        self.claims: list[int] = []
        self.releases: list[int] = []
        #: First terminal view of each job: (record, reports).
        self.terminal: dict[int, tuple] = {}

    def teardown(self) -> None:
        for store in self.stores:
            store.close()
        store_module.time = self._saved
        shutil.rmtree(self.dir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #

    def _view(self, k: int, rec) -> dict | None:
        """A record of store ``k`` as a dict, its id mapped to the index."""
        if rec is None:
            return None
        d = rec.to_dict()
        d["id"] = self.index[k][d["id"]]
        return d

    @staticmethod
    def _same(values: list):
        """Assert every store returned the same value; return it."""
        for other in values[1:]:
            assert other == values[0], values
        return values[0]

    def _each(self, j: int, method: str, *args, **kwargs) -> list:
        return [getattr(store, method)(self.ids[j][k], *args, **kwargs)
                for k, store in enumerate(self.stores)]

    def _record(self, j: int) -> dict:
        return self._same([self._view(k, rec) for k, rec
                           in enumerate(self._each(j, "get_job"))])

    def _reports(self, j: int) -> list[SolveReport]:
        return self._same(self._each(j, "reports_for"))

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #

    @rule(target=jobs, priority=st.integers(0, 2),
          max_attempts=st.integers(1, 3))
    def create(self, priority: int, max_attempts: int) -> int:
        self.clock.now += 0.001
        j = len(self.ids)
        recs = [store.create_job(INST, [("lpt", {})], label=f"job-{j}",
                                 priority=priority,
                                 max_attempts=max_attempts)
                for store in self.stores]
        self.ids.append([rec.id for rec in recs])
        for k, rec in enumerate(recs):
            self.index[k][rec.id] = j
        self.claims.append(0)
        self.releases.append(0)
        self._same([self._view(k, rec) for k, rec in enumerate(recs)])
        return j

    @rule(lease=LEASES, worker=WORKERS)
    def claim_next(self, lease: float, worker: str) -> None:
        got = self._same([self._view(k, store.claim_next(lease,
                                                         worker=worker))
                          for k, store in enumerate(self.stores)])
        if got is not None:
            assert got["status"] == "running"
            self.claims[got["id"]] += 1

    @rule(j=jobs, lease=LEASES, worker=WORKERS)
    def claim_job(self, j: int, lease: float, worker: str) -> None:
        before = self._record(j)
        ok = self._same(self._each(j, "claim_job", lease, worker=worker))
        if before["status"] == "running":
            assert not ok, "a running job was claimed again"
        if ok:
            self.claims[j] += 1

    @rule(j=jobs, lease=LEASES)
    def heartbeat(self, j: int, lease: float) -> None:
        self._same(self._each(j, "heartbeat", lease))

    @rule(j=jobs, delay=DELAYS)
    def requeue(self, j: int, delay: float) -> None:
        self._same(self._each(j, "requeue_job", error="transient",
                              delay=delay))

    @rule(j=jobs)
    def release(self, j: int) -> None:
        if self._same(self._each(j, "release_lease")):
            self.releases[j] += 1

    @rule(j=jobs)
    def quarantine(self, j: int) -> None:
        self._same(self._each(j, "quarantine_job", "gave up"))

    @rule(j=jobs, failed=st.booleans())
    def finish(self, j: int, failed: bool) -> None:
        before, reports_before = self._record(j), self._reports(j)
        if failed:
            ok = self._same(self._each(j, "finish_job", [], error="boom"))
        else:
            ok = self._same(self._each(j, "finish_job",
                                       [_report(f"job-{j}")]))
        if before["status"] != "running":
            assert not ok, "a finish on a non-running job succeeded"
            assert self._record(j) == before
            assert self._reports(j) == reports_before

    @rule()
    def reclaim_expired(self) -> None:
        # the order of each returned list is not part of the contract
        outs = []
        for k, store in enumerate(self.stores):
            requeued, quarantined = store.reclaim_expired(_backoff)
            outs.append(tuple(
                sorted((self._view(k, rec) for rec in part),
                       key=lambda d: d["id"])
                for part in (requeued, quarantined)))
        self._same(outs)

    @precondition(lambda self: self.ids)
    @rule()
    def recover_incomplete(self) -> None:
        self._same([[self._view(k, rec) for rec in store.recover_incomplete()]
                    for k, store in enumerate(self.stores)])

    @rule(dt=STEPS)
    def advance_clock(self, dt: float) -> None:
        self.clock.now += dt

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def stores_agree(self) -> None:
        for j in range(len(self.ids)):
            rec, reports = self._record(j), self._reports(j)
            assert rec["attempts"] == self.claims[j] - self.releases[j], \
                (j, rec, self.claims[j], self.releases[j])
            if rec["status"] in TERMINAL_STATUSES:
                first = self.terminal.setdefault(j, (rec, reports))
                assert (rec, reports) == first, "a terminal job changed"
        self._same([store.counts() for store in self.stores])
        self._same([store.claims_by_worker() for store in self.stores])


StoreModel.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=60,
    stateful_step_count=30, suppress_health_check=[HealthCheck.too_slow])

TestStoreModel = StoreModel.TestCase
