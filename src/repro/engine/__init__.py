"""Unified execution engine: registry-dispatched solver runs at scale.

* :class:`~repro.engine.report.SolveReport` — the one result record.
* :func:`~repro.engine.runner.run_batch` — instances x algorithms with
  process fan-out, per-run timeouts and caching, through one generator
  (:func:`~repro.engine.runner.iter_batch`) that ``Session.stream``
  shares.
* :mod:`~repro.engine.pool` — the persistent process pool behind every
  parallel batch (:func:`~repro.engine.pool.shutdown_pool` to release).

The result cache (:class:`~repro.resultcache.ReportCache`,
:func:`~repro.resultcache.cache_key`) lives in :mod:`repro.resultcache`;
both names are re-exported here.
"""

from ..resultcache import ReportCache, cache_key
from .pool import get_pool, pool_id, shutdown_pool
from .report import SolveReport
from .runner import DEFAULT_WORKERS, execute, run_batch

__all__ = ["SolveReport", "ReportCache", "cache_key", "execute",
           "run_batch", "DEFAULT_WORKERS", "get_pool", "pool_id",
           "shutdown_pool"]
