"""Performance measurement subsystem: benches, trajectory, regression gate.

* :mod:`repro.perf.harness` — ``timeit``-based microbench harness and the
  ``BENCH_results.json`` format (per-bench median/min, shapes, git rev).
* :mod:`repro.perf.suites` — named suites: the solver kernel benches
  (fast path vs pure-Fraction reference) and the batch engine benches
  (warm persistent pool vs cold pool).
* :mod:`repro.perf.compare` — the comparator that fails a run regressing
  beyond a threshold against the committed baseline, and refuses a
  baseline measured on a different build.

CLI: ``repro bench --suite smoke|kernel|batch|full`` (see ``repro bench
--help``).
"""

from .compare import (DEFAULT_FAIL_RATIO, DEFAULT_WARN_RATIO, Comparison,
                      build_mismatch, compare_results)
from .harness import (BenchResult, BenchRun, build_stamp, git_rev,
                      load_results, time_callable, write_results)
from .suites import SUITES, list_suites, run_suite

__all__ = [
    "BenchResult", "BenchRun", "Comparison", "SUITES",
    "DEFAULT_WARN_RATIO", "DEFAULT_FAIL_RATIO",
    "build_mismatch", "build_stamp", "compare_results", "git_rev",
    "list_suites", "load_results",
    "run_suite", "time_callable", "write_results",
]
