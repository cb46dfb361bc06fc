"""Microbenchmark harness: stdlib ``timeit`` with a JSON trajectory.

Design goals, in order:

1. **Durable** — every run can be written to ``BENCH_results.json``
   (per-bench median/min seconds, instance shapes, git revision, python
   version, the build), so the repository carries a perf trajectory
   instead of anecdotes.
2. **Comparable** — :mod:`repro.perf.compare` diffs two result files and
   flags regressions; the committed baseline gates CI. Each file records
   the optional accelerators its run used (:func:`build_stamp`), and a
   baseline from a different build is refused, not diffed.
3. **Honest** — benches that claim a speedup measure *both* sides in the
   same process back to back (fast path vs the pure-Fraction reference
   via :func:`repro.core.fastmath.use_fast_paths`, warm pool vs cold
   pool), and record the ratio alongside the raw timings.

Timings use ``timeit.Timer`` (GC disabled per rep, ``perf_counter``
underneath). Comparisons use the *minimum* over repeats — the statistic
least sensitive to scheduler noise on shared CI runners.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import timeit
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Callable, Mapping

__all__ = ["BenchResult", "BenchRun", "time_callable", "git_rev",
           "build_stamp", "measure_calibration", "write_results",
           "load_results", "RESULTS_SCHEMA"]

RESULTS_SCHEMA = "repro-bench-v1"


@dataclass(frozen=True)
class BenchResult:
    """One bench's measurement.

    ``median_s``/``min_s`` are seconds per single execution of the bench
    body. ``speedup`` (when present) is reference-time / fast-time of the
    comparison the bench embeds — kernel benches compare against the
    pure-Fraction reference path, the batch bench against a cold process
    pool. ``shape`` describes the workload so baselines are only compared
    like for like.
    """

    name: str
    median_s: float
    min_s: float
    repeats: int
    number: int
    shape: Mapping[str, Any] = field(default_factory=dict)
    speedup: float | None = None
    reference_median_s: float | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = asdict(self)
        del d["name"]
        return {k: v for k, v in d.items() if v not in (None, {}, [])}


def time_callable(fn: Callable[[], Any], *, repeats: int = 5,
                  number: int = 1) -> tuple[float, float]:
    """``(median, min)`` seconds per call of ``fn`` over ``repeats`` reps
    of ``number`` inner calls each."""
    timer = timeit.Timer(fn)
    times = [t / number for t in timer.repeat(repeat=repeats, number=number)]
    return median(times), min(times)


def measure_calibration() -> float:
    """Seconds for a fixed unit of interpreter-bound work.

    Recorded into every results file as the machine-speed yardstick: the
    comparator scales cross-file ratios by the calibration ratio, so a
    baseline measured on a fast dev box does not hard-fail a slower CI
    runner (and a fast runner cannot mask a real regression). The body
    mirrors what the kernels actually spend time on — python bytecode,
    big-int arithmetic and hashing.
    """
    import hashlib
    buf = bytes(range(256)) * 1024

    def body() -> None:
        total = 0
        for i in range(20_000):
            total += i * i
        hashlib.sha256(buf).digest()
        pow(total, 3, 10 ** 18 + 9)

    _, mn = time_callable(body, repeats=5, number=3)
    return mn


def git_rev() -> str:
    """Short git revision of the working tree, ``"unknown"`` off-repo."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             cwd=Path(__file__).resolve().parent)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build_stamp() -> dict:
    """The build a run measures. ``accelerators`` are the optional layers
    that change what the benches time, and two results files compare
    only when they agree (:func:`repro.perf.compare.build_mismatch`).
    The package has none left, so the map is empty; a baseline stamped
    by an older build (``native_core``, ``shm_transport``) is refused.
    ``python`` and ``usable_cores`` are recorded for information only."""
    from ..engine.runner import _usable_cores
    return {"accelerators": {},
            "python": platform.python_version(),
            "usable_cores": _usable_cores()}


@dataclass
class BenchRun:
    """A collection of results plus the environment stamp. ``build`` is
    taken when the run starts, before any bench toggles a layer."""

    suite: str
    results: list[BenchResult] = field(default_factory=list)
    calibration_s: float | None = None
    build: dict = field(default_factory=build_stamp)

    def add(self, result: BenchResult) -> BenchResult:
        self.results.append(result)
        return result

    def to_dict(self) -> dict:
        d = {
            "schema": RESULTS_SCHEMA,
            "suite": self.suite,
            "git_rev": git_rev(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "argv": sys.argv[1:],
            "build": self.build,
            "benches": {r.name: r.to_dict() for r in self.results},
        }
        if self.calibration_s is not None:
            d["calibration_s"] = self.calibration_s
        return d


def write_results(run: BenchRun, path: str | Path) -> Path:
    """Write ``BENCH_results.json`` (pretty, trailing newline, stable key
    order — the file is meant to live in version control)."""
    path = Path(path)
    path.write_text(json.dumps(run.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def load_results(path: str | Path) -> dict:
    """Load a results file, validating the schema marker."""
    data = json.loads(Path(path).read_text())
    if data.get("schema") != RESULTS_SCHEMA:
        raise ValueError(
            f"{path}: not a {RESULTS_SCHEMA} results file "
            f"(schema={data.get('schema')!r})")
    return data
