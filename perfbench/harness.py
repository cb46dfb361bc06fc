"""Shared pieces of the benchmark: statistics, the correctness checks,
the build stamp, the machine factor and the result line.

Nothing here imports ``repro`` at module level: the library-side set-up
time is measured from the first ``import repro``, so that import must
happen inside the timed region of the workload that owns it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

#: Every end-to-end metric with its unit. Each workload reports all of
#: them; ``README.md`` says what each one means on each workload.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "submit_p50_ms": "ms",
    "jobs_per_s": "1/s",
    "cells_per_s": "1/s",
    "ok_share": "ratio",
    "makespan_over_lb": "ratio",
    "makespan_over_lb_max": "ratio",
}

#: Solvers that return a schedule, which the engine must have validated.
#: The ``nfold-*`` solvers are value-only and report ``validated=False``.
SCHEDULE_SOLVERS = frozenset({
    "splittable", "preemptive", "nonpreemptive",
    "ptas-splittable", "ptas-preemptive", "ptas-nonpreemptive"})

#: The variant each benchmarked solver schedules, kept here rather than
#: read from the report so that a report cannot pick its own bound.
VARIANT = {
    "splittable": "splittable", "ptas-splittable": "splittable",
    "nfold-splittable": "splittable",
    "preemptive": "preemptive", "ptas-preemptive": "preemptive",
    "nfold-preemptive": "preemptive",
    "nonpreemptive": "nonpreemptive", "ptas-nonpreemptive": "nonpreemptive",
    "nfold-nonpreemptive": "nonpreemptive",
}

#: Report fields that legitimately differ between two runs of one seed.
_VOLATILE = ("wall_time_s", "cached")

#: The latency a failed op counts with: ``ServiceClient.wait``'s default
#: deadline, so a failure misses any latency limit.
MISS_S = 60.0


def use_repo_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` (no install step)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for subprocesses: the checkout's ``src`` on the path
    and temp files kept inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(WORK)
    return env


# --------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------- #

def median(values: Iterable[float]) -> float:
    vals = list(values)
    return statistics.median(vals) if vals else 0.0


def percentile(values: Iterable[float], q: int) -> float:
    """The ``q``-th percentile, interpolated between samples."""
    vals = sorted(values)
    if not vals:
        return 0.0
    if len(vals) == 1:
        return vals[0]
    return statistics.quantiles(vals, n=100, method="inclusive")[q - 1]


def mean(values: Iterable[float]) -> float:
    vals = list(values)
    return sum(vals) / len(vals) if vals else 0.0


# --------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------- #

class LowerBounds:
    """The benchmark's own certified lower bound per (instance, variant),
    from :mod:`repro.core.bounds`, memoised by instance digest."""

    def __init__(self) -> None:
        from repro.core import bounds
        self._fns = {"splittable": bounds.splittable_lower_bound,
                     "preemptive": bounds.preemptive_lower_bound,
                     "nonpreemptive": bounds.nonpreemptive_lower_bound}
        self._memo: dict[tuple[str, str], Fraction] = {}

    def __call__(self, inst, variant: str) -> Fraction:
        key = (inst.digest(), variant)
        if key not in self._memo:
            self._memo[key] = Fraction(self._fns[variant](inst))
        return self._memo[key]


def report_failure(inst, algorithm: str, rep, lb: Fraction) -> str:
    """Why one report fails the benchmark's checks, or ``""``."""
    if rep is None:
        return "no report"
    if rep.algorithm != algorithm:
        return f"report for {rep.algorithm!r}, expected {algorithm!r}"
    feasible = inst.num_classes <= inst.class_slots * inst.machines
    if rep.status != "ok":
        return (f"status {rep.status} on a feasible instance: {rep.error}"
                if feasible else "")
    if rep.makespan is None:
        return "ok report without a makespan"
    makespan = Fraction(rep.makespan)
    if makespan < lb:
        return f"makespan {makespan} below the lower bound {lb}"
    if rep.guess is not None and Fraction(rep.guess) > makespan:
        return f"guess {rep.guess} above makespan {makespan}"
    if algorithm in SCHEDULE_SOLVERS and not rep.validated:
        return "schedule not validated"
    return ""


@dataclass
class Op:
    """One timed operation and what it produced."""

    seed: str                       # names the op's inputs, e.g. "7/12"
    cells: list                     # [(instance, algorithm)] in report order
    latency_s: float = 0.0
    submit_s: float = 0.0
    reports: list | None = None     # None when the op raised
    error: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class Run:
    """One timed pass of a workload."""

    ops: list[Op] = field(default_factory=list)
    wall_s: float = 0.0     # sum of op times; making inputs is not timed
    bursts: list[float] = field(default_factory=list)   # svc-burst only
    window: tuple[float, float] = (0.0, 0.0)    # perf_counter bounds
    slices: list[float] = field(default_factory=list)   # calibration, ms


@dataclass
class Checked:
    attempted: int
    failed: int
    failures: list                  # [{"op", "algorithm", "reason"}]
    digest: str
    makespan_over_lb: float
    #: per algorithm, the mean makespan / lower bound of its reports
    ratio_by_algorithm: dict
    checked_ops: int


def _stable(rep) -> dict:
    d = rep.to_dict()
    for key in _VOLATILE:
        d.pop(key, None)
    d["extra"] = {k: v for k, v in d["extra"].items() if k != "trace_id"}
    return d


def check_ops(ops: list[Op], prefix: int) -> Checked:
    """Check every op; digest and ratio cover the first ``prefix`` ops,
    which every run completes, so both repeat exactly for a seed."""
    lower_bound = LowerBounds()
    failures = []
    failed_ops = 0
    ratios: dict[str, list[float]] = {}
    h = hashlib.sha256()
    for k, op in enumerate(ops):
        reasons = []
        if op.reports is None:
            reasons.append(("-", op.error or "operation raised"))
        elif len(op.reports) != len(op.cells):
            reasons.append(("-", f"{len(op.reports)} reports for "
                                 f"{len(op.cells)} cells"))
        else:
            for (inst, algo), rep in zip(op.cells, op.reports):
                lb = lower_bound(inst, VARIANT[algo])
                why = report_failure(inst, algo, rep, lb)
                if why:
                    reasons.append((algo, why))
                elif k < prefix and rep.status == "ok":
                    ratios.setdefault(algo, []).append(
                        float(Fraction(rep.makespan) / lb))
        if reasons:
            failed_ops += 1
            failures.extend({"op": op.seed, "algorithm": a, "reason": r}
                            for a, r in reasons)
        if k < prefix:
            stable = ([_stable(r) for r in op.reports]
                      if op.reports is not None else None)
            h.update(json.dumps(stable, sort_keys=True).encode())
    return Checked(attempted=len(ops), failed=failed_ops, failures=failures,
                   digest=h.hexdigest()[:16],
                   makespan_over_lb=mean(r for rs in ratios.values()
                                         for r in rs),
                   ratio_by_algorithm={a: mean(rs)
                                       for a, rs in sorted(ratios.items())},
                   checked_ops=min(prefix, len(ops)))


# --------------------------------------------------------------------- #
# build stamp and machine noise
# --------------------------------------------------------------------- #

#: What one calibration slice (``calib.SLICE``) takes on the reference
#: machine speed that scaled metrics are reported at.
REFERENCE_SLICE_MS = 2.0


def machine_factor(run: Run) -> float:
    """How much slower than the reference this run's machine was: the
    median slice time over ``REFERENCE_SLICE_MS``."""
    return median(run.slices) / REFERENCE_SLICE_MS if run.slices else 1.0


def _git_rev() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _source_digest() -> str:
    """Content hash of the package sources: identifies the build where
    there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def optional_attr(module: str, name: str) -> Any:
    """``module.name`` if both exist, else ``None`` (layers later changes
    may remove are looked up by name, never imported directly)."""
    import importlib
    try:
        return getattr(importlib.import_module(module), name, None)
    except ImportError:
        return None


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the process group of ``proc`` (started
    with ``start_new_session=True``), then wait for ``proc``: nothing it
    started outlives it, even when it hangs or dies first."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass        # the group is gone: everything in it has ended
    proc.wait()


def stop_resource_tracker() -> None:
    """End this process's ``multiprocessing`` resource tracker, if it
    started one, and wait for it.

    Creating a shared-memory segment starts the tracker as a child
    process that only exits once this process has exited, so it would
    outlive the run. Call this after the pool's workers have ended (they
    hold the tracker's pipe too) and the segments are released; a later
    segment starts a fresh tracker.
    """
    if "multiprocessing.resource_tracker" not in sys.modules:
        return
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def build_stamp() -> dict:
    native = optional_attr("repro.core.native", "native_available")
    shm = optional_attr("repro.engine.shm", "shm_enabled")
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return {"git_rev": _git_rev(), "source_digest": _source_digest(),
            "python": platform.python_version(), "usable_cores": cores,
            "native_core": native() if native else "absent",
            "shm_transport": shm() if shm else "absent"}


# --------------------------------------------------------------------- #
# Prometheus text
# --------------------------------------------------------------------- #

_SAMPLE = re.compile(r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)$')
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple, float]:
    """``{(name, ((label, value), ...)): value}`` for every sample."""
    out: dict[tuple, float] = {}
    for line in text.splitlines():
        m = _SAMPLE.match(line.strip())
        if not m or line.startswith("#"):
            continue
        labels = tuple(sorted(_LABEL.findall(m.group(3) or "")))
        out[(m.group(1), labels)] = float(m.group(4))
    return out


def metric_sum(samples: dict[tuple, float], name: str, **labels) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(v for (n, lbl), v in samples.items()
               if n == name and want <= set(lbl))


def metric_delta(before: dict, after: dict, name: str, **labels) -> float:
    return metric_sum(after, name, **labels) - metric_sum(before, name,
                                                          **labels)


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #

def result_line(*, checked: Checked, metrics: dict[str, float],
                units: dict[str, str]) -> str:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    return json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()}}, allow_nan=False)
