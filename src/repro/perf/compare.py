"""Regression comparator over two ``BENCH_results.json`` files.

The committed baseline gates performance: a bench whose best-of-repeats
time grew beyond ``fail_ratio`` times the baseline fails the check,
growth beyond ``warn_ratio`` warns. Comparison uses ``min_s`` — the
repeat minimum is the statistic least sensitive to scheduler noise —
and only benches present in *both* files with an identical ``shape``
are compared (a reshaped bench is a new measurement, not a regression).
When both files carry a ``calibration_s`` machine-speed yardstick (see
:func:`repro.perf.harness.measure_calibration`), ratios are scaled by
the machines' relative speed before thresholding. No calibration makes
up for a different build, though: :func:`build_mismatch` refuses a
baseline whose optional accelerators differ from the current run's
(an older build's C core or shm transport), or that records none.

CI policy (see ``.github/workflows/ci.yml``): warn over 1.25x on the
noisy shared runners without failing the job, hard-fail over 2x. Local
``repro bench --baseline`` defaults to failing anything over 1.25x.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping

__all__ = ["Comparison", "build_mismatch", "compare_results",
           "DEFAULT_WARN_RATIO", "DEFAULT_FAIL_RATIO"]

#: >25% slower than baseline: a regression worth flagging.
DEFAULT_WARN_RATIO = 1.25
#: >2x slower: beyond any plausible runner noise — always a failure.
DEFAULT_FAIL_RATIO = 2.0


def _canon(shape) -> str:
    """Shape equality through a JSON round-trip, so an in-memory run
    (tuples) compares equal to its own written file (lists)."""
    return json.dumps(shape, sort_keys=True, default=list)


def _accelerators(results: Mapping) -> Mapping | None:
    return (results.get("build") or {}).get("accelerators")


def _describe(accelerators: Mapping | None) -> str:
    return ", ".join(f"{k}={v}"
                     for k, v in sorted((accelerators or {}).items()))


def build_mismatch(current: Mapping, baseline: Mapping) -> str | None:
    """Why ``baseline`` cannot gate ``current`` — their optional
    accelerators differ, or the baseline records none — or ``None``
    when the two builds match."""
    ours, theirs = _accelerators(current), _accelerators(baseline)
    if theirs is None:
        return ("different build: the baseline records no build stamp, "
                "so it cannot be compared like with like; re-measure it "
                "with `repro bench --suite full` on this build")
    if ours != theirs:
        return (f"different build: the baseline ran with "
                f"{_describe(theirs)}, this run with {_describe(ours)}; "
                "re-measure the baseline on this build instead of reading "
                "the gap as a regression")
    return None


@dataclass(frozen=True)
class Comparison:
    """Outcome of diffing one bench against the baseline."""

    name: str
    ratio: float | None          # current.min_s / baseline.min_s
    status: str                  # "ok" | "warn" | "fail" | "skipped"
    detail: str = ""

    def line(self) -> str:
        if self.ratio is None:
            return f"~ {self.name}: {self.detail}"
        marker = {"ok": "=", "warn": "!", "fail": "X"}[self.status]
        return (f"{marker} {self.name}: {self.ratio:.2f}x baseline"
                f"{' — ' + self.detail if self.detail else ''}")


def compare_results(current: Mapping, baseline: Mapping, *,
                    warn_ratio: float = DEFAULT_WARN_RATIO,
                    fail_ratio: float = DEFAULT_FAIL_RATIO
                    ) -> list[Comparison]:
    """Diff two loaded results files; one :class:`Comparison` per bench
    of ``current`` (new benches and shape changes are ``skipped``)."""
    if not 1.0 <= warn_ratio <= fail_ratio:
        raise ValueError(
            f"need 1.0 <= warn_ratio <= fail_ratio, got "
            f"{warn_ratio}/{fail_ratio}")
    base = baseline.get("benches", {})
    # machine-speed normalisation: when both files carry a calibration
    # measurement (a fixed unit of interpreter work), ratios are scaled
    # by the machines' relative speed so a baseline from a fast dev box
    # does not hard-fail a slower CI runner — and a fast runner cannot
    # mask a real regression
    cal_cur = current.get("calibration_s")
    cal_base = baseline.get("calibration_s")
    scale = (cal_base / cal_cur) if cal_cur and cal_base else 1.0
    out: list[Comparison] = []
    for name, cur in sorted(current.get("benches", {}).items()):
        ref = base.get(name)
        if ref is None:
            out.append(Comparison(name, None, "skipped",
                                  "not in baseline (new bench)"))
            continue
        if _canon(cur.get("shape")) != _canon(ref.get("shape")):
            out.append(Comparison(name, None, "skipped",
                                  "shape changed vs baseline"))
            continue
        cur_t, ref_t = cur.get("min_s"), ref.get("min_s")
        if not cur_t or not ref_t:
            out.append(Comparison(name, None, "skipped",
                                  "missing min_s timing"))
            continue
        ratio = cur_t / ref_t * scale
        if ratio > fail_ratio:
            status, detail = "fail", f"exceeds hard limit {fail_ratio:g}x"
        elif ratio > warn_ratio:
            status, detail = "warn", f"exceeds warn limit {warn_ratio:g}x"
        else:
            status, detail = "ok", ""
        if scale != 1.0 and status != "ok":
            detail += f" (machine-normalised by {scale:.2f})"
        out.append(Comparison(name, round(ratio, 3), status, detail))
    return out
