"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Smoke-sized runs of every workload, plus the correctness check on
tampered reports: a makespan below the lower bound, and ``infeasible``
on a feasible instance, must each count as a failed op.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.use_repo_source()

WORKLOADS = ("svc-serial", "svc-burst", "lib-pool", "lib-large")
E2E = set(harness.E2E_UNITS)


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-3000:]
    detail, result = (json.loads(line)
                      for line in out.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    detail, result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == E2E
    for name, metric in result["metrics"].items():
        assert metric["unit"] == harness.E2E_UNITS[name]
        assert metric["value"] > 0, name
    assert detail["stamp"]["usable_cores"] >= 1
    assert len(detail["setup_samples_s"]) == 3


#: Runs the command in ``argv`` as the child subreaper of everything it
#: starts, then prints its exit code and the processes that outlived it.
#: An orphan is re-parented to the subreaper and stays its child, running
#: or as a zombie, so one that ends a moment after the run is still seen.
_SURVIVORS = r"""
import ctypes, json, os, subprocess, sys
from pathlib import Path
if ctypes.CDLL(None).prctl(36, 1, 0, 0, 0) != 0:   # PR_SET_CHILD_SUBREAPER
    print(json.dumps(None)); sys.exit()
rc = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL,
                     stderr=subprocess.DEVNULL)
left = []
for stat in Path("/proc").glob("[0-9]*/stat"):
    try:
        head, tail = stat.read_text().rsplit(")", 1)
    except OSError:
        continue        # not ours: ours stay until reaped
    if int(tail.split()[1]) == os.getpid():
        left.append(head + ")")
print(json.dumps([rc, left]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="needs Linux prctl and /proc")
@pytest.mark.parametrize("workload", ("lib-pool", "svc-serial"))
def test_run_leaves_no_process_behind(workload):
    # the shm transport's resource tracker and the server would outlive
    # a careless run
    out = subprocess.run(
        [sys.executable, "-c", _SURVIVORS, sys.executable,
         str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    found = json.loads(out.stdout)
    if found is None:
        pytest.skip("cannot become a child subreaper here")
    assert found == [0, []]


def test_digest_repeats_for_a_seed():
    first, _ = _run("lib-pool", trace=0, seed=11)
    second, _ = _run("lib-pool", trace=0, seed=11)
    other, _ = _run("lib-pool", trace=0, seed=12)
    assert first["report_digest"] == second["report_digest"]
    assert first["report_digest"] != other["report_digest"]


def test_traced_run_reports_every_layer_metric():
    import layers
    detail, result = _run("svc-serial", trace=1)
    assert set(result["metrics"]) == set(layers.UNITS)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["client.polls_per_job"] >= 1
    assert metrics["store.create_ms"] > 0
    assert metrics["solve.splittable_ms"] > 0
    assert detail["joined_job"]["spans"]


def _one_op():
    import numpy as np
    from repro.api import Session
    from repro.workloads import uniform_instance
    inst = uniform_instance(np.random.default_rng(5), n=24, C=6, m=4, c=2)
    reports = Session().solve_batch([inst], algorithms=["splittable",
                                                        "nonpreemptive"])
    cells = [(inst, "splittable"), (inst, "nonpreemptive")]
    return harness.Op(seed="t/0", cells=cells, reports=reports)


def test_clean_op_passes():
    checked = harness.check_ops([_one_op()], prefix=1)
    assert checked.failed == 0 and checked.failures == []


def test_makespan_below_the_bound_fails():
    op = _one_op()
    rep = op.reports[0]
    lb = harness.LowerBounds()(op.cells[0][0], "splittable")
    op.reports[0] = dataclasses.replace(rep, makespan=lb - Fraction(1, 2),
                                        guess=None)
    checked = harness.check_ops([op], prefix=1)
    assert checked.failed == 1
    assert "below the lower bound" in checked.failures[0]["reason"]
    assert checked.failures[0]["algorithm"] == "splittable"


def test_infeasible_on_a_feasible_instance_fails():
    op = _one_op()
    op.reports[1] = dataclasses.replace(op.reports[1], status="infeasible",
                                        makespan=None, error="tampered")
    checked = harness.check_ops([op], prefix=1)
    assert checked.failed == 1
    assert checked.failures[0]["algorithm"] == "nonpreemptive"
    assert "infeasible" in checked.failures[0]["reason"]


def test_guess_above_makespan_and_unvalidated_schedule_fail():
    op = _one_op()
    rep = op.reports[0]
    op.reports[0] = dataclasses.replace(rep, guess=Fraction(rep.makespan) + 1)
    op.reports[1] = dataclasses.replace(op.reports[1], validated=False)
    reasons = [f["reason"] for f in harness.check_ops([op], 1).failures]
    assert any("guess" in r for r in reasons)
    assert "schedule not validated" in reasons


def test_without_the_program_it_fails_without_a_result():
    harness.WORK.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=harness.WORK))
    try:
        (bare / "perfbench").mkdir()
        for path in BENCH.glob("*.py"):
            (bare / "perfbench" / path.name).write_text(path.read_text())
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lib-pool",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
