"""Golden equivalence: fast paths vs pure-Fraction reference paths.

The perf overhaul's contract is *byte identity*: every scaled-integer /
vectorised fast path must produce exactly the report the pure-Fraction
implementation produces — same makespans, same guesses, same statuses,
same error strings — across the workload suites. ``wall_time_s`` is the
single nondeterministic field and is zeroed before comparison.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core.fastmath import (fast_paths_enabled, set_fast_paths,
                                 use_fast_paths)
from repro.engine import execute
from repro.workloads import uniform_instance, zipf_instance
from repro.workloads.suites import large_ratio_suite, small_ratio_suite

APPROX = ("splittable", "preemptive", "nonpreemptive")
BASELINES = ("lpt", "greedy", "ffd", "round-robin", "mcnaughton")


def canonical_json(report) -> str:
    """The report's JSON with the one nondeterministic field zeroed."""
    return json.dumps(replace(report, wall_time_s=0.0).to_dict(),
                      sort_keys=True)


def assert_identical(inst, algorithm, **kwargs):
    with use_fast_paths(True):
        fast = execute(inst, algorithm, kwargs)
    with use_fast_paths(False):
        ref = execute(inst, algorithm, kwargs)
    assert canonical_json(fast) == canonical_json(ref), \
        f"{algorithm} diverged on {inst!r}"
    return fast


SMALL = list(small_ratio_suite(seeds=2))
LARGE = [item for item in large_ratio_suite(seeds=1)]


@pytest.mark.parametrize("label,inst", SMALL,
                         ids=[label for label, _ in SMALL])
@pytest.mark.parametrize("algorithm", APPROX)
def test_small_suite_identical(label, inst, algorithm):
    assert_identical(inst, algorithm)


@pytest.mark.parametrize("label,inst", LARGE,
                         ids=[label for label, _ in LARGE])
def test_large_suite_identical(label, inst):
    for algorithm in APPROX:
        rep = assert_identical(inst, algorithm)
        assert rep.ok, f"{algorithm} failed on {label}: {rep.error}"


@pytest.mark.parametrize("algorithm", BASELINES)
def test_baselines_identical(algorithm):
    rng = np.random.default_rng(7)
    inst = uniform_instance(rng, n=40, C=6, m=4, c=2, p_hi=50)
    # baselines may legitimately report infeasible — byte identity is the
    # only requirement, including identical error strings
    assert_identical(inst, algorithm)


def test_ptas_identical():
    rng = np.random.default_rng(11)
    inst = uniform_instance(rng, n=10, C=3, m=3, c=2, p_hi=12)
    assert_identical(inst, "ptas-splittable", delta=2)


def test_infeasible_instances_identical():
    # C > c*m: every solver must report infeasible identically
    rng = np.random.default_rng(3)
    inst = zipf_instance(rng, n=30, C=9, m=2, c=2, p_hi=40)
    if inst.num_classes <= inst.class_slots * inst.machines:
        pytest.skip("generator produced a feasible shape")
    for algorithm in APPROX:
        rep = assert_identical(inst, algorithm)
        assert rep.status == "infeasible"


def test_digest_not_flag_dependent():
    # cache keys must never depend on which arithmetic path computed them
    rng = np.random.default_rng(5)
    a = uniform_instance(rng, n=25, C=4, m=3, c=2, p_hi=30)
    with use_fast_paths(True):
        d_fast = a.with_machines(a.machines).digest()
    with use_fast_paths(False):
        d_ref = a.with_machines(a.machines).digest()
    assert d_fast == d_ref == a.digest()


def test_flag_restores_on_exception():
    assert fast_paths_enabled()
    with pytest.raises(RuntimeError):
        with use_fast_paths(False):
            assert not fast_paths_enabled()
            raise RuntimeError("boom")
    assert fast_paths_enabled()
    old = set_fast_paths(False)
    assert old is True and not fast_paths_enabled()
    set_fast_paths(True)
