"""F4 — Figure 4: dissolving a configuration into modules and jobs.

Runs the non-preemptive PTAS on a small instance and traces the
configuration -> slots -> modules -> jobs dissolution: every machine's
slot multiset must match its configuration, every module a class's job
sizes. The benchmark times one full PTAS guess (ILP + dissolution).
"""

import numpy as np

from conftest import report
from repro.analysis.reporting import experiment_header, format_table
from repro.core.validation import validate_nonpreemptive
from repro.ptas.nonpreemptive import _build_schedule, _solve_guess, \
    ptas_nonpreemptive
from repro.workloads import uniform_instance


def test_fig4_dissolution_trace():
    rng = np.random.default_rng(3)
    inst = uniform_instance(rng, n=12, C=4, m=3, c=2, p_hi=20)
    res = ptas_nonpreemptive(inst, delta=2)
    sched = res.schedule
    validate_nonpreemptive(inst, sched)
    report(experiment_header(
        "F4", "Figure 4 (configuration dissolution)",
        "each machine's class multiset respects its configuration"))
    rows = []
    for i in range(inst.machines):
        jobs = sched.jobs_on(i)
        classes = sorted({inst.classes[j] for j in jobs})
        load = sum(inst.processing_times[j] for j in jobs)
        rows.append([f"m{i}", len(jobs), str(classes), load])
        assert len(classes) <= inst.class_slots
    report(format_table(["machine", "jobs", "classes", "load"], rows))
    assert res.makespan == sched.makespan(inst)


def test_fig4_single_guess_cost(benchmark):
    rng = np.random.default_rng(4)
    inst = uniform_instance(rng, n=16, C=5, m=4, c=2, p_hi=20)
    T = int(sum(inst.processing_times) / inst.machines * 1.3)

    def run():
        art = _solve_guess(inst, T, 2)
        return _build_schedule(inst, art)

    sched = benchmark(run)
    validate_nonpreemptive(inst, sched)
