"""The perf subsystem: harness, results file, comparator, CLI gate."""

from __future__ import annotations

import json

import pytest

from repro.perf import (BenchResult, BenchRun, build_mismatch,
                        compare_results, list_suites, load_results,
                        time_callable, write_results)
from repro.perf.harness import RESULTS_SCHEMA


def _result(name, min_s, shape=None, **kw):
    return BenchResult(name=name, median_s=min_s * 1.1, min_s=min_s,
                       repeats=3, number=1, shape=shape or {"n": 10}, **kw)


def _run(*results):
    run = BenchRun(suite="test")
    for r in results:
        run.add(r)
    return run


def test_time_callable_returns_sane_values():
    med, mn = time_callable(lambda: sum(range(100)), repeats=3, number=5)
    assert 0 < mn <= med < 1.0


def test_results_roundtrip(tmp_path):
    run = _run(_result("kernel/x", 0.01, speedup=2.5),
               _result("batch/y", 0.2))
    path = write_results(run, tmp_path / "BENCH_results.json")
    data = load_results(path)
    assert data["schema"] == RESULTS_SCHEMA
    assert data["suite"] == "test"
    assert set(data["benches"]) == {"kernel/x", "batch/y"}
    assert data["benches"]["kernel/x"]["speedup"] == 2.5
    assert "git_rev" in data and "python" in data


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"benches": {}}))
    with pytest.raises(ValueError, match="not a repro-bench-v1"):
        load_results(path)


def test_comparator_flags_regression_and_improvement():
    base = _run(_result("a", 0.100), _result("b", 0.100),
                _result("c", 0.100)).to_dict()
    cur = _run(_result("a", 0.101),    # flat
               _result("b", 0.150),    # +50%: warn
               _result("c", 0.500)).to_dict()   # 5x: fail
    comps = {c.name: c for c in compare_results(
        cur, base, warn_ratio=1.25, fail_ratio=2.0)}
    assert comps["a"].status == "ok"
    assert comps["b"].status == "warn"
    assert comps["c"].status == "fail"
    assert comps["c"].ratio == pytest.approx(5.0)
    assert "X c:" in comps["c"].line()


def test_comparator_default_fails_over_25_percent():
    base = _run(_result("a", 0.100)).to_dict()
    cur = _run(_result("a", 0.130)).to_dict()
    (comp,) = compare_results(cur, base, warn_ratio=1.25, fail_ratio=1.25)
    assert comp.status == "fail"


def test_comparator_skips_new_and_reshaped_benches():
    base = _run(_result("a", 0.1, shape={"n": 10})).to_dict()
    cur = _run(_result("a", 0.9, shape={"n": 99}),
               _result("fresh", 0.1)).to_dict()
    comps = {c.name: c for c in compare_results(cur, base)}
    assert comps["a"].status == "skipped"
    assert comps["fresh"].status == "skipped"


def test_comparator_shape_tuple_vs_list_is_equal():
    # an in-memory run (tuples) must compare equal to its JSON (lists)
    base = _run(_result("a", 0.1, shape={"algos": ["x", "y"]})).to_dict()
    cur = _run(_result("a", 0.1, shape={"algos": ("x", "y")})).to_dict()
    (comp,) = compare_results(cur, base)
    assert comp.status == "ok"


def test_comparator_normalises_by_machine_calibration():
    # current machine is 2x slower overall: a bench that is 2x slower in
    # absolute time is flat after normalisation; 5x absolute is a real
    # 2.5x regression
    base = _run(_result("a", 0.100), _result("b", 0.100)).to_dict()
    cur = _run(_result("a", 0.200), _result("b", 0.500)).to_dict()
    base["calibration_s"] = 0.010
    cur["calibration_s"] = 0.020
    comps = {c.name: c for c in compare_results(
        cur, base, warn_ratio=1.25, fail_ratio=2.0)}
    assert comps["a"].status == "ok"
    assert comps["a"].ratio == pytest.approx(1.0)
    assert comps["b"].status == "fail"
    assert comps["b"].ratio == pytest.approx(2.5)
    assert "machine-normalised" in comps["b"].detail


def test_comparator_rejects_inverted_thresholds():
    run = _run(_result("a", 0.1)).to_dict()
    with pytest.raises(ValueError):
        compare_results(run, run, warn_ratio=2.0, fail_ratio=1.25)


def test_known_suites():
    assert {"smoke", "kernel", "batch", "full"} <= set(list_suites())


def test_smoke_suite_runs_and_gates(tmp_path):
    from repro.__main__ import main
    out = tmp_path / "BENCH_results.json"
    rc = main(["bench", "--suite", "smoke", "--repeats", "1",
               "-o", str(out)])
    assert rc == 0
    data = load_results(out)
    names = set(data["benches"])
    assert any(n.startswith("kernel/split_classes") for n in names)
    assert any(n.startswith("batch/throughput") for n in names)
    # kernel benches carry an in-run speedup measurement
    speedups = [b.get("speedup") for b in data["benches"].values()
                if b.get("speedup")]
    assert speedups, "no bench recorded a fast-vs-reference speedup"
    # self-comparison passes the gate with generous noise headroom
    rc = main(["bench", "--suite", "smoke", "--repeats", "1",
               "-o", str(tmp_path / "second.json"),
               "--baseline", str(out), "--fail-over", "50"])
    assert rc == 0


def test_bench_cli_missing_baseline(tmp_path):
    from repro.__main__ import main
    with pytest.raises(SystemExit, match="baseline not found"):
        main(["bench", "--suite", "smoke", "--repeats", "1",
              "-o", str(tmp_path / "r.json"),
              "--baseline", str(tmp_path / "nope.json")])


def test_results_carry_the_build(tmp_path):
    data = load_results(write_results(_run(_result("kernel/x", 0.01)),
                                      tmp_path / "r.json"))
    build = data["build"]
    assert set(build["accelerators"]) == {"native_core", "shm_transport"}
    assert all(isinstance(v, bool) for v in build["accelerators"].values())
    assert build["python"] and build["usable_cores"] >= 1


def test_build_mismatch_compares_accelerators_only():
    ours = {"build": {"accelerators": {"native_core": False,
                                       "shm_transport": True},
                      "python": "3.11.7", "usable_cores": 2}}
    same = {"build": {"accelerators": {"native_core": False,
                                       "shm_transport": True},
                      "python": "3.12.1", "usable_cores": 8}}
    built = {"build": {"accelerators": {"native_core": True,
                                        "shm_transport": True}}}
    assert build_mismatch(ours, same) is None
    msg = build_mismatch(ours, built)
    assert msg.startswith("different build")
    assert "native_core=True" in msg and "native_core=False" in msg
    assert build_mismatch(ours, {"benches": {}}).startswith(
        "different build: the baseline records no build stamp")


@pytest.mark.parametrize("baseline_build", ["flipped", "missing"])
def test_bench_cli_refuses_a_different_build(tmp_path, baseline_build):
    from repro.__main__ import main
    run = _run(_result("kernel/x", 0.01))
    if baseline_build == "flipped":
        acc = run.build["accelerators"]
        acc["native_core"] = not acc["native_core"]
    data = run.to_dict()
    if baseline_build == "missing":
        del data["build"]
    path = tmp_path / "base.json"
    path.write_text(json.dumps(data))
    # refused before any bench runs: no results file is written
    with pytest.raises(SystemExit, match="different build"):
        main(["bench", "--suite", "smoke", "--repeats", "1",
              "-o", str(tmp_path / "r.json"), "--baseline", str(path)])
    assert not (tmp_path / "r.json").exists()
