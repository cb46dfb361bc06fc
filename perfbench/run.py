"""Benchmark of the paths a user of ``repro`` takes.

    python3 perfbench/run.py --workload svc-serial --seed 1 --seconds 10 \\
        --trace 0

Workloads (``README.md`` has the reasons and the metric definitions):

* ``svc-serial`` — one client, ``submit`` then ``wait``, against
  ``repro serve`` on SQLite;
* ``svc-burst``  — bursts of 16 jobs, half of them cache hits, one
  sender and one watcher thread;
* ``lib-pool``   — ``Session(workers=2).solve_batch`` over ratio-sweep
  grids;
* ``lib-large``  — inline ``Session().solve`` of large approximation,
  PTAS and n-fold cells.

``--trace 0`` measures with nothing wrapped and prints the end-to-end
metrics. ``--trace 1`` runs the same pass untraced, then once more with
spans around every layer, and prints the per-layer metrics. The last
stdout line is the JSON result; the line before it holds the details
(build stamp, machine-noise readout, report digest, failures, stage
table).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import time

import calib
import harness
import layers
import lib
import svc
from harness import E2E_UNITS, check_ops, median, percentile

WORKLOADS = ("svc-serial", "svc-burst", "lib-pool", "lib-large")
SETUP_SAMPLES = 3

#: Metrics reported at the reference machine speed
#: (``harness.machine_factor``), per workload: their time is CPU work,
#: and on a shared machine the CPU speed drifts by tens of percent over
#: minutes, which would otherwise swamp a change in the program. Set-up
#: (process start, imports, warm-up solves) is CPU work everywhere.
#: svc-serial's latency and throughput are set by the client's poll
#: sleeps, so they stay as measured.
_TIMED = ("setup_s", "latency_p50_ms", "latency_p90_ms", "submit_p50_ms",
          "jobs_per_s", "cells_per_s")
SCALED = {"svc-serial": ("setup_s", "submit_p50_ms"), "svc-burst": _TIMED,
          "lib-pool": _TIMED, "lib-large": _TIMED}


def _module(workload: str):
    return svc if workload.startswith("svc-") else lib


def timed(wl, seconds: float, calibrator) -> harness.Run:
    """One untraced timed pass."""
    run = wl.run(seconds, calibrator)
    if wl.name == "svc-burst":
        wl.stamp_bursts(run)
    return run


# --------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------- #

def _probe_setup(name: str, seed: int) -> float:
    """A library set-up (imports included) in a fresh interpreter."""
    proc = subprocess.Popen(
        [sys.executable, __file__, "--setup-probe", name, "--seed",
         str(seed)], cwd=harness.ROOT, env=harness.child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        # the probe waits for its pool and helpers; a hung one takes
        # them down with it
        harness.kill_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {stderr[-2000:]}")
    return float(json.loads(stdout.strip().splitlines()[-1])["setup_s"])


def setup(wl) -> list[float]:
    """Set up ``SETUP_SAMPLES`` times; the last set-up stays up."""
    if wl.name.startswith("svc-"):
        samples = []
        for i in range(SETUP_SAMPLES):
            samples.append(wl.setup())
            if i < SETUP_SAMPLES - 1:
                wl.teardown()
        return samples
    samples = [wl.setup()]
    samples += [_probe_setup(wl.name, wl.seed)
                for _ in range(SETUP_SAMPLES - 1)]
    return samples


# --------------------------------------------------------------------- #
# end-to-end metrics
# --------------------------------------------------------------------- #

def e2e_metrics(name: str, run: harness.Run, checked) -> dict[str, float]:
    ops = run.ops
    done = [op for op in ops if op.reports is not None]
    out = {"ok_share": (checked.attempted - checked.failed)
           / checked.attempted,
           "makespan_over_lb": checked.makespan_over_lb,
           # one solver's worse schedules cannot hide in the mean
           "makespan_over_lb_max": max(checked.ratio_by_algorithm.values(),
                                       default=0.0),
           "jobs_per_s": len(done) / run.wall_s,
           "cells_per_s": sum(len(op.reports) for op in done) / run.wall_s,
           "submit_p50_ms": median(op.submit_s for op in done) * 1e3}
    if name == "svc-burst":
        # per burst: first POST to the last job's finished_at
        latency = [b * 1e3 for b in run.bursts]
    else:
        latency = [(op.latency_s if op.reports is not None
                    else harness.MISS_S) * 1e3 for op in ops]
    out["latency_p50_ms"] = percentile(latency, 50)
    out["latency_p90_ms"] = percentile(latency, 90)
    return out


def scaled(name: str, run: harness.Run, raw: dict) -> dict[str, float]:
    """``raw`` with the workload's CPU-bound metrics at reference speed."""
    factor = harness.machine_factor(run)
    return {k: (v * factor if k.endswith("_per_s") else v / factor)
            if k in SCALED[name] else v for k, v in raw.items()}


def throughput(name: str, run: harness.Run) -> float:
    done = len([op for op in run.ops if op.reports is not None])
    return scaled(name, run, {"jobs_per_s": done / run.wall_s})["jobs_per_s"]


# --------------------------------------------------------------------- #
# traced pass
# --------------------------------------------------------------------- #

def _wrap_client(rec, client) -> dict:
    """Span the client's calls; remember when each job was seen done."""
    seen: dict[str, tuple[float, dict]] = {}

    def note_job(result, job_id, *args, **kwargs):
        if isinstance(result, dict) and result.get("status") == "done" \
                and job_id not in seen:
            seen[job_id] = (time.time(), result)
        return {"job_id": job_id}

    client.submit = rec.wrap("client.submit", client.submit)
    client.job = rec.wrap("client.job", client.job, note_job)
    client.reports = rec.wrap("client.reports", client.reports,
                              lambda r, job_id, *a, **kw: {"job_id": job_id})
    client.wait = rec.wrap("client.wait", client.wait)
    return seen


def traced_svc(wl, seconds: float, calibrator,
               untraced_p50_ms: float) -> tuple:
    import spans as sp
    wl.setup(traced=True)
    rec = sp.Recorder()
    seen = _wrap_client(rec, wl.client)
    server = wl.server
    before, cpu0 = server.metrics(), server.cpu_s()
    run = wl.run(seconds, calibrator, trace_ids=True)
    after, cpu1 = server.metrics(), server.cpu_s()
    if wl.name == "svc-burst":
        wl.stamp_bursts(run)
    server.stop()       # the launcher writes its spans on the way out
    server_spans = layers.in_window(sp.load(server.spans_file), run.window)
    server_layers = _read_layers(server)
    wl.teardown()
    for op in run.ops:
        job_id = op.extra.get("job_id")
        if job_id in seen:
            op.extra["saw_done"], op.extra["job"] = seen[job_id]
    client_spans = layers.in_window(rec.spans, run.window)
    reports = [r for op in run.ops for r in (op.reports or [])]
    jobs = len(run.ops)
    m = {}
    m.update(layers.client_metrics(run.ops, client_spans))
    m.update(layers.server_metrics(before, after, cpu1 - cpu0, jobs))
    m.update(layers.worker_metrics(run.ops))
    m.update(layers.store_cache_metrics(server_spans))
    chunks = (harness.metric_delta(before, after,
                                   "repro_batch_chunk_cells_count")
              if any(k[0] == "repro_batch_chunk_cells_count" for k in after)
              else None)
    m.update(layers.engine_metrics(server_spans, reports, 1, chunks))
    m.update(layers.solver_metrics(server_spans))
    m.update(layers.self_per_op(server_spans + client_spans, jobs))
    stages = layers.stage_table(run.ops)
    m.update(stages)
    if wl.name == "svc-serial" and untraced_p50_ms:
        m["stage.sum_over_untraced_p50"] = sum(stages.values()) \
            / untraced_p50_ms
    detail = {"joined_job": layers.joined_job(run.ops, client_spans,
                                              server_spans),
              "server_layers": server_layers}
    return run, m, detail


def _read_layers(server) -> dict:
    path = server.spans_file.with_suffix(".layers.json")
    return json.loads(path.read_text()) if path.is_file() else {}


def traced_lib(wl, seconds: float, calibrator) -> tuple:
    import launcher
    import spans as sp
    registry = harness.optional_attr("repro.obs.metrics", "REGISTRY")

    def scrape() -> dict:
        return harness.parse_prometheus(registry.render()) if registry \
            else {}

    rec = sp.Recorder()
    present = launcher.install_engine(rec)
    # the library's entry point, so each op is a span with its layers
    # nested inside
    wl.session.solve_batch = rec.wrap("session.solve_batch",
                                      wl.session.solve_batch)
    wl.session.solve = rec.wrap("session.solve", wl.session.solve)
    before = scrape()
    run = wl.run(seconds, calibrator)
    after = scrape()
    reports = [r for op in run.ops for r in (op.reports or [])]
    workers = 2 if wl.name == "lib-pool" else 1
    chunks = (harness.metric_delta(before, after,
                                   "repro_batch_chunk_cells_count")
              if registry else None)
    m = {}
    m.update(layers.engine_metrics(rec.spans, reports, workers, chunks))
    m.update(layers.solver_metrics(rec.spans))
    m.update(layers.self_per_op(rec.spans, len(run.ops)))
    return run, m, {"layers": present}


# --------------------------------------------------------------------- #
# main
# --------------------------------------------------------------------- #

def measure(args) -> int:
    harness.use_repo_source()
    harness.WORK.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(harness.WORK)
    # started before repro is imported, so the program cannot slow it
    calibrator = calib.Calibrator()
    try:
        return _measure(args, calibrator)
    finally:
        calibrator.close()


def _measure(args, calibrator) -> int:
    # the client's poll jitter draws from this process's generator
    random.seed(args.seed)
    calib_start = calibrator.time_ms(calib.READOUT)
    module = _module(args.workload)
    wl = module.Workload(args.workload, args.seed)
    prefix = module.PREFIX[args.workload]
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        if not args.trace:
            samples = setup(wl)
            run = timed(wl, args.seconds, calibrator)
            wl.teardown()
            checked = check_ops(run.ops, prefix)
            raw = e2e_metrics(args.workload, run, checked)
            raw["setup_s"] = median(samples)
            metrics = scaled(args.workload, run, raw)
            detail["setup_samples_s"] = samples
            detail["as_measured"] = raw
            detail["machine_factor"] = harness.machine_factor(run)
            units = E2E_UNITS
            runs = [run]
        else:
            wl.setup()
            plain = timed(wl, args.seconds, calibrator)
            wl.teardown()
            plain_checked = check_ops(plain.ops, prefix)
            plain_e2e = e2e_metrics(args.workload, plain, plain_checked)
            if args.workload.startswith("svc-"):
                run, metrics, extra = traced_svc(
                    wl, args.seconds, calibrator,
                    plain_e2e["latency_p50_ms"])
            else:
                wl.setup()
                run, metrics, extra = traced_lib(wl, args.seconds,
                                                 calibrator)
                wl.teardown()
            detail.update(extra)
            metrics["trace.overhead_share"] = (
                throughput(args.workload, plain)
                / throughput(args.workload, run) - 1.0)
            checked = check_ops(plain.ops + run.ops, prefix)
            detail["untraced"] = plain_e2e
            units = layers.UNITS
            runs = [plain, run]
    finally:
        wl.teardown()
    calib_end = calibrator.time_ms(calib.READOUT)
    if args.trace:
        metrics["machine.calib_start_ms"] = calib_start
        metrics["machine.calib_end_ms"] = calib_end
        metrics, detail["not_measured"] = layers.fill(metrics)
    detail.update({
        "stamp": harness.build_stamp(),
        "calibration_ms": {"start": calib_start, "end": calib_end},
        "ops": [len(r.ops) for r in runs],
        "report_digest": checked.digest,
        "makespan_over_lb_by_algorithm": checked.ratio_by_algorithm,
        "digest_ops": checked.checked_ops,
        "failures": checked.failures[:50],
    })
    print(json.dumps(detail, default=str))
    print(harness.result_line(checked=checked, metrics=metrics, units=units))
    return 0


def probe(args) -> int:
    wl = lib.Workload(args.setup_probe, args.seed)
    seconds = wl.setup()
    wl.teardown()
    print(json.dumps({"setup_s": seconds}))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=("lib-pool", "lib-large"),
                    help="time one library set-up, imports included, in "
                         "this fresh interpreter and print it (a run "
                         "takes its second and third set-up samples so)")
    args = ap.parse_args(argv)
    if args.setup_probe:
        return probe(args)
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
