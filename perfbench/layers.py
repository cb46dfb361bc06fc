"""Per-layer metrics of the traced run.

Sources: spans recorded around each layer's entry points (in this
process for the client and the library, in the server process through
``launcher.py``), ``/v1/metrics`` scraped before and after the timed
pass, the server's CPU time, and each job's own timestamps.
"""

from __future__ import annotations

from collections import defaultdict

import spans as sp
from harness import mean, metric_delta

ALGORITHMS = ("splittable", "preemptive", "nonpreemptive",
              "ptas-splittable", "ptas-nonpreemptive")
NFOLD = ("nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive")
NFOLD_MS = {"nfold-splittable": (128, 4096, 1_000_000),
            "nfold-preemptive": (128, 4096),
            "nfold-nonpreemptive": (128, 4096)}
SELF_LAYERS = ("client", "store", "cache", "engine", "solve", "validate")
STAGES = ("submit", "queue_wait", "claim_to_persisted", "notify",
          "reports_fetch")

UNITS: dict[str, str] = {
    "client.submit_ms": "ms", "client.polls_per_job": "count",
    "client.notify_ms": "ms",
    "server.post_jobs_ms": "ms", "server.get_job_ms": "ms",
    "server.get_reports_ms": "ms", "server.requests_per_job": "count",
    "server.cpu_ms_per_job": "ms",
    "worker.queue_wait_ms": "ms", "worker.run_ms": "ms",
    "worker.retries": "count",
    "store.create_ms": "ms", "store.claim_ms": "ms", "store.finish_ms": "ms",
    "store.get_ms": "ms", "store.claim_empty_share": "ratio",
    "cache.hit_share": "ratio", "cache.get_ms": "ms", "cache.put_ms": "ms",
    "engine.batch_ms": "ms", "engine.chunks_per_batch": "count",
    "engine.shm_acquire_ms": "ms", "engine.worker_busy_share": "ratio",
    "engine.dispatch_ms": "ms",
    **{f"solve.{a}_ms": "ms" for a in ALGORITHMS},
    **{f"solve.{a}.m{m}_ms": "ms" for a, ms in NFOLD_MS.items() for m in ms},
    "nfold.m4096_over_m128": "ratio",
    "validate.ms_per_cell": "ms", "validate.share": "ratio",
    "trace.overhead_share": "ratio",
    **{f"stage.{s}_ms": "ms" for s in STAGES},
    "stage.sum_over_untraced_p50": "ratio",
    **{f"self.{layer}_ms": "ms" for layer in SELF_LAYERS},
    "machine.calib_start_ms": "ms", "machine.calib_end_ms": "ms",
}


def in_window(spans: list[dict], window: tuple[float, float]) -> list[dict]:
    lo, hi = window
    return [s for s in spans if lo <= s["start"] <= hi]


def _ms(seconds: float) -> float:
    return seconds * 1e3


def self_per_op(spans: list[dict], ops: int) -> dict[str, float]:
    """Each layer's self time per op (ms)."""
    totals: dict[str, float] = defaultdict(float)
    for name, secs in sp.self_times(spans).items():
        totals[sp.layer_of(name)] += secs
    return {f"self.{layer}_ms": _ms(totals.get(layer, 0.0)) / max(1, ops)
            for layer in SELF_LAYERS}


def engine_metrics(spans: list[dict], reports: list, workers: int,
                   chunk_batches: float | None) -> dict[str, float]:
    """``run_batch`` spans against the cell time the reports claim."""
    batches = sp.by_name(spans, "engine.run_batch")
    wall = sum(s["end"] - s["start"] for s in batches)
    cells = sum(r.wall_time_s for r in reports) if batches else 0.0
    n = max(1, len(batches))
    return {
        "engine.batch_ms": sp.mean_ms(batches),
        "engine.chunks_per_batch": (chunk_batches or 0.0) / n,
        "engine.shm_acquire_ms": sp.mean_ms(
            sp.by_name(spans, "engine.shm_acquire")),
        "engine.worker_busy_share": cells / (wall * workers) if wall else 0.0,
        "engine.dispatch_ms": _ms(wall - cells / workers) / n
        if batches else 0.0,
    }


def solver_metrics(spans: list[dict]) -> dict[str, float]:
    execs = sp.by_name(spans, "solve.execute")
    out = {f"solve.{a}_ms": sp.mean_ms([s for s in execs
                                        if s.get("algorithm") == a])
           for a in ALGORITHMS}
    for a, ms in NFOLD_MS.items():
        for m in ms:
            out[f"solve.{a}.m{m}_ms"] = sp.mean_ms(
                [s for s in execs if s.get("algorithm") == a
                 and s.get("machines") == m])
    at = {m: sum(out[f"solve.{a}.m{m}_ms"] for a in NFOLD)
          for m in (128, 4096)}
    out["nfold.m4096_over_m128"] = at[4096] / at[128] if at[128] else 0.0
    validate = sp.by_name(spans, "validate")
    solve_s = sum(s["end"] - s["start"] for s in execs)
    validate_s = sum(s["end"] - s["start"] for s in validate)
    out["validate.ms_per_cell"] = _ms(validate_s) / len(execs) if execs \
        else 0.0
    out["validate.share"] = validate_s / solve_s if solve_s else 0.0
    return out


def store_cache_metrics(spans: list[dict]) -> dict[str, float]:
    claims = sp.by_name(spans, "store.claim_next")
    found = [s for s in claims if not s.get("empty")]
    return {
        "store.create_ms": sp.mean_ms(sp.by_name(spans, "store.create_job")),
        "store.claim_ms": sp.mean_ms(found),
        "store.finish_ms": sp.mean_ms(sp.by_name(spans, "store.finish_job")),
        "store.get_ms": sp.mean_ms(sp.by_name(spans, "store.get_job")),
        "store.claim_empty_share": (len(claims) - len(found)) / len(claims)
        if claims else 0.0,
        "cache.get_ms": sp.mean_ms(sp.by_name(spans, "cache.get")),
        "cache.put_ms": sp.mean_ms(sp.by_name(spans, "cache.put")),
    }


def client_metrics(ops: list, client_spans: list[dict]) -> dict[str, float]:
    """Spans around ``ServiceClient.job``/``reports`` carry the job id and
    the wall-clock time each call returned."""
    polls: dict[str, int] = defaultdict(int)
    for s in sp.by_name(client_spans, "client.job"):
        polls[s["job_id"]] += 1
    done = [op for op in ops if op.reports is not None]
    notify = [op.extra["saw_done"] - op.extra["job"]["finished_at"]
              for op in done if "saw_done" in op.extra]
    return {
        "client.submit_ms": _ms(mean(op.submit_s for op in done)),
        "client.polls_per_job": mean(polls[op.extra["job_id"]]
                                     for op in done),
        "client.notify_ms": _ms(mean(notify)),
    }


def stage_table(ops: list) -> dict[str, float]:
    """The client's timeline of a job cut at the server's own stamps:
    submit (client send -> job row created), queue wait (-> claimed),
    claim -> persisted, notify (-> client saw ``done``) and reports fetch.
    The stages partition each job's latency exactly; the table averages
    them over the jobs between the 40th and 60th latency percentile, so
    it describes the median job."""
    rows = []
    for op in ops:
        job = op.extra.get("job")
        if op.reports is None or job is None or "saw_done" not in op.extra:
            continue
        marks = [op.extra["t0_wall"], job["submitted_at"], job["started_at"],
                 job["finished_at"], op.extra["saw_done"],
                 op.extra["end_wall"]]
        rows.append((op.latency_s,
                     [b - a for a, b in zip(marks, marks[1:])]))
    rows.sort(key=lambda r: r[0])
    band = rows[int(0.4 * len(rows)):max(int(0.6 * len(rows)),
                                         int(0.4 * len(rows)) + 1)]
    return {f"stage.{name}_ms": _ms(mean(r[1][i] for r in band))
            for i, name in enumerate(STAGES)}


def server_metrics(before: dict, after: dict, cpu_s: float,
                   jobs: int) -> dict[str, float]:
    def route_ms(route: str, method: str) -> float:
        n = metric_delta(before, after, "repro_http_request_seconds_count",
                         route=route, method=method)
        s = metric_delta(before, after, "repro_http_request_seconds_sum",
                         route=route, method=method)
        return _ms(s / n) if n else 0.0

    requests = (metric_delta(before, after, "repro_http_requests_total")
                - metric_delta(before, after, "repro_http_requests_total",
                               route="/metrics"))
    hits = metric_delta(before, after, "repro_cache_hits_total",
                        cache="service")
    misses = metric_delta(before, after, "repro_cache_misses_total",
                          cache="service")
    jobs = max(1, jobs)
    return {
        "server.post_jobs_ms": route_ms("/jobs", "POST"),
        "server.get_job_ms": route_ms("/jobs/{id}", "GET"),
        "server.get_reports_ms": route_ms("/jobs/{id}/reports", "GET"),
        "server.requests_per_job": requests / jobs,
        "server.cpu_ms_per_job": _ms(cpu_s) / jobs,
        "worker.retries": metric_delta(before, after,
                                       "repro_job_retries_total"),
        "cache.hit_share": hits / (hits + misses) if hits + misses else 0.0,
    }


def worker_metrics(ops: list) -> dict[str, float]:
    jobs = [op.extra["job"] for op in ops if "job" in op.extra]
    return {
        "worker.queue_wait_ms": _ms(mean(j["started_at"] - j["submitted_at"]
                                         for j in jobs)),
        "worker.run_ms": _ms(mean(j["finished_at"] - j["started_at"]
                                  for j in jobs)),
    }


def joined_job(ops: list, client_spans: list[dict],
               server_spans: list[dict]) -> dict:
    """The median-latency job's spans from both processes, joined by the
    trace id the client ran it under."""
    traced = sorted((op for op in ops if "trace" in op.extra
                     and op.reports is not None),
                    key=lambda op: op.latency_s)
    if not traced:
        return {}
    op = traced[len(traced) // 2]
    tid = op.extra["trace"]
    rows = [(s["name"], round(_ms(s["end"] - s["start"]), 3))
            for s in sorted(client_spans + server_spans,
                            key=lambda s: s["start"])
            if s.get("trace") == tid]
    return {"trace_id": tid, "latency_ms": round(_ms(op.latency_s), 3),
            "spans": rows}


def fill(metrics: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, 0 where this workload has no such layer;
    returns the names that were not measured."""
    missing = sorted(set(UNITS) - set(metrics))
    out = {name: float(metrics.get(name, 0.0)) for name in UNITS}
    return out, missing

