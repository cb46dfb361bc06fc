"""Stdlib-only threaded HTTP/JSON API over the job store.

Every route lives under ``/v1``::

    POST /v1/solve            synchronous solve of one small instance
                              (a repro.api SolveRequest body; echoes the
                              canonical request plus its SolveReport)
    POST /v1/jobs             submit one instance x algorithms job
    GET  /v1/jobs             paginated jobs (?status=&limit=&offset=)
    GET  /v1/jobs/{id}        job status + timestamps (?wait=<s> holds
                              the request until the job is terminal,
                              at most MAX_WAIT_SECONDS); a terminal
                              job's record carries its reports
    GET  /v1/jobs/{id}/reports the job's SolveReports (?format=ndjson
                              or Accept: application/x-ndjson streams
                              one report per line)
    GET  /v1/results/{digest} every cached report for an instance
                              content hash (cross-client cache view)
    GET  /v1/solvers          the solver registry, rendered to JSON
    GET  /v1/healthz          queue depth, job counts, cache hit rate
    GET  /v1/metrics          Prometheus text exposition of the
                              process-wide metrics registry

Every ``/v1`` error is a uniform envelope::

    {"error": {"code": "unknown_solver",
               "message": "unknown solver 'splitable'; ...",
               "detail": {"suggestions": ["splittable", ...]}}}

with status-appropriate codes: ``invalid_json``, ``invalid_request``,
``unknown_solver``, ``no_matching_solver``, ``too_large``,
``infeasible`` (400), ``not_found`` (404), ``not_ready`` (409),
``body_too_large`` (413). ``infeasible`` is the stable code for an
instance that provably admits no schedule (``C > c * m``): the service
rejects it at submission instead of queueing work every solver would
refuse identically. A path outside ``/v1`` (``/jobs``, ``/solvers``,
...) answers 404 ``not_found`` in the same envelope.

``POST /v1/jobs`` body::

    {"instance": {"processing_times": [...], "classes": [...],
                  "machines": 4, "class_slots": 2},
     "algorithms": ["splittable", ["ptas-splittable", {"delta": 2}]],
     "label": "demo", "priority": 5, "timeout": 30.0}

``POST /v1/solve`` takes a :class:`repro.api.SolveRequest` body — the
solver may be named (``"algorithm"``) or capability-selected
(``"query"``)::

    {"instance": {...}, "query": {"variant": "nonpreemptive",
                                  "max_ratio": "7/3"}}

``GET /v1/jobs/{id}?wait=<s>`` is a long-poll: the job record comes
back as soon as the job is ``done``, ``failed`` or ``quarantined``, or
when the wait runs out (clamped to :data:`MAX_WAIT_SECONDS`), or at once
when the service starts to shut down. The wait sleeps on the embedded
drainers' completion signal and re-reads the store every few
milliseconds, so it also sees jobs that external ``repro worker``
processes finish. A terminal record carries the job's reports under
``"reports"`` — the list ``GET /v1/jobs/{id}/reports`` returns — so a
client waiting on a job needs one request, not two.

``POST /v1/jobs`` answers its ``201`` before it wakes a drainer: woken
first, the drainer would start solving while the handler still holds
the reply.

Everything is ``http.server`` + ``json`` — no web framework, so the
service runs anywhere the package does. The HTTP layer is deliberately
thin: every handler delegates to the store backend, the service's
:class:`~repro.service.worker.WorkerNode` (its embedded drainers) and,
for synchronous solves, an in-process :class:`repro.api.Session`, which
own all state.
Connections are HTTP/1.1 keep-alive with ``TCP_NODELAY``; bodies are
compact JSON, and each response's headers and body leave in one send.
``shutdown()`` ends the keep-alive connections it accepted, so a
client's pooled connection never outlives the service.

Observability: every request enters a trace context — the ``X-Trace-Id``
header when the client sent a valid one, a fresh id otherwise. The id is
echoed in the response header, injected into every JSON body
(``trace_id``), stored on submitted jobs, re-entered by the drainer that
runs them, and stamped into each resulting ``SolveReport.extra`` — one
id correlates the client call, the structured server/drainer log lines,
and the persisted reports. Request counts and latencies land in the
process-wide registry served at ``GET /v1/metrics``.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterable, Mapping

from ..api import Session, SolveRequest
from ..core.errors import InfeasibleInstanceError, InvalidInstanceError
from ..core.instance import Instance
from ..resultcache import CACHE_HITS, CACHE_MISSES
from ..engine.pool import shutdown_pool
from ..io import instance_from_dict
from ..obs.log import get_logger
from ..obs.metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs.metrics import REGISTRY
from ..obs.trace import (TRACE_HEADER, current_trace_id, is_valid_trace_id,
                         new_trace_id, reset_trace_id, set_trace_id)
from ..registry import (NoMatchingSolverError, UnknownSolverError,
                        get_solver, list_solvers, suggest_solvers)
from .storage import StoreBackend, open_store
from .store import (DEFAULT_MAX_ATTEMPTS, JOB_STATUSES, TERMINAL_STATUSES,
                    JobRecord)
from .worker import JOBS_ACTIVE, QUEUE_DEPTH, WorkerNode

__all__ = ["SchedulingService", "serve", "API_VERSION", "MAX_BODY_BYTES",
           "MAX_WAIT_SECONDS", "SYNC_SOLVE_MAX_JOBS"]

NDJSON = "application/x-ndjson"

API_VERSION = "v1"

#: Largest accepted request body. Instances past this belong in files,
#: not JSON-over-HTTP.
MAX_BODY_BYTES = 1 << 20

#: ``POST /v1/solve`` is for interactive-scale instances; bigger ones
#: must go through the asynchronous job queue.
SYNC_SOLVE_MAX_JOBS = 512

#: Longest ``GET /v1/jobs/{id}?wait=`` hold; larger waits are clamped.
MAX_WAIT_SECONDS = 30.0

#: Jobs-per-page bounds for ``GET /v1/jobs``.
DEFAULT_PAGE_LIMIT = 50
MAX_PAGE_LIMIT = 500

_log = get_logger("repro.service.server")

_STORE_JOBS = REGISTRY.gauge(
    "repro_store_jobs", "Jobs in the backing store, by status "
    "(refreshed when /v1/metrics is scraped).", labelnames=("status",))
_STORE_WORKER_CLAIMS = REGISTRY.gauge(
    "repro_store_worker_claims", "Cumulative claims per worker node as "
    "recorded in the store — spans every process sharing it "
    "(refreshed when /v1/metrics is scraped).", labelnames=("worker",))
_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total", "HTTP requests served, by normalized "
    "route, method and status code.",
    labelnames=("route", "method", "status"))
_JOBS_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted into the queue.")
_HTTP_SECONDS = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by normalized route and method.",
    labelnames=("route", "method"))

#: Fixed GET routes; parameterized ones are normalized below so metric
#: label cardinality stays bounded no matter what paths clients probe.
_FIXED_ROUTES = {"/", "/healthz", "/solvers", "/jobs", "/metrics", "/solve"}


def _route_label(sub: str) -> str:
    if sub in _FIXED_ROUTES:
        return sub
    parts = sub.lstrip("/").split("/")
    if parts[0] == "jobs" and len(parts) == 2:
        return "/jobs/{id}"
    if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "reports":
        return "/jobs/{id}/reports"
    if parts[0] == "results" and len(parts) == 2:
        return "/results/{digest}"
    return "other"


class _ApiError(Exception):
    """An HTTP error with its envelope fields."""

    def __init__(self, status: int, code: str, message: str,
                 detail: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.detail = detail


def _bad(code: str, message: str, detail: Any = None) -> _ApiError:
    return _ApiError(400, code, message, detail)


def _check_feasible(inst) -> None:
    """Reject provably unschedulable instances (``C > c * m``) with the
    stable ``infeasible`` envelope code — uniform across ``POST /v1/jobs``
    and ``POST /v1/solve``, mirroring
    :class:`~repro.core.errors.InfeasibleInstanceError` in the library."""
    try:
        inst.require_feasible()
    except InfeasibleInstanceError as exc:
        raise _bad("infeasible", str(exc),
                   {"num_classes": exc.num_classes,
                    "slot_budget": exc.slot_budget})


def _parse_algorithms(raw: Any) -> list[tuple[str, dict]]:
    if not isinstance(raw, list) or not raw:
        raise _bad("invalid_request", "'algorithms' must be a non-empty list")
    out: list[tuple[str, dict]] = []
    for item in raw:
        if isinstance(item, str):
            name, kwargs = item, {}
        elif isinstance(item, list) and len(item) == 2 \
                and isinstance(item[0], str) and isinstance(item[1], dict):
            name, kwargs = item
        else:
            raise _bad(
                "invalid_request",
                f"algorithm entries are 'name' or ['name', {{kwargs}}]; "
                f"got {item!r}")
        try:
            spec = get_solver(name)     # unknown names fail at submit time
        except UnknownSolverError as exc:
            raise _bad("unknown_solver", str(exc.args[0]),
                       {"name": name, "suggestions": suggest_solvers(name)})
        unknown = sorted(set(kwargs) - set(spec.accepts))
        if unknown:
            raise _bad(
                "invalid_request",
                f"solver {spec.name!r} does not accept kwargs {unknown}")
        out.append((spec.name, dict(kwargs)))
    return out


def _parse_submission(body: dict) -> dict:
    if not isinstance(body, dict):
        raise _bad("invalid_request", "body must be a JSON object")
    if "instance" not in body:
        raise _bad("invalid_request", "missing 'instance'")
    try:
        inst = instance_from_dict(body["instance"])
    except (InvalidInstanceError, KeyError, TypeError, ValueError) as exc:
        raise _bad("invalid_request", f"invalid instance: {exc}")
    _check_feasible(inst)
    timeout = body.get("timeout")
    if timeout is not None and (not isinstance(timeout, (int, float))
                                or timeout <= 0):
        raise _bad("invalid_request", "'timeout' must be a positive number")
    priority = body.get("priority", 0)
    if not isinstance(priority, int) or isinstance(priority, bool):
        raise _bad("invalid_request", "'priority' must be an integer")
    return dict(inst=inst,
                algorithms=_parse_algorithms(body.get("algorithms")),
                label=str(body.get("label", "")), priority=priority,
                timeout=float(timeout) if timeout is not None else None)


def _solver_dict(spec) -> dict:
    return {"name": spec.name, "variant": spec.variant, "kind": spec.kind,
            "ratio": spec.ratio_label, "theorem": spec.theorem or None,
            "needs_milp": spec.needs_milp,
            "needs_nfold": spec.needs_nfold,
            "accepts": list(spec.accepts), "summary": spec.summary,
            "default_epsilon": (None if spec.default_epsilon is None
                                else str(spec.default_epsilon)),
            "restricted": spec.supports_fn is not None}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # a buffered writer: a response's headers and body leave in one send
    # when _send_payload flushes
    wbufsize = 1 << 16
    # with Nagle on, a response larger than the buffer leaves in segments
    # and the last waits for the client's delayed ACK (~40 ms)
    disable_nagle_algorithm = True
    server: "_HTTPServer"

    _trace_id = ""
    _status = 0

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #

    def log_message(self, fmt: str, *args) -> None:
        # the stdlib access log is replaced by the structured
        # ``http_request`` event emitted from _handle
        pass

    def handle_one_request(self) -> None:
        # the connection is idle until a request line arrives; a closing
        # server may shut it down then (see _HTTPServer.close_connections)
        if self.server.mark_idle(self.connection, True):
            super().handle_one_request()
        else:
            self.close_connection = True

    def parse_request(self) -> bool:
        if not self.server.mark_idle(self.connection, False):
            # read just as the server closed: drop it unanswered, so a
            # GET is retried elsewhere and a POST fails without running
            self.close_connection = True
            return False
        return super().parse_request()

    def finish(self) -> None:
        self.server.mark_idle(self.connection, False)
        super().finish()

    def _send_payload(self, data: bytes, content_type: str,
                      status: int = 200) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        if self.server.closing:
            self.send_header("Connection", "close")
        if self._trace_id:
            self.send_header(TRACE_HEADER, self._trace_id)
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def _send_json(self, payload: Any, status: int = 200) -> None:
        if self._trace_id and isinstance(payload, dict) \
                and not payload.get("trace_id"):
            # every JSON body carries the request's trace id; a job dict
            # that already has its own (submission-time) id keeps it
            payload["trace_id"] = self._trace_id
        self._send_payload(_compact(payload) + b"\n", "application/json",
                           status)

    def _send_api_error(self, exc: _ApiError) -> None:
        self._send_json({"error": {"code": exc.code, "message": exc.message,
                                   "detail": exc.detail}}, exc.status)

    def _drain_body(self) -> bytes:
        # the body is always consumed, even for requests that error out:
        # leaving it unread would desync the next request on a reused
        # keep-alive connection (protocol_version is HTTP/1.1)
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            # too big to drain politely — drop the connection after the
            # error instead of reading megabytes we will reject anyway
            self.close_connection = True
            raise _ApiError(
                413, "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        return self.rfile.read(length) if length > 0 else b""

    @staticmethod
    def _parse_body(raw: bytes) -> dict:
        if not raw:
            raise _bad("invalid_json", "missing request body")
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _bad("invalid_json", f"body is not valid JSON: {exc}")

    def _query(self) -> tuple[str, dict[str, str]]:
        path, _, query = self.path.partition("?")
        params = {}
        for pair in query.split("&"):
            if "=" in pair:
                k, _, v = pair.partition("=")
                params[k] = v
        return path.rstrip("/") or "/", params

    @staticmethod
    def _wait_param(params: dict[str, str]) -> float:
        """``?wait=`` in seconds, clamped to ``MAX_WAIT_SECONDS``."""
        raw = params.get("wait", "0")
        try:
            wait = float(raw)
        except ValueError:
            wait = math.nan
        if not math.isfinite(wait) or wait < 0:
            raise _bad("invalid_request",
                       f"'wait' must be a finite number of seconds >= 0, "
                       f"got {raw!r}")
        return min(wait, MAX_WAIT_SECONDS)

    def _int_param(self, params: dict[str, str], key: str,
                   default: int, lo: int = 0,
                   hi: int | None = None) -> int:
        if key not in params:
            return default
        try:
            value = int(params[key])
        except ValueError:
            raise _bad("invalid_request",
                       f"'{key}' must be an integer, got {params[key]!r}")
        if value < lo or (hi is not None and value > hi):
            bounds = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
            raise _bad("invalid_request",
                       f"'{key}' must be {bounds}, got {value}")
        return value

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:       # noqa: N802 — http.server API
        self._handle("GET")

    def do_POST(self) -> None:      # noqa: N802 — http.server API
        self._handle("POST")

    def _handle(self, method: str) -> None:
        """Per-request front door: enter the trace context (taken from a
        valid ``X-Trace-Id`` header, freshly generated otherwise), route,
        and record metrics plus one structured log line on the way out."""
        t0 = time.monotonic()
        path, params = self._query()
        # the route below /v1 ("/v1/jobs" -> "/jobs"); None outside it
        sub = (path[len("/v1"):] or "/"
               if path == "/v1" or path.startswith("/v1/") else None)
        header = self.headers.get(TRACE_HEADER) or ""
        self._trace_id = header if is_valid_trace_id(header) \
            else new_trace_id()
        self._status = 0
        token = set_trace_id(self._trace_id)
        try:
            raw = self._drain_body() if method == "POST" else b""
            if sub is None:
                raise _ApiError(404, "not_found",
                                f"no route for {method} {path}")
            if method == "GET":
                self._route_get(sub, params)
            else:
                self._route_post(path, sub, raw)
        except _ApiError as exc:
            self._send_api_error(exc)
        finally:
            elapsed = time.monotonic() - t0
            route = "other" if sub is None else _route_label(sub)
            status = self._status or 500    # no response sent = aborted
            _HTTP_REQUESTS.inc(route=route, method=method,
                               status=str(status))
            _HTTP_SECONDS.observe(elapsed, route=route, method=method)
            # --quiet demotes per-request chatter to debug level
            _log.log("debug" if self.server.service.quiet else "info",
                     "http_request", method=method, path=path, route=route,
                     status=status, duration_s=round(elapsed, 6))
            reset_trace_id(token)

    def _route_post(self, path: str, sub: str, raw: bytes) -> None:
        if sub == "/jobs":
            return self._post_job(raw)
        if sub == "/solve":
            return self._post_solve(raw)
        raise _ApiError(404, "not_found", f"no route for POST {path}")

    def _route_get(self, sub: str, params: dict[str, str]) -> None:
        if sub == "/healthz":
            return self._send_json(self.server.service.health())
        if sub == "/metrics":
            # the store is shared fleet state the process registry cannot
            # see; derive its gauges at scrape time so one server scrape
            # reports every worker draining the same store
            self.server.service.refresh_store_gauges()
            return self._send_payload(REGISTRY.render().encode(),
                                      METRICS_CONTENT_TYPE)
        if sub == "/solvers":
            return self._send_json(
                {"solvers": [_solver_dict(s) for s in list_solvers()]})
        if sub == "/jobs":
            return self._get_jobs(params)
        parts = sub.lstrip("/").split("/")
        if parts[0] == "jobs" and len(parts) == 2:
            return self._get_job(parts[1], params)
        if parts[0] == "jobs" and len(parts) == 3 and parts[2] == "reports":
            return self._get_reports(parts[1], params)
        if parts[0] == "results" and len(parts) == 2:
            reps = self.server.service.store.cached_reports_for_digest(
                parts[1])
            return self._send_json(
                {"instance_digest": parts[1],
                 "reports": [r.to_dict() for r in reps]})
        raise _ApiError(404, "not_found", f"no route for GET {sub}")

    def _get_jobs(self, params: dict[str, str]) -> None:
        store = self.server.service.store
        status = params.get("status")
        if status is not None and status not in JOB_STATUSES:
            raise _bad("invalid_request",
                       f"unknown status {status!r}; "
                       f"one of: {', '.join(JOB_STATUSES)}")
        limit = self._int_param(params, "limit", DEFAULT_PAGE_LIMIT,
                                lo=1, hi=MAX_PAGE_LIMIT)
        offset = self._int_param(params, "offset", 0, lo=0)
        jobs = store.list_jobs(status=status, limit=limit, offset=offset)
        total = store.count_jobs(status=status)
        nxt = offset + len(jobs)
        self._send_json({"jobs": [j.to_dict() for j in jobs],
                         "total": total, "limit": limit, "offset": offset,
                         "next_offset": nxt if nxt < total else None})

    def _post_job(self, raw: bytes) -> None:
        sub = _parse_submission(self._parse_body(raw))
        service = self.server.service
        job = service._enqueue(
            sub["inst"], sub["algorithms"], label=sub["label"],
            priority=sub["priority"], timeout=sub["timeout"])
        try:
            # reply first: a drainer woken before the 201 is flushed
            # competes with this thread for the interpreter while the
            # client waits
            self._send_json(job.to_dict(), 201)
        finally:
            service.node.notify()

    def _post_solve(self, raw: bytes) -> None:
        body = self._parse_body(raw)
        try:
            request = SolveRequest.from_dict(body)
        except (InvalidInstanceError, KeyError, TypeError,
                ValueError) as exc:
            raise _bad("invalid_request", f"invalid solve request: {exc}")
        _check_feasible(request.instance)
        if request.instance.num_jobs > SYNC_SOLVE_MAX_JOBS:
            raise _bad(
                "too_large",
                f"synchronous solves are capped at {SYNC_SOLVE_MAX_JOBS} "
                f"jobs (got {request.instance.num_jobs}); submit the "
                f"instance to POST /{API_VERSION}/jobs instead")
        try:
            # solver resolution happens inside the backend, exactly
            # once; its failures map to envelope codes here
            report = self.server.service.solve_sync(request)
        except UnknownSolverError as exc:
            raise _bad("unknown_solver", str(exc.args[0]),
                       {"name": request.algorithm,
                        "suggestions": suggest_solvers(
                            request.algorithm or "")})
        except NoMatchingSolverError as exc:
            raise _bad("no_matching_solver", str(exc),
                       request.query.to_dict())
        except (TypeError, ValueError) as exc:
            raise _bad("invalid_request", str(exc))
        self._send_json({"request": request.to_dict(),
                         "report": report.to_dict()})

    def _get_job(self, job_id: str, params: dict[str, str]) -> None:
        wait = self._wait_param(params)
        service = self.server.service
        job = (service.node.wait_terminal(job_id, wait) if wait
               else service.store.get_job(job_id))
        if job is None:
            raise _ApiError(404, "not_found", f"no job {job_id!r}")
        record = job.to_dict()
        if job.status in TERMINAL_STATUSES:
            # the reports ride along, so a waiting client needs no
            # second request for them
            record["reports"] = [
                r.to_dict() for r in service.store.reports_for(job_id)]
        self._send_json(record)

    def _get_reports(self, job_id: str, params: dict[str, str]) -> None:
        store = self.server.service.store
        job = store.get_job(job_id)
        if job is None:
            raise _ApiError(404, "not_found", f"no job {job_id!r}")
        if job.status not in TERMINAL_STATUSES:
            raise _ApiError(
                409, "not_ready",
                f"job {job_id} is {job.status}; reports are available "
                f"once it is done", {"status": job.status})
        reports = store.reports_for(job_id)
        ndjson = params.get("format") == "ndjson" or \
            NDJSON in (self.headers.get("Accept") or "")
        if ndjson:
            data = b"".join(_compact(r.to_dict()) + b"\n"
                            for r in reports)
            return self._send_payload(data, NDJSON)
        self._send_json({"job_id": job_id, "status": job.status,
                         "error": job.error,
                         "reports": [r.to_dict() for r in reports]})


def _compact(payload: Any) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # dozens of clients connect concurrently; the stdlib default backlog
    # of 5 drops connections under exactly the load the service exists for
    request_queue_size = 128
    service: "SchedulingService"

    def __init__(self, *args: Any) -> None:
        super().__init__(*args)
        self.closing = False
        self._conn_lock = threading.Lock()
        self._idle: set[socket.socket] = set()

    def mark_idle(self, conn: socket.socket, idle: bool) -> bool:
        """Record whether a keep-alive connection is between requests;
        False once the server is closing."""
        with self._conn_lock:
            if idle:
                self._idle.add(conn)
            else:
                self._idle.discard(conn)
            return not self.closing

    def close_connections(self) -> None:
        """End every keep-alive connection: idle ones now, busy ones
        after their response (sent with ``Connection: close``)."""
        with self._conn_lock:
            self.closing = True
            idle, self._idle = self._idle, set()
        for conn in idle:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:     # the peer hung up first
                pass


class SchedulingService:
    """The composed service: store backend + worker node + HTTP server.

    ``db_path`` names the storage backend: a filesystem path (legacy), a
    ``store_url`` (``sqlite:///jobs.db``, ``memory://``), or an already
    open :class:`~repro.service.storage.StoreBackend` — the service then
    shares it and leaves closing to its owner. ``port=0`` binds an
    ephemeral port (tests); read ``self.port`` after construction.
    ``start()`` recovers persisted jobs and begins serving in background
    threads; ``shutdown()`` stops cleanly (jobs still queued stay
    ``queued`` in the store for the next start).

    The service owns one :class:`~repro.service.worker.WorkerNode` with
    ``drainers`` threads, each holding a lease of ``lease_seconds`` (a
    positive number) on the job it runs. ``embedded_workers=False`` runs
    the front door alone: jobs are accepted, persisted and supervised
    (expired leases still get reclaimed) but executed only by external
    ``repro worker`` processes pointed at the same store.
    """

    #: Ceiling for synchronous ``POST /v1/solve`` runs submitted without
    #: their own timeout — a handler thread must never hang forever.
    SYNC_DEFAULT_TIMEOUT = 60.0

    def __init__(self, db_path: str | StoreBackend, *,
                 host: str = "127.0.0.1",
                 port: int = 8080, drainers: int = 2,
                 engine_workers: int = 0,
                 default_timeout: float | None = None,
                 lease_seconds: float = 30.0,
                 max_attempts: int | None = None,
                 embedded_workers: bool = True,
                 quiet: bool = True) -> None:
        if isinstance(db_path, StoreBackend):
            self.store = db_path
            self._owns_store = False
        else:
            self.store = open_store(str(db_path))
            self._owns_store = True
        self.node = WorkerNode(self.store,
                               workers=drainers if embedded_workers else 0,
                               engine_workers=engine_workers,
                               default_timeout=default_timeout,
                               lease_seconds=lease_seconds)
        self.max_attempts = (DEFAULT_MAX_ATTEMPTS if max_attempts is None
                             else max_attempts)
        # synchronous /v1/solve runs inline on the handler thread; no
        # shared cache so want_schedule requests always carry their
        # schedule instead of a cache-stripped report
        self._sync_session = Session()
        self.default_timeout = default_timeout
        self.quiet = quiet
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.service = self
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None
        self._started_at = time.time()
        self.recovered = 0
        self.released = 0

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def submit(self, inst: Instance,
               algorithms: Iterable[tuple[str, Mapping[str, Any]]],
               *, label: str = "", priority: int = 0,
               timeout: float | None = None) -> JobRecord:
        """Persist a job and wake a drainer. Safe from any thread."""
        job = self._enqueue(inst, algorithms, label=label,
                            priority=priority, timeout=timeout)
        self.node.notify()
        return job

    def _enqueue(self, inst: Instance,
                 algorithms: Iterable[tuple[str, Mapping[str, Any]]],
                 *, label: str = "", priority: int = 0,
                 timeout: float | None = None) -> JobRecord:
        """Persist a job without waking a drainer: the caller wakes one
        (``self.node.notify()``) once it has done what must come first —
        ``POST /v1/jobs`` sends its reply. The queue is not counted here:
        the ``repro_queue_depth`` gauge is set from the store on every
        readout and supervisor tick."""
        job = self.store.create_job(
            inst, algorithms, label=label, priority=priority,
            timeout=self.default_timeout if timeout is None else timeout,
            trace_id=current_trace_id(), max_attempts=self.max_attempts)
        _JOBS_SUBMITTED.inc()
        return job

    def solve_sync(self, request: SolveRequest) -> Any:
        """Run one ``POST /v1/solve`` request inline, with the service's
        default timeout as a backstop."""
        if request.timeout is None:
            request = replace(
                request,
                timeout=self.default_timeout or self.SYNC_DEFAULT_TIMEOUT)
        return self._sync_session.solve(request)

    def health(self) -> dict:
        # health is a readout of the same registry /v1/metrics serves, so
        # the two endpoints can never disagree; counters are process-wide
        # and cumulative, gauges reflect the live queue
        jobs = self._refresh_queue_depth()
        hits = CACHE_HITS.value(cache="service")
        misses = CACHE_MISSES.value(cache="service")
        lookups = hits + misses
        return {
            "status": "ok",
            "api_version": API_VERSION,
            "uptime_s": round(time.time() - self._started_at, 3),
            "store": self.store.url,
            "queue_depth": int(QUEUE_DEPTH.value()),
            "active_jobs": int(JOBS_ACTIVE.value()),
            "drainers": self.node.workers,
            "jobs": jobs,
            "cache": {"entries": len(self.node.cache), "hits": int(hits),
                      "misses": int(misses),
                      "hit_rate": round(hits / lookups, 4) if lookups
                      else 0.0},
        }

    def _refresh_queue_depth(self) -> dict[str, int]:
        """Set the queue-depth gauge from the store's job counts, and
        return them. Submits and claims do not count the queue, so every
        readout re-reads the store (the supervisor's tick does too)."""
        counts = self.store.counts()
        QUEUE_DEPTH.set(counts["queued"])
        return counts

    def refresh_store_gauges(self) -> None:
        """Project shared store state (queue depth, job counts,
        per-worker claim totals) into registry gauges — called on every
        metrics scrape so the numbers cover external workers too."""
        for status, count in self._refresh_queue_depth().items():
            _STORE_JOBS.set(count, status=status)
        for worker, claims in self.store.claims_by_worker().items():
            _STORE_WORKER_CLAIMS.set(claims, worker=worker)

    def start(self) -> "SchedulingService":
        """Requeue the work a previous process left, start the worker
        node, then serve."""
        self.recovered = len(self.store.recover_incomplete())
        self.node.start()
        QUEUE_DEPTH.set(self.store.count_jobs("queued"))
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True, name="repro-http")
        self._thread.start()
        return self

    def shutdown(self, *, drain_grace: float | None = None) -> None:
        """Stop serving. The HTTP front door closes first (no new work,
        keep-alive connections ended, pending long-polls answered with
        the job's current record), then the worker node drains: without
        ``drain_grace``, until every in-flight job finishes; with it, at
        most that many seconds — the leases of jobs still running are
        then released back to the store untouched, for the next start
        (or another node) to pick up."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections()
        if self._thread is not None:
            self._thread.join()
        self.released = self.node.stop(wait=True, grace=drain_grace)
        if self._owns_store:
            self.store.close()
        # release the engine's shared process pool the drainers fanned out
        # over; it is rebuilt lazily if this process runs more batches
        shutdown_pool(wait=False)


def serve(db_path: str, *, host: str = "127.0.0.1", port: int = 8080,
          drainers: int = 2, engine_workers: int = 0,
          default_timeout: float | None = None,
          lease_seconds: float = 30.0,
          max_attempts: int | None = None,
          drain_grace: float = 10.0,
          embedded_workers: bool = True,
          quiet: bool = False, log_level: str | None = None) -> None:
    """Run the service in the foreground until interrupted (CLI entry).

    ``db_path`` may be a filesystem path or a ``store_url``
    (``sqlite:///jobs.db``, ``memory://``). ``embedded_workers=False``
    accepts and supervises jobs but leaves execution to external
    ``repro worker`` processes sharing the store.

    ``--quiet`` is now just a log level: it selects ``warning`` where the
    default is ``info``; an explicit ``log_level`` wins over both.

    SIGTERM and SIGINT both shut down gracefully: the HTTP listener
    closes (no new submissions), in-flight jobs get up to
    ``drain_grace`` seconds to finish, leases that cannot are released
    back to the store, and the process exits 0."""
    import signal as _signal

    from ..obs.log import set_level
    set_level(log_level or ("warning" if quiet else "info"))
    svc = SchedulingService(db_path, host=host, port=port, drainers=drainers,
                            engine_workers=engine_workers,
                            default_timeout=default_timeout,
                            lease_seconds=lease_seconds,
                            max_attempts=max_attempts,
                            embedded_workers=embedded_workers, quiet=quiet)
    svc.start()
    workers = svc.node.workers if embedded_workers else "none (external)"
    print(f"repro service listening on {svc.url}/{API_VERSION}  "
          f"(store={svc.store.url}, workers={workers}, "
          f"recovered {svc.recovered} job(s))", flush=True)
    stop = threading.Event()
    previous = {}
    try:
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            previous[sig] = _signal.signal(
                sig, lambda signum, frame: stop.set())
    except (ValueError, OSError):   # pragma: no cover - non-main thread
        pass
    try:
        while not stop.wait(0.5):
            pass
        print(f"shutting down (draining up to {drain_grace:g}s)",
              flush=True)
    except KeyboardInterrupt:       # signal handlers not installed
        print("shutting down", flush=True)
    finally:
        for sig, handler in previous.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):   # pragma: no cover
                pass
        svc.shutdown(drain_grace=drain_grace)
        if svc.released:
            print(f"released {svc.released} unfinished lease(s)",
                  flush=True)
