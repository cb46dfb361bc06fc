"""Python client for the scheduling service (stdlib ``http.client`` only).

Speaks the versioned ``/v1`` API: the uniform error envelope is decoded
into :class:`ServiceError` (with its machine-readable ``code``),
``GET /v1/jobs`` pagination is exposed via :meth:`ServiceClient.jobs_page`,
and :meth:`ServiceClient.solve` drives the synchronous ``POST /v1/solve``
endpoint with a :class:`repro.api.SolveRequest`.

Requests travel over a small pool of keep-alive connections, reused
last-in first-out, with compact JSON bodies. :meth:`ServiceClient.wait`
long-polls ``GET /v1/jobs/{id}?wait=<s>``, so the server reports a job's
completion as it happens instead of the client guessing when to look.

Used by the test suite, ``repro submit``, the examples and the remote
backend of :class:`repro.api.Session`; any other HTTP client works just
as well — the API is plain JSON (see :mod:`repro.service.server` for the
routes and curl examples in the README).

::

    from repro.service import ServiceClient

    with ServiceClient("http://127.0.0.1:8080") as client:
        job = client.submit(inst, ["splittable", ("ptas-splittable",
                                                  {"delta": 2})])
        reports = client.wait(job["id"])      # list[SolveReport]
"""

from __future__ import annotations

import http.client
import json
import random
import select
import socket
import threading
import time
import urllib.parse
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..io import instance_to_dict
from ..obs.trace import TRACE_HEADER, current_trace_id
from .server import MAX_WAIT_SECONDS

if TYPE_CHECKING:    # pragma: no cover - typing only
    from ..api import SolveRequest

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """An HTTP error from the service, with its decoded error envelope.

    ``code`` is the machine-readable envelope code (``unknown_solver``,
    ``not_found``, ...), or ``""`` for pre-envelope/legacy bodies.
    """

    def __init__(self, status: int, message: str, *, code: str = "",
                 detail: Any = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.code = code
        self.detail = detail


def _decode_error(status: int, payload: Any) -> ServiceError:
    err = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(err, dict):       # the /v1 envelope
        return ServiceError(status, str(err.get("message", "")),
                            code=str(err.get("code", "")),
                            detail=err.get("detail"))
    if isinstance(err, str):        # legacy flat shape
        return ServiceError(status, err)
    return ServiceError(status, str(payload))


def _dropped(sock: socket.socket) -> bool:
    """Whether the server has closed an idle pooled connection: its
    socket is readable although no request is outstanding (the EOF, or
    stray bytes that would desync the next response)."""
    if hasattr(select, "poll"):
        poller = select.poll()
        poller.register(sock, select.POLLIN)
        return bool(poller.poll(0))
    return bool(select.select([sock], [], [], 0)[0])


class ServiceClient:
    """Minimal blocking client for one service endpoint.

    ``api_prefix`` selects the surface; the default is the versioned
    ``/v1`` routes. Pass ``api_prefix=""`` to talk to the deprecated
    legacy aliases of an old server. ``sync_solve_budget`` is how long
    the server may spend on a ``POST /v1/solve`` submitted without its
    own timeout — match it to the server's ``--timeout`` when that is
    raised above the 60s default, or the client socket closes while the
    server is still solving.

    The client is safe to share between threads. It keeps at most as
    many idle connections as it has had concurrent calls; ``close()``
    (or leaving a ``with`` block) closes them.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0,
                 api_prefix: str = "/v1",
                 sync_solve_budget: float = 60.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.api_prefix = api_prefix
        self.sync_solve_budget = sync_solve_budget
        url = urllib.parse.urlsplit(self.base_url)
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._netloc = url.netloc
        self._path_prefix = url.path + api_prefix
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle pooled connections (the client stays usable)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # transport
    # ------------------------------------------------------------------ #

    #: Transient connection failures retried for idempotent requests.
    _RETRIABLE = (ConnectionError,)
    _RETRIES = 4
    _RETRY_BASE = 0.05
    _RETRY_CAP = 2.0
    _RETRY_AFTER_CAP = 30.0

    @classmethod
    def _backoff_delay(cls, attempt: int) -> float:
        """Full-jitter exponential backoff: attempt ``k`` (0-based) waits
        ``uniform(0, min(cap, base * 2**k))`` — fixed linear sleeps
        resynchronize a thundering herd; jitter spreads it out."""
        return random.uniform(0.0, min(cls._RETRY_CAP,
                                       cls._RETRY_BASE * 2 ** attempt))

    def _checkout(self, timeout: float) -> http.client.HTTPConnection:
        """The most recently used live idle connection, or a new one."""
        while True:
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            if conn is None:
                return self._connection_class(self._netloc, timeout=timeout)
            # pooled connections are open: a response that closes its
            # connection never returns it to the pool
            if not _dropped(conn.sock):
                conn.sock.settimeout(timeout)
                return conn
            conn.close()

    def _send(self, method: str, path: str, body: dict | None = None,
              transport_timeout: float | None = None
              ) -> tuple[http.client.HTTPResponse, bytes]:
        headers = {"Content-Type": "application/json"}
        trace_id = current_trace_id()
        if trace_id is not None:
            # propagate the caller's ambient trace so server logs, the
            # job row and the resulting reports all correlate with it
            headers[TRACE_HEADER] = trace_id
        data = (json.dumps(body, separators=(",", ":")).encode()
                if body is not None else None)
        # GETs are idempotent, so a dropped connection — or a 503 from an
        # overloaded/draining server — is safely retried with exponential
        # backoff; a POST is never resent (double-submit)
        attempts = self._RETRIES if method == "GET" else 1
        for attempt in range(attempts):
            conn = self._checkout(transport_timeout or self.timeout)
            try:
                conn.request(method, self._path_prefix + path, body=data,
                             headers=headers)
                resp = conn.getresponse()
                payload = resp.read()
            except self._RETRIABLE:
                conn.close()
                if attempt == attempts - 1:
                    raise
                time.sleep(self._backoff_delay(attempt))
                continue
            except BaseException:
                conn.close()
                raise
            if resp.will_close:
                conn.close()
            else:
                with self._lock:
                    self._idle.append(conn)
            if resp.status == 503 and attempt < attempts - 1:
                # honor Retry-After when the server names a delay
                try:
                    delay = min(max(0.0, float(resp.getheader(
                        "Retry-After", ""))), self._RETRY_AFTER_CAP)
                except ValueError:
                    delay = self._backoff_delay(attempt)
                time.sleep(delay)
                continue
            return resp, payload

    def _request(self, method: str, path: str, body: dict | None = None,
                 transport_timeout: float | None = None) -> Any:
        resp, data = self._send(method, path, body, transport_timeout)
        if resp.status < 400:
            return json.loads(data)
        try:
            payload = json.loads(data)
        except ValueError:
            payload = {"error": resp.reason}
        raise _decode_error(resp.status, payload)

    # ------------------------------------------------------------------ #
    # API
    # ------------------------------------------------------------------ #

    def solve(self, request: "SolveRequest") -> SolveReport:
        """``POST /v1/solve`` — synchronous solve of one small instance."""
        return SolveReport.from_dict(self.solve_raw(request)["report"])

    def solve_raw(self, request: "SolveRequest") -> dict:
        """``POST /v1/solve``, returning the raw payload — the canonical
        echo of the request under ``"request"`` plus its ``"report"``.

        The transport deadline outlasts the server-side solve budget
        (``request.timeout``, or ``sync_solve_budget`` when unset): a
        POST is never retried, so closing the socket early would lose
        the report of a solve the server finishes anyway."""
        budget = (request.timeout if request.timeout is not None
                  else self.sync_solve_budget)
        return self._request("POST", "/solve", request.to_dict(),
                             transport_timeout=max(self.timeout,
                                                   budget + 10.0))

    def submit(self, inst: Instance | Mapping[str, Any],
               algorithms: Iterable[str | tuple[str, Mapping[str, Any]]],
               *, label: str = "", priority: int = 0,
               timeout: float | None = None) -> dict:
        """``POST /v1/jobs``; returns the created job record as a dict."""
        algos: list[Any] = []
        for item in algorithms:
            if isinstance(item, str):
                algos.append(item)
            else:
                name, kwargs = item
                algos.append([name, dict(kwargs or {})])
        body = {
            "instance": (instance_to_dict(inst)
                         if isinstance(inst, Instance) else dict(inst)),
            "algorithms": algos, "label": label, "priority": priority,
        }
        if timeout is not None:
            body["timeout"] = timeout
        return self._request("POST", "/jobs", body)

    def job(self, job_id: str, *, wait: float | None = None) -> dict:
        """``GET /v1/jobs/{id}``. With ``wait``, a long-poll: the record
        comes back once the job is terminal, or after ``wait`` seconds
        (at most ``MAX_WAIT_SECONDS``)."""
        if wait is None:
            return self._request("GET", f"/jobs/{job_id}")
        wait = min(wait, MAX_WAIT_SECONDS)
        return self._request("GET", f"/jobs/{job_id}?wait={wait:.3f}",
                             transport_timeout=self.timeout + wait)

    def jobs_page(self, status: str | None = None, limit: int = 50,
                  offset: int = 0) -> dict:
        """``GET /v1/jobs`` — one page plus pagination metadata
        (``total``, ``limit``, ``offset``, ``next_offset``)."""
        path = f"/jobs?limit={limit}&offset={offset}"
        if status is not None:
            path += f"&status={status}"
        return self._request("GET", path)

    def jobs(self, status: str | None = None, limit: int = 50,
             offset: int = 0) -> list[dict]:
        """``GET /v1/jobs``, just the records of one page."""
        return self.jobs_page(status, limit, offset)["jobs"]

    def reports(self, job_id: str) -> list[SolveReport]:
        """``GET /v1/jobs/{id}/reports``, decoded back into SolveReports
        (fractions arrive exact thanks to the num/den wire encoding)."""
        payload = self._request("GET", f"/jobs/{job_id}/reports")
        return [SolveReport.from_dict(d) for d in payload["reports"]]

    def results_for_digest(self, digest: str) -> list[SolveReport]:
        """``GET /v1/results/{digest}`` — the cross-client cache view."""
        payload = self._request("GET", f"/results/{digest}")
        return [SolveReport.from_dict(d) for d in payload["reports"]]

    def solvers(self) -> list[dict]:
        """``GET /v1/solvers``."""
        return self._request("GET", "/solvers")["solvers"]

    def health(self) -> dict:
        """``GET /v1/healthz``."""
        return self._request("GET", "/healthz")

    def metrics(self) -> str:
        """``GET /v1/metrics`` — the raw Prometheus text exposition
        (the one non-JSON payload)."""
        resp, data = self._send("GET", "/metrics")
        if resp.status >= 400:
            raise ServiceError(resp.status, resp.reason)
        return data.decode()

    @staticmethod
    def job_failure(job: Mapping[str, Any]) -> ServiceError:
        """The one way a terminally unsuccessful job becomes an exception
        — ``wait`` and the remote Session backend must agree on
        ``code=\"job_failed\"`` (``\"job_quarantined\"`` for jobs that
        exhausted their retry attempts)."""
        status = job.get("status", "failed")
        return ServiceError(
            500, f"job {job['id']} {status}: {job.get('error', '')}",
            code=("job_quarantined" if status == "quarantined"
                  else "job_failed"))

    #: Least time between two long-polls of one job, for servers that
    #: answer early: one shutting down, or one without ``?wait=``.
    _REASK_INTERVAL = 0.1

    def wait(self, job_id: str, *, timeout: float = 60.0) -> list[SolveReport]:
        """Block until the job finishes; return its reports.

        Long-polls :meth:`job` until the job is terminal, then fetches
        :meth:`reports`. Raises :class:`TimeoutError` if the job is still
        pending after ``timeout`` seconds, and :class:`ServiceError`
        (status 500) if the job itself failed or was quarantined
        server-side.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            job = self.job(job_id, wait=max(0.0, deadline - asked))
            if job["status"] == "done":
                return self.reports(job_id)
            if job["status"] in ("failed", "quarantined"):
                raise self.job_failure(job)
            now = time.monotonic()
            if now >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['status']} after {timeout}s")
            time.sleep(min(max(0.0, asked + self._REASK_INTERVAL - now),
                           deadline - now))
