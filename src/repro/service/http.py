"""Stdlib HTTP front-end for the estimation service.

A :class:`ThreadingHTTPServer` (one thread per connection, no external
dependencies) exposing:

``POST /v1/estimate``
    Body: an :class:`~repro.service.jobs.EstimateRequest` JSON document
    (plus optional ``"timeout"`` seconds). Synchronous by default —
    responds ``200`` with ``{"job_id", "state", "cached", "estimate"}``.
    With ``?async=1`` (or ``"async": true`` in the body) it responds
    ``202`` with the job id immediately; poll the job endpoint.
``POST /v1/sweep``
    Body: a :class:`~repro.service.sweep.SweepRequest` JSON document —
    a base estimate request plus ``axes`` varying request fields — run
    as **one** job for the whole grid. Responds ``200`` with
    ``{"job_id", "state", "coalesced", "sweep"}`` where ``sweep`` carries
    the per-point estimates (C-order) and amortized-latency stats.
    Supports ``?async=1`` / ``"async": true`` like the estimate
    endpoint. Every grid point back-fills the estimate cache tier.
``GET /v1/jobs/<id>``
    Job status snapshot; includes the serialized estimate once done.
``GET /v1/healthz``
    Liveness: ``200`` while workers are alive (in process mode: while
    the worker pool has a live or starting slot), ``503`` otherwise.
    Stays ``200`` during drain — the process is alive.
``GET /v1/readyz``
    Readiness: ``200`` only when the server can take new work *now*;
    ``503`` while draining, while the queue is saturated
    (backpressure), or with no live workers. Load balancers route on
    this, not on liveness.
``GET /v1/metrics``
    The metrics registry in Prometheus text format.

Every error responds with a structured JSON document
``{"error": <message>, "kind": <taxonomy>}`` so clients can re-raise
the matching typed exception; unexpected handler exceptions become a
``500`` with a generic message (never a traceback). Error mapping:
malformed/invalid/oversized requests -> ``400`` ``bad_request``;
unknown job/endpoint -> ``404`` ``not_found``; queue backpressure ->
``429`` ``queue_full``; draining -> ``503`` ``draining``; job deadline
-> ``504`` ``deadline``; wait timeout -> ``504`` ``timeout``; job
failure -> ``502`` ``failed``; cancellation -> ``502`` ``cancelled``.

Graceful drain: :meth:`LeakageHTTPServer.drain` flips the server into
draining mode (readiness goes 503, new estimates are refused), waits
for in-flight requests to finish up to a grace period, then stops the
accept loop and closes the socket. The CLI wires this to SIGTERM.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.exceptions import ConfigurationError, ReproError
from repro.service.faults import SITE_HTTP_DISCONNECT
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
)
from repro.service.metrics import SIZE_BUCKETS
from repro.service.sweep import SweepRequest
from repro.service.whatif import WhatIfRequest

_MAX_BODY_BYTES = 1 << 20  # 1 MiB is plenty for any request document

_TRUTHY = ("1", "true", "yes", "on")


class LeakageHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one :class:`ServiceClient`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], client) -> None:
        super().__init__(address, _Handler)
        #: The in-process service front-end handling every request.
        self.client = client
        #: Fault injector shared with the service (``http.disconnect``).
        self.faults = getattr(client, "faults", None)
        self.draining = False
        self._inflight = 0
        self._inflight_cv = threading.Condition()
        metrics = client.metrics
        self._http_requests = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests by endpoint and status code.",
            labelnames=("endpoint", "code"))
        self._http_errors = metrics.counter(
            "repro_http_errors_total",
            "HTTP error responses by status class (4xx/5xx).",
            labelnames=("status_class",))
        self._request_bytes = metrics.histogram(
            "repro_http_request_bytes",
            "Request body sizes in bytes.",
            buckets=SIZE_BUCKETS)
        self._draining_gauge = metrics.gauge(
            "repro_http_draining",
            "1 while the server is draining (refusing new work).")
        self._draining_gauge.set(0)

    # -- in-flight tracking / graceful drain ------------------------------

    def request_started(self) -> None:
        with self._inflight_cv:
            self._inflight += 1

    def request_finished(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    @property
    def inflight(self) -> int:
        with self._inflight_cv:
            return self._inflight

    def begin_drain(self) -> None:
        """Refuse new estimates; existing ones keep running."""
        self.draining = True
        self._draining_gauge.set(1)

    def await_idle(self, grace: Optional[float] = None) -> bool:
        """Block until no request is in flight; False on grace expiry."""
        deadline = None if grace is None else time.monotonic() + grace
        with self._inflight_cv:
            while self._inflight > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._inflight_cv.wait(timeout=remaining)
        return True

    def drain(self, grace: Optional[float] = 10.0) -> bool:
        """Graceful shutdown: stop accepting, finish in-flight, close.

        Returns True when every in-flight request completed within the
        grace period. Must not be called from the thread running
        :meth:`serve_forever` (it blocks on that loop stopping) — the
        CLI's signal handler spawns a thread for it.
        """
        self.begin_drain()
        completed = self.await_idle(grace)
        self.shutdown()
        self.server_close()
        return completed


class _Handler(BaseHTTPRequestHandler):
    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY
    # Nagle holds the body for the client's delayed ACK (~40 ms) on
    # every kept-alive request after the first.
    disable_nagle_algorithm = True

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # metrics replace access logs; keep stdout clean

    def _count(self, endpoint: str, code: int) -> None:
        self.server._http_requests.inc(endpoint=endpoint, code=str(code))
        if code >= 400:
            self.server._http_errors.inc(
                status_class=f"{code // 100}xx")

    def _drop_connection(self) -> None:
        """Injected fault: kill the socket instead of responding."""
        self.close_connection = True
        try:
            self.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.connection.close()
        except OSError:
            pass

    def _respond(self, code: int, body: bytes, content_type: str) -> None:
        faults = self.server.faults
        if (faults is not None
                and faults.should_fire(SITE_HTTP_DISCONNECT)):
            self._drop_connection()
            return
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, endpoint: str, code: int, document) -> None:
        self._count(endpoint, code)
        body = json.dumps(document).encode("utf-8")
        self._respond(code, body, "application/json")

    def _error(self, endpoint: str, code: int, message: str,
               kind: str) -> None:
        self._json(endpoint, code, {"error": message, "kind": kind})

    def _read_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise ConfigurationError("invalid Content-Length header")
        if length > _MAX_BODY_BYTES:
            # Drain (bounded) so the peer can finish sending and read
            # the 400 instead of dying on a broken pipe mid-upload;
            # past the drain cap the connection is dropped instead.
            drain_cap = 8 * _MAX_BODY_BYTES
            if length > drain_cap:
                self.close_connection = True
            else:
                remaining = length
                while remaining > 0:
                    chunk = self.rfile.read(min(remaining, 65536))
                    if not chunk:
                        break
                    remaining -= len(chunk)
            raise ConfigurationError(
                f"request body too large ({length} bytes; "
                f"limit {_MAX_BODY_BYTES})")
        raw = self.rfile.read(length) if length else b""
        self.server._request_bytes.observe(float(len(raw)))
        if not raw:
            raise ConfigurationError("request body must be a JSON object")
        try:
            document = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON body: {exc}")
        if not isinstance(document, dict):
            raise ConfigurationError("request body must be a JSON object")
        return document

    # -- routes -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "healthz"]:
                self._healthz()
            elif parts == ["v1", "readyz"]:
                self._readyz()
            elif parts == ["v1", "metrics"]:
                self._metrics()
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._job_status(parts[2])
            else:
                self._error("unknown", 404,
                            f"no such endpoint: {url.path}", "not_found")
        except (ConnectionError, BrokenPipeError):
            raise  # peer went away mid-response; nothing to answer
        except Exception:  # noqa: BLE001 - last-resort 500, no traceback
            self._error("internal", 500, "internal server error",
                        "internal")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "estimate"]:
                self.server.request_started()
                try:
                    self._estimate(url)
                finally:
                    self.server.request_finished()
            elif parts == ["v1", "sweep"]:
                self.server.request_started()
                try:
                    self._sweep(url)
                finally:
                    self.server.request_finished()
            else:
                self._error("unknown", 404,
                            f"no such endpoint: {url.path}", "not_found")
        except (ConnectionError, BrokenPipeError):
            raise
        except Exception:  # noqa: BLE001 - last-resort 500, no traceback
            self._error("internal", 500, "internal server error",
                        "internal")

    def _healthz(self) -> None:
        client = self.server.client
        # The stats surfaces are best-effort: liveness must answer even
        # for minimal clients that expose only a scheduler.
        workers = getattr(client, "workers_alive",
                          client.scheduler.workers_alive)
        details = {}
        cache_stats = getattr(client, "cache_stats", None)
        if callable(cache_stats):
            details["cache"] = cache_stats()
        pipeline = getattr(client, "pipeline", None)
        if pipeline is not None:
            details["base_store"] = pipeline.base_store_stats()
        worker_liveness = getattr(client, "worker_liveness", None)
        if callable(worker_liveness):
            # Per-worker pid / restarts / heartbeat age; also refreshes
            # the repro_worker_up gauge as a side effect.
            details["workers"] = worker_liveness()
        rebuild = getattr(client, "cache_rebuild", None)
        if rebuild is not None:
            details["cache_rebuild"] = rebuild
        document = {
            "status": "ok" if workers > 0 else "unhealthy",
            "workers": workers,
            "worker_mode": getattr(client, "worker_mode", "thread"),
            "queue_depth": client.scheduler.queue_depth,
            "version": __version__,
            "details": details,
        }
        self._json("healthz", 200 if workers > 0 else 503, document)

    def _readyz(self) -> None:
        client = self.server.client
        workers = getattr(client, "workers_alive",
                          client.scheduler.workers_alive)
        draining = self.server.draining
        saturated = client.scheduler.saturated
        ready = workers > 0 and not draining and not saturated
        reasons = []
        if draining:
            reasons.append("draining")
        if saturated:
            reasons.append("saturated")
        if workers <= 0:
            reasons.append("no live workers")
        document = {
            "status": "ready" if ready else "unready",
            "draining": draining,
            "saturated": saturated,
            "workers": workers,
            "queue_depth": client.scheduler.queue_depth,
            "inflight": self.server.inflight,
        }
        if reasons:
            document["reasons"] = reasons
        self._json("readyz", 200 if ready else 503, document)

    def _metrics(self) -> None:
        text = self.server.client.metrics.render()
        self._count("metrics", 200)
        self._respond(200, text.encode("utf-8"),
                      "text/plain; version=0.0.4; charset=utf-8")

    def _job_status(self, job_id: str) -> None:
        job = self.server.client.job(job_id)
        if job is None:
            self._error("jobs", 404, f"unknown job {job_id!r}",
                        "not_found")
            return
        self._json("jobs", 200, job.snapshot())

    def _parse_submission(self, endpoint: str, url, parser):
        """Shared request parsing for the submission endpoints.

        Returns ``(request, run_async, timeout)`` after responding with
        the appropriate error (and returning None) on bad input or
        while draining.
        """
        if self.server.draining:
            self._error(endpoint, 503,
                        "server is draining; not accepting new work",
                        "draining")
            return None
        try:
            body = self._read_body()
            query = parse_qs(url.query)
            run_async = (
                str(query.get("async", ["0"])[0]).lower() in _TRUTHY
                or bool(body.pop("async", False)))
            timeout = body.pop("timeout", None)
            if timeout is not None:
                timeout = float(timeout)
            request = parser(body)
        except ConfigurationError as exc:
            self._error(endpoint, 400, str(exc), "bad_request")
            return None
        except (TypeError, ValueError) as exc:
            self._error(endpoint, 400, f"invalid request: {exc}",
                        "bad_request")
            return None
        return request, run_async, timeout

    def _await_job(self, endpoint: str, job, timeout) -> Optional[object]:
        """Wait for ``job``, mapping failures to their HTTP responses.

        Waits past the job's own deadline: a deadline-bound job is
        guaranteed to terminate (cooperative abort or supervisor
        abandonment), and the caller should see the typed deadline
        failure, not this handler's patience running out first.
        """
        patience = None if timeout is None else timeout + 30.0
        try:
            return self.server.client.wait(job, timeout=patience)
        except DeadlineExceeded as exc:
            self._error(endpoint, 504, str(exc), "deadline")
        except JobTimeoutError as exc:
            self._error(endpoint, 504, str(exc), "timeout")
        except JobCancelledError as exc:
            self._error(endpoint, 502, str(exc), "cancelled")
        except JobFailedError as exc:
            self._error(endpoint, 502, str(exc), "failed")
        except ReproError as exc:  # other deliberate service failure
            self._error(endpoint, 502, str(exc), "failed")
        return None

    def _estimate(self, url) -> None:
        endpoint = "estimate"
        client = self.server.client

        def parse(body):
            # One submission endpoint, two shapes: a "base" key makes
            # the body a what-if (delta) request against a held base.
            if "base" in body:
                return WhatIfRequest.from_dict(body)
            return EstimateRequest.from_dict(body)

        parsed = self._parse_submission(endpoint, url, parse)
        if parsed is None:
            return
        request, run_async, timeout = parsed

        if (isinstance(request, WhatIfRequest)
                and not client.has_base(request.base)):
            self._error(endpoint, 404,
                        f"unknown base {request.base!r}; run the full "
                        "estimate first to record it server-side",
                        "unknown_base")
            return

        try:
            if isinstance(request, WhatIfRequest):
                job = client.submit_whatif(request, timeout=timeout)
            else:
                job = client.submit(request, timeout=timeout)
        except QueueFullError as exc:
            self._error(endpoint, 429, str(exc), "queue_full")
            return

        if run_async:
            self._json(endpoint, 202,
                       {"job_id": job.id, "state": job.state})
            return

        estimate = self._await_job(endpoint, job, timeout)
        if estimate is None:
            return
        self._json(endpoint, 200, {
            "job_id": job.id,
            "state": job.state,
            "coalesced": job.coalesced,
            "estimate": estimate.to_dict(),
        })

    def _sweep(self, url) -> None:
        endpoint = "sweep"
        client = self.server.client
        parsed = self._parse_submission(endpoint, url,
                                        SweepRequest.from_dict)
        if parsed is None:
            return
        request, run_async, timeout = parsed

        try:
            job = client.submit_sweep(request, timeout=timeout)
        except QueueFullError as exc:
            self._error(endpoint, 429, str(exc), "queue_full")
            return

        if run_async:
            self._json(endpoint, 202,
                       {"job_id": job.id, "state": job.state})
            return

        result = self._await_job(endpoint, job, timeout)
        if result is None:
            return
        self._json(endpoint, 200, {
            "job_id": job.id,
            "state": job.state,
            "coalesced": job.coalesced,
            "sweep": result.to_dict(),
        })


def create_server(client, host: str = "127.0.0.1",
                  port: int = 8080) -> LeakageHTTPServer:
    """Bind (but do not start) the HTTP front-end.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.
    """
    return LeakageHTTPServer((host, port), client)


def serve(client, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Blocking convenience runner (Ctrl-C to stop)."""
    server = create_server(client, host, port)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
