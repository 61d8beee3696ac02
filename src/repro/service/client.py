"""Batch front-ends: the in-process service and its HTTP twin.

:class:`ServiceClient` wires the whole subsystem together — tiered
cache, pipeline, scheduler, metrics — behind the same four verbs the
HTTP API exposes (estimate/submit/wait/job). Sweeps, the CLI ``serve``
command, the benches, and the tests all drive this one object; the HTTP
layer is a thin adapter over it.

:class:`RemoteClient` speaks the ``/v1`` HTTP API over
``urllib.request`` (stdlib only), for scripting against a running
``repro serve`` instance; ``repro submit`` is a thin wrapper around it.
It is hardened for flaky transports: transient failures (connection
drops, 429/500/503) are retried under an exponential-backoff
:class:`RetryPolicy` — safe because estimates are content-addressed and
therefore idempotent — and repeated *connection-level* failures trip a
:class:`CircuitBreaker` so a dead server fails fast instead of
serializing every caller through full retry ladders. Structured error
bodies from the server (``{"error", "kind"}``) are parsed back into the
matching typed exception with the HTTP status preserved on the
exception object.
"""

from __future__ import annotations

import functools
import http.client
import json
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro.core.api import LeakageEstimate
from repro.exceptions import (
    ConfigurationError,
    ServiceError,
    UnknownBaseError,
)
from repro.parallel import ProcessWorkerPool, resolve_n_jobs
from repro.service.cache import MISS, TIER_ESTIMATE, ResultCache
from repro.service.faults import (
    SITE_WORKER_KILL,
    SITE_WORKER_STALL,
    FaultInjector,
)
from repro.service.procworker import (
    ProcessTask,
    ProcessWorkerConfig,
    run_task,
    worker_init,
)
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    Job,
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
)
from repro.service.metrics import MetricsRegistry
from repro.service.pipeline import EstimationPipeline
from repro.service.scheduler import EstimationScheduler
from repro.service.sweep import SweepRequest, SweepResponse
from repro.service.whatif import WhatIfRequest

RequestLike = Union[EstimateRequest, Dict[str, Any]]
SweepLike = Union[SweepRequest, Dict[str, Any]]
WhatIfLike = Union[WhatIfRequest, Dict[str, Any]]


def _coerce(cls, request, fields=None):
    """``request`` as a ``cls`` instance: taken as is, parsed from its
    dict form, or — when ``request`` is None — built from ``fields``."""
    if request is None:
        return cls(**fields)
    if fields:
        raise TypeError("pass either a request or keyword fields, not both")
    return request if isinstance(request, cls) else cls.from_dict(request)


class ServiceClient:
    """In-process estimation service (cache + pipeline + worker pool).

    Parameters
    ----------
    workers:
        Worker-thread count (``-1`` for one per CPU).
    queue_limit:
        Bounded-queue backpressure limit.
    cache_dir:
        Directory for the persistent cache layer (``None`` = memory
        only). Its shard locks let thread-mode clients, worker
        processes and replicas share one directory; what a (possibly
        crashed) predecessor left there is verified at startup
        (:meth:`~repro.service.cache.ResultCache.rebuild`, reported in
        :attr:`cache_rebuild`).
    cache_entries:
        Per-tier in-memory LRU bound.
    default_timeout:
        Default per-job deadline in seconds.
    metrics:
        A shared :class:`MetricsRegistry`; one is created when omitted.
    library:
        Standard-cell library override (mostly for tests).
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`, threaded
        through to the cache (read/write corruption), the scheduler
        (worker crashes), and the pipeline (compute hangs). ``None``
        (the default) leaves every injection point compiled out to a
        single ``is None`` test.
    worker_mode:
        ``"thread"`` (default) computes in scheduler worker threads;
        ``"process"`` ships each job to a supervised
        :class:`~repro.parallel.ProcessWorkerPool` of OS-process
        workers (crash-only serving: a worker that dies or stops
        heartbeating is killed and replaced, the job is requeued, and
        poison requests are quarantined). The parent and every worker
        share one cache directory; the parent still answers warm
        estimate-tier hits in-process, so repeat traffic never pays the
        pipe.
    cache_shards:
        Shard count of the disk cache layout (every process sharing
        ``cache_dir`` must agree).
    process_pool:
        Optional dict of :class:`~repro.parallel.ProcessWorkerPool`
        overrides (``heartbeat_interval``, ``heartbeat_timeout``,
        ``restart_backoff``, ``max_restarts``, ``max_task_retries``,
        ``poison_threshold``, ...) for tests and chaos runs.
    """

    def __init__(self, workers: int = 2, queue_limit: int = 64,
                 cache_dir: Optional[str] = None, cache_entries: int = 256,
                 default_timeout: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 library=None,
                 faults: Optional[FaultInjector] = None,
                 worker_mode: str = "thread",
                 cache_shards: int = 8,
                 process_pool: Optional[Dict[str, Any]] = None) -> None:
        if worker_mode not in ("thread", "process"):
            raise ConfigurationError(
                f"worker_mode must be 'thread' or 'process', "
                f"got {worker_mode!r}")
        if worker_mode == "process" and library is not None:
            raise ConfigurationError(
                "worker_mode='process' cannot take a library override: "
                "worker processes build the default library after the "
                "fork and would silently diverge from it")
        self.worker_mode = worker_mode
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if faults is not None and faults.metrics is None:
            faults.bind_metrics(self.metrics)
        self.faults = faults
        self._submissions = self.metrics.counter(
            "repro_requests_total",
            "Estimation requests accepted, by submission mode.",
            labelnames=("mode",))
        self._worker_up = self.metrics.gauge(
            "repro_worker_up",
            "1 while the named worker (thread or process) is alive.",
            labelnames=("worker",))
        self._worker_restarts_total = self.metrics.counter(
            "repro_worker_restarts_total",
            "Worker restarts spent by supervision.")
        #: Cache-directory verification report from startup (``None``
        #: without a cache directory).
        self.cache_rebuild: Optional[Dict[str, int]] = None
        self._process_pool: Optional[ProcessWorkerPool] = None

        self.cache = ResultCache(
            max_entries=cache_entries, persist_dir=cache_dir,
            metrics=self.metrics, faults=faults, n_shards=cache_shards)
        if cache_dir is not None:
            # Crash-safe restart: verify what a (possibly crashed)
            # predecessor left on disk before trusting it.
            self.cache_rebuild = self.cache.rebuild()

        self.pipeline = EstimationPipeline(cache=self.cache,
                                           metrics=self.metrics,
                                           library=library,
                                           faults=faults)
        compute = self.pipeline.run
        if worker_mode == "process":
            pool_options = dict(process_pool or {})
            config = ProcessWorkerConfig(
                cache_dir=cache_dir,
                cache_entries=cache_entries,
                cache_stamp=self.cache.stamp,
                n_shards=cache_shards,
                lock_timeout=self.cache.lock_timeout,
                fault_rules=faults.rules() if faults is not None else {},
                fault_seed=faults.seed if faults is not None else 0,
                fault_hang_seconds=(faults.hang_seconds
                                    if faults is not None else 0.5))
            self._chaos_stall_seconds = 3.0 * float(pool_options.get(
                "heartbeat_timeout", 2.0))
            self._process_pool = ProcessWorkerPool(
                run_task,
                n_workers=resolve_n_jobs(workers),
                init_fn=functools.partial(worker_init, config),
                name="repro-procworker",
                timeout_error=DeadlineExceeded,
                on_restart=self._worker_restarts_total.inc,
                **pool_options)
            compute = self._compute_in_worker
        self.scheduler = EstimationScheduler(
            compute, workers=workers, queue_limit=queue_limit,
            default_timeout=default_timeout, metrics=self.metrics,
            faults=faults)

    # -- process-mode dispatch --------------------------------------------

    def _draw_chaos(self) -> Optional[str]:
        """Parent-side worker chaos decision for the next dispatch.

        Drawn here — one fleet-wide seeded stream with one ``max_fires``
        budget — rather than inside workers, whose injectors (and their
        budgets) are reborn on every respawn and would crash-loop.
        """
        if self.faults is None:
            return None
        if self.faults.should_fire(SITE_WORKER_KILL):
            return "kill"
        if self.faults.should_fire(SITE_WORKER_STALL):
            return "stall"
        return None

    def _compute_in_worker(self, request, job: Job):
        """Scheduler compute hook for process mode: the request object
        over the pipe out, the live result object back.

        The estimate-tier warm path stays in the parent — a memory or
        disk hit never touches the pool — so warm latency matches
        thread mode. Cold results are computed (and disk-cached) by a
        worker process; cold estimates are then promoted into the
        parent's memory tier.
        """
        key = request.key()
        is_estimate = isinstance(request, EstimateRequest)
        if is_estimate:
            cached = self.pipeline.cached_estimate(request, key)
            if cached is not MISS:
                return cached
        base = (self.pipeline.base_request(request.base)
                if isinstance(request, WhatIfRequest) else None)
        remaining = job.time_remaining()
        pool_timeout = None
        if remaining is not None:
            if remaining <= 0:
                raise DeadlineExceeded(
                    f"job {job.id} exceeded its deadline before dispatch")
            # The worker aborts cooperatively at `remaining`; the hard
            # kill fires slightly later so a typed DeadlineExceeded can
            # cross the pipe — and well inside the scheduler
            # supervisor's hang grace, so this thread never gets
            # abandoned while the pool is still resolving the future.
            pool_timeout = remaining + min(
                0.5, 0.45 * self.scheduler.hang_grace)
        task = ProcessTask(request, base, job.id, remaining,
                           self._draw_chaos(), self._chaos_stall_seconds)
        result = self._process_pool.run(task, key=key, timeout=pool_timeout)
        if is_estimate and not result.details.get("degraded"):
            # Memory tier only: the worker already wrote the disk entry
            # under the shard lock. Cache entries never carry traces
            # (a hit would replay this request's spans).
            details = {name: value for name, value in result.details.items()
                       if name != "trace"}
            self.cache.put(TIER_ESTIMATE, key,
                           replace(result, details=details))
        return result

    # -- the four verbs ---------------------------------------------------

    def estimate(self, request: Optional[RequestLike] = None,
                 timeout: Optional[float] = None,
                 **fields) -> LeakageEstimate:
        """Synchronous estimate.

        Accepts an :class:`EstimateRequest`, a request dict, or keyword
        fields (``client.estimate(n_cells=..., width_mm=..., ...)``).
        """
        request = _coerce(EstimateRequest, request, fields)
        self._submissions.inc(mode="sync")
        return self.scheduler.estimate(request, timeout=timeout)

    def submit(self, request: RequestLike,
               timeout: Optional[float] = None) -> Job:
        """Asynchronous submit; returns the (possibly coalesced) job."""
        self._submissions.inc(mode="async")
        return self.scheduler.submit(_coerce(EstimateRequest, request),
                                     timeout=timeout)

    def sweep(self, request: Optional[SweepLike] = None,
              timeout: Optional[float] = None, **fields) -> SweepResponse:
        """Synchronous batched sweep: one job for a whole parameter grid.

        Accepts a :class:`SweepRequest`, a request dict, or keyword
        fields (``client.sweep(base=..., axes=[...])``). Per-point
        estimates are bit-identical to :meth:`estimate` calls for the
        derived requests; the shared artifacts are computed once and
        each point back-fills the estimate cache tier.
        """
        request = _coerce(SweepRequest, request, fields)
        self._submissions.inc(mode="sweep")
        job = self.scheduler.submit(request, timeout=timeout)
        return self.scheduler.wait(job, timeout=timeout)

    def submit_sweep(self, request: SweepLike,
                     timeout: Optional[float] = None) -> Job:
        """Asynchronous sweep submit; poll/wait the returned job."""
        self._submissions.inc(mode="sweep_async")
        return self.scheduler.submit(_coerce(SweepRequest, request),
                                     timeout=timeout)

    def whatif(self, request: Optional[WhatIfLike] = None,
               timeout: Optional[float] = None,
               **fields) -> LeakageEstimate:
        """Synchronous what-if (delta) estimate against a held base.

        Accepts a :class:`WhatIfRequest`, a request dict, or keyword
        fields (``client.whatif(base=key, edits=[...])``). The base is
        the content hash of a previously served estimate request; see
        ``docs/SERVICE.md``, "Incremental estimation".
        """
        request = _coerce(WhatIfRequest, request, fields)
        self._submissions.inc(mode="whatif")
        job = self.scheduler.submit(request, timeout=timeout)
        return self.scheduler.wait(job, timeout=timeout)

    def submit_whatif(self, request: WhatIfLike,
                      timeout: Optional[float] = None) -> Job:
        """Asynchronous what-if submit; poll/wait the returned job."""
        self._submissions.inc(mode="whatif_async")
        return self.scheduler.submit(_coerce(WhatIfRequest, request),
                                     timeout=timeout)

    def has_base(self, key: str) -> bool:
        """Whether the pipeline holds the base for a what-if request."""
        return self.pipeline.has_base(key)

    def wait(self, job: Job,
             timeout: Optional[float] = None) -> LeakageEstimate:
        return self.scheduler.wait(job, timeout=timeout)

    def job(self, job_id: str) -> Optional[Job]:
        return self.scheduler.job(job_id)

    # -- introspection / lifecycle ----------------------------------------

    def cache_stats(self) -> Dict[str, Dict[str, int]]:
        return self.cache.stats()

    @property
    def workers_alive(self) -> int:
        """Workers that can take a job: the scheduler's live threads,
        and in process mode no more than the pool's live slots (a
        starting slot counts; a stopped pool has none)."""
        threads = self.scheduler.workers_alive
        if self._process_pool is None:
            return threads
        return min(threads, self._process_pool.live_slots)

    def worker_liveness(self) -> list:
        """Per-worker liveness entries (name, pid, alive, restarts,
        heartbeat age), refreshing ``repro_worker_up`` as a side effect.

        In thread mode entries describe the scheduler's worker threads
        (no heartbeats). Restarts reach ``repro_worker_restarts_total``
        where supervision performs them: in the scheduler for threads,
        in the pool's supervisor for worker processes.
        """
        if self._process_pool is not None:
            entries = self._process_pool.liveness()
        else:
            entries = self.scheduler.worker_liveness()
        for entry in entries:
            self._worker_up.set(1.0 if entry["alive"] else 0.0,
                                worker=entry["worker"])
        return entries

    def metrics_text(self) -> str:
        return self.metrics.render()

    def close(self) -> None:
        self.scheduler.close()
        if self._process_pool is not None:
            self._process_pool.stop()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- HTTP client hardening -------------------------------------------------


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; the call was not attempted."""


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter for transient HTTP failures.

    Attempt ``k`` (0-based) sleeps ``base * multiplier**k`` seconds,
    capped at ``max_backoff``, plus a uniform jitter of up to
    ``jitter * backoff`` to decorrelate competing clients. Retries stop
    after ``max_attempts`` total attempts. Only ``retry_statuses``
    (transient server conditions) and connection-level failures are
    retried; 4xx request errors never are. Retrying ``POST
    /v1/estimate`` is safe because requests are content-addressed and
    idempotent.
    """

    max_attempts: int = 4
    base: float = 0.05
    multiplier: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.1
    retry_statuses: Tuple[int, ...] = (429, 500, 503)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts!r}")
        if self.base < 0 or self.max_backoff < 0 or self.jitter < 0:
            raise ConfigurationError("backoff parameters must be >= 0")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Sleep before retry number ``attempt`` (0-based)."""
        delay = min(self.base * self.multiplier ** attempt, self.max_backoff)
        return delay * (1.0 + self.jitter * rng.random())

    def retriable_status(self, status: int) -> bool:
        return status in self.retry_statuses


#: A no-retry policy, for callers that want one attempt exactly.
NO_RETRY = RetryPolicy(max_attempts=1)


class CircuitBreaker:
    """Classic closed -> open -> half-open breaker for connection failures.

    After ``failure_threshold`` *consecutive* connection-level failures
    the breaker opens and every call fails fast with
    :class:`CircuitOpenError` for ``reset_seconds``. The first call
    after the cooldown runs as a half-open probe: success closes the
    breaker, failure reopens it for another full cooldown. HTTP error
    *responses* do not count — a server answering 5xx is reachable, and
    tripping on those would turn one bad request into an outage for
    unrelated callers.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(self, failure_threshold: int = 5,
                 reset_seconds: float = 10.0,
                 clock=time.monotonic) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold!r}")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = self.CLOSED
        self._opened_at: Optional[float] = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._probe_state()

    def _probe_state(self) -> str:
        if (self._state == self.OPEN
                and self._clock() - self._opened_at >= self.reset_seconds):
            self._state = self.HALF_OPEN
        return self._state

    def before_call(self) -> None:
        """Raise :class:`CircuitOpenError` when calls must not proceed."""
        with self._lock:
            if self._probe_state() == self.OPEN:
                remaining = (self.reset_seconds
                             - (self._clock() - self._opened_at))
                raise CircuitOpenError(
                    "circuit breaker open after "
                    f"{self._failures} consecutive connection failures; "
                    f"retry in {max(0.0, remaining):.1f}s")

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = self.CLOSED
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if (self._state == self.HALF_OPEN
                    or self._failures >= self.failure_threshold):
                self._state = self.OPEN
                self._opened_at = self._clock()


#: Server error ``kind`` -> the typed exception the client re-raises.
_KIND_EXCEPTIONS = {
    "queue_full": QueueFullError,
    "deadline": DeadlineExceeded,
    "timeout": JobTimeoutError,
    "cancelled": JobCancelledError,
    "failed": JobFailedError,
    "bad_request": ConfigurationError,
    "unknown_base": UnknownBaseError,
}

#: Connection-level exceptions worth retrying (server unreachable or the
#: connection died mid-flight; includes injected disconnects). ``OSError``
#: is the base of ``URLError``, ``ConnectionError``, and the raw socket
#: errors a dying or draining server surfaces before urllib can wrap
#: them — catching it here keeps every connection-level failure inside
#: the circuit breaker's accounting. ``HTTPError`` (also an ``OSError``)
#: is unaffected: its dedicated handler runs first.
_RETRIABLE_CONNECTION_ERRORS = (
    OSError,  # URLError, ConnectionError, raw socket errors, timeouts
    http.client.HTTPException,  # truncated/invalid response frames
)


def _exception_for(status: int, message: str,
                   kind: Optional[str]) -> ServiceError:
    """Build the typed exception for a structured HTTP error reply.

    The returned exception carries ``status`` (the HTTP code) and
    ``kind`` (the server's error taxonomy, possibly None) attributes.
    """
    exc_type = _KIND_EXCEPTIONS.get(kind or "", ServiceError)
    exc = exc_type(message)
    exc.status = status
    exc.kind = kind
    return exc


class RemoteClient:
    """Hardened client for a running ``repro serve`` HTTP endpoint.

    Parameters
    ----------
    base_url:
        E.g. ``http://127.0.0.1:8080``.
    timeout:
        Per-attempt socket timeout in seconds.
    retry:
        The :class:`RetryPolicy`; pass :data:`NO_RETRY` to disable.
    breaker:
        The :class:`CircuitBreaker`; pass ``None`` to disable.
    retry_seed:
        Seed for the jitter RNG, making backoff schedules reproducible
        in tests and chaos runs.
    """

    def __init__(self, base_url: str, timeout: float = 300.0,
                 retry: Optional[RetryPolicy] = None,
                 breaker: Union[CircuitBreaker, None, bool] = True,
                 retry_seed: Optional[int] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = RetryPolicy() if retry is None else retry
        if breaker is True:
            breaker = CircuitBreaker()
        elif breaker is False:
            breaker = None
        self.breaker = breaker
        self._rng = random.Random(retry_seed)
        #: Retries performed over this client's lifetime (observability).
        self.retries = 0

    # -- transport --------------------------------------------------------

    def _attempt(self, method: str, url: str, data: Optional[bytes],
                 headers: Dict[str, str]) -> Tuple[bytes, str]:
        request = urllib.request.Request(url, data=data, headers=headers,
                                         method=method)
        with urllib.request.urlopen(request,
                                    timeout=self.timeout) as response:
            raw = response.read()
            content_type = response.headers.get("Content-Type", "")
        return raw, content_type

    @staticmethod
    def _parse_http_error(exc: urllib.error.HTTPError,
                          method: str, path: str) -> ServiceError:
        """Turn an HTTP error response into its typed exception.

        The response body is expected to be the service's structured
        ``{"error": ..., "kind": ...}`` document; anything else (a
        proxy's HTML error page, a truncated body) degrades to the
        generic form — the status code is preserved either way.
        """
        detail = ""
        kind = None
        try:
            document = json.loads(exc.read())
            if isinstance(document, dict):
                detail = str(document.get("error", ""))
                kind = document.get("kind")
        except Exception:  # noqa: BLE001 - body is best-effort diagnostics
            pass
        message = (detail if detail
                   else f"{method} {path} -> HTTP {exc.code}")
        return _exception_for(exc.code, message, kind)

    def _call(self, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              policy: Optional[RetryPolicy] = None) -> Any:
        url = f"{self.base_url}{path}"
        policy = self.retry if policy is None else policy
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"

        last_error: Optional[ServiceError] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                self.retries += 1
                time.sleep(policy.backoff(attempt - 1, self._rng))
            if self.breaker is not None:
                self.breaker.before_call()
            try:
                raw, content_type = self._attempt(method, url, data, headers)
            except urllib.error.HTTPError as exc:
                # The server answered: the connection works.
                if self.breaker is not None:
                    self.breaker.record_success()
                error = self._parse_http_error(exc, method, path)
                if not policy.retriable_status(exc.code):
                    raise error
                last_error = error
                continue
            except _RETRIABLE_CONNECTION_ERRORS as exc:
                if self.breaker is not None:
                    self.breaker.record_failure()
                reason = getattr(exc, "reason", exc)
                last_error = _exception_for(
                    0, f"cannot reach {url}: {reason}", None)
                last_error.__cause__ = exc
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            if content_type.startswith("text/plain"):
                return raw.decode("utf-8")
            return json.loads(raw)
        raise last_error

    # -- API verbs --------------------------------------------------------

    def estimate(self, request: RequestLike,
                 timeout: Optional[float] = None) -> LeakageEstimate:
        """Synchronous ``POST /v1/estimate``."""
        body = _coerce(EstimateRequest, request).to_dict()
        if timeout is not None:
            body["timeout"] = timeout
        document = self._call("POST", "/v1/estimate", body)
        return LeakageEstimate.from_dict(document["estimate"])

    def submit(self, request: RequestLike,
               timeout: Optional[float] = None) -> str:
        """Asynchronous ``POST /v1/estimate?async=1``; returns a job id."""
        body = _coerce(EstimateRequest, request).to_dict()
        body["async"] = True
        if timeout is not None:
            body["timeout"] = timeout
        document = self._call("POST", "/v1/estimate", body)
        return document["job_id"]

    def sweep(self, request: SweepLike,
              timeout: Optional[float] = None) -> SweepResponse:
        """Synchronous ``POST /v1/sweep``: one job, a grid of results.

        Safe to retry for the same reason single estimates are: the
        sweep is content-addressed, and identical in-flight sweeps
        coalesce server-side.
        """
        body = _coerce(SweepRequest, request).to_dict()
        if timeout is not None:
            body["timeout"] = timeout
        document = self._call("POST", "/v1/sweep", body)
        return SweepResponse.from_dict(document["sweep"])

    def whatif(self, request: WhatIfLike,
               timeout: Optional[float] = None) -> LeakageEstimate:
        """Synchronous what-if: ``POST /v1/estimate`` with ``base=``.

        ``request`` names a server-held base by the content hash of its
        originating estimate request plus a list of edits. An unknown
        base raises :class:`~repro.exceptions.UnknownBaseError` (HTTP
        404, ``kind="unknown_base"``) — run the full estimate first.
        """
        body = _coerce(WhatIfRequest, request).to_dict()
        if timeout is not None:
            body["timeout"] = timeout
        document = self._call("POST", "/v1/estimate", body)
        return LeakageEstimate.from_dict(document["estimate"])

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /v1/jobs/<id>`` — the raw status document."""
        return self._call("GET", f"/v1/jobs/{job_id}")

    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness (are workers alive at all).

        Health probes are single-attempt: a 503 *is* the answer, and
        retrying would only mask the state being probed for.
        """
        return self._call("GET", "/v1/healthz", policy=NO_RETRY)

    def readyz(self) -> Dict[str, Any]:
        """``GET /v1/readyz`` — readiness (can it take traffic *now*)."""
        return self._call("GET", "/v1/readyz", policy=NO_RETRY)

    def metrics_text(self) -> str:
        return self._call("GET", "/v1/metrics")
