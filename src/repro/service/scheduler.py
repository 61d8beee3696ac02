"""Worker scheduler: priority queue, coalescing, backpressure,
supervision.

Jobs are drained by the scheduler's own daemon threads — threads rather
than processes, because the estimator kernels are numpy-bound
(GIL-releasing) and each job can still fan its inner block loops out
over the shared-memory process pool via the request's ``n_jobs``.

Serving behaviors that live here:

* **request coalescing** — submissions whose content hash matches an
  in-flight (queued or running) job attach to that job instead of
  enqueueing a duplicate: N identical concurrent requests perform the
  computation once and share the result.
* **bounded-queue backpressure** — the queue holds at most
  ``queue_limit`` jobs; past that, :meth:`submit` fails fast with
  :class:`~repro.service.jobs.QueueFullError` so callers can shed load
  or retry, instead of stacking unbounded memory.
* **deadlines and cancellation** — a per-job timeout (submit argument
  or scheduler default) sets a monotonic deadline checked when the job
  is dequeued and again between pipeline stages; exceeding it fails the
  job with the typed :class:`~repro.service.jobs.DeadlineExceeded`.
  :meth:`cancel` flags a job cooperatively. Waiting with
  :meth:`wait(timeout=...)` is independent: it bounds the caller's
  patience without killing the job (coalesced waiters may still want
  the result).
* **worker supervision** — a crash that escapes a worker's drain loop
  (e.g. an injected ``worker.crash`` fault) is caught at the top of
  that thread: the job it held is requeued (up to ``max_requeues``
  times) and the thread re-enters its loop. A *hung* worker — one
  still computing past its job's deadline plus ``hang_grace`` — is
  abandoned by the supervisor loop: the job fails with
  ``DeadlineExceeded`` so no waiter blocks forever, a fresh thread
  restores capacity, and the stuck thread's eventual late result is
  dropped by the job's idempotent ``finish``. Each recovery and each
  replacement spends one of :data:`MAX_WORKER_RESTARTS`; crashes,
  abandonments and budget exhaustion are supervisor events
  (:class:`~repro.parallel.EventRecord`).
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.api import LeakageEstimate
from repro.parallel import EventRecord, resolve_n_jobs
from repro.service.faults import SITE_WORKER_CRASH, FaultInjector
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    Job,
    JobCancelledError,
    JobFailedError,
    JobState,
    JobTimeoutError,
    QueueFullError,
)

#: Worker-thread name prefix, also the supervisor name on its events.
WORKER_NAME = "repro-estimator"

#: Lifetime cap on worker restarts (crash recoveries plus replacements
#: of abandoned threads), a circuit against tight crash loops. Once
#: spent, a crashing worker leaves the pool and health checks show it.
MAX_WORKER_RESTARTS = 100


class EstimationScheduler:
    """Bounded priority scheduler over supervised worker threads.

    Parameters
    ----------
    compute:
        ``compute(request, job) -> LeakageEstimate`` — typically
        :meth:`~repro.service.pipeline.EstimationPipeline.run`. Must be
        thread-safe.
    workers:
        Worker-thread count (``-1`` for one per CPU).
    queue_limit:
        Maximum number of *queued* (not yet running) jobs.
    default_timeout:
        Default per-job deadline in seconds; ``None`` means no deadline.
    metrics:
        Optional registry for queue-depth gauge and job counters.
    job_history:
        How many finished jobs stay resolvable by id for status polls.
    max_requeues:
        How many times a job survives its worker crashing before it is
        failed for good (requeues bypass the queue limit — the job
        already held a slot).
    hang_grace:
        Seconds past a job's deadline before the supervisor declares
        its worker hung and abandons it. Generous by default:
        abandonment is a last resort, and a worker that lapsed its
        deadline cooperatively still needs time to finish the degraded
        RG fallback or unwind cleanly.
    supervise_interval:
        Supervisor sweep period in seconds.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; the
        ``worker.crash`` site fires between dequeue and compute.
    """

    def __init__(self, compute: Callable[[EstimateRequest, Job],
                                         LeakageEstimate],
                 workers: int = 2, queue_limit: int = 64,
                 default_timeout: Optional[float] = None,
                 metrics=None, job_history: int = 1024,
                 max_requeues: int = 2,
                 hang_grace: float = 1.0,
                 supervise_interval: float = 0.05,
                 faults: Optional[FaultInjector] = None) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit!r}")
        self._compute = compute
        self.queue_limit = int(queue_limit)
        self.default_timeout = default_timeout
        self.max_requeues = int(max_requeues)
        self.hang_grace = float(hang_grace)
        self._faults = faults
        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._inflight: Dict[str, Job] = {}
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._job_history = int(job_history)
        self._closed = False
        #: worker thread -> the job it is currently computing.
        self._active: Dict[threading.Thread, Job] = {}
        self._stop = threading.Event()
        #: Worker threads the scheduler owns; an abandoned thread is
        #: dropped, and its loop exits once its compute call returns.
        self._threads: List[threading.Thread] = []
        self._restarts = 0
        self._events = EventRecord(WORKER_NAME)

        self._queue_depth = None
        self._jobs_total = None
        self._coalesced_total = None
        self._requeued_total = None
        self._restarts_total = None
        self._hung_total = None
        self._workers_gauge = None
        if metrics is not None:
            self._queue_depth = metrics.gauge(
                "repro_queue_depth", "Jobs queued, not yet running.")
            self._jobs_total = metrics.counter(
                "repro_jobs_total", "Jobs finished, by terminal state.",
                labelnames=("state",))
            self._coalesced_total = metrics.counter(
                "repro_coalesced_requests_total",
                "Submissions absorbed by an identical in-flight job.")
            self._workers_gauge = metrics.gauge(
                "repro_workers_alive", "Live scheduler worker threads.")
            self._requeued_total = metrics.counter(
                "repro_requeued_jobs_total",
                "Jobs requeued after their worker crashed.")
            self._restarts_total = metrics.counter(
                "repro_worker_restarts_total",
                "Worker restarts spent by supervision.")
            self._hung_total = metrics.counter(
                "repro_hung_workers_total",
                "Workers abandoned for computing past a job deadline.")

        for index in range(resolve_n_jobs(workers)):
            self._start_worker(str(index))
        self._update_worker_gauge()
        self._supervise_interval = float(supervise_interval)
        self._supervisor = threading.Thread(
            target=self._supervise_loop, name="repro-supervisor", daemon=True)
        self._supervisor.start()

    # -- submission -------------------------------------------------------

    def submit(self, request: EstimateRequest,
               timeout: Optional[float] = None) -> Job:
        """Enqueue ``request`` (or attach to an identical in-flight job).

        ``timeout`` (seconds, default the scheduler's ``default_timeout``)
        becomes the job's deadline: exceeded in queue -> the job fails
        without running; exceeded mid-run -> the pipeline aborts at the
        next stage boundary. Raises :class:`QueueFullError` when the
        queue is at its limit.
        """
        if timeout is None:
            timeout = self.default_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._work_available:
            if self._closed:
                raise QueueFullError("scheduler is shut down")
            existing = self._inflight.get(request.key())
            if existing is not None and not existing.finished:
                existing.coalesced += 1
                if self._coalesced_total is not None:
                    self._coalesced_total.inc()
                return existing
            if len(self._heap) >= self.queue_limit:
                raise QueueFullError(
                    f"estimation queue is full ({self.queue_limit} jobs "
                    "queued); retry later or raise --queue-limit")
            job = Job(request, deadline=deadline)
            heapq.heappush(self._heap,
                           (-job.priority, next(self._seq), job))
            self._inflight[job.key] = job
            self._remember(job)
            self._set_queue_depth()
            self._work_available.notify()
            return job

    def estimate(self, request: EstimateRequest,
                 timeout: Optional[float] = None) -> LeakageEstimate:
        """Submit and wait: the synchronous one-call path."""
        job = self.submit(request, timeout=timeout)
        return self.wait(job, timeout=timeout)

    # -- completion -------------------------------------------------------

    def wait(self, job: Job,
             timeout: Optional[float] = None) -> LeakageEstimate:
        """Block until ``job`` finishes and return (or raise) its outcome.

        Raises :class:`JobTimeoutError` when ``timeout`` elapses first —
        the job itself keeps running (other waiters may be coalesced
        onto it); cancel it explicitly to stop the computation. A job
        that failed because *its own* deadline lapsed raises the typed
        :class:`DeadlineExceeded` instead.
        """
        if not job.wait(timeout):
            raise JobTimeoutError(
                f"timed out after {timeout:g}s waiting for {job.id} "
                f"(state {job.state!r}); the job is still in flight")
        if job.state == JobState.DONE:
            return job.result
        if job.state == JobState.CANCELLED:
            raise JobCancelledError(job.error or f"job {job.id} cancelled")
        if job.error_kind == "deadline":
            raise DeadlineExceeded(
                job.error or f"job {job.id} exceeded its deadline")
        raise JobFailedError(job.error or f"job {job.id} failed")

    def job(self, job_id: str) -> Optional[Job]:
        """Resolve a job by id (in flight or recently finished)."""
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job: Job) -> None:
        """Request cooperative cancellation of ``job``."""
        job.cancel()
        with self._work_available:
            # Wake workers so a queued cancelled job is retired promptly.
            self._work_available.notify_all()

    # -- introspection ----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def workers_alive(self) -> int:
        with self._lock:
            return sum(thread.is_alive() for thread in self._threads)

    @property
    def worker_restarts(self) -> int:
        """Restarts spent from :data:`MAX_WORKER_RESTARTS`."""
        return self._restarts

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Supervisor events, oldest first (an :class:`EventRecord`)."""
        return self._events.events

    def worker_liveness(self) -> List[Dict[str, Any]]:
        """Per-thread entries shaped like
        :meth:`repro.parallel.ProcessWorkerPool.liveness` (no heartbeat
        or per-slot restart count)."""
        with self._lock:
            threads = list(self._threads)
        return [{"worker": thread.name, "pid": os.getpid(),
                 "alive": thread.is_alive(),
                 "state": "up" if thread.is_alive() else "down",
                 "restarts": None, "heartbeat_age_s": None}
                for thread in threads]

    @property
    def saturated(self) -> bool:
        """True while the bounded queue would reject a new submission."""
        with self._lock:
            return self._closed or len(self._heap) >= self.queue_limit

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle --------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs and drain the worker pool.

        Queued jobs that never started are failed with a shutdown error
        so no waiter blocks forever.
        """
        with self._work_available:
            self._closed = True
            pending = [entry[2] for entry in self._heap]
            self._heap.clear()
            self._set_queue_depth()
            self._work_available.notify_all()
        for job in pending:
            if not job.finished:
                self._retire(job, JobState.CANCELLED,
                             error="scheduler shut down before the job ran",
                             kind="shutdown")
        self._stop.set()
        if wait:
            with self._lock:
                threads = list(self._threads)
            for thread in threads + [self._supervisor]:
                thread.join(timeout=5.0)
        self._update_worker_gauge()

    def __enter__(self) -> "EstimationScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals --------------------------------------------------------

    def _remember(self, job: Job) -> None:
        self._jobs[job.id] = job
        while len(self._jobs) > self._job_history:
            oldest_id, oldest = next(iter(self._jobs.items()))
            if not oldest.finished:
                break  # never forget a live job
            del self._jobs[oldest_id]

    def _set_queue_depth(self) -> None:
        if self._queue_depth is not None:
            self._queue_depth.set(len(self._heap))

    def _update_worker_gauge(self) -> None:
        if self._workers_gauge is not None:
            self._workers_gauge.set(self.workers_alive)

    def _next_job(self) -> Optional[Job]:
        with self._work_available:
            while not self._stop.is_set():
                if self._heap:
                    job = heapq.heappop(self._heap)[2]
                    self._set_queue_depth()
                    return job
                self._work_available.wait(timeout=0.1)
            return None

    def _retire(self, job: Job, state: str, result=None,
                error: Optional[str] = None,
                kind: Optional[str] = None) -> bool:
        if not job.finish(state, result=result, error=error, kind=kind):
            return False  # someone (e.g. the supervisor) beat us to it
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        if self._jobs_total is not None:
            self._jobs_total.inc(state=state)
        return True

    def _requeue_or_fail(self, job: Job, cause: str) -> None:
        """After a worker crash: give the job another chance, or fail it."""
        job.requeue()
        if job.requeues > self.max_requeues:
            self._retire(
                job, JobState.FAILED, kind="crash",
                error=f"worker crashed {job.requeues}x running {job.id} "
                      f"(last: {cause}); giving up")
            return
        with self._work_available:
            if not self._closed:
                # Requeues bypass the queue limit: the job already held
                # a slot, and dropping it would turn one crash into a
                # lost request.
                heapq.heappush(self._heap,
                               (-job.priority, next(self._seq), job))
                self._set_queue_depth()
                self._work_available.notify()
                if self._requeued_total is not None:
                    self._requeued_total.inc()
                return
        self._retire(job, JobState.CANCELLED, kind="shutdown",
                     error="scheduler shut down while the job was requeued")

    # -- supervision ------------------------------------------------------

    def _start_worker(self, slot: str) -> None:
        thread = threading.Thread(target=self._run, args=(slot,),
                                  name=f"{WORKER_NAME}-{slot}", daemon=True)
        with self._lock:
            if self._stop.is_set():
                return
            self._threads.append(thread)
            # Started under the lock: close() snapshots the thread list
            # under it, and joining a never-started thread raises.
            thread.start()

    def _spend_restart(self, slot: str,
                       retiring: Optional[threading.Thread] = None) -> int:
        """Take one restart from the budget and return its ordinal; 0
        when stopping or spent (the caller's worker then stays down).

        A spent budget retires ``retiring`` — the crashed thread that
        asked — from the worker list before the event is recorded, so
        whoever reads the event sees the worker already down.
        """
        with self._lock:
            if self._stop.is_set():
                return 0
            spent = self._restarts >= MAX_WORKER_RESTARTS
            if not spent:
                self._restarts += 1
                ordinal = self._restarts
            elif retiring in self._threads:
                self._threads.remove(retiring)
        if spent:
            self._events.record(slot, 0, os.getpid(), "budget_exhausted",
                                f"restart budget ({MAX_WORKER_RESTARTS}) "
                                f"exhausted; worker {slot} stays down")
            return 0
        if self._restarts_total is not None:
            self._restarts_total.inc()
        return ordinal

    def _run(self, slot: str) -> None:
        """Worker thread body: drain jobs until stopped or abandoned.

        A crash escaping the drain loop lands here, in the dying
        thread: the job it held is requeued and, budget permitting, the
        same thread goes back into the loop.
        """
        while True:
            try:
                self._drain()
                return
            except BaseException as exc:
                reason = f"{type(exc).__name__}: {exc}"
                thread = threading.current_thread()
                with self._lock:
                    job = self._active.pop(thread, None)
                    abandoned = thread not in self._threads
                self._events.record(slot, 0, os.getpid(), "exit", reason)
                if job is not None and not job.finished:
                    self._requeue_or_fail(job, reason)
                if not isinstance(exc, Exception):
                    raise  # an exit or interrupt ends the thread
                if abandoned or not self._spend_restart(slot, thread):
                    return

    def _supervise_loop(self) -> None:
        """Periodic sweep: abandon and replace hung workers."""
        while not self._stop.wait(self._supervise_interval):
            now = time.monotonic()
            with self._lock:
                hung = [(thread, job) for thread, job in self._active.items()
                        if job.deadline is not None
                        and now > job.deadline + self.hang_grace
                        and not job.finished]
            for thread, job in hung:
                with self._lock:
                    if self._active.get(thread) is not job:
                        continue  # the worker just finished it
                    del self._active[thread]
                    self._threads.remove(thread)
                slot = thread.name[len(WORKER_NAME) + 1:]
                self._events.record(
                    slot, 0, os.getpid(), "abandoned",
                    f"job {job.id} still running "
                    f"{now - job.deadline:.3f}s past its deadline")
                if self._hung_total is not None:
                    self._hung_total.inc()
                restart = self._spend_restart(slot)
                if restart:
                    self._start_worker(f"r{restart}")
                self._retire(
                    job, JobState.FAILED, kind="deadline",
                    error=f"job {job.id} exceeded its deadline; worker "
                          "unresponsive, abandoned and replaced")
            self._update_worker_gauge()

    def _drain(self) -> None:
        while True:
            job = self._next_job()
            if job is None:
                return
            if job.cancel_requested:
                self._retire(job, JobState.CANCELLED, kind="cancelled",
                             error="cancelled while queued")
                continue
            if job.deadline is not None and time.monotonic() > job.deadline:
                self._retire(job, JobState.FAILED, kind="deadline",
                             error=f"job {job.id} exceeded its deadline "
                                   "while queued")
                continue
            job.mark_running()
            thread = threading.current_thread()
            with self._lock:
                self._active[thread] = job
            if self._faults is not None:
                # Outside the isolation try-block below: an injected
                # crash must kill this worker loop the way a real
                # defect in the drain plumbing would, exercising the
                # requeue-and-restart path rather than job failure.
                self._faults.crash(SITE_WORKER_CRASH)
            try:
                result = self._compute(job.request, job)
            except JobCancelledError as exc:
                self._retire(job, JobState.CANCELLED, error=str(exc),
                             kind="cancelled")
            except JobTimeoutError as exc:  # DeadlineExceeded included
                self._retire(job, JobState.FAILED, error=str(exc),
                             kind="deadline")
            except Exception as exc:  # noqa: BLE001 - job isolation boundary
                self._retire(job, JobState.FAILED, kind="error",
                             error=f"{type(exc).__name__}: {exc}")
            else:
                self._retire(job, JobState.DONE, result=result)
            finally:
                with self._lock:
                    self._active.pop(thread, None)
                    abandoned = thread not in self._threads
            if abandoned:
                return  # a replacement took over; exit quietly
