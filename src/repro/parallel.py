"""Shared-memory worker pools for block-parallel estimators.

The fast exact-leakage engine distributes its pairwise block loop over a
``ProcessPoolExecutor``. The per-gate arrays (positions, sigmas, pair
parameters) are large and strictly read-only for the workers, so they
are published once through ``multiprocessing.shared_memory`` instead of
being pickled into every task. Workers attach the segments in their pool
initializer and receive only small task descriptors per call.

:func:`parallel_map` is the single entry point for data-parallel batch
work: it degrades to a plain in-process loop at ``n_jobs=1`` (no pool,
no copies), and otherwise guarantees that results come back in task
order, so reductions stay deterministic regardless of worker scheduling.

:class:`ThreadWorkerPool` is the long-lived counterpart used by the
estimation service: a fixed set of named daemon threads that each run a
caller-supplied drain loop (e.g. pulling jobs off a scheduler queue)
until the pool is stopped. Threads are the right grain there — the
numpy-heavy estimator kernels release the GIL, and each job can still
fan its inner block loop out over :func:`parallel_map` processes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.exceptions import PoisonJobError, WorkerCrashedError
from repro.obs.trace import (Tracer, current_tracer, merge_remote_spans,
                             span, tracing_active)

# Worker-side state, populated by the pool initializer.
_WORKER_ARRAYS: Dict[str, np.ndarray] = {}
_WORKER_PAYLOAD: Any = None
_WORKER_SEGMENTS: List[shared_memory.SharedMemory] = []


def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``1`` mean serial; ``-1`` means one worker per CPU;
    other positive values are taken literally.
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == -1:
        return os.cpu_count() or 1
    if n_jobs <= 0:
        raise ValueError(f"n_jobs must be positive or -1, got {n_jobs!r}")
    return n_jobs


class ThreadWorkerPool:
    """A supervised pool of long-lived worker threads running one drain loop.

    Parameters
    ----------
    worker_loop:
        ``worker_loop(stop: threading.Event)`` — called once per worker
        thread; expected to loop, polling/waiting for work, until
        ``stop`` is set. Exceptions escaping the loop terminate only
        that worker (they are recorded, not re-raised).
    n_workers:
        Thread count (see :func:`resolve_n_jobs`; ``-1`` for one per
        CPU).
    name:
        Thread-name prefix, for debuggability.
    restart:
        When True, a worker whose loop dies on an exception is replaced
        by a fresh thread (up to ``max_restarts`` total), so one crash
        never permanently shrinks serving capacity.
    on_crash:
        ``on_crash(exc)`` — called *in the dying thread* before the
        replacement starts; the estimation scheduler uses it to requeue
        the job the crashed worker was holding.
    max_restarts:
        Lifetime cap on replacement threads (crash + :meth:`replace`),
        a circuit against tight crash loops. When exhausted the pool
        shrinks and health checks surface it.

    The threads are daemonic so a forgotten pool never blocks
    interpreter shutdown; call :meth:`stop` for an orderly drain.
    """

    def __init__(self, worker_loop: Callable[[threading.Event], None],
                 n_workers: int = 2, name: str = "repro-worker",
                 restart: bool = False,
                 on_crash: Optional[Callable[[BaseException], None]] = None,
                 max_restarts: int = 100) -> None:
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._worker_loop = worker_loop
        self._name = name
        self._restart = restart
        self._on_crash = on_crash
        self._max_restarts = int(max_restarts)
        self.restarts = 0
        self._failures: List[BaseException] = []
        self._threads: List[threading.Thread] = []
        for index in range(resolve_n_jobs(n_workers)):
            thread = threading.Thread(
                target=self._run, args=(worker_loop,),
                name=f"{name}-{index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def _run(self, worker_loop) -> None:
        try:
            worker_loop(self._stop)
        except BaseException as exc:  # noqa: BLE001 - recorded for inspection
            self._failures.append(exc)
            if self._on_crash is not None:
                try:
                    self._on_crash(exc)
                except Exception:  # noqa: BLE001 - crash handler isolation
                    pass
            if self._restart:
                self._spawn_replacement(threading.current_thread())

    def _spawn_replacement(
            self, dead: Optional[threading.Thread]) -> Optional[
            threading.Thread]:
        with self._lock:
            if self._stop.is_set() or self.restarts >= self._max_restarts:
                return None
            if dead is not None:
                try:
                    self._threads.remove(dead)
                except ValueError:
                    return None  # already detached/replaced by someone else
            self.restarts += 1
            thread = threading.Thread(
                target=self._run, args=(self._worker_loop,),
                name=f"{self._name}-r{self.restarts}", daemon=True)
            self._threads.append(thread)
            # Start while still holding the lock: stop() snapshots the
            # thread list under this lock, and joining a registered but
            # never-started thread raises RuntimeError.
            thread.start()
        return thread

    def replace(self, ident: int) -> Optional[threading.Thread]:
        """Detach the (hung) worker with thread id ``ident``, start a fresh one.

        The detached thread is left to finish on its own (it is daemonic
        and no longer tracked, joined, or counted); the replacement
        restores capacity immediately. Returns the new thread, or None
        when ``ident`` is unknown, the pool is stopped, or the restart
        budget is spent.
        """
        with self._lock:
            dead = next((thread for thread in self._threads
                         if thread.ident == ident), None)
        if dead is None:
            return None
        return self._spawn_replacement(dead)

    def ensure_workers(self) -> int:
        """Replace tracked threads that died without a crash callback.

        Belt-and-braces sweep for the supervisor loop; returns how many
        replacements were started.
        """
        if not self._restart or self._stop.is_set():
            return 0
        with self._lock:
            dead = [thread for thread in self._threads
                    if thread.ident is not None and not thread.is_alive()]
        return sum(
            1 for thread in dead if self._spawn_replacement(thread))

    @property
    def n_workers(self) -> int:
        with self._lock:
            return len(self._threads)

    @property
    def alive_count(self) -> int:
        """Tracked workers still running their loop."""
        with self._lock:
            return sum(thread.is_alive() for thread in self._threads)

    @property
    def failures(self) -> List[BaseException]:
        """Exceptions that escaped worker loops (should be empty)."""
        return list(self._failures)

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def liveness(self) -> List[Dict[str, Any]]:
        """Per-worker liveness entries, shaped like
        :meth:`ProcessWorkerPool.liveness` (threads share the process
        pid and have no heartbeat or per-slot restart count)."""
        with self._lock:
            threads = list(self._threads)
        pid = os.getpid()
        return [{"worker": thread.name, "pid": pid,
                 "alive": thread.is_alive(),
                 "state": "up" if thread.is_alive() else "down",
                 "restarts": None, "heartbeat_age_s": None}
                for thread in threads]

    def stop(self, join: bool = True, timeout: Optional[float] = 5.0) -> None:
        """Signal every worker to finish and (optionally) join them."""
        self._stop.set()
        with self._lock:
            threads = list(self._threads)
        if join:
            for thread in threads:
                thread.join(timeout=timeout)


def _export_arrays(arrays: Mapping[str, np.ndarray]):
    """Copy arrays into fresh shared-memory segments.

    Returns ``(specs, segments)`` where ``specs`` maps each array name to
    ``(segment_name, shape, dtype_str)`` for reconstruction in workers.
    """
    specs = {}
    segments = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        specs[name] = (segment.name, array.shape, array.dtype.str)
        segments.append(segment)
    return specs, segments


def _tracker_pid() -> Optional[int]:
    try:
        from multiprocessing import resource_tracker
        return resource_tracker._resource_tracker._pid
    except Exception:
        return None


def _worker_init(specs, payload, parent_tracker_pid) -> None:
    """Pool initializer: attach the parent's shared segments read-only."""
    _WORKER_ARRAYS.clear()
    _WORKER_PAYLOAD_SET(payload)
    for name, (segment_name, shape, dtype) in specs.items():
        segment = shared_memory.SharedMemory(name=segment_name)
        # Attaching registers the segment with this process's resource
        # tracker, but only the parent may unlink it. Forked workers
        # share the parent's tracker — unregistering there would drop
        # the parent's own registration — so unregister only when this
        # worker runs its own tracker (spawn start method).
        if _tracker_pid() != parent_tracker_pid:
            try:
                from multiprocessing import resource_tracker
                resource_tracker.unregister(segment._name, "shared_memory")
            except Exception:
                pass
        _WORKER_SEGMENTS.append(segment)
        array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
        array.flags.writeable = False
        _WORKER_ARRAYS[name] = array


def _WORKER_PAYLOAD_SET(payload) -> None:
    global _WORKER_PAYLOAD
    _WORKER_PAYLOAD = payload


class _TracedResult(NamedTuple):
    """Worker result plus its finished span forest (tracing only).

    A distinct type (not a bare tuple) so unwrapping in the parent can
    never mistake a caller's tuple-shaped result for trace plumbing.
    """

    result: Any
    spans: List[Dict[str, Any]]


def _worker_call(item):
    fn, task = item[0], item[1]
    if len(item) > 2 and item[2]:
        # The parent traces: run under a fresh per-call tracer and ship
        # the finished spans home alongside the result. The fn itself is
        # untouched — bit-identity holds because spans only read clocks.
        tracer = Tracer("worker")
        with tracer:
            result = fn(task, _WORKER_ARRAYS, _WORKER_PAYLOAD)
        return _TracedResult(result, tracer.export()["spans"])
    return fn(task, _WORKER_ARRAYS, _WORKER_PAYLOAD)


def parallel_map(
    fn: Callable[[Any, Mapping[str, np.ndarray], Any], Any],
    tasks: Sequence[Any],
    *,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
    payload: Any = None,
    n_jobs: Optional[int] = 1,
) -> List[Any]:
    """Evaluate ``fn(task, arrays, payload)`` for every task.

    Parameters
    ----------
    fn:
        A module-level (picklable) function. It receives the task
        descriptor, the dict of shared read-only arrays, and the payload.
    tasks:
        Task descriptors; kept small — they are pickled per call.
    arrays:
        Named read-only numpy arrays published to workers through shared
        memory (serial mode passes them through directly).
    payload:
        One picklable object shipped to each worker at pool start
        (e.g. a correlation model plus scalar options).
    n_jobs:
        Worker-process count (see :func:`resolve_n_jobs`).

    Returns
    -------
    The list of per-task results, in task order — independent of worker
    scheduling, so floating-point reductions over it are deterministic.

    When a tracer is active in the calling thread, worker processes run
    each task under a private tracer and return their finished spans
    with the result; the parent aggregates them per span name
    (:func:`repro.obs.merge_remote_spans`) and nests them — flagged as
    remote, since their wall time overlaps — under a ``parallel.map``
    span here. Results themselves are untouched either way.
    """
    arrays = dict(arrays or {})
    n_jobs = resolve_n_jobs(n_jobs)
    tasks = list(tasks)
    if n_jobs == 1 or len(tasks) <= 1:
        return [fn(task, arrays, payload) for task in tasks]

    traced = tracing_active()
    specs, segments = _export_arrays(arrays)
    try:
        chunksize = max(1, len(tasks) // (4 * n_jobs))
        with span("parallel.map", n_jobs=n_jobs,
                  n_tasks=len(tasks)) as map_span:
            with ProcessPoolExecutor(
                    max_workers=min(n_jobs, len(tasks)),
                    initializer=_worker_init,
                    initargs=(specs, payload, _tracker_pid())) as pool:
                results = list(pool.map(
                    _worker_call,
                    [(fn, task, traced) for task in tasks],
                    chunksize=chunksize))
            if traced:
                map_span.add_remote_children(merge_remote_spans(
                    item.spans for item in results))
                results = [item.result for item in results]
    finally:
        for segment in segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
    return results


# ---------------------------------------------------------------------------
# Supervised process workers (crash-only serving)
# ---------------------------------------------------------------------------

#: Pool-stop sentinel message and child->parent message kinds.
_MSG_TASK = "task"
_MSG_STOP = "stop"
_MSG_READY = "ready"
_MSG_OK = "ok"
_MSG_ERR = "err"
_MSG_INIT_ERR = "init_err"


def _preferred_mp_context():
    """Fork where available (cheap, inherits imports); spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])


def _portable_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in.

    Typed library errors (``DeadlineExceeded``, ``UnknownBaseError``,
    ...) cross the process boundary intact so the parent re-raises the
    real thing; exotic unpicklable exceptions degrade to a
    ``RuntimeError`` carrying the repr rather than poisoning the pipe.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickle failure means "wrap it"
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _send_safely(conn, message) -> bool:
    try:
        conn.send(message)
        return True
    except Exception:  # noqa: BLE001 - parent gone / pipe torn: nothing to do
        return False


class WorkerProcessContext:
    """Child-side identity and heartbeat of one pool worker process.

    Available inside worker processes through
    :func:`process_worker_context`; the service's chaos hooks use
    :meth:`stall` to simulate a hard (GIL-held) hang — heartbeats stop,
    so the parent-side monitor must kill and replace the worker.
    """

    def __init__(self, slot: int, generation: int, heartbeat,
                 interval: float) -> None:
        self.slot = int(slot)
        self.generation = int(generation)
        #: Delivery attempt of the task currently running (1 on the
        #: first dispatch, higher after crash requeues) — lets work
        #: functions implement at-most-once side effects.
        self.attempt = 1
        self._heartbeat = heartbeat
        self._interval = float(interval)
        self._paused = threading.Event()

    def start(self) -> None:
        thread = threading.Thread(
            target=self._beat_loop, name="repro-heartbeat", daemon=True)
        thread.start()

    def _beat_loop(self) -> None:
        while True:
            if not self._paused.is_set():
                self._heartbeat.value = time.time()
            time.sleep(self._interval)

    def stall(self, seconds: float) -> None:
        """Stop heartbeating and block, as a truly hung worker would."""
        self._paused.set()
        try:
            time.sleep(seconds)
        finally:
            self._paused.clear()


_PROCESS_WORKER_CONTEXT: Optional[WorkerProcessContext] = None


def process_worker_context() -> Optional[WorkerProcessContext]:
    """The current process's worker context; None outside pool workers."""
    return _PROCESS_WORKER_CONTEXT


def _process_worker_main(conn, heartbeat, init_fn, work_fn, slot: int,
                         generation: int, heartbeat_interval: float) -> None:
    """Child entry point: init once, then serve tasks until stop/EOF."""
    global _PROCESS_WORKER_CONTEXT
    context = WorkerProcessContext(slot, generation, heartbeat,
                                   heartbeat_interval)
    _PROCESS_WORKER_CONTEXT = context
    heartbeat.value = time.time()
    context.start()
    try:
        state = init_fn() if init_fn is not None else None
    except BaseException as exc:  # noqa: BLE001 - shipped to the supervisor
        _send_safely(conn, (_MSG_INIT_ERR, _portable_exception(exc)))
        return
    if not _send_safely(conn, (_MSG_READY, os.getpid())):
        return
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == _MSG_STOP:
            return
        payload, traced = message[1], message[2]
        context.attempt = message[3] if len(message) > 3 else 1
        spans = None
        try:
            if traced:
                tracer = Tracer("procworker")
                with tracer:
                    result = work_fn(state, payload)
                spans = tracer.export()["spans"]
            else:
                result = work_fn(state, payload)
        except BaseException as exc:  # noqa: BLE001 - typed errors ship home
            _send_safely(conn, (_MSG_ERR, _portable_exception(exc), spans))
            continue
        try:
            conn.send((_MSG_OK, result, spans))
        except OSError:
            return  # parent gone
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            _send_safely(conn, (_MSG_ERR, _portable_exception(exc), spans))


class PoolFuture:
    """Handle for one task submitted to a :class:`ProcessWorkerPool`.

    Resolved exactly once by the supervising shepherd thread (requeues
    reuse the same future, so waiters survive worker crashes). ``spans``
    carries the worker's finished span forest when the task was traced.
    """

    __slots__ = ("payload", "key", "timeout", "trace", "attempts",
                 "result_value", "error", "spans", "_done")

    def __init__(self, payload: Any, key: Optional[str],
                 timeout: Optional[float], trace: bool) -> None:
        self.payload = payload
        self.key = key
        self.timeout = timeout
        self.trace = bool(trace)
        self.attempts = 0
        self.result_value: Any = None
        self.error: Optional[BaseException] = None
        self.spans: Optional[List[Dict[str, Any]]] = None
        self._done = threading.Event()

    def done(self) -> bool:
        return self._done.is_set()

    def _resolve(self, result: Any, spans=None) -> None:
        if self._done.is_set():
            return
        self.result_value = result
        self.spans = spans
        self._done.set()

    def _fail(self, error: BaseException, spans=None) -> None:
        if self._done.is_set():
            return
        self.error = error
        self.spans = spans
        self._done.set()

    def cancel(self, error: Optional[BaseException] = None) -> bool:
        """Fail the future if it has not resolved yet (drain path)."""
        if self._done.is_set():
            return False
        self._fail(error or WorkerCrashedError("task cancelled"))
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        if not self._done.wait(timeout):
            raise TimeoutError("pool task did not complete in time")
        if self.error is not None:
            raise self.error
        return self.result_value


class _WorkerSlot:
    """Parent-side state for one supervised worker process."""

    __slots__ = ("index", "process", "conn", "heartbeat", "generation",
                 "consecutive_crashes", "pid", "ready", "retired")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = None
        self.conn = None
        self.heartbeat = None
        self.generation = 0
        self.consecutive_crashes = 0
        self.pid: Optional[int] = None
        #: The current process answered the ready handshake.
        self.ready = False
        #: The shepherd exited; the slot will never run a worker again.
        self.retired = False


class ProcessWorkerPool:
    """Supervised OS-process workers with heartbeats and crash requeue.

    The crash-only sibling of :class:`ThreadWorkerPool`: each worker is
    a separate process running ``work_fn(state, payload)`` where
    ``state = init_fn()`` is built once per process *after* the fork
    (so no parent locks or file handles are relied on). A shepherd
    thread per slot feeds tasks over a private pipe and supervises:

    - a worker that exits (any reason) or whose heartbeat goes stale
      for ``heartbeat_timeout`` seconds is killed and replaced, with
      exponential backoff (``restart_backoff * 2**crashes``, capped at
      ``max_backoff``) against tight crash loops;
    - the in-flight task is requeued up to ``max_task_retries`` times,
      then failed with :class:`~repro.exceptions.WorkerCrashedError`;
    - a content key that crashes workers ``poison_threshold`` times is
      quarantined — further submissions fail fast with
      :class:`~repro.exceptions.PoisonJobError` instead of crash-looping
      the fleet;
    - a task that overruns its per-task ``timeout`` gets its worker
      killed and fails with ``timeout_error`` (no requeue — deadlines
      are final).

    Traced tasks (``trace=True``) run under a private tracer in the
    worker and ship their finished span forest home on the future,
    exactly like :func:`parallel_map` workers do.
    """

    def __init__(self, work_fn: Callable[[Any, Any], Any],
                 n_workers: int = 2, *,
                 init_fn: Optional[Callable[[], Any]] = None,
                 name: str = "repro-procworker",
                 heartbeat_interval: float = 0.05,
                 heartbeat_timeout: float = 2.0,
                 restart_backoff: float = 0.05,
                 max_backoff: float = 2.0,
                 max_restarts: int = 100,
                 max_task_retries: int = 2,
                 poison_threshold: int = 3,
                 init_timeout: float = 120.0,
                 timeout_error: Optional[Callable[[str], BaseException]] = None,
                 mp_context=None) -> None:
        self._work_fn = work_fn
        self._init_fn = init_fn
        self._name = name
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._restart_backoff = float(restart_backoff)
        self._max_backoff = float(max_backoff)
        self._max_restarts = int(max_restarts)
        self._max_task_retries = int(max_task_retries)
        self._poison_threshold = int(poison_threshold)
        self._init_timeout = float(init_timeout)
        self._timeout_error = timeout_error or (
            lambda detail: WorkerCrashedError(detail))
        self._ctx = mp_context or _preferred_mp_context()
        self._tasks: "queue.Queue[PoolFuture]" = queue.Queue()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self.restarts = 0
        self._failures: List[str] = []
        self._crash_counts: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}
        self._slots = [_WorkerSlot(index)
                       for index in range(resolve_n_jobs(n_workers))]
        self._live_shepherds = len(self._slots)
        self._threads: List[threading.Thread] = []
        for slot in self._slots:
            thread = threading.Thread(
                target=self._shepherd_loop, args=(slot,),
                name=f"{name}-shepherd-{slot.index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    # -- submission --------------------------------------------------------

    def submit(self, payload: Any, *, key: Optional[str] = None,
               timeout: Optional[float] = None,
               trace: bool = False) -> PoolFuture:
        """Queue a task; returns a :class:`PoolFuture` resolved by the pool."""
        future = PoolFuture(payload, key, timeout, trace)
        if self._stop.is_set():
            future._fail(WorkerCrashedError("process pool is stopped"))
            return future
        if key is not None:
            with self._lock:
                crashes = self._quarantined.get(key)
            if crashes is not None:
                future._fail(PoisonJobError(
                    f"request {key[:12]} quarantined after {crashes} "
                    f"worker crashes"))
                return future
        self._tasks.put(future)
        if self._stop.is_set():
            # Raced with stop()/pool retirement past their queue drain:
            # no shepherd will ever pick this up, so fail it now
            # (idempotent if a live shepherd already grabbed it).
            future.cancel(WorkerCrashedError("process pool is stopped"))
        return future

    def run(self, payload: Any, *, key: Optional[str] = None,
            timeout: Optional[float] = None,
            wait: Optional[float] = None) -> Any:
        """Submit and wait; ships worker spans under the caller's tracer."""
        traced = tracing_active()
        future = self.submit(payload, key=key, timeout=timeout, trace=traced)
        result = future.result(wait)
        if traced and future.spans:
            with span("process.task", pool=self._name) as task_span:
                task_span.add_remote_children(
                    merge_remote_spans([future.spans]))
        return result

    # -- supervision -------------------------------------------------------

    def _shepherd_loop(self, slot: _WorkerSlot) -> None:
        try:
            while not self._stop.is_set():
                if slot.process is None or not slot.process.is_alive():
                    if slot.process is not None:
                        self._note_death(slot, "worker exited while idle")
                    if not self._respawn(slot):
                        return  # restart budget spent: slot retires
                    continue
                try:
                    task = self._tasks.get(timeout=0.1)
                except queue.Empty:
                    continue
                if task.done():
                    continue  # cancelled while queued
                self._run_task(slot, task)
        finally:
            slot.retired = True
            self._shutdown_slot(slot)
            self._retire_shepherd()

    def _retire_shepherd(self) -> None:
        """Bookkeeping when a shepherd thread exits.

        When the LAST shepherd retires while the pool is still
        nominally running (every slot spent its restart budget), the
        pool flips to stopped and fails everything queued — otherwise
        queued futures, and submissions racing the flip, would hang
        forever with no worker left to pick them up.
        """
        with self._lock:
            self._live_shepherds -= 1
            last = self._live_shepherds <= 0
        if last and not self._stop.is_set():
            self._stop.set()
            self._drain_queue(
                "process pool retired: restart budget exhausted")

    def _drain_queue(self, detail: str) -> None:
        """Fail every queued task with a typed crash error."""
        while True:
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                return
            task.cancel(WorkerCrashedError(detail))

    def _run_task(self, slot: _WorkerSlot, task: PoolFuture) -> None:
        task.attempts += 1
        if not _send_safely(slot.conn,
                            (_MSG_TASK, task.payload, task.trace,
                             task.attempts)):
            self._handle_crash(slot, task, "pipe broken on dispatch")
            return
        started = time.monotonic()
        deadline = (started + task.timeout
                    if task.timeout is not None else None)
        while True:
            try:
                if slot.conn.poll(self._heartbeat_interval):
                    message = slot.conn.recv()
                    if message[0] == _MSG_OK:
                        slot.consecutive_crashes = 0
                        self._forgive(task.key)
                        task._resolve(message[1], message[2])
                    elif message[0] == _MSG_ERR:
                        slot.consecutive_crashes = 0
                        self._forgive(task.key)
                        task._fail(message[1], message[2])
                    else:  # unexpected protocol message: treat as crash
                        self._handle_crash(slot, task,
                                           f"protocol error: {message[0]!r}")
                    return
            except (EOFError, OSError):
                self._handle_crash(slot, task, self._death_reason(slot))
                return
            if not slot.process.is_alive():
                code = slot.process.exitcode
                self._handle_crash(slot, task,
                                   f"worker exited with code {code}")
                return
            if (time.time() - slot.heartbeat.value
                    > self._heartbeat_timeout):
                self._kill_worker(slot)
                self._handle_crash(slot, task, "heartbeat missed")
                return
            if deadline is not None and time.monotonic() > deadline:
                self._kill_worker(slot)
                self._note_death(slot, "killed: task overran its deadline")
                task._fail(self._timeout_error(
                    "worker killed after task overran its deadline"))
                return
            if self._stop.is_set():
                self._kill_worker(slot)
                task._fail(WorkerCrashedError("pool stopped mid-task"))
                return

    def _handle_crash(self, slot: _WorkerSlot, task: PoolFuture,
                      reason: str) -> None:
        self._kill_worker(slot)
        self._note_death(slot, reason)
        if task.done():
            return
        if task.key is not None:
            with self._lock:
                count = self._crash_counts.get(task.key, 0) + 1
                self._crash_counts[task.key] = count
                if count >= self._poison_threshold:
                    self._quarantined[task.key] = count
                    poisoned = True
                else:
                    poisoned = False
            if poisoned:
                task._fail(PoisonJobError(
                    f"request {task.key[:12]} quarantined after {count} "
                    f"worker crashes ({reason})"))
                return
        if task.attempts > self._max_task_retries:
            task._fail(WorkerCrashedError(
                f"task failed after {task.attempts} attempts; "
                f"last worker death: {reason}"))
        else:
            self._tasks.put(task)

    def _forgive(self, key: Optional[str]) -> None:
        """Drop a key's crash count once a task with it completes.

        A key the worker survives (even with a typed error result) is
        not poison: without this, unrelated transient worker deaths
        (OOM, chaos kills) accumulated over a long-lived pool would
        eventually push a healthy key over ``poison_threshold``.
        """
        if key is None:
            return
        with self._lock:
            self._crash_counts.pop(key, None)

    def _death_reason(self, slot: _WorkerSlot) -> str:
        """Best-effort post-mortem when the pipe tears mid-task."""
        process = slot.process
        if process is not None:
            process.join(timeout=0.5)
            if process.exitcode is not None:
                return f"worker exited with code {process.exitcode}"
        return "pipe torn mid-task"

    def _note_death(self, slot: _WorkerSlot, reason: str) -> None:
        slot.consecutive_crashes += 1
        with self._lock:
            self._failures.append(
                f"{self._name}-{slot.index} gen{slot.generation}: {reason}")

    def _kill_worker(self, slot: _WorkerSlot) -> None:
        slot.ready = False
        process = slot.process
        if process is None:
            return
        try:
            if process.is_alive():
                process.kill()
            process.join(timeout=2.0)
        except Exception:  # noqa: BLE001 - already-reaped races
            pass
        if slot.conn is not None:
            try:
                slot.conn.close()
            except Exception:  # noqa: BLE001
                pass
        slot.process = None
        slot.conn = None

    def _respawn(self, slot: _WorkerSlot) -> bool:
        with self._lock:
            if self._stop.is_set():
                return False
            if slot.generation > 0:
                if self.restarts >= self._max_restarts:
                    return False
                self.restarts += 1
        if slot.consecutive_crashes > 0:
            delay = min(
                self._restart_backoff
                * (2 ** (slot.consecutive_crashes - 1)),
                self._max_backoff)
            if self._stop.wait(delay):
                return False
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", time.time(), lock=False)
        slot.generation += 1
        process = self._ctx.Process(
            target=_process_worker_main,
            args=(child_conn, heartbeat, self._init_fn, self._work_fn,
                  slot.index, slot.generation, self._heartbeat_interval),
            name=f"{self._name}-{slot.index}-g{slot.generation}",
            daemon=True)
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.heartbeat = heartbeat
        slot.pid = process.pid
        # Handshake: wait for "ready" so tasks never reach a worker that
        # failed to build its state (e.g. a corrupt cache directory).
        ready_by = time.monotonic() + self._init_timeout
        while True:
            try:
                if parent_conn.poll(self._heartbeat_interval):
                    message = parent_conn.recv()
                    if message[0] == _MSG_READY:
                        slot.ready = True
                        return True
                    self._kill_worker(slot)
                    self._note_death(
                        slot, f"init failed: {message[1]!r}")
                    return not self._stop.is_set()
            except (EOFError, OSError):
                self._kill_worker(slot)
                self._note_death(slot, "worker died during init")
                return not self._stop.is_set()
            if not process.is_alive():
                self._kill_worker(slot)
                self._note_death(
                    slot, f"worker exited during init "
                          f"(code {process.exitcode})")
                return not self._stop.is_set()
            if time.monotonic() > ready_by:
                self._kill_worker(slot)
                self._note_death(slot, "worker init timed out")
                return not self._stop.is_set()
            if self._stop.is_set():
                self._kill_worker(slot)
                return False

    def _shutdown_slot(self, slot: _WorkerSlot) -> None:
        slot.ready = False
        if slot.conn is not None:
            _send_safely(slot.conn, (_MSG_STOP,))
        process = slot.process
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        slot.process = None
        if slot.conn is not None:
            try:
                slot.conn.close()
            except Exception:  # noqa: BLE001
                pass
            slot.conn = None

    # -- introspection -----------------------------------------------------

    @property
    def n_workers(self) -> int:
        return len(self._slots)

    @property
    def alive_count(self) -> int:
        return sum(1 for slot in self._slots
                   if slot.process is not None and slot.process.is_alive())

    @property
    def failures(self) -> List[str]:
        """Worker-death reasons, oldest first (for diagnostics)."""
        with self._lock:
            return list(self._failures)

    @property
    def quarantined(self) -> Dict[str, int]:
        """Poisoned content keys -> crash count at quarantine time."""
        with self._lock:
            return dict(self._quarantined)

    @property
    def stopped(self) -> bool:
        return self._stop.is_set()

    def is_quarantined(self, key: str) -> bool:
        with self._lock:
            return key in self._quarantined

    def liveness(self) -> List[Dict[str, Any]]:
        """Per-worker liveness snapshot for health checks and metrics.

        Returns one entry per slot: worker name, pid, whether the
        process is currently alive, its ``state``, how many times the
        slot restarted, and the age of its last heartbeat in seconds.
        ``state`` is ``"up"`` once the live process answered the ready
        handshake, ``"starting"`` while a (re)spawn is pending or the
        process is still building its state (its ``pid`` may be
        ``None``), and ``"down"`` for a dead worker or a stopped or
        retired slot. Shepherds spawn workers asynchronously, so right
        after construction every slot is ``"starting"``.
        """
        now = time.time()
        entries = []
        for slot in self._slots:
            process = slot.process
            beat = slot.heartbeat.value if slot.heartbeat is not None else 0.0
            alive = bool(process is not None and process.is_alive())
            if alive:
                state = "up" if slot.ready else "starting"
            elif process is None and not (slot.retired or self._stop.is_set()):
                state = "starting"
            else:
                state = "down"
            entries.append({
                "worker": f"{self._name}-{slot.index}",
                "pid": slot.pid,
                "alive": alive,
                "state": state,
                "restarts": max(0, slot.generation - 1),
                "heartbeat_age_s": (
                    round(now - beat, 6) if beat else None),
            })
        return entries

    def stop(self, join: bool = True, timeout: Optional[float] = 5.0) -> None:
        """Stop shepherds, fail queued tasks, and reap every worker."""
        self._stop.set()
        self._drain_queue("pool stopped before task ran")
        if join:
            for thread in self._threads:
                thread.join(timeout=timeout)
        for slot in self._slots:
            process = slot.process
            if process is not None and process.is_alive():
                process.kill()
                process.join(timeout=timeout)
                slot.process = None
