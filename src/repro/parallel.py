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

:class:`Supervisor` is the one child-process supervisor: spawn, ready
handshake, backoff, a shared restart budget, liveness and a bounded
:class:`EventRecord`. :class:`ProcessWorkerPool` runs its worker
processes on it, and so does the service's replica fleet. The service's
worker *threads* are supervised by the estimation scheduler itself
(:class:`repro.service.scheduler.EstimationScheduler`), which records
its crashes and abandonments in an :class:`EventRecord` too.
"""

from __future__ import annotations

import collections
import enum
import json
import logging
import multiprocessing
import os
import pickle
import queue
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory
from typing import (Any, Callable, Deque, Dict, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.exceptions import PoisonJobError, WorkerCrashedError
from repro.obs.trace import Tracer, merge_remote_spans, span, tracing_active

#: Supervisor events kept per pool or fleet (oldest dropped first).
EVENT_CAPACITY = 64

_EVENT_LOG = logging.getLogger("repro.supervisor")

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
    global _WORKER_PAYLOAD
    _WORKER_ARRAYS.clear()
    _WORKER_PAYLOAD = payload
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


class EventRecord:
    """The last :data:`EVENT_CAPACITY` events of one supervisor.

    Each event is a dict with ``ts``, ``supervisor``, ``slot``,
    ``generation``, ``pid``, ``event`` (``exit``, ``heartbeat_missed``,
    ``init_failed``, ``init_timeout``, ``respawn_failed``,
    ``budget_exhausted``, ``quarantine`` or ``abandoned``) and
    ``reason``, and is also logged as one JSON line on the
    ``repro.supervisor`` logger.
    """

    def __init__(self, supervisor: str) -> None:
        self.supervisor = supervisor
        self._events: Deque[Dict[str, Any]] = collections.deque(
            maxlen=EVENT_CAPACITY)
        self._lock = threading.Lock()

    def record(self, slot: Any, generation: int, pid: Optional[int],
               event: str, reason: str) -> None:
        entry = {"ts": time.time(), "supervisor": self.supervisor,
                 "slot": slot, "generation": generation, "pid": pid,
                 "event": event, "reason": reason}
        with self._lock:
            self._events.append(entry)
        _EVENT_LOG.warning(json.dumps(entry))

    @property
    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(entry) for entry in self._events]

    @property
    def failures(self) -> List[str]:
        """Event reasons as ``<supervisor>-<slot> gen<n>: <reason>``."""
        return [f"{entry['supervisor']}-{entry['slot']} "
                f"gen{entry['generation']}: {entry['reason']}"
                for entry in self.events]


class StartOutcome(enum.Enum):
    """How one :meth:`Supervisor.start` ended."""

    READY = "ready"
    INIT_ERROR = "init_error"  # the child reported that its init failed
    EOF = "eof"  # the pipe closed before the ready message
    EXITED = "exited"  # the child exited (or never started) during init
    TIMEOUT = "timeout"  # no ready message within ``init_timeout``
    STOPPED = "stopped"  # the supervisor was stopped meanwhile
    BUDGET = "budget_exhausted"  # the shared restart budget is spent


class _Slot:
    """One child-process slot. ``failures`` counts failures since the
    owner last called :meth:`Supervisor.healthy`; ``next_start`` is the
    monotonic time a restart waits for; ``message`` is the current
    child's ready message; a ``retired`` slot never starts again."""

    __slots__ = ("index", "process", "conn", "pid", "generation",
                 "failures", "next_start", "ready", "ready_at", "message",
                 "retired")

    def __init__(self, index: int) -> None:
        self.index = index
        self.process = self.conn = self.pid = self.message = None
        self.generation = self.failures = 0
        self.next_start = self.ready_at = 0.0
        self.ready = self.retired = False


class Supervisor:
    """Start, watch and restart child processes on ``n_slots`` slots.

    The one supervision mechanism behind :class:`ProcessWorkerPool`
    workers and :class:`~repro.service.fleet.ReplicaFleet` replicas.
    :meth:`start` runs ``target(*child_args(index, generation, conn))``
    in a child process and waits up to ``init_timeout`` seconds for one
    ``("ready", ...)`` message on ``conn``; each way a start can fail is
    a :class:`StartOutcome` and a recorded event, never an exception.
    The owner watches its children and reports each death with
    :meth:`died`; the slot's next :meth:`start` then waits
    ``restart_backoff * 2**(k-1)`` seconds (capped at ``max_backoff``),
    ``k`` counting the slot's failures since the owner last called
    :meth:`healthy`. The first start of each slot is free; every later
    one spends one unit of a restart budget shared by all slots and
    calls ``on_restart()`` (e.g. a metrics counter's ``inc``).
    """

    def __init__(self, n_slots: int, target: Callable[..., None],
                 child_args: Callable[[int, int, Any], tuple], *,
                 name: str, init_timeout: float = 120.0,
                 restart_backoff: float = 0.05, max_backoff: float = 2.0,
                 max_restarts: int = 100, poll_interval: float = 0.05,
                 daemon: bool = True, mp_context=None,
                 on_restart: Optional[Callable[[], Any]] = None) -> None:
        self.name = name
        self.init_timeout = float(init_timeout)
        self.restart_backoff = float(restart_backoff)
        self.max_backoff = float(max_backoff)
        self.max_restarts = int(max_restarts)
        self.poll_interval = float(poll_interval)
        self.daemon = daemon
        self.restarts = 0
        self.stopping = threading.Event()
        self.events = EventRecord(name)
        self.slots = [_Slot(index) for index in range(n_slots)]
        self._target = target
        self._child_args = child_args
        self._on_restart = on_restart
        self._ctx = mp_context or _preferred_mp_context()
        self._lock = threading.Lock()

    def backoff(self, failures: int) -> float:
        """Delay before the restart that follows ``failures`` failures."""
        if failures <= 0:
            return 0.0
        return min(self.restart_backoff * 2 ** (failures - 1),
                   self.max_backoff)

    def record(self, index: int, event: str, reason: str) -> None:
        slot = self.slots[index]
        self.events.record(index, slot.generation, slot.pid, event, reason)

    def died(self, index: int, event: str, reason: str) -> None:
        """Record that slot ``index``'s child failed; back off its restart."""
        slot = self.slots[index]
        slot.ready = False
        slot.failures += 1
        slot.next_start = time.monotonic() + self.backoff(slot.failures)
        self.record(index, event, reason)

    def healthy(self, index: int) -> None:
        """The owner vouches for slot ``index``: its next restart waits
        the base ``restart_backoff`` again."""
        slot = self.slots[index]
        slot.failures = 0
        slot.next_start = 0.0

    def start(self, index: int) -> Tuple[StartOutcome, str]:
        """(Re)start slot ``index``; returns ``(outcome, reason)``."""
        slot = self.slots[index]
        with self._lock:
            if self.stopping.is_set():
                return StartOutcome.STOPPED, "supervisor stopped"
            slot.retired = (slot.generation > 0
                            and self.restarts >= self.max_restarts)
            restart = slot.generation > 0 and not slot.retired
            if restart:
                self.restarts += 1
        if restart and self._on_restart is not None:
            self._on_restart()
        if slot.retired:
            self.kill(index)
            reason = (f"restart budget ({self.max_restarts}) exhausted; "
                      f"slot {index} stays down")
            self.record(index, "budget_exhausted", reason)
            return StartOutcome.BUDGET, reason
        delay = slot.next_start - time.monotonic()
        if delay > 0 and self.stopping.wait(delay):
            return StartOutcome.STOPPED, "supervisor stopped"
        self.kill(index)  # reap the predecessor
        generation = slot.generation + 1
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=self._target,
            args=self._child_args(index, generation, child_conn),
            name=f"{self.name}-{index}-g{generation}", daemon=self.daemon)
        try:
            process.start()
            outcome = None
        except OSError as exc:  # fork refused (EAGAIN, ENOMEM)
            process, outcome = None, StartOutcome.EXITED
            reason = f"could not start: {exc}"
        finally:
            child_conn.close()
        with self._lock:
            slot.process, slot.conn = process, parent_conn
            slot.pid = process.pid if process is not None else None
            slot.generation = generation
        if outcome is None:
            outcome, reason = self._handshake(slot)
        if outcome is StartOutcome.READY:
            slot.ready_at = time.monotonic()
            slot.ready = True
            return outcome, reason
        self.kill(index)
        if outcome is not StartOutcome.STOPPED:
            if generation > 1:
                event, reason = "respawn_failed", f"respawn failed: {reason}"
            else:
                event = ("init_timeout" if outcome is StartOutcome.TIMEOUT
                         else "init_failed")
            self.died(index, event, reason)
        return outcome, reason

    def _handshake(self, slot: _Slot) -> Tuple[StartOutcome, str]:
        process, conn = slot.process, slot.conn
        ready_by = time.monotonic() + self.init_timeout
        while True:
            try:
                if conn.poll(self.poll_interval):
                    message = conn.recv()
                    kind = message[0] if isinstance(message, tuple) else None
                    if kind == _MSG_READY:
                        slot.message = message
                        return StartOutcome.READY, "ready"
                    detail = message[1] if kind == _MSG_INIT_ERR else message
                    return StartOutcome.INIT_ERROR, f"init failed: {detail!r}"
                if not process.is_alive():
                    # The child may have exited after the poll timed
                    # out: read what it left (a message, or EOF) above.
                    # Only a pipe a grandchild still holds stays empty.
                    if conn.poll(0):
                        continue
                    return (StartOutcome.EXITED, f"exited before its "
                            f"ready handshake (code {process.exitcode})")
            except (EOFError, OSError) as exc:
                return (StartOutcome.EOF, f"died before its ready "
                        f"handshake ({type(exc).__name__})")
            if time.monotonic() > ready_by:
                return (StartOutcome.TIMEOUT, f"did not report ready "
                        f"within {self.init_timeout:g}s")
            if self.stopping.is_set():
                return StartOutcome.STOPPED, "supervisor stopped"

    def kill(self, index: int, grace: float = 0.0) -> None:
        """Reap slot ``index``'s child: wait ``grace`` seconds for it to
        exit, then SIGKILL it; close its pipe."""
        slot = self.slots[index]
        slot.ready = False
        process, conn = slot.process, slot.conn
        slot.process = slot.conn = None
        try:
            if process is not None:
                if grace > 0:
                    process.join(timeout=grace)
                if process.is_alive():
                    process.kill()
                process.join(timeout=2.0)
            if conn is not None:
                conn.close()
        except Exception:  # noqa: BLE001 - already-reaped/closed races
            pass

    def liveness(self) -> List[Dict[str, Any]]:
        """Per-slot ``slot``, ``pid``, ``alive``, ``state``,
        ``generation`` and ``restarts``.

        ``state`` is ``"up"`` once the live child answered the ready
        handshake, ``"starting"`` while a (re)start is pending or the
        child is still initializing, and ``"down"`` for a dead child or
        a stopped or retired slot.
        """
        entries = []
        for slot in self.slots:
            process = slot.process
            alive = bool(process is not None and process.is_alive())
            if alive:
                state = "up" if slot.ready else "starting"
            elif process is None and not (slot.retired
                                          or self.stopping.is_set()):
                state = "starting"
            else:
                state = "down"
            entries.append({"slot": slot.index, "pid": slot.pid,
                            "alive": alive, "state": state,
                            "generation": slot.generation,
                            "restarts": max(0, slot.generation - 1)})
        return entries


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


class ProcessWorkerPool:
    """Supervised OS-process workers with heartbeats and crash requeue.

    Crash-only serving: each worker is
    a separate process running ``work_fn(state, payload)`` where
    ``state = init_fn()`` is built once per process *after* the fork
    (so no parent locks or file handles are relied on). A shepherd
    thread per slot feeds tasks over a private pipe and supervises:

    - a worker that exits (any reason) or whose heartbeat goes stale
      for ``heartbeat_timeout`` seconds is killed and replaced by the
      pool's :class:`Supervisor`, with exponential backoff against
      tight crash loops (reset whenever a task completes on the slot);
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
                 mp_context=None,
                 on_restart: Optional[Callable[[], Any]] = None) -> None:
        self._work_fn = work_fn
        self._init_fn = init_fn
        self._name = name
        self._heartbeat_interval = float(heartbeat_interval)
        self._heartbeat_timeout = float(heartbeat_timeout)
        self._max_task_retries = int(max_task_retries)
        self._poison_threshold = int(poison_threshold)
        self._timeout_error = timeout_error or (
            lambda detail: WorkerCrashedError(detail))
        self._ctx = mp_context or _preferred_mp_context()
        n_workers = resolve_n_jobs(n_workers)
        self._supervisor = Supervisor(
            n_workers, _process_worker_main, self._child_args, name=name,
            init_timeout=init_timeout, restart_backoff=restart_backoff,
            max_backoff=max_backoff, max_restarts=max_restarts,
            poll_interval=self._heartbeat_interval, mp_context=self._ctx,
            on_restart=on_restart)
        self._slots = self._supervisor.slots
        self._heartbeats: List[Any] = [None] * n_workers
        self._tasks: "queue.Queue[PoolFuture]" = queue.Queue()
        self._lock = threading.Lock()
        self._stop = self._supervisor.stopping
        self._crash_counts: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}
        self._live_shepherds = n_workers
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

    def _child_args(self, index: int, generation: int, conn) -> tuple:
        heartbeat = self._ctx.Value("d", time.time(), lock=False)
        self._heartbeats[index] = heartbeat
        return (conn, heartbeat, self._init_fn, self._work_fn, index,
                generation, self._heartbeat_interval)

    def _shepherd_loop(self, slot: _Slot) -> None:
        try:
            while not self._stop.is_set():
                if slot.process is None or not slot.process.is_alive():
                    if slot.process is not None:
                        self._supervisor.died(slot.index, "exit",
                                              "worker exited while idle")
                    outcome, _ = self._supervisor.start(slot.index)
                    if outcome in (StartOutcome.STOPPED, StartOutcome.BUDGET):
                        return  # pool stopped or restart budget spent
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

    def _run_task(self, slot: _Slot, task: PoolFuture) -> None:
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
                        self._supervisor.healthy(slot.index)
                        self._forgive(task.key)
                        task._resolve(message[1], message[2])
                    elif message[0] == _MSG_ERR:
                        self._supervisor.healthy(slot.index)
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
            if (time.time() - self._heartbeats[slot.index].value
                    > self._heartbeat_timeout):
                self._handle_crash(slot, task, "heartbeat missed",
                                   "heartbeat_missed")
                return
            if deadline is not None and time.monotonic() > deadline:
                self._supervisor.kill(slot.index)
                self._supervisor.died(slot.index, "exit",
                                      "killed: task overran its deadline")
                task._fail(self._timeout_error(
                    "worker killed after task overran its deadline"))
                return
            if self._stop.is_set():
                self._supervisor.kill(slot.index)
                task._fail(WorkerCrashedError("pool stopped mid-task"))
                return

    def _handle_crash(self, slot: _Slot, task: PoolFuture, reason: str,
                      event: str = "exit") -> None:
        self._supervisor.kill(slot.index)
        self._supervisor.died(slot.index, event, reason)
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
                detail = (f"request {task.key[:12]} quarantined after "
                          f"{count} worker crashes ({reason})")
                self._supervisor.record(slot.index, "quarantine", detail)
                task._fail(PoisonJobError(detail))
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

    def _death_reason(self, slot: _Slot) -> str:
        """Best-effort post-mortem when the pipe tears mid-task."""
        process = slot.process
        if process is not None:
            process.join(timeout=0.5)
            if process.exitcode is not None:
                return f"worker exited with code {process.exitcode}"
        return "pipe torn mid-task"

    def _shutdown_slot(self, slot: _Slot) -> None:
        if slot.conn is not None:
            _send_safely(slot.conn, (_MSG_STOP,))
        self._supervisor.kill(slot.index, grace=1.0)

    # -- introspection -----------------------------------------------------

    @property
    def live_slots(self) -> int:
        """Slots still serving, starting or restarting a worker (0 once
        the pool has stopped or retired)."""
        if self._stop.is_set():
            return 0
        return sum(not slot.retired for slot in self._slots)

    @property
    def restarts(self) -> int:
        """Worker restarts so far (spent from the ``max_restarts`` budget)."""
        return self._supervisor.restarts

    @property
    def events(self) -> List[Dict[str, Any]]:
        """Supervisor events, oldest first (see :class:`EventRecord`)."""
        return self._supervisor.events.events

    @property
    def failures(self) -> List[str]:
        """Worker-death reasons, oldest first (for diagnostics)."""
        return self._supervisor.events.failures

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

        One entry per slot: worker name, pid, whether the process is
        alive, its ``state`` (see :meth:`Supervisor.liveness`; the
        ``pid`` of a ``"starting"`` slot may be ``None``), how many
        times the slot restarted, and the age of its last heartbeat in
        seconds. Shepherds spawn workers asynchronously, so right after
        construction every slot is ``"starting"``.
        """
        now = time.time()
        entries = []
        for entry, heartbeat in zip(self._supervisor.liveness(),
                                    self._heartbeats):
            beat = heartbeat.value if heartbeat is not None else 0.0
            entries.append({
                "worker": f"{self._name}-{entry['slot']}",
                "pid": entry["pid"],
                "alive": entry["alive"],
                "state": entry["state"],
                "restarts": entry["restarts"],
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
            self._supervisor.kill(slot.index)
