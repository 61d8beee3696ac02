"""Process-mode compute host: the child side of ``worker_mode="process"``.

When a :class:`~repro.service.client.ServiceClient` runs with process
workers, the pool's :class:`~repro.parallel.Supervisor` forks each
worker, and :func:`worker_init` builds its full compute stack before
the ready handshake — standard-cell library, :class:`EstimationPipeline`,
and a :class:`~repro.service.cache.ResultCache` pointed at the *same*
cache directory as the parent (the per-shard file locks are what make
that safe). An init that raises is reported to the supervisor as a
typed start failure, and the slot is restarted with backoff. Each task
is a :class:`ProcessTask` carrying the request object itself (requests
pickle with an unchanged ``key()``), and :func:`run_task` hands it to
the same :meth:`EstimationPipeline.run` a thread worker calls. Results
travel back as live, picklable :class:`LeakageEstimate` /
:class:`SweepResponse` objects, so the parent's cache and waiters see
exactly the objects a thread worker would have produced.

Design decisions that live here:

- **Config is precomputed in the parent.** The child never calls
  :func:`~repro.service.cache.cache_stamp` (which takes a module lock
  and may shell out to git) — the parent resolves the stamp once and
  ships it, so a fork mid-stamp can never deadlock a worker.
- **Chaos is commanded, not drawn.** The ``worker.kill`` /
  ``worker.stall`` fault sites draw in the *parent*, from one
  fleet-wide seeded stream with one ``max_fires`` budget, and the
  task carries the command. Child-local injectors would reset
  their fire budgets on every respawn and crash-loop forever. Commands
  execute only on delivery attempt 1 — after the supervisor requeues
  the task, the retry computes instead of re-dying.
- **What-if bases ship with the request.** The parent records every
  served estimate request in *its* pipeline base store and ships a
  what-if's recorded base request in its task, so any worker —
  including one forked after the base was recorded — can rebuild the
  base snapshot locally.

The fault sites that make sense inside a worker (``cache.read``,
``cache.write``, ``compute.hang``, ``shard.lock_timeout``) are rebuilt
child-side from the shipped rules with a per-(slot, generation) derived
seed, so two workers never replay identical corruption streams.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, NamedTuple, Optional

from repro.parallel import process_worker_context
from repro.service.cache import ResultCache
from repro.service.faults import (
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_COMPUTE_HANG,
    SITE_SHARD_LOCK_TIMEOUT,
    FaultInjector,
    FaultRule,
)
from repro.service.jobs import DeadlineExceeded, EstimateRequest
from repro.service.pipeline import EstimationPipeline

#: Fault sites a worker process injects locally (everything else —
#: worker.kill, worker.stall, replica.kill, http.disconnect — is drawn
#: by the layer that owns the blast radius).
CHILD_FAULT_SITES = (SITE_CACHE_READ, SITE_CACHE_WRITE, SITE_COMPUTE_HANG,
                     SITE_SHARD_LOCK_TIMEOUT)

#: Exit code of a commanded ``worker.kill`` (diagnosable in
#: ``pool.failures``; anything nonzero exercises the same supervision).
CHAOS_KILL_EXIT_CODE = 23


@dataclass(frozen=True)
class ProcessWorkerConfig:
    """Everything a worker process needs to build its compute stack.

    Fully picklable — plain scalars plus :class:`FaultRule` values — so
    it crosses the spawn boundary too, not just fork.
    """

    cache_dir: Optional[str] = None
    cache_entries: int = 256
    cache_stamp: Optional[str] = None
    n_shards: int = 8
    lock_timeout: float = 2.0
    fault_rules: Dict[str, FaultRule] = field(default_factory=dict)
    fault_seed: int = 0
    fault_hang_seconds: float = 0.5


class ProcessTask(NamedTuple):
    """One job shipped to a worker process.

    ``request`` is an :class:`EstimateRequest`, a sweep or a what-if;
    ``base`` is a what-if's recorded base request. ``remaining`` is the
    parent job's deadline as seconds left at dispatch (``None`` for
    none), and ``chaos`` a commanded ``"kill"`` or ``"stall"``.
    """

    request: Any
    base: Optional[EstimateRequest] = None
    job_id: str = "proc-task"
    remaining: Optional[float] = None
    chaos: Optional[str] = None
    stall_seconds: float = 2.0


class _TaskDeadline:
    """Job stand-in for the pipeline's cooperative deadline hook.

    The real :class:`~repro.service.jobs.Job` lives in the parent; only
    the deadline crosses the pipe (as seconds remaining, re-anchored to
    this process's monotonic clock). Cancellation inside a process
    worker is the supervisor killing it — there is no cooperative flag.
    """

    __slots__ = ("id", "created_at", "started_at", "deadline", "trace")

    def __init__(self, task_id: str, remaining: Optional[float]) -> None:
        self.id = task_id
        self.created_at = time.time()
        self.started_at = self.created_at
        self.deadline = (None if remaining is None
                         else time.monotonic() + float(remaining))
        self.trace: Optional[Dict[str, Any]] = None

    def check_alive(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded(
                f"task {self.id} exceeded its deadline in a process worker")

    def time_remaining(self) -> Optional[float]:
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()


class _WorkerState(NamedTuple):
    """Per-process compute stack, built once by :func:`worker_init`."""

    pipeline: EstimationPipeline
    faults: Optional[FaultInjector]


def _child_faults(config: ProcessWorkerConfig) -> Optional[FaultInjector]:
    rules = {site: rule for site, rule in config.fault_rules.items()
             if site in CHILD_FAULT_SITES}
    if not rules:
        return None
    context = process_worker_context()
    slot = context.slot if context is not None else 0
    generation = context.generation if context is not None else 0
    # Distinct stream per worker incarnation: a respawned worker must
    # not replay its predecessor's corruption sequence verbatim.
    seed = config.fault_seed + 7919 * slot + 104729 * generation
    return FaultInjector(rules, seed=seed,
                         hang_seconds=config.fault_hang_seconds)


def worker_init(config: ProcessWorkerConfig) -> _WorkerState:
    """Pool ``init_fn``: build the child-side cache, faults, pipeline."""
    faults = _child_faults(config)
    cache = ResultCache(
        max_entries=config.cache_entries,
        persist_dir=config.cache_dir,
        stamp=config.cache_stamp,
        faults=faults,
        n_shards=config.n_shards,
        lock_timeout=config.lock_timeout)
    pipeline = EstimationPipeline(cache=cache, faults=faults)
    return _WorkerState(pipeline, faults)


def run_task(state: _WorkerState, task: ProcessTask) -> Any:
    """Pool ``work_fn``: run one task's request through the pipeline."""
    context = process_worker_context()
    attempt = context.attempt if context is not None else 1
    if task.chaos is not None and attempt <= 1:
        if task.chaos == "kill":
            os._exit(CHAOS_KILL_EXIT_CODE)
        if task.chaos == "stall" and context is not None:
            context.stall(task.stall_seconds)
    if task.base is not None:
        # A what-if names its base by that base's content hash.
        state.pipeline._record_base(task.request.base, task.base)
    return state.pipeline.run(task.request,
                              _TaskDeadline(task.job_id, task.remaining))
