"""ProcessWorkerPool supervision: crash requeue, heartbeats, poison jobs.

These tests drive the pool with deliberately misbehaving workers —
hard exits (``os._exit``), heartbeat stalls, raised exceptions — and
assert the crash-only contract: every submitted task resolves (result
or typed error), dead workers are replaced, and no child process
outlives ``stop()``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.exceptions import PoisonJobError, WorkerCrashedError
from repro.parallel import ProcessWorkerPool, process_worker_context


def _init():
    return {"init_pid": os.getpid()}


def _work(state, payload):
    action = payload["action"]
    if action == "echo":
        return {"value": payload["value"], "pid": os.getpid(),
                "init_pid": state["init_pid"]}
    if action == "crash":
        os._exit(3)
    if action == "crash_once":
        marker = payload["marker"]
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            os._exit(3)
        return {"recovered": True, "pid": os.getpid()}
    if action == "stall_once":
        marker = payload["marker"]
        if not os.path.exists(marker):
            with open(marker, "w"):
                pass
            process_worker_context().stall(payload["seconds"])
        return {"recovered": True, "pid": os.getpid()}
    if action == "raise":
        raise ValueError(payload["value"])
    if action == "sleep":
        time.sleep(payload["seconds"])
        return {"slept": True}
    raise AssertionError(f"unknown action {action!r}")


def _pool(**overrides):
    options = dict(n_workers=1, init_fn=_init, name="test-pool",
                   heartbeat_interval=0.02, heartbeat_timeout=0.5,
                   restart_backoff=0.01, max_backoff=0.1,
                   init_timeout=30.0)
    options.update(overrides)
    return ProcessWorkerPool(_work, **options)


@pytest.fixture
def pool():
    pool = _pool()
    yield pool
    pool.stop()


def test_round_trip_runs_in_a_child_process(pool):
    result = pool.run({"action": "echo", "value": 42}, wait=30.0)
    assert result["value"] == 42
    assert result["pid"] != os.getpid()
    assert result["init_pid"] == result["pid"]  # state built in the child


def test_typed_exceptions_cross_the_process_boundary(pool):
    future = pool.submit({"action": "raise", "value": "boom"})
    with pytest.raises(ValueError, match="boom"):
        future.result(30.0)
    # The worker survives a raised exception (no restart needed).
    assert pool.run({"action": "echo", "value": 1}, wait=30.0)["value"] == 1
    assert pool.restarts == 0


def test_crash_requeues_and_recovers(pool, tmp_path):
    marker = str(tmp_path / "crashed-once")
    first_pid = pool.run({"action": "echo", "value": 0}, wait=30.0)["pid"]
    result = pool.run(
        {"action": "crash_once", "marker": marker}, key="crashy", wait=30.0)
    assert result["recovered"] is True
    assert result["pid"] != first_pid  # a fresh worker finished the job
    assert pool.restarts == 1
    assert any("exited with code 3" in failure for failure in pool.failures)


def test_heartbeat_stall_kills_and_requeues(pool, tmp_path):
    marker = str(tmp_path / "stalled-once")
    result = pool.run(
        {"action": "stall_once", "marker": marker, "seconds": 10.0},
        key="stall", wait=30.0)
    assert result["recovered"] is True
    assert pool.restarts == 1
    assert any("heartbeat missed" in failure for failure in pool.failures)


def test_retry_budget_exhaustion_is_a_typed_error():
    pool = _pool(max_task_retries=1, poison_threshold=100)
    try:
        future = pool.submit({"action": "crash"})
        with pytest.raises(WorkerCrashedError, match="after 2 attempts"):
            future.result(30.0)
    finally:
        pool.stop()


def test_poison_quarantine_fails_fast_and_pool_heals():
    pool = _pool(poison_threshold=2, max_task_retries=10)
    try:
        future = pool.submit({"action": "crash"}, key="poison-key")
        with pytest.raises(PoisonJobError):
            future.result(30.0)
        assert pool.is_quarantined("poison-key")
        assert pool.quarantined["poison-key"] == 2
        # Resubmitting the poisoned key fails fast, without a worker.
        restarts = pool.restarts
        with pytest.raises(PoisonJobError):
            pool.submit({"action": "crash"}, key="poison-key").result(30.0)
        assert pool.restarts == restarts
        # Healthy traffic still flows after the quarantine.
        assert pool.run({"action": "echo", "value": 7},
                        wait=30.0)["value"] == 7
    finally:
        pool.stop()


def test_task_deadline_kills_the_worker():
    class Budget(WorkerCrashedError):
        pass

    pool = _pool(timeout_error=lambda detail: Budget(detail))
    try:
        future = pool.submit({"action": "sleep", "seconds": 30.0},
                             timeout=0.3)
        with pytest.raises(Budget, match="overran its deadline"):
            future.result(30.0)
        # Deadline overruns are final — never requeued.
        assert future.attempts == 1
        assert pool.run({"action": "echo", "value": 5},
                        wait=30.0)["value"] == 5
    finally:
        pool.stop()


def test_liveness_reports_pid_restarts_and_heartbeat_age(pool):
    pool.run({"action": "echo", "value": 1}, wait=30.0)
    [entry] = pool.liveness()
    assert entry["worker"] == "test-pool-0"
    assert entry["alive"] is True
    assert entry["pid"] is not None and entry["pid"] != os.getpid()
    assert entry["restarts"] == 0
    assert entry["heartbeat_age_s"] is not None
    assert entry["heartbeat_age_s"] < 5.0


def test_liveness_state_goes_starting_up_down():
    pool = _pool(n_workers=2)
    try:
        assert {entry["state"] for entry in pool.liveness()} <= {
            "starting", "up"}
        pool.run({"action": "echo", "value": 1}, wait=30.0)
        deadline = time.monotonic() + 30.0
        while not all(entry["state"] == "up" for entry in pool.liveness()):
            assert time.monotonic() < deadline, pool.liveness()
            time.sleep(0.01)
        assert all(entry["pid"] is not None and entry["alive"]
                   for entry in pool.liveness())
    finally:
        pool.stop()
    assert all(entry["state"] == "down" for entry in pool.liveness())


def test_stop_reaps_every_worker_no_orphans():
    pool = _pool(n_workers=2)
    pool.run({"action": "echo", "value": 1}, wait=30.0)
    pids = [entry["pid"] for entry in pool.liveness()
            if entry["pid"] is not None]
    assert pids
    pool.stop()
    deadline = time.monotonic() + 10.0
    remaining = set(pids)
    while remaining and time.monotonic() < deadline:
        for pid in list(remaining):
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                remaining.discard(pid)
        if remaining:
            time.sleep(0.05)
    assert not remaining, f"orphaned worker processes: {sorted(remaining)}"
    # Submissions after stop fail fast with a typed error.
    with pytest.raises(WorkerCrashedError, match="stopped"):
        pool.submit({"action": "echo", "value": 1}).result(5.0)


def test_restart_budget_exhaustion_retires_the_pool_fast():
    # When every slot spends its restart budget the pool must flip to
    # stopped and fail queued + new work with typed errors — never
    # leave futures hanging with no worker left to pick them up.
    pool = _pool(max_restarts=0, max_task_retries=10, poison_threshold=100)
    try:
        future = pool.submit({"action": "crash"})
        with pytest.raises(WorkerCrashedError, match="restart budget"):
            future.result(30.0)
        assert pool.stopped
        with pytest.raises(WorkerCrashedError, match="stopped"):
            pool.submit({"action": "echo", "value": 1}).result(5.0)
    finally:
        pool.stop()


def test_successful_completion_forgives_accumulated_crashes(tmp_path):
    # A key that completes is not poison: its crash count resets, so
    # spaced-out transient deaths never accumulate to quarantine.
    pool = _pool(poison_threshold=2, max_task_retries=10)
    try:
        for attempt in range(2):
            marker = str(tmp_path / f"crash-once-{attempt}")
            result = pool.run({"action": "crash_once", "marker": marker},
                              key="flaky-key", wait=30.0)
            assert result["recovered"] is True
            # Without the reset, the second round's single crash would
            # be strike two and quarantine the healthy key.
            assert not pool.is_quarantined("flaky-key")
    finally:
        pool.stop()


def test_queued_tasks_are_cancelled_on_stop():
    pool = _pool(n_workers=1)
    blocker = pool.submit({"action": "sleep", "seconds": 5.0})
    queued = pool.submit({"action": "echo", "value": 1})
    time.sleep(0.2)  # let the blocker reach the worker
    pool.stop(timeout=10.0)
    with pytest.raises(WorkerCrashedError):
        queued.result(10.0)
    with pytest.raises(WorkerCrashedError):
        blocker.result(10.0)
