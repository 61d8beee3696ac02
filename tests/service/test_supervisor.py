"""The shared child-process Supervisor, driven with trivial child targets.

Each target plays one way a start can go: ready, a reported init error,
death before the handshake (pipe EOF), exit while a grandchild still
holds the pipe open, or silence past ``init_timeout``. The tests cover
those outcomes, the backoff sequence and its reset, the shared restart
budget, per-slot liveness and the bounded event record. The last tests
drive the estimation scheduler's own thread supervision: crash storms
and abandoned workers land in the same kind of event record.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time

import pytest

from repro.parallel import EVENT_CAPACITY, StartOutcome, Supervisor
from repro.service.faults import SITE_WORKER_CRASH, FaultInjector, FaultRule
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    JobFailedError,
)
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import MAX_WORKER_RESTARTS, EstimationScheduler


def _ready(conn, index, generation):
    conn.send(("ready", index, generation))
    try:
        conn.recv()  # park until the supervisor closes the pipe
    except (EOFError, OSError):
        pass


def _init_error(conn, index, generation):
    conn.send(("init_err", ValueError("bad config")))


def _die(conn, index, generation):
    os._exit(5)


def _exit_leaving_pipe_open(conn, index, generation):
    if os.fork() == 0:  # the grandchild keeps the pipe's write end open
        time.sleep(1.0)
        os._exit(0)
    os._exit(7)


def _silent(conn, index, generation):
    time.sleep(30.0)


def _supervisor(target, **overrides):
    options = dict(name="test-sup", init_timeout=10.0, restart_backoff=0.1,
                   max_backoff=0.4, max_restarts=10, poll_interval=0.01)
    options.update(overrides)
    return Supervisor(1, target, lambda index, generation, conn:
                      (conn, index, generation), **options)


@pytest.fixture
def reap():
    supervisors = []
    yield supervisors.append
    for supervisor in supervisors:
        supervisor.stopping.set()
        for slot in supervisor.slots:
            supervisor.kill(slot.index)


def test_ready_child_reports_up_with_pid_and_generation(reap):
    supervisor = _supervisor(_ready)
    reap(supervisor)
    assert supervisor.liveness()[0]["state"] == "starting"
    assert supervisor.start(0) == (StartOutcome.READY, "ready")
    assert supervisor.slots[0].message == ("ready", 0, 1)
    [entry] = supervisor.liveness()
    assert entry["state"] == "up" and entry["alive"]
    assert entry["pid"] == supervisor.slots[0].process.pid != os.getpid()
    assert (entry["generation"], entry["restarts"]) == (1, 0)
    assert supervisor.restarts == 0  # the first start is free
    supervisor.kill(0)
    assert supervisor.liveness()[0]["alive"] is False


@pytest.mark.parametrize("target, outcome, event, reason", [
    (_init_error, StartOutcome.INIT_ERROR, "init_failed",
     "init failed: ValueError('bad config')"),
    (_die, StartOutcome.EOF, "init_failed",
     "died before its ready handshake (EOFError)"),
    (_exit_leaving_pipe_open, StartOutcome.EXITED, "init_failed",
     "exited before its ready handshake (code 7)"),
])
def test_each_failed_start_is_a_typed_outcome(reap, target, outcome, event,
                                              reason):
    supervisor = _supervisor(target)
    reap(supervisor)
    assert supervisor.start(0) == (outcome, reason)
    [record] = supervisor.events.events
    assert (record["event"], record["reason"]) == (event, reason)
    assert record["slot"] == 0 and record["generation"] == 1
    assert supervisor.slots[0].process is None  # reaped
    # A failed restart is recorded as a respawn failure.
    assert supervisor.start(0)[0] is outcome
    assert supervisor.events.events[-1]["event"] == "respawn_failed"
    assert supervisor.events.failures[-1] == (
        f"test-sup-0 gen2: respawn failed: {reason}")


def test_init_timeout_kills_the_silent_child(reap):
    supervisor = _supervisor(_silent, init_timeout=0.3)
    reap(supervisor)
    started = time.monotonic()
    assert supervisor.start(0)[0] is StartOutcome.TIMEOUT
    assert 0.3 <= time.monotonic() - started < 5.0
    assert supervisor.events.events[0]["event"] == "init_timeout"
    assert supervisor.liveness()[0]["alive"] is False


def test_stop_interrupts_a_pending_start(reap):
    supervisor = _supervisor(_silent)
    reap(supervisor)
    threading.Timer(0.2, supervisor.stopping.set).start()
    assert supervisor.start(0)[0] is StartOutcome.STOPPED
    assert supervisor.events.events == []  # stopping is not a failure
    assert supervisor.liveness()[0]["state"] == "down"
    assert supervisor.start(0)[0] is StartOutcome.STOPPED


def test_backoff_doubles_caps_and_resets_when_healthy(reap):
    supervisor = _supervisor(_ready)
    reap(supervisor)
    assert [supervisor.backoff(k) for k in range(6)] == [
        0.0, 0.1, 0.2, 0.4, 0.4, 0.4]
    assert supervisor.start(0)[0] is StartOutcome.READY
    waits = []
    for _ in range(3):
        supervisor.kill(0)
        supervisor.died(0, "exit", "killed by the test")
        started = time.monotonic()
        assert supervisor.start(0)[0] is StartOutcome.READY
        waits.append(time.monotonic() - started)
    for wait, backoff in zip(waits, (0.1, 0.2, 0.4)):
        assert backoff <= wait < backoff + 2.0
    supervisor.healthy(0)
    supervisor.kill(0)
    supervisor.died(0, "exit", "killed by the test")
    assert supervisor.slots[0].next_start - time.monotonic() <= 0.1


def test_restart_budget_is_shared_and_retires_the_slot(reap):
    supervisor = _supervisor(_die, max_restarts=2, restart_backoff=0.01)
    reap(supervisor)
    outcomes = [supervisor.start(0)[0] for _ in range(4)]
    assert outcomes == [StartOutcome.EOF] * 3 + [StartOutcome.BUDGET]
    assert supervisor.restarts == 2
    assert supervisor.slots[0].retired
    assert supervisor.liveness()[0]["state"] == "down"
    assert supervisor.events.events[-1]["event"] == "budget_exhausted"
    assert "restart budget (2) exhausted" in supervisor.events.failures[-1]


def test_events_are_bounded_and_logged_as_json(reap, caplog):
    supervisor = _supervisor(_ready)
    reap(supervisor)
    supervisor.start(0)
    with caplog.at_level(logging.WARNING, logger="repro.supervisor"):
        for round_index in range(EVENT_CAPACITY + 6):
            supervisor.record(0, "exit", f"round {round_index}")
    events = supervisor.events.events
    assert len(events) == EVENT_CAPACITY
    assert events[-1]["reason"] == f"round {EVENT_CAPACITY + 5}"
    assert events[0]["reason"] == "round 6"
    logged = [json.loads(record.getMessage()) for record in caplog.records]
    assert len(logged) == EVENT_CAPACITY + 6
    assert set(logged[0]) == {"ts", "supervisor", "slot", "generation",
                              "pid", "event", "reason"}
    assert logged[0]["pid"] == supervisor.slots[0].pid


def _crash_storm(fires, n_jobs=40):
    """Two scheduler threads and ``fires`` injected ``worker.crash``
    faults spread over ``n_jobs`` jobs (each job survives two requeues,
    so the storm spends every fire); returns once every job ended."""
    registry = MetricsRegistry()
    scheduler = EstimationScheduler(
        lambda request, job: "done", workers=2, metrics=registry,
        faults=FaultInjector({SITE_WORKER_CRASH: FaultRule(1.0, fires)}))
    jobs = [scheduler.submit(EstimateRequest(n_cells=100 + index,
                                             width_mm=1.0, height_mm=1.0))
            for index in range(n_jobs)]
    for job in jobs:
        try:
            assert scheduler.wait(job, timeout=30.0) == "done"
        except JobFailedError:
            assert job.error_kind == "crash"
    return scheduler, registry


def test_scheduler_crash_storm_keeps_only_the_last_events(caplog):
    caplog.set_level(logging.WARNING, logger="repro.supervisor")
    scheduler, _ = _crash_storm(fires=80)
    try:
        events = scheduler.events
        assert len(events) == EVENT_CAPACITY
        assert {event["event"] for event in events} == {"exit"}
        assert events[-1]["supervisor"] == "repro-estimator"
        assert "InjectedFault" in events[-1]["reason"]
        assert scheduler.worker_restarts == 80
        assert scheduler.workers_alive == 2
        logged = [json.loads(record.getMessage())
                  for record in caplog.records
                  if record.name == "repro.supervisor"]
        assert len(logged) == 80
    finally:
        scheduler.close()


def test_restart_metric_counts_only_restarts_that_happen():
    scheduler, registry = _crash_storm(fires=MAX_WORKER_RESTARTS + 1)
    try:
        restarts = registry.get("repro_worker_restarts_total").value()
        assert scheduler.worker_restarts == MAX_WORKER_RESTARTS
        assert restarts == scheduler.worker_restarts
        exhausted = [event for event in scheduler.events
                     if event["event"] == "budget_exhausted"]
        assert len(exhausted) == 1
        assert scheduler.workers_alive == 1  # the other thread stays up
    finally:
        scheduler.close()


def test_abandoned_worker_is_an_event_naming_the_job():
    release = threading.Event()

    def compute(request, job):
        assert release.wait(30.0)
        return "late"

    scheduler = EstimationScheduler(compute, workers=1, hang_grace=0.05,
                                    supervise_interval=0.02)
    try:
        hung = scheduler.submit(EstimateRequest(
            n_cells=1000, width_mm=1.0, height_mm=1.0), timeout=0.1)
        with pytest.raises(DeadlineExceeded):
            scheduler.wait(hung, timeout=10.0)
        [event] = scheduler.events
        assert event["event"] == "abandoned"
        assert event["slot"] == "0"
        assert hung.id in event["reason"]
        assert scheduler.worker_restarts == 1
        assert [entry["worker"] for entry in scheduler.worker_liveness()] \
            == ["repro-estimator-r1"]
    finally:
        release.set()
        scheduler.close()
