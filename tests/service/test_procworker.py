"""The process-worker entry points, driven in this process.

``worker_init`` builds a worker's compute stack and ``run_task``
executes one :class:`ProcessTask`; calling them directly (no pool, no
fork) checks the child side of ``worker_mode="process"`` on its own:
every request type, the shipped what-if base, the re-anchored
deadline, and the child-side fault sites.
"""

from __future__ import annotations

import pytest

from repro.exceptions import UnknownBaseError
from repro.service.faults import (
    SITE_COMPUTE_HANG,
    SITE_WORKER_KILL,
    FaultRule,
)
from repro.service.jobs import DeadlineExceeded, EstimateRequest
from repro.service.pipeline import EstimationPipeline
from repro.service.procworker import (
    ProcessTask,
    ProcessWorkerConfig,
    _TaskDeadline,
    run_task,
    worker_init,
)
from repro.service.sweep import SweepAxisSpec, SweepRequest, SweepResponse
from repro.service.whatif import WhatIfRequest

from .conftest import CELLS


def request(**overrides) -> EstimateRequest:
    fields = dict(n_cells=900, width_mm=0.6, height_mm=0.6,
                  usage={"INV_X1": 0.5, "NAND2_X1": 0.5}, cells=CELLS,
                  method="linear")
    fields.update(overrides)
    return EstimateRequest(**fields)


@pytest.fixture(scope="module")
def state():
    return worker_init(ProcessWorkerConfig())


@pytest.fixture(scope="module")
def reference():
    return EstimationPipeline()


def test_estimate_matches_a_thread_pipeline(state, reference):
    point = request()
    estimate = run_task(state, ProcessTask(point))
    expected = reference(point)
    assert (estimate.mean, estimate.std) == (expected.mean, expected.std)
    assert estimate.details == expected.details


def test_sweep_runs_on_the_batched_engine(state, reference):
    sweep = SweepRequest(
        base=request(),
        axes=(SweepAxisSpec("n_cells", (400, 700)),
              SweepAxisSpec("signal_probability", (0.3, 0.7))))
    response = run_task(state, ProcessTask(sweep, job_id="sweep-task",
                                           remaining=60.0))
    assert isinstance(response, SweepResponse)
    assert response.shape == (2, 2)
    assert response.stats["geometries"] == 2
    assert response.stats["rg_builds"] == 2
    for point, estimate in zip(sweep.expand(), response.estimates):
        expected = reference(point)
        assert (estimate.mean, estimate.std) == (expected.mean,
                                                 expected.std)


SWAP = {"type": "cell_swap", "from_cell": "INV_X1", "to_cell": "NAND2_X1",
        "fraction": 0.02}


def test_whatif_rebuilds_the_shipped_base(state):
    base = request(n_cells=1200, width_mm=0.7, height_mm=0.7)
    assert not state.pipeline.has_base(base.key())
    whatif = WhatIfRequest(base=base.key(), edits=(SWAP,))
    estimate = run_task(state, ProcessTask(whatif, base=base))
    assert state.pipeline.has_base(base.key())
    assert estimate.mean > 0


def test_whatif_without_a_shipped_base_is_unknown(state):
    whatif = WhatIfRequest(base="ab" * 32, edits=(SWAP,))
    with pytest.raises(UnknownBaseError):
        run_task(state, ProcessTask(whatif))


def test_expired_deadline_stops_the_task(state):
    with pytest.raises(DeadlineExceeded, match="process worker"):
        run_task(state, ProcessTask(request(n_cells=1500),
                                    job_id="late-task", remaining=-1.0))


def test_task_deadline_re_anchors_the_remaining_time():
    open_ended = _TaskDeadline("task", None)
    assert open_ended.time_remaining() is None
    open_ended.check_alive()
    bounded = _TaskDeadline("task", 30.0)
    assert 0.0 < bounded.time_remaining() <= 30.0
    bounded.check_alive()


def test_stall_command_outside_a_pool_computes(state):
    """Chaos commands need a pool context to act on; without one the
    task computes normally."""
    estimate = run_task(state, ProcessTask(request(), chaos="stall"))
    assert estimate.mean > 0


def test_child_builds_only_its_own_fault_sites():
    config = ProcessWorkerConfig(
        fault_rules={SITE_COMPUTE_HANG: FaultRule(1.0),
                     SITE_WORKER_KILL: FaultRule(1.0)},
        fault_hang_seconds=0.0)
    worker = worker_init(config)
    assert worker.faults.enabled(SITE_COMPUTE_HANG)
    assert not worker.faults.enabled(SITE_WORKER_KILL)
    run_task(worker, ProcessTask(request()))
    assert worker.faults.fires(SITE_COMPUTE_HANG) == 1
    assert worker_init(ProcessWorkerConfig()).faults is None
