"""Service sweeps run on the batched sweep engine (``core/sweep.py``).

The service's sweep job serves estimate-tier hits and sends every miss
to one ``run_sweep`` call. These tests pin what that adapter must keep:

* every point is bit-identical (``mean``, ``std``, ``details``) to a
  standalone estimate computed by a *second*, fresh client — a
  same-client comparison would only read back the sweep's own backfill;
* the engine's shared-work ledger lands in ``stats``;
* a cancel or a lapsed deadline inside the engine surfaces as a typed
  error and leaves no grid point in the estimate tier;
* the estimate policy applies to the sweep as one job: ``compute.hang``
  fires once, and an ``exact`` grid degrades whole.
"""

from __future__ import annotations

import sys

import pytest

from repro.service import ServiceClient
from repro.service.cache import MISS, TIER_ESTIMATE
from repro.service.faults import SITE_COMPUTE_HANG, FaultInjector, FaultRule
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    Job,
    JobCancelledError,
    TechnologyConfig,
)
from repro.service.pipeline import EstimationPipeline
from repro.service.sweep import SweepAxisSpec, SweepRequest

from .conftest import CELLS

THERMAL = {"feedback": True, "package_resistance": 40.0,
           "spreading_resistance": 3e5, "spreading_length": 3e-4,
           "power_scale": 20.0}


def base_request(**overrides) -> EstimateRequest:
    fields = dict(
        n_cells=900, width_mm=0.6, height_mm=0.6,
        usage={"INV_X1": 0.5, "NAND2_X1": 0.5}, cells=CELLS,
        method="linear", technology=TechnologyConfig(corr_length_mm=0.5))
    fields.update(overrides)
    return EstimateRequest(**fields)


#: Grid shapes that exercise each way a point can differ: the kernel
#: (correlation length, D2D split, sigma), the characterization
#: (temperature), the floorplan (die, cell count across the 250k-site
#: ``auto`` switch), the RG mixture (signal probability), and the
#: non-linear (exact) and coupled-thermal estimate paths.
SHAPES = {
    "corr_length_x_sp": (
        base_request(),
        (SweepAxisSpec("corr_length_mm", (0.3, 0.9)),
         SweepAxisSpec("signal_probability", (0.4, 0.6)))),
    "temperature_x_die": (
        base_request(),
        (SweepAxisSpec("temperature_c", (25.0, 85.0)),
         SweepAxisSpec("die", ((0.5, 0.4), (0.8, 0.8))))),
    "d2d_x_sigma": (
        base_request(),
        (SweepAxisSpec("d2d_fraction", (0.2, 0.6)),
         SweepAxisSpec("sigma_l", (0.04, 0.06)))),
    "auto_across_switch": (
        base_request(method="auto", width_mm=4.0, height_mm=4.0),
        (SweepAxisSpec("n_cells", (240_000, 260_000)),)),
    "exact_n_jobs_2": (
        base_request(method="exact", simplified_correlation=True, n_jobs=2),
        (SweepAxisSpec("n_cells", (400, 900)),
         SweepAxisSpec("signal_probability", (0.3, 0.7)))),
    "coupled_thermal": (
        base_request(simplified_correlation=True, thermal=THERMAL),
        (SweepAxisSpec("n_cells", (400, 900)),)),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_points_bit_identical_to_a_fresh_service(shape):
    base, axes = SHAPES[shape]
    request = SweepRequest(base=base, axes=axes)
    with ServiceClient(workers=1) as client:
        response = client.sweep(request)
    assert len(response) == request.n_points
    assert response.stats["points"] == request.n_points
    with ServiceClient(workers=1) as fresh:
        for point, estimate in zip(request.expand(), response.estimates):
            single = fresh.estimate(point)
            assert single.mean == estimate.mean
            assert single.std == estimate.std
            assert single.details == estimate.details
            assert not estimate.details.get("degraded")


def test_auto_grid_straddles_the_switch():
    base, axes = SHAPES["auto_across_switch"]
    with ServiceClient(workers=1) as client:
        response = client.sweep(SweepRequest(base=base, axes=axes))
    assert [e.method for e in response.estimates] == \
        ["linear", "integral2d"]


def test_stats_carry_the_engine_ledger():
    """One kernel pass per floorplan on a cell-count x probability grid,
    one RG build per probability."""
    request = SweepRequest(
        base=base_request(),
        axes=(SweepAxisSpec("n_cells", (400, 600, 900)),
              SweepAxisSpec("signal_probability", (0.3, 0.5, 0.7))))
    with ServiceClient(workers=1) as client:
        stats = client.sweep(request).stats
    assert stats["points"] == 9
    assert stats["geometries"] == 3
    assert stats["rho_kernel_evaluations"] == 3
    assert stats["rg_builds"] == 3
    for key in ("seconds", "seconds_per_point"):
        assert stats[key] > 0


def test_warm_points_skip_the_engine():
    request = SweepRequest(
        base=base_request(),
        axes=(SweepAxisSpec("signal_probability", (0.3, 0.7)),))
    with ServiceClient(workers=1) as client:
        client.estimate(request.expand()[0])
        stats = client.sweep(request).stats
        assert stats["rg_builds"] == 1
        again = client.sweep(SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("signal_probability", (0.7, 0.3)),)))
        assert "rg_builds" not in again.stats
        assert again.stats["points"] == 2


def _in_engine() -> bool:
    frame = sys._getframe(1)
    while frame is not None:
        if frame.f_code.co_name == "_evaluate_points":
            return True
        frame = frame.f_back
    return False


def _tripping_job(request, stop, at_check):
    """A real :class:`Job` that is cancelled, or whose deadline lapses,
    at the ``at_check``-th checkpoint the sweep engine makes."""
    job = Job(request)
    job.mark_running()
    check_alive = job.check_alive
    engine_checks = [0]

    def checkpoint():
        if _in_engine():
            engine_checks[0] += 1
            if engine_checks[0] == at_check:
                if stop == "cancel":
                    job.cancel()
                else:
                    job.deadline = 0.0
        check_alive()

    job.check_alive = checkpoint
    return job, engine_checks


@pytest.mark.parametrize("stop, error", [
    ("cancel", JobCancelledError), ("deadline", DeadlineExceeded)])
@pytest.mark.parametrize("at_check", [1, 4])
def test_stop_inside_the_engine_leaves_no_partial_grid(stop, error,
                                                       at_check):
    request = SweepRequest(
        base=base_request(),
        axes=(SweepAxisSpec("n_cells", (400, 900)),
              SweepAxisSpec("signal_probability", (0.3, 0.7))))
    pipeline = EstimationPipeline()
    job, engine_checks = _tripping_job(request, stop, at_check)
    with pytest.raises(error):
        pipeline.sweep(request, job)
    assert engine_checks[0] == at_check
    for point in request.expand():
        assert pipeline.cache.get(TIER_ESTIMATE, point.key()) is MISS
    # The grid is whole on the next, unhindered run.
    assert len(pipeline.sweep(request)) == 4


def test_compute_hang_fires_once_per_sweep_job():
    faults = FaultInjector({SITE_COMPUTE_HANG: FaultRule(1.0)},
                           hang_seconds=0.0)
    request = SweepRequest(
        base=base_request(),
        axes=(SweepAxisSpec("n_cells", (400, 600, 900)),
              SweepAxisSpec("signal_probability", (0.3, 0.7))))
    with ServiceClient(workers=1, faults=faults) as client:
        assert len(client.sweep(request)) == 6
    assert faults.draws(SITE_COMPUTE_HANG) == 1
    assert faults.fires(SITE_COMPUTE_HANG) == 1


def test_exact_sweep_degrades_as_one_job():
    """The exact engine needs the simplified correlation; without it
    the whole grid is answered by the RG fallback and nothing is
    cached."""
    request = SweepRequest(
        base=base_request(method="exact"),
        axes=(SweepAxisSpec("n_cells", (400, 900)),
              SweepAxisSpec("signal_probability", (0.3, 0.7))))
    with ServiceClient(workers=1) as client:
        response = client.sweep(request)
        metrics = client.metrics_text()
        for point, estimate in zip(request.expand(), response.estimates):
            assert estimate.method == "integral2d"
            assert estimate.details["degraded"] is True
            assert estimate.details["requested_method"] == "exact"
            assert "exact engine failed" in \
                estimate.details["degradation_reason"]
            assert client.cache.get(TIER_ESTIMATE, point.key()) is MISS
    assert ('repro_degraded_results_total{reason="exact_failed"} 1'
            in metrics)
    with ServiceClient(workers=1) as fresh:
        for point, estimate in zip(request.expand(), response.estimates):
            single = fresh.estimate(point)
            assert (single.mean, single.std) == (estimate.mean, estimate.std)
            assert single.details == estimate.details


def test_exact_sweep_refusing_degradation_fails_typed():
    request = SweepRequest(
        base=base_request(method="exact", allow_degraded=False),
        axes=(SweepAxisSpec("n_cells", (400, 900)),))
    pipeline = EstimationPipeline()
    with pytest.raises(Exception, match="simplified correlation"):
        pipeline.sweep(request)
    for point in request.expand():
        assert pipeline.cache.get(TIER_ESTIMATE, point.key()) is MISS
