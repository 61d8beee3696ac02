"""Acceptance tests: tracing on the real estimator paths.

The contract asserted here (and stated in ``docs/OBSERVABILITY.md``):

* a traced exact estimate and a traced 100-point sweep each surface a
  meaningful per-stage breakdown (>= 5 named stages) whose *local* self
  times account for the end-to-end wall clock (within 10%);
* tracing never changes results — traced runs are bit-identical to
  untraced runs, including across the process worker pool;
* worker-pool spans propagate: a parallel sweep's trace contains the
  per-stage aggregation of what ran inside the worker processes,
  flagged remote.
"""

import sys

import pytest

from repro.core import CellUsage
from repro.core.api import FullChipLeakageEstimator, estimate_sweep
from repro.core.sweep import cell_count_axis, signal_probability_axis


@pytest.fixture(scope="module")
def usage(small_characterization):
    return CellUsage.uniform(small_characterization.cell_names)


def local_self_sum(document):
    return sum(entry["self_s"] for entry in document["stages"].values()
               if not entry["remote"])


def root_wall(document):
    return sum(span["wall_s"] for span in document["spans"])


class TestTracedExactEstimate:
    @pytest.fixture(scope="class")
    def runs(self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 1024, 0.5e-3, 0.5e-3,
            simplified_correlation=True)
        return (estimator.estimate("exact"),
                estimator.estimate("exact", trace=True))

    def test_at_least_five_named_stages(self, runs):
        _, traced = runs
        document = traced.details["trace"]
        local = [name for name, entry in document["stages"].items()
                 if not entry["remote"]]
        assert len(local) >= 5, sorted(document["stages"])
        # The breakdown names real pipeline stages, not placeholders.
        assert any(name.startswith("exact.") for name in local)

    def test_stage_self_times_account_for_wall(self, runs):
        _, traced = runs
        document = traced.details["trace"]
        assert local_self_sum(document) == pytest.approx(
            root_wall(document), rel=0.10)

    def test_traced_is_bit_identical(self, runs):
        untraced, traced = runs
        assert traced.mean == untraced.mean
        assert traced.std == untraced.std
        details = dict(traced.details)
        assert details.pop("trace")["name"] == "core/api.estimate"
        assert details == untraced.details


class TestTracedSweep:
    N_POINTS = 100

    @pytest.fixture(scope="class")
    def runs(self, small_characterization, usage):
        axes = [signal_probability_axis(
            [0.3 + 0.4 * i / (self.N_POINTS - 1)
             for i in range(self.N_POINTS)])]
        kwargs = dict(axes=axes, method="linear")
        return (estimate_sweep(small_characterization, usage, 4096,
                               1e-3, 1e-3, **kwargs),
                estimate_sweep(small_characterization, usage, 4096,
                               1e-3, 1e-3, trace=True, **kwargs))

    def test_at_least_five_named_stages(self, runs):
        _, traced = runs
        assert len(traced) == self.N_POINTS
        stages = traced.trace["stages"]
        assert len(stages) >= 5, sorted(stages)
        assert stages["sweep.points"]["count"] == 1
        assert "sweep.kernels" in stages

    def test_stage_self_times_account_for_wall(self, runs):
        _, traced = runs
        assert local_self_sum(traced.trace) == pytest.approx(
            root_wall(traced.trace), rel=0.10)

    def test_traced_is_bit_identical(self, runs):
        untraced, traced = runs
        assert untraced.trace is None
        for before, after in zip(untraced, traced):
            assert after.mean == before.mean
            assert after.std == before.std
            assert after.details == before.details
        assert untraced.stats == traced.stats


class TestWorkerPoolPropagation:
    """Spans cross the process pool and aggregate under the parent."""

    @pytest.fixture(scope="class")
    def runs(self, small_characterization, usage):
        # Two distinct geometries -> two groups -> real fan-out.
        axes = [cell_count_axis([1024, 4096]),
                signal_probability_axis([0.3, 0.5, 0.7])]
        kwargs = dict(axes=axes, method="linear")
        serial = estimate_sweep(small_characterization, usage, 1024,
                                1e-3, 1e-3, n_jobs=1, **kwargs)
        parallel = estimate_sweep(small_characterization, usage, 1024,
                                  1e-3, 1e-3, n_jobs=2, trace=True,
                                  **kwargs)
        return serial, parallel

    def test_remote_stages_present_and_aggregated(self, runs):
        _, parallel = runs
        stages = parallel.trace["stages"]
        assert "parallel.map" in stages
        assert not stages["parallel.map"]["remote"]
        remote = {name: entry for name, entry in stages.items()
                  if entry["remote"]}
        # The workers' evaluation stages came home, aggregated per name
        # across both workers.
        # One geometry group ran per worker call, so the merged remote
        # stage carries count == number of groups.
        assert remote["sweep.points"]["count"] == 2, sorted(stages)

    def test_remote_wall_does_not_pollute_the_wall_accounting(self, runs):
        _, parallel = runs
        # Workers run concurrently: their wall time is attribution
        # detail, and the local invariant must still hold.
        assert local_self_sum(parallel.trace) == pytest.approx(
            root_wall(parallel.trace), rel=0.10)

    def test_parallel_traced_matches_serial_untraced(self, runs):
        serial, parallel = runs
        assert len(serial) == len(parallel) == 6
        for before, after in zip(serial, parallel):
            assert after.mean == before.mean
            assert after.std == before.std

    def test_workers_untraced_without_tracer(self, small_characterization,
                                             usage):
        result = estimate_sweep(
            small_characterization, usage, 1024, 1e-3, 1e-3,
            axes=[cell_count_axis([1024, 4096]),
                  signal_probability_axis([0.4, 0.6])],
            method="linear", n_jobs=2)
        assert result.trace is None


class TestNoOpOverhead:
    """Tracing off must be measurably free on a bench_sweep-scale run.

    Direct wall-clock A/B of full runs is noisy far beyond the effect
    size, so the bound is computed, not raced: (cost of one disabled
    span call) x (number of span calls the workload actually makes,
    from its own trace) must stay under 2% of the untraced wall time.
    """

    @pytest.mark.skipif(
        sys.gettrace() is not None,
        reason="a line tracer (e.g. tools/coverage.py) inflates every "
               "span call, so the per-call cost measured here is the "
               "tracer's, not the disabled span's")
    def test_overhead_bound_under_two_percent(self, small_characterization,
                                              usage):
        import time

        from repro.obs import span, tracing_active

        axes = [signal_probability_axis(
            [0.3 + 0.4 * i / 99 for i in range(100)])]

        def workload(trace):
            start = time.perf_counter()
            result = estimate_sweep(small_characterization, usage, 4096,
                                    1e-3, 1e-3, axes=axes,
                                    method="linear", trace=trace)
            return time.perf_counter() - start, result

        workload(False)  # warm caches
        wall_untraced, _ = workload(False)
        _, traced = workload(True)
        span_calls = sum(entry["count"]
                         for entry in traced.trace["stages"].values())
        assert span_calls >= 100  # the workload is genuinely instrumented

        assert not tracing_active()
        probes = 200_000
        start = time.perf_counter()
        for _ in range(probes):
            with span("overhead.probe"):
                pass
        per_call = (time.perf_counter() - start) / probes

        overhead = per_call * span_calls
        assert overhead < 0.02 * wall_untraced, (
            f"{span_calls} disabled span calls x {per_call * 1e9:.0f} ns "
            f"= {overhead * 1e3:.3f} ms >= 2% of "
            f"{wall_untraced * 1e3:.1f} ms")
        # And the per-call cost itself stays in guard-check territory.
        assert per_call < 5e-6
