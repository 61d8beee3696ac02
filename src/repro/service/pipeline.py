"""The service's compute path: request -> cached artifacts -> estimate.

One callable, :class:`EstimationPipeline`, executes an
:class:`~repro.service.jobs.EstimateRequest` through the same stages the
library API runs — technology construction, library characterization
(eqs. (1)-(5)), Random-Gate statistics (eqs. (6)-(11)), and the
full-chip estimator (eqs. (15)-(17)) — consulting one cache tier per
stage. Results are therefore *bit-identical* to a direct
:class:`~repro.core.api.FullChipLeakageEstimator` call for the same
request: cold paths execute exactly the library code, and warm paths
return either the very object computed earlier (memory tier) or its
lossless JSON round-trip (disk tier; ``repr``-based float
serialization is shortest-round-trip exact).

The pipeline is thread-safe and shared by every scheduler worker; the
cache provides the synchronization. Between stages it polls the job's
cooperative cancellation/deadline hook, which is what makes scheduler
timeouts and cancellation effective mid-request.

Graceful degradation: when a ``method="exact"`` request — the O(n^2)
pairwise cross-check engine — fails mid-estimate or would blow its
deadline (predicted from an EWMA of recent exact-stage durations), the
pipeline falls back to the O(1) Random-Gate ``integral2d`` closed form,
which Table 1 of the paper bounds within ~2% of the exact std. The
fallback result carries ``details["degraded"] = True`` plus a
``degradation_reason``, is counted in
``repro_degraded_results_total{reason=...}``, and is **never cached** —
the cache only ever holds the true answer for a key. Degradation is
scoped to ``method="exact"`` (every other method *is* already a
closed-form RG estimate) and can be refused per-request via
``allow_degraded=False``.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.cells.library import build_library
from repro.characterization.characterizer import characterize_library
from repro.characterization.store import (
    characterization_document,
    parse_characterization,
)
from repro.core.api import FullChipLeakageEstimator, LeakageEstimate, \
    RGComponents
from repro.core.sweep import SweepAxis, run_sweep
from repro.core.usage import CellUsage
from repro.obs import (
    Tracer,
    global_registry,
    observe_stages,
    render_stages,
    span,
    tracing_active,
)
from repro.obs.export import STAGE_BUCKETS
from repro.service.cache import (
    MISS,
    ResultCache,
    TIER_CHARACTERIZATION,
    TIER_ESTIMATE,
    TIER_RG,
)
from repro.exceptions import DeltaError, UnknownBaseError
from repro.service.faults import SITE_COMPUTE_HANG, FaultInjector
from repro.service.jobs import (
    EstimateRequest,
    Job,
    JobCancelledError,
    JobTimeoutError,
)
from repro.service.sweep import SweepRequest, SweepResponse
from repro.service.whatif import WhatIfRequest

#: The degraded-mode estimator: the O(1) eq. (20) closed form.
FALLBACK_METHOD = "integral2d"

#: Default slow-request log threshold [s].
DEFAULT_SLOW_REQUEST_SECONDS = 5.0

_LOG = logging.getLogger("repro.service.pipeline")


class EstimationPipeline:
    """Executes estimation requests with tiered artifact reuse.

    Parameters
    ----------
    cache:
        The tiered :class:`~repro.service.cache.ResultCache`; ``None``
        builds a private memory-only cache.
    metrics:
        Optional registry; stage latencies land in
        ``repro_stage_seconds{stage=...}`` and whole-request latencies
        in ``repro_request_seconds{method=...}`` labelled by the
        *concrete* estimator method that produced the result.
    library:
        The standard-cell library to characterize; defaults to
        :func:`repro.cells.library.build_library` (constructed once and
        shared read-only across workers).
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; the
        ``compute.hang`` site stalls the estimate stage.
    degrade_safety:
        Headroom multiplier for the deadline prediction: an exact run
        is pre-empted when the time remaining is under
        ``degrade_safety *`` (EWMA of recent exact durations).
    """

    def __init__(self, cache: Optional[ResultCache] = None,
                 metrics=None, library=None,
                 faults: Optional[FaultInjector] = None,
                 degrade_safety: float = 1.0,
                 slow_request_seconds: float =
                 DEFAULT_SLOW_REQUEST_SECONDS) -> None:
        self.cache = ResultCache() if cache is None else cache
        self.library = build_library() if library is None else library
        self.degrade_safety = float(degrade_safety)
        self.slow_request_seconds = float(slow_request_seconds)
        self._faults = faults
        self._metrics = metrics
        self._ewma_lock = threading.Lock()
        self._exact_seconds_ewma: Optional[float] = None
        self._request_seconds = None
        self._requests = None
        self._degraded_total = None
        self._sweep_jobs = None
        self._sweep_points = None
        self._sweep_point_seconds = None
        # Server-side base store for the what-if (delta) protocol: every
        # full estimate records its request document under its content
        # hash; the BaseEstimate snapshot itself is built lazily on the
        # first what-if that names the hash (bases are heavyweight).
        self._base_lock = threading.Lock()
        self._base_requests: "OrderedDict[str, EstimateRequest]" = \
            OrderedDict()
        self._bases: "OrderedDict[str, Any]" = OrderedDict()
        self.max_base_requests = 1024
        self.max_bases = 16
        self._delta_requests = None
        self._delta_fallbacks = None
        self._thermal_requests = None
        self._thermal_iterations = None
        if metrics is not None:
            # Register the stage-latency family up front so /metrics
            # shows it before the first request; the tracer bridge
            # (observe_stages) get-or-creates the same family per
            # finished request.
            metrics.histogram(
                "repro_stage_seconds",
                "Per-stage self time of traced operations.",
                labelnames=("stage",), buckets=STAGE_BUCKETS)
            self._request_seconds = metrics.histogram(
                "repro_request_seconds",
                "End-to-end request latency in seconds, by concrete "
                "estimator method.",
                labelnames=("method",))
            self._requests = metrics.counter(
                "repro_pipeline_requests_total",
                "Pipeline executions by outcome.",
                labelnames=("outcome",))
            self._degraded_total = metrics.counter(
                "repro_degraded_results_total",
                "Requests answered by the RG fallback instead of the "
                "requested exact engine, by cause.",
                labelnames=("reason",))
            self._sweep_jobs = metrics.counter(
                "repro_sweep_jobs_total",
                "Batched sweep jobs executed.")
            self._sweep_points = metrics.counter(
                "repro_sweep_points_total",
                "Grid points evaluated inside batched sweep jobs.")
            self._sweep_point_seconds = metrics.histogram(
                "repro_sweep_point_seconds",
                "Per-point amortized latency inside a batched sweep.")
            self._delta_requests = metrics.counter(
                "repro_delta_requests_total",
                "What-if (delta) requests by outcome: 'hit' answered "
                "through the delta engine, 'fallback' by a full "
                "recompute of the edited scenario.",
                labelnames=("outcome",))
            self._delta_fallbacks = metrics.counter(
                "repro_delta_fallbacks_total",
                "Delta-to-full-recompute fallbacks by reason.",
                labelnames=("reason",))
            self._thermal_requests = metrics.counter(
                "repro_thermal_requests_total",
                "Computed thermal estimates by outcome: 'coupled' ran "
                "the fixed-point solver, 'open_loop' evaluated at the "
                "uniform ambient (feedback disabled).",
                labelnames=("outcome",))
            self._thermal_iterations = metrics.histogram(
                "repro_thermal_iterations",
                "Fixed-point iterations per coupled thermal solve.",
                buckets=(1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0,
                         55.0))

    def _heartbeat(self, job: Optional[Job]) -> None:
        if job is not None:
            job.check_alive()

    # -- stages -----------------------------------------------------------

    def _characterization(self, request: EstimateRequest):
        """The request's characterization, bound to its own technology.

        The tier is keyed on what characterization reads, so one entry
        serves every correlation of a corner. An entry holds the
        :class:`TechnologyConfig` that built it: a request with that
        config gets the cached object itself (so per-object caches such
        as the thermal anchor ladder keep hitting), any other a view of
        the same cell table bound to the request's technology.
        """
        config = request.technology
        key = request.characterization_key()
        revive = lambda payload: (config, parse_characterization(  # noqa: E731
            json.dumps(payload), self.library, config.build()))
        cached = self.cache.get(TIER_CHARACTERIZATION, key, revive=revive)
        if cached is not MISS:
            built_by, characterization = cached
            if built_by == config:
                return characterization
            return characterization.bound_to(config.build())
        with span("characterize", mode=request.mode):
            characterization = characterize_library(
                self.library, config.build(), mode=request.mode,
                cells=request.cells)
        with span("cache_store", tier=TIER_CHARACTERIZATION):
            self.cache.put(TIER_CHARACTERIZATION, key,
                           (config, characterization),
                           payload=characterization_document(
                               characterization))
        return characterization

    def _usage(self, request: EstimateRequest,
               characterization) -> CellUsage:
        if request.usage is None:
            return CellUsage.uniform(characterization.cell_names)
        return CellUsage(dict(request.usage))

    def _components(self, request: EstimateRequest,
                    characterization) -> RGComponents:
        key = request.rg_key()
        cached = self.cache.get(TIER_RG, key)
        if cached is not MISS:
            return cached
        with span("rg"):
            components = RGComponents.build(
                characterization,
                self._usage(request, characterization),
                request.signal_probability,
                simplified_correlation=request.simplified_correlation)
        # Live model objects; the RG tier is memory-only (no payload).
        self.cache.put(TIER_RG, key, components)
        return components

    # -- degraded mode ----------------------------------------------------

    def _note_exact_duration(self, seconds: float) -> None:
        with self._ewma_lock:
            previous = self._exact_seconds_ewma
            self._exact_seconds_ewma = (
                seconds if previous is None
                else 0.5 * seconds + 0.5 * previous)

    def _predicted_exact_seconds(self) -> Optional[float]:
        with self._ewma_lock:
            return self._exact_seconds_ewma

    def _would_blow_deadline(self, job: Optional[Job],
                             n_points: int) -> bool:
        """Pre-empt an exact run that is predicted to miss its deadline."""
        if job is None:
            return False
        remaining = job.time_remaining()
        if remaining is None:
            return False
        if remaining <= 0:
            return True
        predicted = self._predicted_exact_seconds()
        return (predicted is not None
                and remaining < predicted * n_points * self.degrade_safety)

    def _estimate_stage(self, request: EstimateRequest, job: Optional[Job],
                        compute: Callable[[], Any],
                        fallback: Callable[[str], Any],
                        n_points: int = 1) -> Tuple[Any, bool]:
        """Run ``compute()`` under the estimate policy; ``(result,
        degraded)``.

        One policy for single requests and sweep jobs alike: the
        ``compute.hang`` site fires once per call, an exact run predicted
        to miss the deadline is pre-empted, the exact-duration EWMA is
        kept per point, and a failing or deadline-starved exact run that
        may degrade is answered by ``fallback(reason)`` — the RG closed
        form — as a whole: a sweep never mixes exact and fallback points.
        """
        may_degrade = request.method == "exact" and request.allow_degraded
        if may_degrade and self._would_blow_deadline(job, n_points):
            reason = ("deadline too tight for the exact engine "
                      "(predicted to exceed it)")
            label = "deadline_predicted"
        else:
            try:
                if self._faults is not None:
                    self._faults.hang(SITE_COMPUTE_HANG)
                self._heartbeat(job)
                stage_start = time.perf_counter()
                result = compute()
                if request.method == "exact":
                    self._note_exact_duration(
                        (time.perf_counter() - stage_start) / n_points)
                return result, False
            except JobCancelledError:
                raise  # an explicit cancel is never answered degraded
            except JobTimeoutError:
                if not may_degrade:
                    raise
                reason = ("deadline exceeded before the exact engine "
                          "finished")
                label = "deadline"
            except Exception as exc:  # noqa: BLE001 - degradation boundary
                if not may_degrade:
                    raise
                reason = f"exact engine failed: {type(exc).__name__}: {exc}"
                label = "exact_failed"
        with span("degraded", reason=label):
            result = fallback(reason)
        if self._degraded_total is not None:
            self._degraded_total.inc(reason=label)
        return result, True

    @staticmethod
    def _mark_degraded(estimate: LeakageEstimate, request: EstimateRequest,
                       reason: str) -> LeakageEstimate:
        return estimate.with_details(
            degraded=True,
            degradation_reason=reason,
            requested_method=request.method)

    def _store_estimates(self, entries) -> None:
        """Write ``(key, estimate)`` pairs to the estimate tier."""
        with span("serialize"):
            payloads = [estimate.to_dict() for _, estimate in entries]
        with span("cache_store", tier=TIER_ESTIMATE):
            for (key, estimate), payload in zip(entries, payloads):
                self.cache.put(TIER_ESTIMATE, key, estimate, payload=payload)

    def _count_computed(self, estimates) -> None:
        if self._requests is not None:
            self._requests.inc(len(estimates), outcome="computed")
        for estimate in estimates:
            thermal_doc = estimate.details.get("thermal")
            if thermal_doc is None:
                continue
            if self._thermal_requests is not None:
                self._thermal_requests.inc(
                    outcome="coupled" if thermal_doc.get("feedback")
                    else "open_loop")
            if (self._thermal_iterations is not None
                    and thermal_doc.get("feedback")):
                self._thermal_iterations.observe(
                    float(thermal_doc.get("iterations", 0)))

    # -- entry point ------------------------------------------------------

    #: Stage names the service observes into ``repro_stage_seconds``.
    #: Restricting the bridge to this set keeps the label cardinality
    #: bounded no matter how finely the engine underneath is
    #: instrumented (engine-level stages stay visible in the trace
    #: itself — ``/v1/jobs/<id>`` and ``details["trace"]``).
    SERVICE_STAGES = (
        "service.request", "service.sweep", "service.whatif", "queue_wait",
        "cache_lookup", "cache_store", "characterize", "rg", "estimate",
        "degraded", "serialize",
        # Sweep-engine stages (core/sweep.py): point resolution, the
        # per-geometry kernel passes, RG builds and the per-point loop.
        "sweep.resolve", "sweep.kernels", "sweep.rg", "sweep.points",
        # Delta-path stages (the what-if protocol): base snapshotting
        # and the incremental update halves.
        "delta.base_estimate", "delta.base_mixture", "delta.base_moments",
        "delta.base_geometry", "delta.fold", "delta.geometry",
        "delta.mixture", "delta.moments", "delta.reduce", "delta.package",
        "delta.probe_setup",
        # Thermal-path stages (the coupled power-thermal solver): the
        # solve itself, anchor characterization builds, the per-
        # iteration fixed-point steps, and the final moment evaluation.
        "thermal.solve", "thermal.anchors", "thermal.characterize",
        "thermal.iterate", "thermal.moments", "thermal.operator",
        "thermal.oracle",
    )

    def _finish_trace(self, tracer: Tracer, job: Optional[Job],
                      operation: str) -> Dict[str, Any]:
        """Export a finished request trace and fan it out.

        Injects the scheduler queue wait as a synthetic stage (it
        happened before the pipeline ran, so no span saw it), feeds the
        per-stage self times into ``repro_stage_seconds``, records the
        document in the process-wide trace registry, surfaces it on the
        job snapshot, and emits the slow-request log line when the
        end-to-end wall time crosses the configured threshold.
        """
        document = tracer.export()
        if job is not None and job.started_at is not None:
            queue_wait = max(0.0, job.started_at - job.created_at)
            document["stages"]["queue_wait"] = {
                "count": 1, "wall_s": queue_wait, "self_s": queue_wait,
                "cpu_s": 0.0, "remote": True}
        if self._metrics is not None:
            observe_stages(document, self._metrics,
                           stages=self.SERVICE_STAGES)
        global_registry().record(document)
        if job is not None:
            job.trace = document
        roots = document.get("spans")
        wall = float(roots[0].get("wall_s") or 0.0) if roots else 0.0
        if wall >= self.slow_request_seconds:
            _LOG.warning(
                "slow %s: %.3f s (threshold %.3f s)%s\n%s",
                operation, wall, self.slow_request_seconds,
                f" job={job.id}" if job is not None else "",
                render_stages(document))
        return document

    def run(self, request, job: Optional[Job] = None):
        """Execute one service request: an estimate, a sweep or a
        what-if. The one dispatch on request type — thread workers call
        it in the serving process, process workers in theirs."""
        if isinstance(request, SweepRequest):
            return self.sweep(request, job)
        if isinstance(request, WhatIfRequest):
            return self.whatif(request, job)
        return self(request, job)

    def _traced(self, operation: str, body, request, job: Optional[Job],
                **attrs) -> LeakageEstimate:
        """``body(request, job)`` under a ``service.<operation>`` trace."""
        if tracing_active():
            # Nested under a caller's own tracer: record spans into it
            # and let the outer layer export once.
            return body(request, job)
        name = f"service.{operation}"
        tracer = Tracer(name)
        with tracer:
            with tracer.span(name, **attrs):
                estimate = body(request, job)
        document = self._finish_trace(tracer, job, operation)
        if request.trace:
            # Attached *after* the cache write inside _run: cached
            # entries never carry traces (a revived hit would replay a
            # stale profile).
            estimate = estimate.with_details(trace=document)
        return estimate

    def __call__(self, request: EstimateRequest,
                 job: Optional[Job] = None) -> LeakageEstimate:
        return self._traced("request", self._run, request, job,
                            method=request.method)

    def cached_estimate(self, request: EstimateRequest, key: str):
        """The estimate-tier lookup every estimate starts with.

        Records ``request`` as a what-if base under ``key`` (its
        content hash), looks the key up under a ``cache_lookup`` span
        and counts a hit as ``outcome="cached"``. Returns the cached
        estimate, or :data:`~repro.service.cache.MISS`.
        """
        start = time.perf_counter()
        self._record_base(key, request)
        with span("cache_lookup", tier=TIER_ESTIMATE):
            cached = self.cache.get(TIER_ESTIMATE, key,
                                    revive=LeakageEstimate.from_dict)
        if cached is not MISS:
            if self._requests is not None:
                self._requests.inc(outcome="cached")
            if self._request_seconds is not None:
                self._request_seconds.observe(
                    time.perf_counter() - start, method=cached.method)
        return cached

    def _run(self, request: EstimateRequest,
             job: Optional[Job] = None) -> LeakageEstimate:
        start = time.perf_counter()
        key = request.key()
        cached = self.cached_estimate(request, key)
        if cached is not MISS:
            return cached

        self._heartbeat(job)
        characterization = self._characterization(request)
        self._heartbeat(job)
        components = self._components(request, characterization)
        self._heartbeat(job)
        estimator = FullChipLeakageEstimator(
            characterization,
            self._usage(request, characterization),
            request.n_cells,
            request.width_mm * 1e-3,
            request.height_mm * 1e-3,
            components=components)

        def compute() -> LeakageEstimate:
            with span("estimate", method=request.method,
                      n_cells=request.n_cells):
                return estimator.estimate(
                    request.method, n_jobs=request.n_jobs,
                    tolerance=request.tolerance, thermal=request.thermal)

        estimate, degraded = self._estimate_stage(
            request, job, compute,
            lambda reason: self._mark_degraded(
                estimator.estimate(FALLBACK_METHOD), request, reason))
        if degraded:
            # Never cached: the entry for this key must only ever hold
            # the true exact answer.
            if self._requests is not None:
                self._requests.inc(outcome="degraded")
        else:
            self._store_estimates([(key, estimate)])
            self._count_computed([estimate])
        if self._request_seconds is not None:
            self._request_seconds.observe(time.perf_counter() - start,
                                          method=estimate.method)
        return estimate

    # -- batched sweeps ---------------------------------------------------

    def sweep(self, request: SweepRequest,
              job: Optional[Job] = None) -> SweepResponse:
        """Run a whole parameter grid as one job.

        Grid points already in the estimate tier are served from it;
        every miss goes to **one** :func:`repro.core.sweep.run_sweep`
        call, which shares the geometry-only work (lag histogram, ``rho``
        at the lags) and the parameter-only work (RG mixtures) across the
        grid, and each computed point is then backfilled into the
        estimate tier so later single-point requests hit. Points are
        bit-identical to standalone requests. The job's cooperative
        deadline/cancel hook is polled inside the engine, and the
        estimate policy of :meth:`_estimate_stage` applies to the sweep as
        one job. ``stats`` carries the engine's shared-work counters.
        """
        start = time.perf_counter()
        points = request.expand()
        tracer = Tracer("service.sweep")
        with tracer:
            with tracer.span("service.sweep", n_points=len(points)):
                estimates, stats = self._sweep_grid(request.base, points,
                                                    job)
        document = self._finish_trace(tracer, job, "sweep")
        elapsed = time.perf_counter() - start
        if self._sweep_jobs is not None:
            self._sweep_jobs.inc()
        if self._sweep_points is not None:
            self._sweep_points.inc(len(points))
        if self._sweep_point_seconds is not None:
            self._sweep_point_seconds.observe(elapsed / len(points))
        stats.update(points=len(points), seconds=elapsed,
                     seconds_per_point=elapsed / len(points))
        if request.base.trace:
            stats["trace"] = document
        return SweepResponse(
            axes=request.axes,
            estimates=estimates,
            stats=stats)

    def _sweep_grid(self, base: EstimateRequest, points,
                    job: Optional[Job]):
        """``(estimates, engine stats)`` for the expanded grid; the
        engine counts only the points it computed."""
        keys = [point.key() for point in points]
        estimates = []
        with span("cache_lookup", tier=TIER_ESTIMATE):
            for key, point in zip(keys, points):
                self._record_base(key, point)
                estimates.append(self.cache.get(
                    TIER_ESTIMATE, key, revive=LeakageEstimate.from_dict))
        misses = [index for index, estimate in enumerate(estimates)
                  if estimate is MISS]
        if self._requests is not None and len(misses) < len(points):
            self._requests.inc(len(points) - len(misses), outcome="cached")
        if not misses:
            return estimates, {}

        # One engine axis with one override mapping per missing point:
        # the engine dedups geometries, kernels and RG mixtures itself.
        # No axis varies the characterization mode or cell subset, so
        # the technology alone tells the grid's characterizations apart.
        characterizations: Dict[Any, Any] = {}
        overrides = []
        for index in misses:
            point = points[index]
            characterization = characterizations.get(point.technology)
            if characterization is None:
                self._heartbeat(job)
                characterization = self._characterization(point)
                characterizations[point.technology] = characterization
            overrides.append({
                "characterization": characterization,
                "usage": self._usage(point, characterization),
                "n_cells": point.n_cells,
                "width": point.width_mm * 1e-3,
                "height": point.height_mm * 1e-3,
                "signal_probability": point.signal_probability,
            })
        axis = SweepAxis(name="point", values=tuple(misses),
                         overrides=tuple(overrides))

        def engine(method, thermal, checkpoint):
            result = run_sweep(
                None, None, base.n_cells, base.width_mm * 1e-3,
                base.height_mm * 1e-3, axes=(axis,), method=method,
                simplified_correlation=base.simplified_correlation,
                tolerance=base.tolerance, thermal=thermal, n_jobs=1,
                checkpoint=checkpoint)
            return result.estimates, result.stats

        def fallback(reason):
            fallbacks, stats = engine(FALLBACK_METHOD, None, None)
            return [self._mark_degraded(estimate, base, reason)
                    for estimate in fallbacks], stats

        (computed, stats), degraded = self._estimate_stage(
            base, job,
            lambda: engine(base.method, base.thermal,
                           None if job is None else job.check_alive),
            fallback, n_points=len(misses))
        for index, estimate in zip(misses, computed):
            estimates[index] = estimate
        if degraded:
            # A degraded grid is never cached, like a degraded request.
            if self._requests is not None:
                self._requests.inc(len(misses), outcome="degraded")
        else:
            self._store_estimates([(keys[index], estimates[index])
                                   for index in misses])
            self._count_computed(computed)
        return estimates, stats

    # -- what-if (delta) requests ------------------------------------------

    def _record_base(self, key: str, request: EstimateRequest) -> None:
        """Remember a served request so what-ifs can name it by hash."""
        with self._base_lock:
            self._base_requests[key] = request
            self._base_requests.move_to_end(key)
            while len(self._base_requests) > self.max_base_requests:
                evicted, _ = self._base_requests.popitem(last=False)
                self._bases.pop(evicted, None)

    def has_base(self, key: str) -> bool:
        """Whether a what-if naming ``key`` would find its base."""
        with self._base_lock:
            return key in self._base_requests

    def base_request(self, key: str) -> EstimateRequest:
        """The recorded request for ``key``.

        Process-mode serving ships it to worker processes with the
        what-if, so a worker forked after the base was recorded can
        still rebuild the base snapshot locally. Like :meth:`_base_for`,
        this is a what-if use: it refreshes the base's LRU position and
        raises :class:`UnknownBaseError` for a hash never served.
        """
        with self._base_lock:
            return self._use_base(key)[0]

    def _use_base(self, key: str):
        """``(request, snapshot)`` recorded for ``key`` (the snapshot
        None until built), each marked most recently used. Caller holds
        ``_base_lock``. Raises :class:`UnknownBaseError` when ``key``
        was never served (or has aged out).

        A base under a steady what-if stream must not age out behind
        the fresh estimates served between its what-ifs.
        """
        request = self._base_requests.get(key)
        if request is None:
            raise UnknownBaseError(
                f"unknown base {key!r}; run the full estimate first — "
                "the server records every estimate it serves under its "
                "content hash")
        self._base_requests.move_to_end(key)
        base = self._bases.get(key)
        if base is not None:
            self._bases.move_to_end(key)
        return request, base

    def base_store_stats(self) -> Dict[str, int]:
        """Counts for health introspection: recorded request documents
        and materialized :class:`BaseEstimate` snapshots."""
        with self._base_lock:
            return {"requests": len(self._base_requests),
                    "bases": len(self._bases)}

    def _base_for(self, key: str, job: Optional[Job] = None):
        """The (lazily built) :class:`BaseEstimate` for a request hash.

        Raises :class:`UnknownBaseError` when the hash was never served
        by this process, and whatever :class:`DeltaError` the snapshot
        build raises when the scenario cannot ride the delta engine
        (the caller maps that to a full-recompute fallback).
        """
        from repro.delta import BaseEstimate

        with self._base_lock:
            request, base = self._use_base(key)
        if base is not None:
            return base
        characterization = self._characterization(request)
        self._heartbeat(job)
        components = self._components(request, characterization)
        self._heartbeat(job)
        estimator = FullChipLeakageEstimator(
            characterization,
            self._usage(request, characterization),
            request.n_cells,
            request.width_mm * 1e-3,
            request.height_mm * 1e-3,
            components=components)
        base = BaseEstimate.from_estimator(estimator)
        with self._base_lock:
            self._bases[key] = base
            self._bases.move_to_end(key)
            while len(self._bases) > self.max_bases:
                self._bases.popitem(last=False)
        return base

    def _edited_request(self, request: EstimateRequest,
                        edits) -> EstimateRequest:
        """The edited scenario as a standalone full request (the
        fallback path), folding edits exactly as the delta engine does."""
        from dataclasses import replace

        from repro.delta.edits import FloorplanResizeEdit

        characterization = self._characterization(request)
        usage = self._usage(request, characterization)
        fractions = dict(usage.items())
        n_cells = request.n_cells
        width = request.width_mm * 1e-3
        height = request.height_mm * 1e-3
        for edit in edits:
            if isinstance(edit, FloorplanResizeEdit):
                n_cells = (edit.n_cells if edit.n_cells is not None
                           else n_cells)
                width = edit.width if edit.width is not None else width
                height = edit.height if edit.height is not None else height
            else:
                edit.apply(fractions, n_cells)
        return replace(
            request,
            usage=tuple(sorted(fractions.items())),
            n_cells=n_cells,
            width_mm=width * 1e3,
            height_mm=height * 1e3)

    def whatif(self, request: WhatIfRequest,
               job: Optional[Job] = None) -> LeakageEstimate:
        """Answer a what-if request against a server-held base.

        The happy path runs :func:`repro.delta.engine.estimate_delta`
        against the (lazily built, then cached) base snapshot; a
        :class:`DeltaError` anywhere along it degrades to a full
        recompute of the edited scenario with
        ``details["delta"]["fallback_reason"]`` set. Unknown base
        hashes raise :class:`UnknownBaseError` (HTTP 404). Delta
        results are never written to the estimate cache tier — they are
        tolerance-close, and the cache only ever holds the exact answer
        for a key.
        """
        return self._traced("whatif", self._whatif, request, job,
                            base=request.base[:12],
                            n_edits=len(request.edits))

    def _whatif(self, request: WhatIfRequest,
                job: Optional[Job] = None) -> LeakageEstimate:
        from repro.delta import estimate_delta

        start = time.perf_counter()
        edits = request.parsed_edits()
        self._heartbeat(job)
        estimate = None
        fallback_reason = None
        fallback_label = None
        try:
            base = self._base_for(request.base, job)
            self._heartbeat(job)
            estimate = estimate_delta(base, edits)
        except DeltaError as exc:
            fallback_reason = f"{type(exc).__name__}: {exc}"
            fallback_label = ("incompatible"
                              if "Incompatible" in type(exc).__name__
                              else "delta_error")

        if fallback_reason is not None:
            derived = self._edited_request(self.base_request(request.base),
                                           edits)
            estimate = self._run(derived, job)
            estimate = estimate.with_details(delta={
                "edits": len(edits),
                "fallback": True,
                "fallback_reason": fallback_reason,
            })
            if self._delta_requests is not None:
                self._delta_requests.inc(outcome="fallback")
            if self._delta_fallbacks is not None:
                self._delta_fallbacks.inc(reason=fallback_label)
        else:
            if self._delta_requests is not None:
                self._delta_requests.inc(outcome="hit")
        if self._request_seconds is not None:
            self._request_seconds.observe(time.perf_counter() - start,
                                          method=estimate.method)
        return estimate
