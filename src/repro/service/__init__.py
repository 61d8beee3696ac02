"""Long-running estimation service over the estimator core.

Turns the library's one-shot estimation pipeline into an operable
serving layer: declarative requests with content-addressed identity
(:mod:`~repro.service.jobs`), a tiered result cache with checksummed
disk persistence and quarantine (:mod:`~repro.service.cache`), a
supervised worker-pool scheduler with request coalescing, backpressure,
deadlines, and crash/hang recovery (:mod:`~repro.service.scheduler`), a
stdlib HTTP API with liveness/readiness probes and graceful drain
(:mod:`~repro.service.http`), a hardened HTTP client with retries and a
circuit breaker (:mod:`~repro.service.client`), Prometheus-format
metrics (:mod:`~repro.service.metrics`), and deterministic fault
injection for chaos testing (:mod:`~repro.service.faults`).
:class:`ServiceClient` is the in-process front-end; ``repro serve`` /
``repro submit`` are the CLI entries. See ``docs/SERVICE.md`` for the
architecture tour and ``docs/RELIABILITY.md`` for the failure-mode
catalog.
"""

from repro.service.cache import (
    ResultCache,
    TIER_CHARACTERIZATION,
    TIER_ESTIMATE,
    TIER_RG,
    cache_stamp,
    payload_checksum,
)
from repro.service.client import (
    CircuitBreaker,
    CircuitOpenError,
    NO_RETRY,
    RemoteClient,
    RetryPolicy,
    ServiceClient,
)
from repro.service.faults import (
    FaultInjector,
    FaultRule,
    InjectedFault,
    injector_from_env,
    parse_spec,
)
from repro.service.fleet import (
    FrontServer,
    HashRing,
    ReplicaFleet,
    create_front,
)
from repro.service.http import LeakageHTTPServer, create_server, serve
from repro.service.jobs import (
    DeadlineExceeded,
    EstimateRequest,
    Job,
    JobCancelledError,
    JobFailedError,
    JobState,
    JobTimeoutError,
    QueueFullError,
    TechnologyConfig,
)
from repro.service.metrics import MetricsRegistry
from repro.service.pipeline import EstimationPipeline
from repro.service.procworker import ProcessWorkerConfig
from repro.service.scheduler import EstimationScheduler
from repro.service.sweep import (
    MAX_SWEEP_POINTS,
    SWEEP_AXES,
    SweepAxisSpec,
    SweepRequest,
    SweepResponse,
)
from repro.service.whatif import WhatIfRequest

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceeded",
    "EstimateRequest",
    "EstimationPipeline",
    "EstimationScheduler",
    "FaultInjector",
    "FaultRule",
    "FrontServer",
    "HashRing",
    "InjectedFault",
    "Job",
    "ReplicaFleet",
    "JobCancelledError",
    "JobFailedError",
    "JobState",
    "JobTimeoutError",
    "LeakageHTTPServer",
    "MAX_SWEEP_POINTS",
    "MetricsRegistry",
    "NO_RETRY",
    "ProcessWorkerConfig",
    "QueueFullError",
    "RemoteClient",
    "ResultCache",
    "RetryPolicy",
    "SWEEP_AXES",
    "ServiceClient",
    "SweepAxisSpec",
    "SweepRequest",
    "SweepResponse",
    "TechnologyConfig",
    "TIER_CHARACTERIZATION",
    "TIER_ESTIMATE",
    "TIER_RG",
    "WhatIfRequest",
    "cache_stamp",
    "create_front",
    "create_server",
    "injector_from_env",
    "parse_spec",
    "payload_checksum",
    "serve",
]
