"""Declarative estimation requests and their job lifecycle.

An :class:`EstimateRequest` captures everything the estimation pipeline
needs — the process configuration, the characterization mode, the usage
histogram, the design geometry, and the estimator knobs — as plain
data. Requests canonicalize deterministically (sorted usage entries,
native-scalar coercion, priority excluded) so that byte-identical
canonical JSON <=> the same computation, which is what the
content-addressed cache and the scheduler's request coalescing key on.

A :class:`Job` wraps one scheduled request: priority, state machine
(``queued -> running -> done | failed | cancelled``), timestamps, the
result or error, and the cooperative cancellation/deadline hooks the
pipeline polls between stages.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError, ServiceError

#: Bump when the request canonicalization or the estimator contract
#: changes incompatibly; it prefixes every content hash, so old cache
#: entries (and old in-flight coalescing keys) can never alias new ones.
REQUEST_SCHEMA_VERSION = 1

_METHODS = ("auto", "linear", "integral2d", "polar", "exact")
_MODES = ("analytical", "montecarlo")


class QueueFullError(ServiceError):
    """The scheduler's bounded queue rejected a new job (backpressure)."""


class JobTimeoutError(ServiceError):
    """A job exceeded its deadline (in queue, running, or while waited on)."""


class JobCancelledError(ServiceError):
    """A job was cancelled before it produced a result."""


class JobFailedError(ServiceError):
    """A job's computation raised; the message carries the cause."""


class DeadlineExceeded(JobTimeoutError, JobFailedError):
    """The *job's own* deadline lapsed before it produced a result.

    Distinct from a caller's ``wait(timeout=...)`` patience running out
    (plain :class:`JobTimeoutError`, job still in flight): here the job
    itself is terminally failed — expired in queue, aborted at a
    pipeline stage boundary, or abandoned by the supervisor after a
    hang. Subclasses both :class:`JobTimeoutError` and
    :class:`JobFailedError` so pre-existing handlers for either keep
    working; catch ``DeadlineExceeded`` first for the precise case.
    """


class JobState:
    """String states of the job lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    FINISHED = (DONE, FAILED, CANCELLED)


def _canonical_json(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _content_hash(prefix: str, document: Any) -> str:
    payload = f"{prefix}:v{REQUEST_SCHEMA_VERSION}:" + _canonical_json(
        document)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TechnologyConfig:
    """Serializable description of the synthetic process to build.

    Mirrors the CLI's technology arguments: WID correlation length,
    D2D variance fraction, total relative L sigma, and an optional
    junction-temperature retarget.
    """

    corr_length_mm: float = 0.5
    d2d_fraction: float = 0.5
    sigma_l: float = 0.05
    temperature_c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.corr_length_mm <= 0:
            raise ConfigurationError(
                f"corr_length_mm must be positive, got {self.corr_length_mm!r}")
        if not 0.0 <= self.d2d_fraction <= 1.0:
            raise ConfigurationError(
                f"d2d_fraction must be in [0, 1], got {self.d2d_fraction!r}")
        if self.sigma_l <= 0:
            raise ConfigurationError(
                f"sigma_l must be positive, got {self.sigma_l!r}")
        if self.temperature_c is not None \
                and not self.temperature_c + 273.15 > 0:
            raise ConfigurationError(
                "temperature_c must be above absolute zero, got "
                f"{self.temperature_c!r}")

    def build(self):
        """Construct the :class:`~repro.process.technology.Technology`."""
        from repro.process.technology import synthetic_90nm

        technology = synthetic_90nm(
            correlation_length=self.corr_length_mm * 1e-3,
            d2d_fraction=self.d2d_fraction,
            relative_sigma_l=self.sigma_l)
        if self.temperature_c is not None:
            technology = technology.at_temperature(self.temperature_c + 273.15)
        return technology

    def to_dict(self) -> Dict[str, Any]:
        return {
            "corr_length_mm": float(self.corr_length_mm),
            "d2d_fraction": float(self.d2d_fraction),
            "sigma_l": float(self.sigma_l),
            "temperature_c": (None if self.temperature_c is None
                              else float(self.temperature_c)),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "TechnologyConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ConfigurationError(
                f"unknown technology fields: {sorted(unknown)}")
        return cls(**dict(document))


@dataclass(frozen=True)
class EstimateRequest:
    """One declarative full-chip estimation request.

    Parameters
    ----------
    n_cells / width_mm / height_mm:
        Design geometry (cell count and die dimensions in millimetres).
    usage:
        Usage histogram as a name -> fraction mapping; ``None`` means
        uniform over the characterized cells. Stored canonically as a
        name-sorted tuple of pairs.
    signal_probability:
        Primary-input signal probability.
    method / n_jobs / tolerance:
        Estimator selection and knobs, forwarded to
        :meth:`FullChipLeakageEstimator.estimate`. ``n_jobs`` is part of
        the content hash: parallel reductions are deterministic but may
        differ from serial ones in the last ulp, and the cache promises
        bit-identical results for identical requests.
    mode:
        Characterization mode (``analytical`` or ``montecarlo``).
    technology:
        Process configuration (see :class:`TechnologyConfig`).
    cells:
        Optional subset of library cells to characterize; ``None`` means
        the full library. Stored sorted.
    thermal:
        Optional self-consistent power–thermal solve configuration
        (:class:`repro.thermal.ThermalConfig` or its dict form; see
        ``docs/THERMAL.md``). Part of the content hash **only when
        set**: isothermal requests keep their historical hashes (and
        cached entries) byte-for-byte, while any thermal configuration
        — including the all-defaults one — hashes distinctly from no
        thermal at all. Coupled (``feedback=true``) solves require
        ``mode="analytical"``, ``simplified_correlation=true``, and
        ``method`` in ``auto``/``linear``; violations are rejected at
        request construction (HTTP 400), never inside the solver.
    priority:
        Scheduling priority (higher runs first). **Not** part of the
        content hash — priority affects *when* a job runs, never what it
        computes — so jobs differing only in priority coalesce.
    allow_degraded:
        Whether a failing or deadline-starved ``method="exact"`` run may
        fall back to the O(1) Random-Gate estimate (marked
        ``details["degraded"]=True``; see ``docs/RELIABILITY.md``).
        Also excluded from the content hash: degraded results are never
        cached, so when no degradation fires the computation is
        identical either way.
    trace:
        Request a per-stage trace of the computation. Excluded from the
        content hash — tracing observes clocks but never changes the
        numeric result (asserted in ``tests/obs/``) — so traced and
        untraced requests coalesce and share cache entries. The trace
        document lands in ``details["trace"]`` of the returned estimate
        and on the job snapshot (``GET /v1/jobs/<id>``); cached entries
        never store traces.
    """

    n_cells: int
    width_mm: float
    height_mm: float
    usage: Optional[Tuple[Tuple[str, float], ...]] = None
    signal_probability: float = 0.5
    method: str = "auto"
    n_jobs: int = 1
    tolerance: float = 0.0
    mode: str = "analytical"
    technology: TechnologyConfig = field(default_factory=TechnologyConfig)
    cells: Optional[Tuple[str, ...]] = None
    simplified_correlation: Optional[bool] = None
    thermal: Optional[Any] = None
    priority: int = 0
    allow_degraded: bool = True
    trace: bool = False

    def __post_init__(self) -> None:
        if int(self.n_cells) < 1:
            raise ConfigurationError(
                f"n_cells must be >= 1, got {self.n_cells!r}")
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if self.width_mm <= 0 or self.height_mm <= 0:
            raise ConfigurationError(
                "die dimensions must be positive, got "
                f"{self.width_mm!r} x {self.height_mm!r}")
        object.__setattr__(self, "width_mm", float(self.width_mm))
        object.__setattr__(self, "height_mm", float(self.height_mm))
        if not 0.0 <= self.signal_probability <= 1.0:
            raise ConfigurationError(
                "signal_probability must be in [0, 1], got "
                f"{self.signal_probability!r}")
        object.__setattr__(self, "signal_probability",
                           float(self.signal_probability))
        if self.method not in _METHODS:
            raise ConfigurationError(
                f"unknown method {self.method!r}; choose one of {_METHODS}")
        n_jobs = int(self.n_jobs)
        if n_jobs != -1 and n_jobs < 1:
            raise ConfigurationError(
                f"n_jobs must be positive or -1, got {self.n_jobs!r}")
        object.__setattr__(self, "n_jobs", n_jobs)
        if self.tolerance < 0:
            raise ConfigurationError(
                f"tolerance must be non-negative, got {self.tolerance!r}")
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"unknown characterization mode {self.mode!r}")
        if self.usage is not None:
            if isinstance(self.usage, Mapping):
                entries = self.usage.items()
            else:
                entries = tuple(self.usage)
            canonical = tuple(sorted(
                (str(name), float(fraction)) for name, fraction in entries))
            if not canonical:
                raise ConfigurationError("usage histogram must be non-empty")
            for name, fraction in canonical:
                if fraction < 0:
                    raise ConfigurationError(
                        f"usage fraction for {name!r} must be non-negative")
            object.__setattr__(self, "usage", canonical)
        if self.cells is not None:
            cells = tuple(sorted(str(name) for name in self.cells))
            if not cells:
                raise ConfigurationError("cells subset must be non-empty")
            object.__setattr__(self, "cells", cells)
        if not isinstance(self.technology, TechnologyConfig):
            object.__setattr__(self, "technology",
                               TechnologyConfig.from_dict(self.technology))
        if self.simplified_correlation is not None:
            object.__setattr__(self, "simplified_correlation",
                               bool(self.simplified_correlation))
        if self.thermal is not None:
            from repro.exceptions import EstimationError
            from repro.thermal.config import ThermalConfig

            try:
                thermal = ThermalConfig.from_dict(self.thermal)
            except EstimationError as exc:
                # Config-shape problems are the caller's fault: surface
                # them as 400s, not as 502 estimation failures.
                raise ConfigurationError(str(exc)) from exc
            if self.mode != "analytical":
                raise ConfigurationError(
                    "thermal estimation re-characterizes the library at "
                    "solver-chosen temperatures, which requires "
                    "mode='analytical'")
            if thermal.feedback and self.simplified_correlation is not True:
                raise ConfigurationError(
                    "thermal feedback requires "
                    "simplified_correlation=true (the coupled variance "
                    "maps the RG covariance onto per-site sigmas)")
            if thermal.feedback and self.method not in ("auto", "linear"):
                raise ConfigurationError(
                    "thermal feedback supports method 'auto' or "
                    f"'linear', got {self.method!r}")
            object.__setattr__(self, "thermal", thermal)
        object.__setattr__(self, "priority", int(self.priority))
        object.__setattr__(self, "allow_degraded", bool(self.allow_degraded))
        object.__setattr__(self, "trace", bool(self.trace))

    # -- canonicalization / content addressing ---------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        """The content of the request — everything that determines the
        result (``priority``, ``allow_degraded`` and ``trace`` are
        excluded; see the field docs)."""
        document = {
            "n_cells": self.n_cells,
            "width_mm": self.width_mm,
            "height_mm": self.height_mm,
            "usage": (None if self.usage is None
                      else [[name, fraction] for name, fraction in self.usage]),
            "signal_probability": self.signal_probability,
            "method": self.method,
            "n_jobs": self.n_jobs,
            "tolerance": self.tolerance,
            "mode": self.mode,
            "technology": self.technology.to_dict(),
            "cells": None if self.cells is None else list(self.cells),
            "simplified_correlation": self.simplified_correlation,
        }
        if self.thermal is not None:
            # Included only when set: isothermal requests keep their
            # historical content hashes (and cache entries) unchanged.
            document["thermal"] = self.thermal.to_dict()
        return document

    def canonical_json(self) -> str:
        return _canonical_json(self.canonical_dict())

    def key(self) -> str:
        """Content hash of the full request (the ``estimate`` cache tier)."""
        return _content_hash("estimate", self.canonical_dict())

    def characterization_key(self) -> str:
        """Content hash of the characterization-determining subset.

        Characterization (eqs. (1)-(5)) reads the total L sigma and the
        operating temperature of the technology, the mode and the cell
        subset — not the WID correlation length or the D2D/WID split,
        which enter only at chip level, nor usage, geometry or the
        estimator knobs. So correlation-only revisits of a corner, and
        different designs under one corner, share one entry.
        """
        technology = self.technology.to_dict()
        return _content_hash("characterization", {
            "sigma_l": technology["sigma_l"],
            "temperature_c": technology["temperature_c"],
            "mode": self.mode,
            "cells": None if self.cells is None else list(self.cells),
        })

    def rg_key(self) -> str:
        """Content hash of the Random-Gate-determining subset.

        The RG statistics (eqs. (6)-(11)) depend on the characterized
        library plus the usage histogram and signal probability — not on
        the die geometry, the estimator method or the correlation (the
        RG reads the total L sigma only) — so sweeps over cell count /
        die size / method / correlation reuse one RG bundle.
        """
        return _content_hash("rg", {
            "characterization": self.characterization_key(),
            "usage": (None if self.usage is None
                      else [[name, fraction] for name, fraction in self.usage]),
            "signal_probability": self.signal_probability,
            "simplified_correlation": self.simplified_correlation,
        })

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Wire format: the canonical content plus the non-hashed knobs."""
        document = self.canonical_dict()
        document["priority"] = self.priority
        document["allow_degraded"] = self.allow_degraded
        document["trace"] = self.trace
        return document

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "EstimateRequest":
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"request must be a JSON object, got {type(document).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ConfigurationError(
                f"unknown request fields: {sorted(unknown)}")
        data = dict(document)
        usage = data.get("usage")
        if usage is not None and not isinstance(usage, Mapping):
            data["usage"] = tuple((name, fraction) for name, fraction in usage)
        technology = data.get("technology")
        if technology is not None and not isinstance(technology,
                                                     TechnologyConfig):
            data["technology"] = TechnologyConfig.from_dict(technology)
        for required in ("n_cells", "width_mm", "height_mm"):
            if required not in data:
                raise ConfigurationError(
                    f"request is missing required field {required!r}")
        return cls(**data)

    def with_priority(self, priority: int) -> "EstimateRequest":
        return replace(self, priority=int(priority))


_job_counter = itertools.count(1)


class Job:
    """One scheduled estimation request and its lifecycle."""

    def __init__(self, request: EstimateRequest,
                 deadline: Optional[float] = None) -> None:
        self.id = f"job-{next(_job_counter):06d}-{request.key()[:12]}"
        self.request = request
        self.key = request.key()
        self.priority = request.priority
        self.state = JobState.QUEUED
        self.created_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.result = None
        self.error: Optional[str] = None
        #: Failure taxonomy: ``deadline`` | ``cancelled`` | ``crash`` |
        #: ``error`` | ``shutdown`` (None while unfinished / on success).
        #: ``wait()`` callers use it to raise the matching typed error.
        self.error_kind: Optional[str] = None
        #: Monotonic-clock deadline (``time.monotonic()`` units), or None.
        self.deadline = deadline
        #: How many submissions this job absorbed beyond the first.
        self.coalesced = 0
        #: How many times a worker crash sent this job back to the queue.
        self.requeues = 0
        #: The finished per-stage trace document (set by the pipeline
        #: for every computed job; surfaced on the snapshot).
        self.trace: Optional[Dict[str, Any]] = None
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._finish_lock = threading.Lock()

    # -- cooperative cancellation / deadline ------------------------------

    def cancel(self) -> None:
        """Request cancellation; honored at the next stage boundary."""
        self._cancel.set()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def check_alive(self) -> None:
        """Raise if the job should stop (pipeline calls this between stages)."""
        if self._cancel.is_set():
            raise JobCancelledError(f"job {self.id} was cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded(f"job {self.id} exceeded its deadline")

    def time_remaining(self) -> Optional[float]:
        """Seconds until the deadline (None when the job has none)."""
        if self.deadline is None:
            return None
        return self.deadline - time.monotonic()

    # -- state transitions (driven by the scheduler) ----------------------

    def mark_running(self) -> None:
        self.state = JobState.RUNNING
        self.started_at = time.time()

    def requeue(self) -> None:
        """Send the job back to the queue after its worker crashed."""
        self.state = JobState.QUEUED
        self.started_at = None
        self.requeues += 1

    def finish(self, state: str, result=None, error: Optional[str] = None,
               kind: Optional[str] = None) -> bool:
        """Finish the job exactly once; False when already finished.

        Idempotence matters under supervision: an abandoned (hung)
        worker may eventually complete its computation after the
        supervisor already failed the job — the late outcome must be
        dropped, not overwrite the terminal state waiters observed.
        """
        with self._finish_lock:
            if self._done.is_set():
                return False
            self.state = state
            self.result = result
            self.error = error
            self.error_kind = kind
            self.finished_at = time.time()
            self._done.set()
            return True

    @property
    def finished(self) -> bool:
        return self.state in JobState.FINISHED

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True when it did."""
        return self._done.wait(timeout)

    # -- views ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON view for ``GET /v1/jobs/<id>``."""
        document: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "key": self.key,
            "priority": self.priority,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "coalesced": self.coalesced,
            "requeues": self.requeues,
            "request": self.request.to_dict(),
        }
        if self.error is not None:
            document["error"] = self.error
        if self.error_kind is not None:
            document["error_kind"] = self.error_kind
        if self.result is not None:
            document["estimate"] = self.result.to_dict()
        if self.trace is not None:
            document["trace"] = self.trace
        return document

    def __repr__(self) -> str:
        return f"Job(id={self.id!r}, state={self.state!r})"
