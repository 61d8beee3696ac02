"""Batched parameter-sweep requests for the estimation service.

A :class:`SweepRequest` is a base :class:`~repro.service.jobs.EstimateRequest`
plus one or more axes, each varying a single request field over a list
of values. The request expands into the full cartesian grid of derived
single-point requests (C-order, first axis slowest) and runs as **one**
scheduler job: one queue slot, one deadline, one coalescing key.
:meth:`~repro.service.pipeline.EstimationPipeline.sweep` serves the
grid points already in the estimate tier and sends the rest through one
call of the batched sweep engine (:mod:`repro.core.sweep`), so

* each point's estimate is bit-identical to what a standalone
  ``POST /v1/estimate`` for the derived request would return,
* the grid shares its work: one characterization per technology, one
  lag-kernel pass per floorplan, one Random-Gate bundle per usage and
  signal probability, and
* each computed point lands in the estimate tier — later single-point
  requests for any grid point hit a warm cache.

Every axis value is checked against the base request at construction,
so a bad value is a client error, never a failed job.

Axes address exactly the fields a planner sweeps (see
``docs/SERVICE.md``): ``n_cells``, ``die`` (``[w_mm, h_mm]`` pairs),
``signal_probability``, ``usage`` (histogram per point),
``temperature_c``, ``corr_length_mm``, ``d2d_fraction``, ``sigma_l``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.api import LeakageEstimate
from repro.exceptions import ConfigurationError
from repro.service.jobs import EstimateRequest, _content_hash

#: Axes varying a top-level request field.
_REQUEST_AXES = ("n_cells", "signal_probability", "usage")
#: Axes varying a field of the nested :class:`TechnologyConfig`.
_TECHNOLOGY_AXES = ("temperature_c", "corr_length_mm", "d2d_fraction",
                    "sigma_l")
#: All valid axis names (``die`` bundles ``width_mm``/``height_mm``).
SWEEP_AXES = _REQUEST_AXES + _TECHNOLOGY_AXES + ("die",)

#: Hard cap on the expanded grid; a sweep is one job and one deadline,
#: so an unbounded grid would turn into an unbounded queue hold.
MAX_SWEEP_POINTS = 4096


def _canonical_usage(value: Any) -> Tuple[Tuple[str, float], ...]:
    if isinstance(value, Mapping):
        entries = value.items()
    else:
        entries = tuple(value)
    canonical = tuple(sorted(
        (str(name), float(fraction)) for name, fraction in entries))
    if not canonical:
        raise ConfigurationError("usage axis values must be non-empty")
    return canonical


@dataclass(frozen=True)
class SweepAxisSpec:
    """One axis of a service sweep: a request field and its values."""

    name: str
    values: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.name not in SWEEP_AXES:
            raise ConfigurationError(
                f"unknown sweep axis {self.name!r}; "
                f"choose one of {SWEEP_AXES}")
        values = tuple(self.values)
        if not values:
            raise ConfigurationError(
                f"sweep axis {self.name!r} needs at least one value")
        if self.name == "n_cells":
            values = tuple(int(value) for value in values)
        elif self.name == "die":
            canonical = []
            for value in values:
                pair = tuple(float(entry) for entry in value)
                if len(pair) != 2:
                    raise ConfigurationError(
                        "die axis values must be [width_mm, height_mm] "
                        f"pairs, got {value!r}")
                canonical.append(pair)
            values = tuple(canonical)
        elif self.name == "usage":
            values = tuple(_canonical_usage(value) for value in values)
        else:
            values = tuple(float(value) for value in values)
        object.__setattr__(self, "values", values)

    def apply(self, request: EstimateRequest,
              value: Any) -> EstimateRequest:
        """The derived request with this axis pinned to ``value``.

        ``dataclasses.replace`` re-runs the request's canonicalization,
        so a derived request is indistinguishable from one built
        directly with the same fields.
        """
        if self.name == "die":
            return replace(request, width_mm=value[0], height_mm=value[1])
        if self.name in _TECHNOLOGY_AXES:
            technology = replace(request.technology, **{self.name: value})
            return replace(request, technology=technology)
        return replace(request, **{self.name: value})

    def to_dict(self) -> Dict[str, Any]:
        if self.name == "usage":
            values = [[[name, fraction] for name, fraction in value]
                      for value in self.values]
        elif self.name == "die":
            values = [list(value) for value in self.values]
        else:
            values = list(self.values)
        return {"name": self.name, "values": values}

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SweepAxisSpec":
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"sweep axis must be a JSON object, got "
                f"{type(document).__name__}")
        unknown = set(document) - {"name", "values"}
        if unknown:
            raise ConfigurationError(
                f"unknown sweep axis fields: {sorted(unknown)}")
        for required in ("name", "values"):
            if required not in document:
                raise ConfigurationError(
                    f"sweep axis is missing required field {required!r}")
        return cls(name=str(document["name"]),
                   values=tuple(document["values"]))


@dataclass(frozen=True)
class SweepRequest:
    """A cartesian parameter sweep over a base estimation request.

    ``priority`` mirrors :class:`EstimateRequest` semantics: it orders
    the (single) sweep job in the queue and is excluded from the
    content hash, so identical concurrent sweeps coalesce.
    """

    base: EstimateRequest
    axes: Tuple[SweepAxisSpec, ...]
    priority: int = 0

    def __post_init__(self) -> None:
        base = self.base
        if not isinstance(base, EstimateRequest):
            base = EstimateRequest.from_dict(base)
            object.__setattr__(self, "base", base)
        axes = tuple(
            axis if isinstance(axis, SweepAxisSpec)
            else SweepAxisSpec.from_dict(axis)
            for axis in self.axes)
        if not axes:
            raise ConfigurationError("a sweep needs at least one axis")
        names = [axis.name for axis in axes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"duplicate sweep axes: {sorted(names)}")
        object.__setattr__(self, "axes", axes)
        points = 1
        for axis in axes:
            points *= len(axis.values)
        if points > MAX_SWEEP_POINTS:
            raise ConfigurationError(
                f"sweep grid has {points} points; the limit is "
                f"{MAX_SWEEP_POINTS} (split the sweep)")
        # Axes set disjoint request fields, so a value the base rejects
        # is rejected at every grid point: checking each value against
        # the base alone answers a bad value with a 400 at parse time.
        for axis in axes:
            for value in axis.values:
                axis.apply(base, value)
        object.__setattr__(self, "priority", int(self.priority))

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    @property
    def n_points(self) -> int:
        points = 1
        for axis in self.axes:
            points *= len(axis.values)
        return points

    def expand(self) -> List[EstimateRequest]:
        """The derived per-point requests, C-order (first axis slowest)."""
        requests = []
        for combination in itertools.product(
                *(axis.values for axis in self.axes)):
            request = self.base
            for axis, value in zip(self.axes, combination):
                request = axis.apply(request, value)
            requests.append(request)
        return requests

    # -- content addressing / serialization -------------------------------

    def canonical_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.canonical_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }

    def key(self) -> str:
        return _content_hash("sweep", self.canonical_dict())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SweepRequest":
        if not isinstance(document, Mapping):
            raise ConfigurationError(
                f"sweep request must be a JSON object, got "
                f"{type(document).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(document) - known
        if unknown:
            raise ConfigurationError(
                f"unknown sweep request fields: {sorted(unknown)}")
        for required in ("base", "axes"):
            if required not in document:
                raise ConfigurationError(
                    f"sweep request is missing required field {required!r}")
        return cls(base=document["base"],
                   axes=tuple(document["axes"]),
                   priority=int(document.get("priority", 0)))


@dataclass
class SweepResponse:
    """The per-point estimates of one sweep job, C-order over the grid."""

    axes: Tuple[SweepAxisSpec, ...]
    estimates: List[LeakageEstimate]
    stats: Dict[str, Any]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(axis.values) for axis in self.axes)

    def __len__(self) -> int:
        return len(self.estimates)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axes": [axis.to_dict() for axis in self.axes],
            "shape": list(self.shape),
            "estimates": [estimate.to_dict()
                          for estimate in self.estimates],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "SweepResponse":
        return cls(
            axes=tuple(SweepAxisSpec.from_dict(axis)
                       for axis in document["axes"]),
            estimates=[LeakageEstimate.from_dict(estimate)
                       for estimate in document["estimates"]],
            stats=dict(document.get("stats", {})))
