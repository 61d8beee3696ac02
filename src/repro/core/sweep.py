"""Batched parameter sweeps of the full-chip estimator.

Every multi-point workload the paper's model serves — HVT-fraction
searches, leakage-vs-temperature curves, correlation-length ablations,
what-if usage comparisons — evaluates the *same estimator* at a grid of
nearby scenarios. A naive loop re-derives everything per point; this
module exploits the structural separation of eq. (17):

* the **lag histogram of the placement is geometry-only** — the lag
  vectors and their multiplicities (:class:`~repro.core.estimators.linear.LagGeometry`)
  are computed once per distinct ``(n, W, H)`` and shared by every
  parameter point on that floorplan;
* the correlation kernel at the lags, ``rho_L``, depends only on the
  correlation model — it is computed once per distinct kernel and, for
  parametric families (exponential/Gaussian lengths sharing one distance
  grid, D2D-floor splits sharing one WID kernel evaluation), the
  distance/WID part is evaluated once for the whole axis;
* the RG mixture moments (eqs. 6–11) depend only on
  (characterization, usage, signal probability) — one
  :class:`~repro.core.api.RGComponents` build per distinct mix serves
  every geometry and correlation point;
* axes that *do* change geometry (cell count, die size) fan out through
  :func:`repro.parallel.parallel_map`.

Every grid point is **bit-identical** to the corresponding single-point
``FullChipLeakageEstimator(...).estimate(method)`` call: shared stages
are either the same objects the single-point path would build (pure,
deterministic constructions) or elementwise numpy expressions proven
identical to the per-point formulas — no algebraic refactoring of any
floating-point reduction is ever performed.

Entry point: :func:`repro.core.api.estimate_sweep`; axes are built with
the ``*_axis`` factories below.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.characterization.characterizer import (
    LibraryCharacterization,
    characterize_library,
)
from repro.core.api import (
    FullChipLeakageEstimator,
    LeakageEstimate,
    RGComponents,
    resolve_auto_method,
)
from repro.core.chip_model import FullChipModel
from repro.core.estimators.linear import LagGeometry
from repro.core.usage import CellUsage
from repro.exceptions import EstimationError
from repro.obs import Tracer, span
from repro.parallel import parallel_map, resolve_n_jobs
from repro.process.correlation import (
    AnisotropicCorrelation,
    CompositeCorrelation,
    ExponentialCorrelation,
    GaussianCorrelation,
    LinearCorrelation,
    ScaledCorrelation,
    SpatialCorrelation,
    SphericalCorrelation,
    TotalCorrelation,
    distance_xy,
)

#: Config keys an axis may override per point. The ``thermal_*`` keys
#: are sub-key overrides merged into the base ``thermal`` config by
#: :func:`_resolve_config`, so an ambient axis can cross a power-scale
#: axis without both claiming the whole ``thermal`` key.
CONFIG_KEYS = ("characterization", "usage", "n_cells", "width", "height",
               "signal_probability", "correlation", "thermal",
               "thermal_ambient", "thermal_power_scale")


@dataclass(frozen=True)
class SweepAxis:
    """One sweep dimension.

    Attributes
    ----------
    name:
        Axis identifier; must be unique within a sweep.
    values:
        One JSON-friendly label per point (used in results/reports).
    overrides:
        One mapping per point, each overriding base configuration keys
        (a subset of :data:`CONFIG_KEYS`).
    """

    name: str
    values: Tuple[Any, ...]
    overrides: Tuple[Mapping[str, Any], ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise EstimationError("sweep axis needs a non-empty name")
        if not self.values or len(self.values) != len(self.overrides):
            raise EstimationError(
                f"axis {self.name!r}: values and overrides must be "
                "non-empty and aligned")
        for override in self.overrides:
            unknown = set(override) - set(CONFIG_KEYS)
            if unknown:
                raise EstimationError(
                    f"axis {self.name!r} overrides unknown config keys "
                    f"{sorted(unknown)}; valid keys: {CONFIG_KEYS}")

    def __len__(self) -> int:
        return len(self.values)


def correlation_axis(correlations: Sequence[SpatialCorrelation],
                     values: Optional[Sequence[Any]] = None,
                     name: str = "correlation") -> SweepAxis:
    """Axis over total channel-length correlation models."""
    correlations = tuple(correlations)
    labels = (tuple(values) if values is not None
              else tuple(repr(c) for c in correlations))
    return SweepAxis(name=name, values=labels,
                     overrides=tuple({"correlation": c}
                                     for c in correlations))


def correlation_length_axis(lengths: Sequence[float], technology,
                            name: str = "correlation_length") -> SweepAxis:
    """Axis over WID correlation lengths [m] of a technology's kernel.

    Each point keeps the technology's D2D/WID split and swaps the WID
    exponential range — the "how far does variation reach" ablation.
    """
    correlations = []
    for length in lengths:
        tech = technology.with_correlation(
            ExponentialCorrelation(float(length)))
        correlations.append(tech.total_correlation)
    return correlation_axis(correlations,
                            values=tuple(float(x) for x in lengths),
                            name=name)


def d2d_split_axis(technology, fractions: Sequence[float],
                   name: str = "d2d_fraction") -> SweepAxis:
    """Axis over the sigma_D2D / sigma_WID variance split.

    All points share the same WID kernel object, so the batched lag
    evaluation computes the WID correlation once and applies each
    point's D2D floor as two elementwise operations.
    """
    correlations = [technology.with_length_split(float(f)).total_correlation
                    for f in fractions]
    return correlation_axis(correlations,
                            values=tuple(float(f) for f in fractions),
                            name=name)


def usage_axis(usages: Sequence[CellUsage],
               values: Optional[Sequence[Any]] = None,
               name: str = "usage") -> SweepAxis:
    """Axis over frequency-of-use mixes."""
    usages = tuple(usages)
    labels = (tuple(values) if values is not None
              else tuple({cell: float(frac) for cell, frac in u.items()}
                         for u in usages))
    return SweepAxis(name=name, values=labels,
                     overrides=tuple({"usage": u} for u in usages))


def signal_probability_axis(probabilities: Sequence[float],
                            name: str = "signal_probability") -> SweepAxis:
    """Axis over the primary-input signal probability."""
    ps = tuple(float(p) for p in probabilities)
    return SweepAxis(name=name, values=ps,
                     overrides=tuple({"signal_probability": p} for p in ps))


def cell_count_axis(counts: Sequence[int],
                    name: str = "n_cells") -> SweepAxis:
    """Axis over design cell counts (changes geometry: fans out)."""
    ns = tuple(int(n) for n in counts)
    return SweepAxis(name=name, values=ns,
                     overrides=tuple({"n_cells": n} for n in ns))


def die_axis(sizes: Sequence[Tuple[float, float]],
             name: str = "die") -> SweepAxis:
    """Axis over die ``(width, height)`` pairs [m] (changes geometry)."""
    pairs = tuple((float(w), float(h)) for w, h in sizes)
    return SweepAxis(
        name=name,
        values=tuple([w, h] for w, h in pairs),
        overrides=tuple({"width": w, "height": h} for w, h in pairs))


def temperature_axis(temperatures: Sequence[float], library, technology,
                     cells: Optional[Sequence[str]] = None,
                     name: str = "temperature") -> SweepAxis:
    """Axis over junction temperatures [K].

    Re-characterizes the (optionally restricted) library once per
    temperature — eagerly, so the expensive characterizations happen
    exactly once regardless of how many grid points share each
    temperature.
    """
    temps = tuple(float(t) for t in temperatures)
    overrides = []
    for temperature in temps:
        tech_t = technology.at_temperature(temperature)
        characterization = characterize_library(library, tech_t,
                                                cells=cells)
        overrides.append({"characterization": characterization})
    return SweepAxis(name=name, values=temps, overrides=tuple(overrides))


def ambient_temperature_axis(temperatures: Sequence[float],
                             name: str = "ambient") -> SweepAxis:
    """Axis over coupled-solver ambient temperatures [K].

    Each point runs the self-consistent power–thermal solve at that
    ambient (merged into the sweep's base ``thermal`` config, or the
    default :class:`~repro.thermal.ThermalConfig` when none is given).
    Unlike :func:`temperature_axis` — which re-characterizes at a fixed
    junction temperature — the ambient axis lets each point find its
    own junction temperature map.
    """
    temps = []
    for temperature in temperatures:
        temperature = float(temperature)
        if not temperature > 0.0:
            raise EstimationError(
                f"ambient temperatures must be > 0 K, got "
                f"{temperature!r} (absolute kelvin, not celsius)")
        temps.append(temperature)
    return SweepAxis(name=name, values=tuple(temps),
                     overrides=tuple({"thermal_ambient": t}
                                     for t in temps))


def power_scale_axis(scales: Sequence[float],
                     name: str = "power_scale") -> SweepAxis:
    """Axis over the thermal power-map scale (the loading ablation).

    Sweeping it traces the leakage-vs-dissipation trajectory — how the
    estimate degrades as the same die is driven harder — up to the
    thermal-runaway boundary where the solver raises.
    """
    values = []
    for scale in scales:
        scale = float(scale)
        if not scale >= 0.0:
            raise EstimationError(
                f"power scales must be >= 0, got {scale!r}")
        values.append(scale)
    return SweepAxis(name=name, values=tuple(values),
                     overrides=tuple({"thermal_power_scale": s}
                                     for s in values))


@dataclass(frozen=True)
class SweepResult:
    """Estimates over a full sweep grid, in C (row-major) order.

    ``axes``/``shape``/``values`` describe the grid; ``estimates[i]``
    belongs to the multi-index ``np.unravel_index(i, shape)``. ``stats``
    counts the shared-stage work actually performed (RG builds, kernel
    evaluations, geometries) — the amortization ledger. ``trace`` is the
    profiling document of a ``trace=True`` run (``None`` otherwise; see
    ``docs/OBSERVABILITY.md``).
    """

    axes: Tuple[str, ...]
    shape: Tuple[int, ...]
    values: Tuple[Tuple[Any, ...], ...]
    estimates: Tuple[LeakageEstimate, ...]
    stats: Dict[str, int] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.estimates)

    def __iter__(self) -> Iterator[LeakageEstimate]:
        return iter(self.estimates)

    def __getitem__(self, index: Union[int, Tuple[int, ...]]
                    ) -> LeakageEstimate:
        if isinstance(index, tuple):
            index = int(np.ravel_multi_index(index, self.shape))
        return self.estimates[index]

    def coords(self, index: int) -> Dict[str, Any]:
        """Axis labels of the flat grid ``index``."""
        multi = np.unravel_index(int(index), self.shape)
        return {name: self.values[axis][pos]
                for axis, (name, pos) in enumerate(zip(self.axes, multi))}

    def grid(self) -> np.ndarray:
        """The estimates as an object ndarray of shape :attr:`shape`."""
        out = np.empty(len(self.estimates), dtype=object)
        out[:] = self.estimates
        return out.reshape(self.shape)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (service wire format)."""
        document = {
            "axes": list(self.axes),
            "shape": list(self.shape),
            "values": [list(axis_values) for axis_values in self.values],
            "estimates": [estimate.to_dict()
                          for estimate in self.estimates],
            "stats": {str(k): int(v) for k, v in self.stats.items()},
        }
        if self.trace is not None:
            document["trace"] = self.trace
        return document


@dataclass(frozen=True)
class _SweepSpec:
    """Everything a (possibly remote) evaluation worker needs."""

    configs: Tuple[Mapping[str, Any], ...]
    method: str
    simplified_correlation: Optional[bool]
    state_weights: Any
    tolerance: float


def _correlation_key(correlation: SpatialCorrelation) -> Tuple[Any, ...]:
    """Value-based cache key for known kernel families.

    Two correlations with equal keys evaluate bit-identically at the
    same lags (the kernels are pure functions of their parameters), so
    value keying lets e.g. the per-temperature ``total_correlation``
    rebuilds share one lag evaluation. Exact ``type`` checks keep
    user subclasses (which may override the formula) on identity keys.
    """
    kind = type(correlation)
    if kind is TotalCorrelation:
        return ("total", _correlation_key(correlation.wid),
                float(correlation.rho_floor))
    if kind is ScaledCorrelation:
        return ("scaled", _correlation_key(correlation.base),
                float(correlation.scale))
    if kind is ExponentialCorrelation:
        return ("exponential", float(correlation.length))
    if kind is GaussianCorrelation:
        return ("gaussian", float(correlation.length))
    if kind is LinearCorrelation:
        return ("linear", float(correlation.dmax))
    if kind is SphericalCorrelation:
        return ("spherical", float(correlation.dmax))
    if kind is AnisotropicCorrelation:
        return ("anisotropic", _correlation_key(correlation.base),
                float(correlation.scale_x), float(correlation.scale_y))
    if kind is CompositeCorrelation:
        return ("composite",
                tuple(_correlation_key(c) for c in correlation.components),
                tuple(correlation.weights))
    return ("identity", id(correlation))


def _usage_key(usage: CellUsage) -> Tuple[Any, ...]:
    return (usage.names, usage.fractions.tobytes())


def _batched_lag_rho(geometry: LagGeometry,
                     correlations: Mapping[Tuple[Any, ...],
                                           SpatialCorrelation],
                     stats: Dict[str, int]) -> Dict[Tuple[Any, ...],
                                                    np.ndarray]:
    """``rho_L`` at the lags for every distinct kernel, family-batched.

    Shares the axis-invariant part of the evaluation across the whole
    family — the distance grid for exponential/Gaussian length families,
    the WID kernel evaluation for D2D-floor (``TotalCorrelation``)
    families — and applies each point's parameters elementwise. Each
    batched expression reproduces the corresponding ``evaluate_xy``
    verbatim on identical operand values, so every returned array is
    bit-identical to ``geometry.rho(correlation)``.
    """
    out: Dict[Tuple[Any, ...], np.ndarray] = {}
    items = list(correlations.items())
    kinds = {type(c) for _, c in items}

    if kinds == {TotalCorrelation}:
        # rho = floor + (1 - floor) * wid_rho: evaluate each distinct WID
        # kernel once (recursively family-batched, so a length family of
        # WID kernels still shares one distance grid) and apply each
        # point's D2D floor elementwise.
        wids: Dict[Tuple[Any, ...], SpatialCorrelation] = {}
        for _, corr in items:
            wids.setdefault(_correlation_key(corr.wid), corr.wid)
        wid_rhos = _batched_lag_rho(geometry, wids, stats)
        for key, corr in items:
            wid_rho = wid_rhos[_correlation_key(corr.wid)]
            out[key] = corr.rho_floor + (1.0 - corr.rho_floor) * wid_rho
        return out

    if kinds <= {ExponentialCorrelation, GaussianCorrelation}:
        # Shared distance grid (what evaluate_xy computes internally).
        distance = distance_xy(geometry.x[:, None], geometry.y[None, :])
        stats["rho_kernel_evaluations"] = \
            stats.get("rho_kernel_evaluations", 0) + len(items)
        for key, corr in items:
            if type(corr) is ExponentialCorrelation:
                out[key] = np.exp(-distance / corr.length)
            else:
                out[key] = np.exp(-((distance / corr.length) ** 2))
        return out

    for key, corr in items:
        out[key] = geometry.rho(corr)
        stats["rho_kernel_evaluations"] = \
            stats.get("rho_kernel_evaluations", 0) + 1
    return out


def _resolve_config(config: Mapping[str, Any]) -> Tuple[Any, ...]:
    characterization = config["characterization"]
    if characterization is None:
        raise EstimationError(
            "no characterization for a sweep point: pass one to "
            "estimate_sweep or include an axis that supplies it "
            "(e.g. temperature_axis)")
    usage = config["usage"]
    if usage is None:
        raise EstimationError("no usage histogram for a sweep point")
    correlation = config["correlation"]
    if correlation is None:
        correlation = characterization.technology.total_correlation
    thermal = config.get("thermal")
    ambient = config.get("thermal_ambient")
    power_scale = config.get("thermal_power_scale")
    if ambient is not None or power_scale is not None:
        from repro.thermal import ThermalConfig

        thermal = ThermalConfig() if thermal is None else thermal
        if ambient is not None:
            thermal = thermal.with_ambient(ambient)
        if power_scale is not None:
            thermal = thermal.with_power_scale(power_scale)
    return (characterization, usage, int(config["n_cells"]),
            float(config["width"]), float(config["height"]),
            float(config["signal_probability"]), correlation, thermal)


def _build_components(spec: "_SweepSpec", characterization, usage, p,
                      cross_tables: Dict[Tuple[Any, ...], Any],
                      stats: Dict[str, int]) -> RGComponents:
    """RGComponents for a point, reusing the delta engine's cross-moment
    table when points differ only in usage weights.

    The exact RG covariance grid is ``alphas @ M_g @ alphas -
    mu_tot**2`` with a weight-independent pairwise tensor ``M``. When a
    second point shares the same component set (same characterization,
    same (cell, state) labels — the usual usage-axis shape), the tensor
    is cached (:class:`repro.delta.moments.CrossMomentTable`) and later
    points pay only the O(grid x q) contraction instead of the
    O(grid x q^2) moment build. The contraction replicates the terminal
    ops of :func:`repro.core.rg_correlation.rg_covariance_grid`
    verbatim, so reused points stay **bit-identical** to a fresh
    ``RGComponents.build`` (asserted in
    ``tests/delta/test_sweep_reuse.py``); simplified-mode mixtures take
    the normal path unconditionally.
    """
    from repro.characterization.vt import vt_mean_multiplier
    from repro.core.random_gate import RandomGate, expand_mixture
    from repro.core.rg_correlation import RGCorrelation
    from repro.delta.moments import CrossMomentTable

    mixture = expand_mixture(characterization, usage, p,
                             state_weights=spec.state_weights)
    simplified = spec.simplified_correlation
    if simplified is None:
        simplified = not mixture.has_fits
    if not simplified and mixture.has_fits:
        technology = characterization.technology
        key = (id(characterization), mixture.labels)
        table = cross_tables.get(key)
        if table is None:
            # First sighting of this component set: remember it and
            # take the normal path — a table only pays off when a
            # second usage shows up over the same components.
            cross_tables[key] = 1
        elif isinstance(table, CrossMomentTable) or table == 1:
            if table == 1:
                table = CrossMomentTable.build(
                    mixture.fits, technology.length.nominal,
                    technology.length.sigma,
                    np.linspace(-1.0, 1.0, 65))
                if table is None:  # over the memory bound
                    cross_tables[key] = 0
                else:
                    cross_tables[key] = table
                    stats["cross_tables"] = \
                        stats.get("cross_tables", 0) + 1
            if isinstance(table, CrossMomentTable):
                random_gate = RandomGate(mixture)
                values = table.contract(
                    mixture.alphas, float(mixture.alphas
                                          @ mixture.means))
                stats["delta_rg_reuses"] = \
                    stats.get("delta_rg_reuses", 0) + 1
                return RGComponents(
                    random_gate=random_gate,
                    rg_correlation=RGCorrelation.from_values(
                        random_gate, table.grid, values),
                    vt_multiplier=vt_mean_multiplier(technology),
                    signal_probability=float(p))
    return RGComponents.build(
        characterization, usage, p,
        simplified_correlation=spec.simplified_correlation,
        state_weights=spec.state_weights)


def _evaluate_points(spec: _SweepSpec, indices: Sequence[int],
                     checkpoint: Optional[Callable[[], None]] = None
                     ) -> Tuple[List[LeakageEstimate], Dict[str, int]]:
    """Serial staged evaluation of the given grid points.

    The loop-equivalence contract: for every point this performs
    exactly the array operations of
    ``FullChipLeakageEstimator(...).estimate(method)``, with the
    geometry-only and parameter-only stages computed once per distinct
    value instead of once per point. ``checkpoint`` (when given) is
    called before each geometry's kernel pass and before each point; it
    stops the sweep by raising.
    """
    if checkpoint is None:
        checkpoint = _no_checkpoint
    stats: Dict[str, int] = {"points": len(indices)}
    chip_cache: Dict[Tuple[Any, ...], FullChipModel] = {}
    geometry_cache: Dict[Tuple[Any, ...], LagGeometry] = {}
    components_cache: Dict[Tuple[Any, ...], RGComponents] = {}
    rho_cache: Dict[Tuple[Any, ...], np.ndarray] = {}
    # Cross-moment tables for the delta path: points that differ only
    # in usage weights over the same component set reuse one pairwise
    # moment tensor (see _build_components).
    cross_tables: Dict[Tuple[Any, ...], Any] = {}

    resolved = []
    rho_needs: Dict[Tuple[Any, ...],
                    Dict[Tuple[Any, ...], SpatialCorrelation]] = {}
    with span("sweep.resolve", n_points=len(indices)):
        for index in indices:
            (characterization, usage, n_cells, width, height, p,
             correlation, thermal) = _resolve_config(spec.configs[index])
            chip_key = (n_cells, width, height)
            chip = chip_cache.get(chip_key)
            if chip is None:
                chip = FullChipModel.from_design(n_cells, width, height)
                chip_cache[chip_key] = chip
            method = (resolve_auto_method(chip.n_sites)
                      if spec.method == "auto" else spec.method)
            resolved.append((characterization, usage, n_cells, width,
                             height, p, correlation, chip, method,
                             thermal))
            if method == "linear" and thermal is None:
                geometry_key = (chip.rows, chip.cols, chip.pitch_x,
                                chip.pitch_y)
                rho_needs.setdefault(geometry_key, {})[
                    _correlation_key(correlation)] = correlation

    # Batched kernel evaluation: one pass per geometry over all distinct
    # correlation models its points use.
    with span("sweep.kernels", n_geometries=len(rho_needs)):
        for geometry_key, correlations in rho_needs.items():
            checkpoint()
            geometry = LagGeometry(*geometry_key)
            geometry_cache[geometry_key] = geometry
            for corr_key, rho in _batched_lag_rho(geometry, correlations,
                                                  stats).items():
                rho_cache[(geometry_key, corr_key)] = rho

    estimates: List[LeakageEstimate] = []
    with span("sweep.points", n_points=len(resolved)):
        for (characterization, usage, n_cells, width, height, p,
             correlation, chip, method, thermal) in resolved:
            checkpoint()
            components_key = (id(characterization), _usage_key(usage), p,
                              spec.simplified_correlation,
                              id(spec.state_weights)
                              if spec.state_weights is not None else None)
            components = components_cache.get(components_key)
            if components is None:
                with span("sweep.rg"):
                    components = _build_components(
                        spec, characterization, usage, p,
                        cross_tables, stats)
                components_cache[components_key] = components
                stats["rg_builds"] = stats.get("rg_builds", 0) + 1
            estimator = FullChipLeakageEstimator(
                characterization, usage, n_cells, width, height,
                signal_probability=p, correlation=correlation,
                simplified_correlation=spec.simplified_correlation,
                state_weights=spec.state_weights, components=components)
            if thermal is not None:
                # Coupled points run the full estimate() path verbatim
                # (the fixed point is point-specific by construction);
                # anchor characterizations still amortize across points
                # through the thermal layer's per-characterization
                # cache.
                estimates.append(estimator.estimate(
                    spec.method, tolerance=spec.tolerance,
                    thermal=thermal))
                stats["thermal_points"] = \
                    stats.get("thermal_points", 0) + 1
                continue
            if method == "linear":
                geometry_key = (chip.rows, chip.cols, chip.pitch_x,
                                chip.pitch_y)
                geometry = geometry_cache[geometry_key]
                rho = rho_cache[(geometry_key,
                                 _correlation_key(correlation))]
                site_variance = geometry.variance_from_rho(
                    rho, estimator.rg_correlation)
                # Same packaging as estimate(): details carry the
                # concrete method plus what was requested before "auto"
                # resolution.
                estimates.append(estimator._package(
                    "linear", site_variance,
                    {"requested_method": spec.method}))
            else:
                estimates.append(estimator.estimate(
                    spec.method, tolerance=spec.tolerance))
    stats["geometries"] = len(geometry_cache)
    stats["chip_models"] = len(chip_cache)
    return estimates, stats


def _no_checkpoint() -> None:
    pass


def _sweep_group_worker(task, arrays, payload):
    """parallel_map worker: evaluate one geometry group of points."""
    indices = task
    estimates, stats = _evaluate_points(payload, indices)
    return list(zip(indices, estimates)), stats


def run_sweep(
    characterization: Optional[LibraryCharacterization],
    usage: Optional[CellUsage],
    n_cells: int,
    width: float,
    height: float,
    *,
    axes: Sequence[SweepAxis],
    signal_probability: float = 0.5,
    method: str = "auto",
    correlation: Optional[SpatialCorrelation] = None,
    simplified_correlation: Optional[bool] = None,
    state_weights=None,
    n_jobs: int = 1,
    tolerance: float = 0.0,
    trace: bool = False,
    thermal=None,
    checkpoint: Optional[Callable[[], None]] = None,
) -> SweepResult:
    """Evaluate the full cartesian grid of the given axes.

    See :func:`repro.core.api.estimate_sweep` for the documented entry
    point and the bit-identical guarantee. ``trace=True`` profiles the
    run (spans propagate across ``parallel_map`` workers) and attaches
    the document as :attr:`SweepResult.trace`; estimates are
    bit-identical either way.

    ``checkpoint`` is the service's cooperative cancel/deadline hook: a
    serial run calls it before each geometry's kernel pass and before
    each point, a fanned-out run once before dispatch. It aborts the
    sweep by raising, so a grid is returned whole or not at all.
    """
    axes = tuple(axes)
    if not axes:
        raise EstimationError("provide at least one sweep axis")
    names = [axis.name for axis in axes]
    if len(set(names)) != len(names):
        raise EstimationError(f"duplicate sweep axis names in {names}")
    # Two axes writing the same config key would silently clobber each
    # other (later axis wins at every grid point) — e.g. a correlation
    # -length axis crossed with a D2D-split axis, both of which emit a
    # final "correlation" model. Compose such sweeps into one axis.
    claimed: Dict[str, str] = {}
    for axis in axes:
        for key in set().union(*axis.overrides):
            if key in claimed:
                raise EstimationError(
                    f"axes {claimed[key]!r} and {axis.name!r} both "
                    f"override config key {key!r}; merge them into a "
                    "single axis over the composed values (e.g. one "
                    "correlation_axis over pre-combined models)")
            claimed[key] = axis.name

    if thermal is not None:
        from repro.thermal import ThermalConfig

        thermal = ThermalConfig.from_dict(thermal)
    base = {"characterization": characterization, "usage": usage,
            "n_cells": n_cells, "width": width, "height": height,
            "signal_probability": signal_probability,
            "correlation": correlation, "thermal": thermal}
    configs = []
    for combo in itertools.product(*(axis.overrides for axis in axes)):
        config = dict(base)
        for override in combo:
            config.update(override)
        configs.append(config)

    spec = _SweepSpec(configs=tuple(configs), method=method,
                      simplified_correlation=simplified_correlation,
                      state_weights=state_weights,
                      tolerance=float(tolerance))

    tracer = Tracer("core/api.estimate_sweep") if trace else None
    if tracer is not None:
        with tracer:
            with tracer.span("core/api.estimate_sweep",
                             n_points=len(configs)):
                estimates, stats = _execute_grid(spec, configs, n_jobs,
                                                 checkpoint)
        trace_document = tracer.export()
    else:
        estimates, stats = _execute_grid(spec, configs, n_jobs, checkpoint)
        trace_document = None

    return SweepResult(
        axes=tuple(names),
        shape=tuple(len(axis) for axis in axes),
        values=tuple(axis.values for axis in axes),
        estimates=tuple(estimates),
        stats=stats,
        trace=trace_document,
    )


def _execute_grid(spec: _SweepSpec, configs: Sequence[Mapping[str, Any]],
                  n_jobs: int, checkpoint: Optional[Callable[[], None]]
                  ) -> Tuple[List[LeakageEstimate], Dict[str, int]]:
    """Evaluate every grid point, fanning geometry groups out to workers."""
    n_jobs = resolve_n_jobs(n_jobs)
    groups: List[List[int]] = []
    if n_jobs > 1:
        # Fan out over geometry groups: points sharing a floorplan stay
        # together so each worker amortizes its geometry and kernels.
        by_chip: Dict[Tuple[Any, ...], List[int]] = {}
        for index, config in enumerate(configs):
            key = (int(config["n_cells"]), float(config["width"]),
                   float(config["height"]))
            by_chip.setdefault(key, []).append(index)
        groups = list(by_chip.values())

    if n_jobs > 1 and len(groups) > 1:
        if checkpoint is not None:
            checkpoint()
        results = parallel_map(_sweep_group_worker, groups, payload=spec,
                               n_jobs=n_jobs)
        estimates: List[Optional[LeakageEstimate]] = [None] * len(configs)
        stats: Dict[str, int] = {}
        for pairs, group_stats in results:
            for index, estimate in pairs:
                estimates[index] = estimate
            for key, value in group_stats.items():
                stats[key] = stats.get(key, 0) + int(value)
        stats["fanout_groups"] = len(groups)
    else:
        estimates, stats = _evaluate_points(spec, range(len(configs)),
                                            checkpoint)
    return estimates, stats
