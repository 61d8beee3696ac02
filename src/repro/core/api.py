"""High-level full-chip leakage estimation API.

Ties together the whole pipeline of the paper's Fig. 1: process info +
characterized cell library + high-level design characteristics (usage
histogram, cell count, die dimensions) -> mean and standard deviation of
full-chip leakage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.characterization.characterizer import LibraryCharacterization
from repro.characterization.vt import vt_mean_multiplier
from repro.core.chip_model import FullChipModel
from repro.core.estimators.exact import exact_moments
from repro.core.estimators.integral2d import integral2d_variance
from repro.core.estimators.linear import linear_variance
from repro.core.estimators.polar import polar_variance
from repro.core.random_gate import RandomGate, expand_mixture
from repro.core.rg_correlation import RGCorrelation
from repro.core.usage import CellUsage
from repro.exceptions import EstimationError
from repro.obs import Tracer, span
from repro.process.correlation import SpatialCorrelation

#: Grid-size threshold below which ``method="auto"`` uses the exact
#: linear-time transform rather than integration (the paper recommends
#: the O(n) route for small designs where integral granularity error
#: exceeds 1%, Fig. 7).
AUTO_LINEAR_LIMIT = 250_000

# Backward-compatible alias (pre-service releases used the private name).
_AUTO_LINEAR_LIMIT = AUTO_LINEAR_LIMIT


def resolve_auto_method(n_sites: int) -> str:
    """The exact ``method="auto"`` selection rule of :meth:`estimate`.

    ``"linear"`` — the O(n) eq. (17) transform — whenever the RG site
    grid has at most :data:`AUTO_LINEAR_LIMIT` (250,000) sites, where it
    is both exact on the grid and fast; ``"integral2d"`` — the O(1)
    eq. (20) integral — above that, where the integral's granularity
    error is negligible (Fig. 7). ``"polar"`` and ``"exact"`` are never
    chosen automatically: the former is an accuracy/speed study variant,
    and the latter is the pairwise cross-check engine (whose *own*
    ``method="auto"`` sub-rule is documented at
    :func:`repro.core.estimators.exact.exact_moments` — dense at
    ``tolerance=0, n_jobs=1`` with no grid hint for bit compatibility,
    otherwise lag deduplication on lattices, spatial pruning for
    scattered placements whose correlation truncation radius is under
    half the die extent, dense as the fallback).
    """
    return "linear" if n_sites <= AUTO_LINEAR_LIMIT else "integral2d"


def _json_scalar(value: Any) -> Any:
    """Coerce a scalar to a plain JSON-serializable Python type.

    Numpy integers/floats/bools (which ``json`` refuses) become their
    native equivalents; zero-dimensional arrays are unwrapped first.
    """
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


@dataclass(frozen=True)
class LeakageEstimate:
    """Full-chip leakage statistics.

    Attributes
    ----------
    mean:
        Expected total leakage [A] (without the Vt mean multiplier).
    std:
        Standard deviation of total leakage [A].
    method:
        Variance algorithm used (``linear``, ``integral2d``, ``polar``).
    n_cells:
        Cell count the estimate is for.
    signal_probability:
        Signal probability at which cells were weighted.
    vt_multiplier:
        Multiplicative mean correction for RDF Vt variation.
    details:
        Diagnostic values (grid shape, RG statistics, the requested
        method before ``auto`` resolution, ...) — always plain JSON
        scalars so the estimate serializes via :meth:`to_dict`.
    """

    mean: float
    std: float
    method: str
    n_cells: int
    signal_probability: float
    vt_multiplier: float
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def mean_with_vt(self) -> float:
        """Mean total leakage including the Vt mean multiplier [A]."""
        return self.mean * self.vt_multiplier

    @property
    def cv(self) -> float:
        """Coefficient of variation ``std / mean``."""
        return self.std / self.mean

    @property
    def degraded(self) -> bool:
        """True when this is a fallback answer, not the requested method.

        The estimation service substitutes the O(1) Random-Gate closed
        form for a failed or deadline-bound ``exact`` run (within ~2% on
        std per Table 1 of the paper); such results are flagged in
        ``details["degraded"]`` with the cause in
        :attr:`degradation_reason`.
        """
        return bool(self.details.get("degraded", False))

    @property
    def degradation_reason(self) -> Optional[str]:
        """Why a degraded result was substituted (``None`` when not)."""
        reason = self.details.get("degradation_reason")
        return None if reason is None else str(reason)

    def with_details(self, **extra: Any) -> "LeakageEstimate":
        """A copy with ``extra`` merged into :attr:`details`.

        Values are coerced to plain JSON scalars, preserving the
        :meth:`to_dict` round-trip guarantee.
        """
        details = dict(self.details)
        details.update({str(key): _json_scalar(value)
                        for key, value in extra.items()})
        return replace(self, details=details)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (stable service/cache wire format).

        Every field is coerced to a native Python scalar, so the result
        round-trips through ``json.dumps``/``loads`` *bit-exactly*
        (Python's ``repr``-based float serialization is shortest
        round-trip): ``from_dict(json.loads(json.dumps(e.to_dict())))``
        compares equal to ``e`` field by field.
        """
        return {
            "mean": float(self.mean),
            "std": float(self.std),
            "method": str(self.method),
            "n_cells": int(self.n_cells),
            "signal_probability": float(self.signal_probability),
            "vt_multiplier": float(self.vt_multiplier),
            "details": {str(key): _json_scalar(value)
                        for key, value in self.details.items()},
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "LeakageEstimate":
        """Rebuild an estimate from :meth:`to_dict` output."""
        try:
            return cls(
                mean=float(document["mean"]),
                std=float(document["std"]),
                method=str(document["method"]),
                n_cells=int(document["n_cells"]),
                signal_probability=float(document["signal_probability"]),
                vt_multiplier=float(document["vt_multiplier"]),
                details=dict(document.get("details", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise EstimationError(
                f"not a serialized LeakageEstimate: {exc}") from exc

    def __repr__(self) -> str:
        return (f"LeakageEstimate(mean={self.mean:.4e} A, "
                f"std={self.std:.4e} A, cv={self.cv:.3f}, "
                f"method={self.method!r}, n={self.n_cells})")


@dataclass(frozen=True)
class RGComponents:
    """The chip-independent half of the estimation engine.

    Bundles the Random Gate, its leakage correlation model, and the Vt
    mean multiplier — everything eqs. (6)–(11) derive from the
    characterized library, the usage histogram, and the signal
    probability, before any die geometry enters. Building this is the
    second-most expensive stage of an estimate (after characterization),
    and it is *reusable across chips*: the estimation service caches it
    per (library, usage, signal probability) so sweeps over cell count,
    die size, or estimator method hit a warm path.
    """

    random_gate: RandomGate
    rg_correlation: RGCorrelation
    vt_multiplier: float
    signal_probability: float

    @classmethod
    def build(
        cls,
        characterization: LibraryCharacterization,
        usage: CellUsage,
        signal_probability: float = 0.5,
        simplified_correlation: Optional[bool] = None,
        state_weights=None,
    ) -> "RGComponents":
        """Derive the RG bundle from a characterized library + usage."""
        technology = characterization.technology
        signal_probability = float(signal_probability)
        with span("api.rg_build"):
            mixture = expand_mixture(characterization, usage,
                                     signal_probability,
                                     state_weights=state_weights)
            random_gate = RandomGate(mixture)
            rg_correlation = RGCorrelation(
                random_gate,
                mu_l=technology.length.nominal,
                sigma_l=technology.length.sigma,
                simplified=simplified_correlation,
            )
            return cls(random_gate=random_gate,
                       rg_correlation=rg_correlation,
                       vt_multiplier=vt_mean_multiplier(technology),
                       signal_probability=signal_probability)


class FullChipLeakageEstimator:
    """The paper's estimation engine (Fig. 1).

    Parameters
    ----------
    characterization:
        Characterized standard-cell library.
    usage:
        Frequency-of-use histogram — *extracted* (late mode) or
        *expected* (early mode).
    n_cells:
        Number of cells in the design.
    width / height:
        Layout dimensions [m].
    signal_probability:
        Primary-input signal probability used to weight cell states
        (use :func:`repro.signalprob.maximize_mean_leakage` for the
        conservative maximizing setting).
    correlation:
        Total channel-length correlation; defaults to the technology's
        D2D + WID combination.
    simplified_correlation:
        Force (or forbid) the ``rho_leak = rho_L`` assumption; defaults
        to exact when fits exist, simplified otherwise (Section 3.1.2).
    components:
        A prebuilt :class:`RGComponents` bundle (e.g. from a service
        cache). When given it is used verbatim — the
        ``signal_probability`` / ``simplified_correlation`` /
        ``state_weights`` arguments must have produced it — and the
        mixture expansion is skipped entirely.
    """

    def __init__(
        self,
        characterization: LibraryCharacterization,
        usage: CellUsage,
        n_cells: int,
        width: float,
        height: float,
        signal_probability: float = 0.5,
        correlation: Optional[SpatialCorrelation] = None,
        simplified_correlation: Optional[bool] = None,
        state_weights=None,
        components: Optional[RGComponents] = None,
    ) -> None:
        self.characterization = characterization
        self.usage = usage
        # Kept for stages that re-expand the mixture at solver-chosen
        # operating points (the thermal anchor characterizations).
        self.state_weights = state_weights
        technology = characterization.technology
        self.correlation = (technology.total_correlation
                            if correlation is None else correlation)
        with span("api.chip_model", n_cells=int(n_cells)):
            self.chip = FullChipModel.from_design(n_cells, width, height)
        if components is None:
            components = RGComponents.build(
                characterization, usage, signal_probability,
                simplified_correlation=simplified_correlation,
                state_weights=state_weights)
        self.components = components
        self.signal_probability = components.signal_probability
        self.random_gate = components.random_gate
        self.rg_correlation = components.rg_correlation
        self._vt_multiplier = components.vt_multiplier

    def estimate(self, method: str = "auto", *, n_jobs: int = 1,
                 tolerance: float = 0.0, trace: bool = False,
                 thermal=None) -> LeakageEstimate:
        """Estimate full-chip leakage mean and standard deviation.

        ``method`` is one of ``"auto"``, ``"linear"``, ``"integral2d"``,
        ``"polar"``, or ``"exact"`` — the last runs the placed-site
        pairwise engine (lag-deduplicated on the RG grid; see
        :func:`repro.core.estimators.exact_moments`) and serves as an
        independent cross-check of the eq. (17) transform. ``n_jobs``
        and ``tolerance`` are forwarded to that engine.

        ``"auto"`` resolves through :func:`resolve_auto_method`: the
        O(n) ``"linear"`` transform up to :data:`AUTO_LINEAR_LIMIT`
        sites, the O(1) ``"integral2d"`` estimator above. The returned
        estimate's ``method`` field always names the *concrete* method
        that ran (never ``"auto"``), and ``details["requested_method"]``
        preserves what was asked for — service metrics use the former to
        label latency by algorithm. ``method="exact"`` additionally
        records ``details["exact_engine"]`` (always ``"lagsum"``: the RG
        site grid is a lattice, so the engine takes the FFT lag
        transform).

        ``trace=True`` profiles the run: the estimate's
        ``details["trace"]`` carries the span tree and per-stage wall
        times (``docs/OBSERVABILITY.md``). Numeric results are
        bit-identical with tracing on or off — spans only read clocks.

        ``thermal`` — a :class:`repro.thermal.ThermalConfig` (or its
        dict form) — runs the self-consistent power–thermal solve
        instead of the isothermal estimate: leakage-driven power heats
        the die, temperature re-characterizes the leakage, iterated to
        a fixed point whose diagnostics land in ``details["thermal"]``
        (``docs/THERMAL.md``).
        """
        if thermal is not None:
            from repro.thermal import ThermalConfig, solve_coupled

            thermal = ThermalConfig.from_dict(thermal)
            if not trace:
                return solve_coupled(self, method, thermal,
                                     n_jobs=n_jobs, tolerance=tolerance)
            tracer = Tracer("core/api.estimate")
            with tracer:
                with tracer.span("core/api.estimate", method=method,
                                 thermal=True):
                    result = solve_coupled(self, method, thermal,
                                           n_jobs=n_jobs,
                                           tolerance=tolerance)
            return result.with_details(trace=tracer.export())
        if not trace:
            return self._estimate(method, n_jobs=n_jobs,
                                  tolerance=tolerance)
        tracer = Tracer("core/api.estimate")
        with tracer:
            with tracer.span("core/api.estimate", method=method):
                result = self._estimate(method, n_jobs=n_jobs,
                                        tolerance=tolerance)
        return result.with_details(trace=tracer.export())

    def _estimate(self, method: str, *, n_jobs: int,
                  tolerance: float) -> LeakageEstimate:
        chip = self.chip
        requested = method
        if method == "auto":
            method = resolve_auto_method(chip.n_sites)

        with span("api.variance", method=method):
            if method == "linear":
                site_variance = linear_variance(
                    chip.rows, chip.cols, chip.pitch_x, chip.pitch_y,
                    self.correlation, self.rg_correlation)
            elif method == "integral2d":
                site_variance = integral2d_variance(
                    chip.n_sites, chip.width, chip.height,
                    self.correlation, self.rg_correlation)
            elif method == "polar":
                site_variance = polar_variance(
                    chip.n_sites, chip.width, chip.height,
                    self.correlation, self.rg_correlation)
            elif method == "exact":
                site_variance = self._exact_site_variance(
                    n_jobs=n_jobs, tolerance=tolerance)
            else:
                raise EstimationError(
                    f"unknown method {method!r}; choose auto, linear, "
                    "integral2d, polar, or exact")

        extra = {"requested_method": requested}
        if method == "exact":
            # The RG site grid is a regular lattice, so the pairwise
            # engine always runs its FFT lag-deduplication path here.
            extra["exact_engine"] = "lagsum"
        return self._package(method, site_variance, extra)

    def _exact_site_variance(self, n_jobs: int = 1,
                             tolerance: float = 0.0) -> float:
        """Site-grid variance through the placed-design pairwise engine.

        Every site carries the Random Gate: the full RG sigma on the
        diagonal and the correlatable mean-of-stds off it — the eq. (11)
        split that :func:`exact_moments` expresses via ``corr_stds``.
        Only the simplified (``rho_leak = rho_L``) covariance has this
        per-site product form, so the exact ``f_mn`` mode must go
        through ``estimate("linear")`` instead.
        """
        if not self.rg_correlation.simplified:
            raise EstimationError(
                "method='exact' maps the RG covariance onto per-site "
                "sigmas, which requires the simplified correlation "
                "model; use simplified_correlation=True or "
                "method='linear'")
        chip = self.chip
        n_sites = chip.n_sites
        rg = self.random_gate
        with span("api.site_arrays", n_sites=n_sites):
            positions = chip.site_positions()
            site_means = np.full(n_sites, rg.mean)
            site_stds = np.full(n_sites, rg.std)
            site_corr_stds = np.full(n_sites, rg.mean_of_stds)
        _, site_std = exact_moments(
            positions,
            site_means,
            site_stds,
            self.correlation,
            corr_stds=site_corr_stds,
            method="lagsum",
            grid=(chip.rows, chip.cols),
            n_jobs=n_jobs,
            tolerance=tolerance,
        )
        return site_std ** 2

    def _package(self, method: str, site_variance: float,
                 extra: Optional[Dict[str, Any]] = None) -> LeakageEstimate:
        with span("api.package"):
            return self._package_inner(method, site_variance, extra)

    def _package_inner(self, method: str, site_variance: float,
                       extra: Optional[Dict[str, Any]]) -> LeakageEstimate:
        chip = self.chip
        # Grid statistics are for n_sites gates; rescale to the actual
        # cell count (mean ~ n, std ~ n for strongly correlated sums).
        scale = chip.n_cells / chip.n_sites
        mean = chip.n_cells * self.random_gate.mean
        std = math.sqrt(site_variance) * scale
        details = {
            "rows": chip.rows,
            "cols": chip.cols,
            "rg_mean": self.random_gate.mean,
            "rg_std": self.random_gate.std,
            "site_variance": site_variance,
            "simplified_correlation":
                float(self.rg_correlation.simplified),
        }
        details.update(extra or {})
        return LeakageEstimate(
            mean=float(mean),
            std=float(std),
            method=method,
            n_cells=int(chip.n_cells),
            signal_probability=float(self.signal_probability),
            vt_multiplier=float(self._vt_multiplier),
            details={key: _json_scalar(value)
                     for key, value in details.items()},
        )


def estimate_sweep(
    characterization: Optional[LibraryCharacterization],
    usage: Optional[CellUsage],
    n_cells: int,
    width: float,
    height: float,
    *,
    axes,
    signal_probability: float = 0.5,
    method: str = "auto",
    correlation: Optional[SpatialCorrelation] = None,
    simplified_correlation: Optional[bool] = None,
    state_weights=None,
    n_jobs: int = 1,
    tolerance: float = 0.0,
    trace: bool = False,
    thermal=None,
):
    """Evaluate a grid of estimation scenarios with shared precomputation.

    ``axes`` is a sequence of :class:`repro.core.sweep.SweepAxis`
    objects (built with the ``*_axis`` factories in
    :mod:`repro.core.sweep`); the full cartesian product of their points
    is evaluated and returned as a
    :class:`~repro.core.sweep.SweepResult` in C (row-major) grid order.
    The non-axis arguments are the base scenario every point starts
    from; an axis may override the characterization (temperature), the
    usage mix, the correlation model, the signal probability, or the
    geometry (``n_cells``, die size). ``characterization``/``usage``
    may be ``None`` only when an axis supplies them for every point.

    **Bit-identical guarantee**: every grid point equals — to the last
    bit of ``mean``, ``std``, and every ``details`` entry — the
    single-point call

    ``FullChipLeakageEstimator(characterization, usage, n_cells, width,
    height, signal_probability=p, correlation=c,
    simplified_correlation=..., state_weights=...).estimate(method,
    tolerance=...)``

    with that point's parameters substituted. The speedup comes only
    from *sharing* work across points, never from reformulating it: the
    lag histogram of the placement is computed once per floorplan, the
    correlation kernel once per distinct model (family-batched along
    correlation axes), and the RG mixture moments once per distinct
    (characterization, usage, signal probability). Axes that change the
    floorplan fan out through :func:`repro.parallel.parallel_map` when
    ``n_jobs > 1``; the returned grid order is independent of worker
    scheduling.

    ``trace=True`` profiles the sweep (shared-precompute vs per-point
    stages, worker spans aggregated per stage) into
    ``SweepResult.trace``; every estimate stays bit-identical to the
    untraced run.

    ``thermal`` — a :class:`repro.thermal.ThermalConfig` — makes every
    point a self-consistent power–thermal solve at that base config;
    the ``ambient_temperature_axis`` / ``power_scale_axis`` factories
    sweep its ambient and power scale per point (and cross freely).
    Coupled points run the full ``estimate(..., thermal=...)`` path
    verbatim, so they keep the bit-identical guarantee trivially.
    """
    from repro.core.sweep import run_sweep

    return run_sweep(
        characterization, usage, n_cells, width, height, axes=axes,
        signal_probability=signal_probability, method=method,
        correlation=correlation,
        simplified_correlation=simplified_correlation,
        state_weights=state_weights, n_jobs=n_jobs, tolerance=tolerance,
        trace=trace, thermal=thermal)


# -- incremental (delta) estimation ----------------------------------------


def build_base(
    characterization: LibraryCharacterization,
    usage: CellUsage,
    n_cells: int,
    width: float,
    height: float,
    *,
    signal_probability: float = 0.5,
    correlation: Optional[SpatialCorrelation] = None,
    simplified_correlation: Optional[bool] = None,
    state_weights=None,
):
    """Run a fresh linear-transform estimate and snapshot it as a
    :class:`~repro.delta.BaseEstimate` for incremental what-if edits.

    The returned base holds the fresh estimate (``base.estimate``) plus
    every reusable artifact — lag geometry and kernel values, the
    eq. (16)-(17) occupancy ledger, and the RG mixture's cross-moment
    summaries — so :func:`estimate_delta` can answer edited scenarios
    in ``o(n_affected)``. See ``docs/API.md`` ("Incremental
    estimation").
    """
    from repro.delta import BaseEstimate

    return BaseEstimate.build(
        characterization, usage, n_cells, width, height,
        signal_probability=signal_probability, correlation=correlation,
        simplified_correlation=simplified_correlation,
        state_weights=state_weights)


def estimate_delta(base, edits, *, trace: bool = False) -> LeakageEstimate:
    """Estimate an edited scenario incrementally from a base snapshot.

    ``base`` is a :class:`~repro.delta.BaseEstimate` (from
    :func:`build_base` or :func:`import_base`); ``edits`` is one edit,
    a sequence, or their dict wire forms
    (:mod:`repro.delta.edits`). The result matches a fresh
    ``estimate("linear")`` of the edited scenario within the documented
    bounds (``DELTA_MEAN_RTOL`` / ``DELTA_STD_RTOL`` in
    :mod:`repro.delta.engine`; exact where the algebra is exact) and
    records reused vs recomputed work in ``details["delta"]``.
    """
    from repro.delta import estimate_delta as _delta

    return _delta(base, edits, trace=trace)


def export_base(base) -> Dict[str, Any]:
    """Serialize a base artifact to its plain-JSON document form."""
    return base.to_dict()


def import_base(document: Mapping[str, Any],
                characterization: Optional[LibraryCharacterization] = None,
                correlation: Optional[SpatialCorrelation] = None):
    """Rebuild a base artifact from :func:`export_base` output.

    Pass the characterization (and optionally a correlation model) to
    re-attach the live references the document cannot carry; without
    them, edits that need new cell characterizations or a re-kerneled
    floorplan raise
    :class:`~repro.exceptions.DeltaIncompatibleError`.
    """
    from repro.delta import BaseEstimate

    return BaseEstimate.from_dict(document, characterization=characterization,
                                  correlation=correlation)
