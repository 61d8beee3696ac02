"""Self-consistent power–thermal fixed point over Random-Gate moments.

Leakage and temperature are mutually coupled: the RG mean leakage map
sets the power density, the linear thermal operator
(:class:`~repro.thermal.model.ThermalOperator`) turns power into a
temperature map, and temperature feeds back exponentially into the
per-site RG moments. :func:`solve_coupled` damps this loop to a fixed
point and packages the coupled chip moments:

* **mean** — the per-site mean leakage at the converged temperature
  map, summed and rescaled exactly as the isothermal packaging step;
* **std** — the heterogeneous-sigma lag transform
  (:func:`repro.core.estimators.exact.exact_moments` with per-site
  ``stds``/``corr_stds`` on the lattice) at the converged map, then
  amplified by the closed-loop factor ``1 / (1 - gamma)`` where
  ``gamma`` is the thermal feedback gain — a leakage fluctuation
  ``dX`` re-heats the die and returns ``gamma * dX`` of additional
  leakage, so the geometric series amplifies every fluctuation by
  ``1/(1-gamma)`` (validated against the per-sample self-consistent
  Monte-Carlo oracle in ``tests/thermal``).

Every failure mode is a typed :class:`~repro.exceptions.EstimationError`
— iteration-cap exhaustion, thermal runaway (``gamma >= 1``), iterates
leaving the technology's valid temperature range — never a silent
partial result. Convergence diagnostics (iteration count, the full
residual trajectory, a contraction estimate) land in
``details["thermal"]``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

import numpy as np

from repro.core.api import (
    FullChipLeakageEstimator,
    LeakageEstimate,
    _json_scalar,
)
from repro.core.estimators.exact import exact_moments
from repro.exceptions import EstimationError
from repro.obs import span
from repro.thermal.config import ThermalConfig
from repro.thermal.leakage import LeakageTemperatureModel
from repro.thermal.model import ThermalOperator, site_power_map

#: Methods the coupled solver accepts. The coupled variance runs the
#: heterogeneous-sigma lag transform (reported ``method="linear"`` — it
#: is the same eq. (16)/(17) lag machinery); integral2d/polar have no
#: per-site form and ``exact`` is redundant with the lag transform here.
_COUPLED_METHODS = ("auto", "linear")


def solve_coupled(estimator: FullChipLeakageEstimator, method: str,
                  config: ThermalConfig, *,
                  n_jobs: int = 1,
                  tolerance: float = 0.0) -> LeakageEstimate:
    """Run one coupled power–thermal estimate for ``estimator``.

    Called by :meth:`FullChipLeakageEstimator.estimate` when a
    ``thermal=`` config is given; see ``docs/THERMAL.md`` for the model
    and the convergence/accuracy contracts.
    """
    with span("thermal.solve", mode=config.mode,
              feedback=config.feedback):
        return _solve(estimator, method, config,
                      n_jobs=n_jobs, tolerance=tolerance)


def _uniform_estimate(estimator: FullChipLeakageEstimator,
                      model: LeakageTemperatureModel, method: str,
                      temperature: float, simplified: Optional[bool],
                      n_jobs: int,
                      tolerance: float) -> LeakageEstimate:
    """The isothermal estimate at a uniform junction ``temperature``.

    Re-characterizes at that temperature (through the model's cache)
    and runs the ordinary estimator — the identical construction a
    ``temperature_sweep`` point performs, so results are bit-identical
    to the historical open-loop path.
    """
    chip = estimator.chip
    characterization = model.characterize_at(temperature)
    iso = FullChipLeakageEstimator(
        characterization, estimator.usage, chip.n_cells, chip.width,
        chip.height, signal_probability=estimator.signal_probability,
        correlation=estimator.correlation,
        simplified_correlation=simplified,
        state_weights=estimator.state_weights)
    return iso._estimate(method, n_jobs=n_jobs, tolerance=tolerance)


def _solve(estimator: FullChipLeakageEstimator, method: str,
           config: ThermalConfig, *, n_jobs: int,
           tolerance: float) -> LeakageEstimate:
    technology = estimator.characterization.technology
    ambient = config.resolve_ambient(technology)
    if not ambient > 0.0:
        raise EstimationError(
            f"thermal ambient temperature must be > 0 K, got {ambient!r}")
    vdd = config.resolve_vdd(technology)
    chip = estimator.chip

    model = LeakageTemperatureModel(
        estimator.characterization, estimator.usage,
        estimator.signal_probability, estimator.state_weights,
        ambient, config.anchor_spacing)

    if not config.feedback:
        # Open loop: the chip sits at the uniform ambient; keep the
        # estimator's own correlation-simplification choice so the
        # result is bit-identical to temperature_sweep / estimate().
        estimate = _uniform_estimate(
            estimator, model, method, ambient,
            estimator.rg_correlation.simplified, n_jobs, tolerance)
        return estimate.with_details(thermal=_diagnostics(
            config, ambient, iterations=0, residuals=[],
            converged=True, gain=0.0, t_map=None,
            power_total=None, n_anchors=model.n_anchors,
            variance_engine="uniform"))

    if method not in _COUPLED_METHODS:
        raise EstimationError(
            f"thermal feedback supports method in {_COUPLED_METHODS} "
            f"(the coupled variance is the per-site lag transform), "
            f"got {method!r}")
    if not estimator.rg_correlation.simplified:
        raise EstimationError(
            "thermal feedback maps the RG covariance onto per-site "
            "sigmas, which requires the simplified correlation model; "
            "pass simplified_correlation=True")

    theta = ThermalOperator(chip.rows, chip.cols, chip.pitch_x,
                            chip.pitch_y, config)
    site_scale = chip.n_cells / chip.n_sites

    def moments(t_map: np.ndarray):
        if config.mode == "full":
            return model.full_moments_at(t_map, config.full_quantization)
        return model.moments_at(t_map)

    def site_means(t_map: np.ndarray) -> np.ndarray:
        # The fixed point reads only the mean; the fast path skips
        # interpolating the other moments.
        if config.mode == "full":
            return moments(t_map)[0]
        return model.mean_at(t_map)

    t_map = np.full((chip.rows, chip.cols), ambient, dtype=float)
    residuals: list = []
    converged = False
    for iteration in range(1, config.max_iterations + 1):
        with span("thermal.iterate", iteration=iteration):
            means = site_means(t_map)
            power = site_power_map(means, chip.rows, chip.cols,
                                   site_scale, config, vdd)
            proposed = ambient + theta.apply(power)
            residual = float(np.abs(proposed - t_map).max())
            residuals.append(residual)
            if residual < config.tolerance:
                t_map = proposed
                converged = True
                break
            t_map = t_map + config.damping * (proposed - t_map)
    if not converged:
        raise EstimationError(
            f"thermal fixed point did not converge within "
            f"{config.max_iterations} iterations: residual "
            f"{residuals[-1]:.3e} K vs tolerance {config.tolerance:.3e} K "
            f"(trajectory {['%.3e' % r for r in residuals]}); increase "
            f"max_iterations, lower damping, or check the operating "
            f"point for thermal runaway")

    # Final moments and the closed-loop feedback gain at the converged
    # map. Every estimate reports gamma and the std amplification; the
    # amplification itself is the linearized response of the fixed
    # point to leakage fluctuations (docs/THERMAL.md).
    with span("thermal.moments", iterations=len(residuals)):
        means, stds, corr_stds, vts = moments(t_map)
        power = site_power_map(means, chip.rows, chip.cols, site_scale,
                               config, vdd)
        gain = _feedback_gain(model, theta, t_map, means, site_scale,
                              config, vdd)
        if gain >= 1.0:
            raise EstimationError(
                f"thermal runaway: feedback gain {gain:.3f} >= 1 at the "
                f"converged operating point — leakage fluctuations are "
                f"amplified without bound; reduce power_scale or the "
                f"thermal resistances")

        thermal_details = _diagnostics(
            config, ambient, iterations=len(residuals),
            residuals=residuals, converged=True, gain=gain,
            t_map=t_map, power_total=float(power.sum()),
            n_anchors=model.n_anchors, variance_engine=None)

        if theta.is_zero or float(np.ptp(t_map)) == 0.0:
            # Exactly-uniform converged map (zero operator, or package
            # path only): the homogeneous estimator at that temperature
            # is exact — and bit-identical to the open-loop answer when
            # the rise is zero. Thermal components are simplified, so
            # the isothermal run is forced simplified for consistency.
            thermal_details["variance_engine"] = "uniform"
            estimate = _uniform_estimate(
                estimator, model, method, float(t_map.flat[0]), True,
                n_jobs, tolerance)
            if gain > 0.0:
                amplification = 1.0 / (1.0 - gain)
                estimate = estimate.with_details(site_variance=float(
                    estimate.details["site_variance"] * amplification ** 2))
                estimate = LeakageEstimate(
                    mean=estimate.mean, std=estimate.std * amplification,
                    method=estimate.method, n_cells=estimate.n_cells,
                    signal_probability=estimate.signal_probability,
                    vt_multiplier=estimate.vt_multiplier,
                    details=estimate.details)
            return estimate.with_details(thermal=thermal_details)

        thermal_details["variance_engine"] = "sigma_lagsum"
        return _package_coupled(
            estimator, method, t_map, means, stds, corr_stds, vts, gain,
            thermal_details, n_jobs, tolerance)


def _feedback_gain(model: LeakageTemperatureModel, theta: ThermalOperator,
                   t_map: np.ndarray, means: np.ndarray,
                   site_scale: float, config: ThermalConfig,
                   vdd: float) -> float:
    """Closed-loop gain of leakage fluctuations at the operating point.

    A relative fluctuation ``dX/X`` in total leakage perturbs the power
    map along the mean-leakage shape ``m-hat = m / sum(m)``; the
    operator turns it into a temperature perturbation, and the local
    leakage slopes ``dm/dT`` return it as new leakage:

        gamma = power_scale * vdd * site_scale
                * sum_i s_i * (Theta m-hat)_i

    ``gamma < 1`` is the solver's documented operating region; the
    converged std is amplified by ``1/(1-gamma)``.
    """
    total = float(means.sum())
    if total <= 0.0 or theta.is_zero:
        return 0.0
    slopes = model.mean_slope_at(t_map)
    response = theta.apply(np.asarray(means, dtype=float) / total)
    return float(config.power_scale * vdd * site_scale
                 * (slopes * response).sum())


def _package_coupled(estimator: FullChipLeakageEstimator, method: str,
                     t_map: np.ndarray, means: np.ndarray,
                     stds: np.ndarray, corr_stds: np.ndarray,
                     vts: np.ndarray, gain: float,
                     thermal_details: Dict[str, Any],
                     n_jobs: int, tolerance: float) -> LeakageEstimate:
    """Chip moments from per-site RG moments on the converged map."""
    chip = estimator.chip
    site_scale = chip.n_cells / chip.n_sites
    positions = chip.site_positions()
    means_flat = np.asarray(means, dtype=float).ravel()
    _, site_std = exact_moments(
        positions,
        means_flat,
        np.asarray(stds, dtype=float).ravel(),
        estimator.correlation,
        corr_stds=np.asarray(corr_stds, dtype=float).ravel(),
        method="lagsum",
        grid=(chip.rows, chip.cols),
        n_jobs=n_jobs,
        tolerance=tolerance,
    )
    amplification = 1.0 / (1.0 - gain)
    site_variance = float(site_std ** 2) * amplification ** 2
    mean = site_scale * float(means_flat.sum())
    std = math.sqrt(site_variance) * site_scale
    total = float(means_flat.sum())
    # Leakage-weighted Vt multiplier: exact for the mean under per-site
    # multipliers (mean_with_vt = sum_i vt_i * m_i * scale).
    vt_multiplier = (float((np.asarray(vts, dtype=float).ravel()
                            * means_flat).sum()) / total
                     if total > 0.0 else float(vts.ravel()[0]))
    details = {
        "rows": chip.rows,
        "cols": chip.cols,
        "rg_mean": float(means_flat.mean()),
        "rg_std": float(np.asarray(stds, dtype=float).mean()),
        "site_variance": site_variance,
        "simplified_correlation": 1.0,
        "requested_method": method,
        "thermal": thermal_details,
    }
    return LeakageEstimate(
        mean=float(mean),
        std=float(std),
        method="linear",
        n_cells=int(chip.n_cells),
        signal_probability=float(estimator.signal_probability),
        vt_multiplier=float(vt_multiplier),
        details={key: _json_scalar(value)
                 for key, value in details.items()},
    )


def _diagnostics(config: ThermalConfig, ambient: float, *,
                 iterations: int, residuals, converged: bool,
                 gain: float, t_map: Optional[np.ndarray],
                 power_total: Optional[float], n_anchors: int,
                 variance_engine: Optional[str]) -> Dict[str, Any]:
    """The ``details["thermal"]`` diagnostics document (plain JSON)."""
    ratios = [residuals[i + 1] / residuals[i]
              for i in range(len(residuals) - 1)
              if residuals[i] > 0.0]
    contraction = (float(np.exp(np.mean(np.log(ratios))))
                   if ratios and min(ratios) > 0.0 else None)
    document: Dict[str, Any] = {
        "enabled": True,
        "feedback": bool(config.feedback),
        "mode": config.mode,
        "ambient": float(ambient),
        "iterations": int(iterations),
        "converged": bool(converged),
        "residuals": [float(r) for r in residuals],
        "residual": float(residuals[-1]) if residuals else 0.0,
        "contraction": contraction,
        "tolerance": float(config.tolerance),
        "damping": float(config.damping),
        "feedback_gain": float(gain),
        "std_amplification": (float(1.0 / (1.0 - gain))
                              if gain < 1.0 else None),
        "anchors": int(n_anchors),
        "anchor_spacing": float(config.anchor_spacing),
        "variance_engine": variance_engine,
    }
    if t_map is not None:
        document.update({
            "t_min": float(t_map.min()),
            "t_max": float(t_map.max()),
            "t_mean": float(t_map.mean()),
            "delta_t_max": float(t_map.max() - ambient),
        })
    if power_total is not None:
        document["power_total"] = float(power_total)
    return document
