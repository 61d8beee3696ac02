"""Temperature-dependent Random-Gate leakage models.

The coupled solver needs the RG site moments *as a function of
temperature*. Two engines provide them:

* **fast** — characterize the library at a sparse ladder of anchor
  temperatures (``anchor_spacing`` apart, the ambient itself always an
  exact anchor) and interpolate the RG mean / sigma / mean-of-stds
  **piecewise-linearly** between anchors. "Is Leakage Power a Linear
  Function of Temperature?" shows leakage is near-linear over
  operating-range windows of a few kelvin, which is exactly the
  per-segment span here; the residual curvature error is bounded and
  asserted in ``tests/thermal`` (see ``docs/THERMAL.md``).
* **full** — re-characterize the library at *every distinct site
  temperature* (quantized to ``full_quantization`` kelvin) on every
  call. Exact up to the quantization step, and the accuracy yardstick
  the fast path is measured against.

Characterizations and RG builds are cached per source characterization
object (weakly keyed, so sweeps sharing one library pay each anchor
once and nothing leaks when the characterization dies).
"""

from __future__ import annotations

import math
import weakref
from typing import Any, Dict, Tuple

import numpy as np

from repro.characterization.characterizer import (
    LibraryCharacterization,
    characterize_library,
)
from repro.core.api import RGComponents
from repro.exceptions import ConfigurationError, EstimationError
from repro.obs import span

#: Documented accuracy bound of the fast path: at the default
#: ``anchor_spacing`` (2 K), the piecewise-linear RG moments stay within
#: this relative tolerance of full re-characterization, and so do the
#: converged chip mean/std (asserted in ``tests/thermal``, at 16,384
#: cells in ``test_fast_vs_full.py``; derivation in ``docs/THERMAL.md``).
FAST_FULL_RTOL = 5e-3

# Per-source-characterization cache of temperature re-characterizations
# and RG builds, weakly keyed so entries die with their source. Sweeps
# and repeated service solves over one library share anchors through it.
_CACHE: "weakref.WeakKeyDictionary[LibraryCharacterization, Dict[Any, Any]]"
_CACHE = weakref.WeakKeyDictionary()


def _cache_for(characterization: LibraryCharacterization) -> Dict[Any, Any]:
    store = _CACHE.get(characterization)
    if store is None:
        store = {}
        _CACHE[characterization] = store
    return store


class LeakageTemperatureModel:
    """RG site moments as a function of junction temperature.

    Built once per coupled solve from the estimator's characterization
    and mixture inputs. ``moments_at`` evaluates per-site
    ``(mean, std, corr_std)`` arrays for a temperature map;
    ``mean_slope_at`` gives the local ``d(mean)/dT`` the feedback-gain
    analysis needs. Anchors extend on demand as the fixed-point iterate
    climbs.
    """

    def __init__(self, characterization: LibraryCharacterization,
                 usage, signal_probability: float, state_weights,
                 ambient: float, anchor_spacing: float) -> None:
        if characterization.mode != "analytical":
            raise EstimationError(
                "thermal estimation re-characterizes the library at "
                "solver-chosen temperatures, which is only deterministic "
                f"for mode='analytical' characterizations (got mode="
                f"{characterization.mode!r})")
        self.characterization = characterization
        self.usage = usage
        self.signal_probability = float(signal_probability)
        self.state_weights = state_weights
        self.ambient = float(ambient)
        self.anchor_spacing = float(anchor_spacing)
        self._cells = tuple(str(name) for name in usage.names)
        self._store = _cache_for(characterization)
        self._rg_key_base = (
            self._cells,
            tuple(float(f) for f in usage.fractions),
            self.signal_probability,
            id(state_weights) if state_weights is not None else None,
        )
        # Anchor ladder state (monotone temperatures, aligned arrays);
        # built lazily — open-loop solves never touch the anchors.
        self._anchor_temps: list = []
        self._anchor_means: list = []
        self._anchor_stds: list = []
        self._anchor_corr_stds: list = []
        self._anchor_vts: list = []

    # -- characterization ladder ------------------------------------------

    def characterize_at(self, temperature: float) -> LibraryCharacterization:
        """The usage-subset library characterized at ``temperature`` [K].

        Exactly the call :func:`repro.core.sweep.temperature_axis`
        makes, so open-loop results match ``temperature_sweep``
        bit-identically. Cached per (cells, temperature).
        """
        temperature = float(temperature)
        key = ("char", self._cells, temperature)
        cached = self._store.get(key)
        if cached is None:
            base = self.characterization
            try:
                tech_t = base.technology.at_temperature(temperature)
            except ConfigurationError as exc:
                raise EstimationError(
                    f"thermal iterate reached {temperature:.2f} K, "
                    f"outside the technology's valid range: {exc}"
                ) from exc
            with span("thermal.characterize", temperature=temperature):
                cached = characterize_library(base.library, tech_t,
                                              cells=self._cells)
            self._store[key] = cached
        return cached

    def components_at(self, temperature: float) -> RGComponents:
        """The RG bundle at ``temperature`` [K] (simplified correlation).

        The coupled variance engine maps the RG covariance onto per-site
        sigmas, which exists only under the simplified
        ``rho_leak = rho_L`` model (the same restriction as
        ``method="exact"``), so thermal components are always built
        simplified.
        """
        temperature = float(temperature)
        key = ("rg",) + self._rg_key_base + (temperature,)
        cached = self._store.get(key)
        if cached is None:
            cached = RGComponents.build(
                self.characterize_at(temperature), self.usage,
                self.signal_probability, simplified_correlation=True,
                state_weights=self.state_weights)
            self._store[key] = cached
        return cached

    def anchor_temperature(self, index: int) -> float:
        return self.ambient + index * self.anchor_spacing

    def ensure_anchors(self, t_max: float) -> None:
        """Extend the anchor ladder to cover ``[ambient, t_max]``."""
        needed = max(1, int(math.ceil(
            (float(t_max) - self.ambient) / self.anchor_spacing - 1e-12)))
        while len(self._anchor_temps) < needed + 1:
            temperature = self.anchor_temperature(len(self._anchor_temps))
            with span("thermal.anchors", temperature=temperature):
                components = self.components_at(temperature)
            rg = components.random_gate
            self._anchor_temps.append(temperature)
            self._anchor_means.append(float(rg.mean))
            self._anchor_stds.append(float(rg.std))
            self._anchor_corr_stds.append(float(rg.mean_of_stds))
            self._anchor_vts.append(float(components.vt_multiplier))

    @property
    def n_anchors(self) -> int:
        return len(self._anchor_temps)

    def _anchor_arrays(self) -> Tuple[np.ndarray, ...]:
        return (np.asarray(self._anchor_temps, dtype=float),
                np.asarray(self._anchor_means, dtype=float),
                np.asarray(self._anchor_stds, dtype=float),
                np.asarray(self._anchor_corr_stds, dtype=float),
                np.asarray(self._anchor_vts, dtype=float))

    # -- fast (piecewise-linear) evaluation -------------------------------

    def moments_at(self, temperatures: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                              np.ndarray]:
        """Piecewise-linear ``(mean, std, corr_std, vt)`` per site.

        ``temperatures`` is clipped below at the ambient (the thermal
        operator is non-negative, so sub-ambient iterates cannot occur;
        clipping guards float noise) and anchors extend above on demand.
        Values at anchor temperatures are exact — in particular, a
        uniformly-ambient map reproduces the ambient characterization
        bit-identically.
        """
        t, (temps, means, stds, corr_stds, vts) = self._interpolation(
            temperatures)
        return (np.interp(t, temps, means), np.interp(t, temps, stds),
                np.interp(t, temps, corr_stds), np.interp(t, temps, vts))

    def mean_at(self, temperatures: np.ndarray) -> np.ndarray:
        """The mean of :meth:`moments_at` alone."""
        t, (temps, means, _, _, _) = self._interpolation(temperatures)
        return np.interp(t, temps, means)

    def _interpolation(self, temperatures: np.ndarray):
        """``(clipped temperatures, anchor arrays)`` covering them."""
        temperatures = np.asarray(temperatures, dtype=float)
        self.ensure_anchors(float(temperatures.max()))
        return (np.clip(temperatures, self.ambient, None),
                self._anchor_arrays())

    def mean_slope_at(self, temperatures: np.ndarray) -> np.ndarray:
        """Local ``d(mean)/dT`` [A/K] of the piecewise-linear model."""
        temperatures = np.asarray(temperatures, dtype=float)
        self.ensure_anchors(float(temperatures.max()))
        temps, means, _, _, _ = self._anchor_arrays()
        segment = np.clip(
            np.searchsorted(temps, temperatures, side="right") - 1,
            0, len(temps) - 2)
        return ((means[segment + 1] - means[segment])
                / (temps[segment + 1] - temps[segment]))

    # -- full (re-characterizing) evaluation ------------------------------

    def full_moments_at(self, temperatures: np.ndarray,
                        quantization: float
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray]:
        """Exact ``(mean, std, corr_std, vt)`` by re-characterization.

        Quantizes the map to ``quantization``-kelvin bins (relative to
        the ambient, so a uniformly-ambient map quantizes to exactly the
        ambient) and characterizes each distinct bin once per solve.
        """
        temperatures = np.asarray(temperatures, dtype=float)
        t = np.clip(temperatures, self.ambient, None)
        quantized = (self.ambient
                     + np.round((t - self.ambient) / quantization)
                     * quantization)
        unique, inverse = np.unique(quantized, return_inverse=True)
        table = np.empty((len(unique), 4), dtype=float)
        for row, temperature in enumerate(unique):
            components = self.components_at(float(temperature))
            rg = components.random_gate
            table[row] = (rg.mean, rg.std, rg.mean_of_stds,
                          components.vt_multiplier)
        per_site = table[inverse.reshape(temperatures.shape)]
        return (per_site[..., 0], per_site[..., 1], per_site[..., 2],
                per_site[..., 3])
