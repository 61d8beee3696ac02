"""Fast linear thermal model on the Random-Gate site grid.

The die is modeled as the standard two-component compact thermal
network (the "fast concurrent power-thermal" decomposition):

* a **uniform package path** — total chip power times the
  junction-to-ambient resistance lifts the whole die together;
* a **lateral spreading kernel** — each site's power produces a local
  temperature bump that decays exponentially with distance, the
  resistive-grid / Green's-function response of the silicon + spreader
  stack.

Both are linear in the power map, so the whole operator is one
zero-padded FFT convolution over the site lattice — the same machinery
(and the same lattice evaluation,
:meth:`~repro.process.correlation.SpatialCorrelation.evaluate_xy` of an
exponential) the fast exact estimator uses for its lag transforms. Applying the
operator is O(n log n) in the site count and is called once per
fixed-point iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.estimators.fast_exact import lattice_fft_shape
from repro.obs import span
from repro.process.correlation import ExponentialCorrelation
from repro.thermal.config import ThermalConfig


class ThermalOperator:
    """Linear power-map -> temperature-rise operator on a site lattice.

    For a power map ``p`` (watts per site, shape ``(rows, cols)``):

    .. math::

        \\Delta T_i = R_{pkg} \\sum_j p_j + \\sum_j K(d_{ij})\\, p_j

    with the normalized exponential spreading kernel

    .. math::

        K(d) = R_{sp} \\; e^{-d/\\lambda} \\Big/
               \\sum_{\\ell \\in \\text{lags}} e^{-d_\\ell/\\lambda}

    normalized over the full ``(2r-1) x (2c-1)`` lag lattice so that a
    point source of 1 W contributes exactly ``R_sp`` kelvin summed over
    an unclipped neighbourhood — i.e. ``R_sp`` is the lateral spreading
    resistance in K/W, independent of grid resolution.

    The convolution is evaluated as a zero-padded FFT product at
    :func:`~repro.core.estimators.fast_exact.lattice_fft_shape` (the
    smallest 5-smooth length ``>= 2n - 1`` per axis). Only the
    ``rows x cols`` window centred on the kernel's zero lag is read,
    and circular wrap-around cannot reach it once the length is at
    least ``2n - 1``, so the result is the linear convolution; the
    kernel table itself is an
    :class:`~repro.process.correlation.ExponentialCorrelation` evaluated
    over the lag lattice, as the estimator lag transforms do.
    """

    def __init__(self, rows: int, cols: int, pitch_x: float,
                 pitch_y: float, config: ThermalConfig) -> None:
        self.rows = int(rows)
        self.cols = int(cols)
        self.config = config
        self.package_resistance = float(config.package_resistance)
        self.spreading_resistance = float(config.spreading_resistance)
        self._kernel_spectrum: Optional[np.ndarray] = None
        self._shape = lattice_fft_shape(self.rows, self.cols)
        if self.spreading_resistance > 0.0:
            with span("thermal.operator", rows=self.rows, cols=self.cols,
                      shape=f"{self._shape[0]}x{self._shape[1]}"):
                # Rows run along y and columns along x, so the axis-0
                # lags step by pitch_y and the axis-1 lags by pitch_x.
                lag_y = np.arange(1 - self.rows, self.rows) * float(pitch_y)
                lag_x = np.arange(1 - self.cols, self.cols) * float(pitch_x)
                # exp(-d / lambda) over the full lag lattice.
                spreading = ExponentialCorrelation(config.spreading_length)
                table = spreading.evaluate_xy(lag_x[None, :],
                                              lag_y[:, None])
                kernel = (self.spreading_resistance / table.sum()) * table
                self._kernel_spectrum = np.fft.rfft2(kernel, s=self._shape)

    def apply(self, power: np.ndarray) -> np.ndarray:
        """Temperature rise [K] of the power map ``power`` [W/site].

        ``power`` has shape ``(..., rows, cols)`` — leading axes batch
        independent maps (the Monte-Carlo oracle applies the operator to
        a whole chunk of samples at once); the result has the same
        shape. Pure function of its input — no state is carried between
        calls.
        """
        power = np.asarray(power, dtype=float)
        total = power.sum(axis=(-2, -1))[..., None, None]
        rise = np.broadcast_to(self.package_resistance * total,
                               power.shape).copy()
        if self._kernel_spectrum is not None:
            n_rows, n_cols = self._shape
            spectrum = np.fft.rfft2(power, s=self._shape)
            # irfft2 pruned to the rows that are read: the inverse
            # column transform, then the inverse row transform of the
            # window rows only. The same 1-D transforms of the same data
            # as irfft2, so bit-identical to it. The kernel's zero lag
            # sits at index (rows-1, cols-1), so the linear-convolution
            # output for site (i, j) lands at (i + rows - 1,
            # j + cols - 1) of the full product.
            columns = np.fft.ifft(spectrum * self._kernel_spectrum, n_rows,
                                  axis=-2)
            window = np.fft.irfft(
                columns[..., self.rows - 1:2 * self.rows - 1, :], n_cols,
                axis=-1)
            rise = rise + window[..., self.cols - 1:2 * self.cols - 1]
        return rise

    @property
    def is_zero(self) -> bool:
        """Whether the operator is identically zero (no thermal path)."""
        return (self.package_resistance == 0.0
                and self._kernel_spectrum is None)


def site_power_map(site_means: np.ndarray, rows: int, cols: int,
                   site_scale: float, config: ThermalConfig,
                   vdd: float) -> np.ndarray:
    """Power map [W/site] from per-site mean leakage currents [A].

    ``site_means`` holds the Random-Gate mean current of each site;
    ``site_scale = n_cells / n_sites`` rescales grid statistics to the
    actual cell count exactly as the estimator's packaging step does.
    ``background_power`` is spread uniformly.
    """
    n_sites = rows * cols
    per_site = (config.power_scale * vdd * site_scale
                * np.asarray(site_means, dtype=float)
                + config.background_power / n_sites)
    return per_site.reshape(rows, cols)
