"""The O(n) linear-time variance on the RG site grid (paper eqs. 16-17).

Because the leakage correlation depends only on the distance between
sites, the O(n^2) pairwise sum over a rectangular ``rows x cols`` grid
collapses into a sum over *distance vectors* ``(i, j)``, each occurring

``n_ij = (cols - |i|) * (rows - |j|)``

times (eq. 16). Every correlation model is even in each displacement
component (the ``SpatialCorrelation.evaluate_xy`` contract), so the lags
``(+-i, +-j)`` share one value: the sum runs over ``0 <= i < cols``,
``0 <= j < rows`` with ``n_ij`` doubled for each nonzero component. The
``(0, 0)`` entry counts exactly the ``n`` self-pairs and contributes the
full RG variance; every other entry uses the distinct-site covariance.
The transform is exact — no approximation relative to eq. (15).

The transform splits cleanly into a *geometry* half and a *parameter*
half: the lag vectors and their multiplicities depend only on the
placement grid, while the correlation kernel and the RG covariance
mapping depend only on process/usage parameters. :class:`LagGeometry`
holds the geometry half so parameter sweeps reuse it;
:func:`linear_variance` composes both halves for a single point.
"""

from __future__ import annotations

import numpy as np

from repro.core.rg_correlation import RGCorrelation
from repro.exceptions import EstimationError
from repro.obs import span
from repro.process.correlation import SpatialCorrelation


class LagGeometry:
    """Geometry-only half of the eq. (17) lag transform.

    Precomputes, for a ``rows x cols`` site grid, the folded lag
    coordinate arrays and multiplicity table (module docstring) —
    everything in the transform that depends only on the placement. The
    parameter-dependent half enters through :meth:`rho` (the kernel) and
    :meth:`variance_from_rho` (the RG covariance mapping and the final
    weighted sum), so a sweep over correlation or usage parameters pays
    for the geometry once.

    ``variance_from_rho(rho(c), rg)`` is, by construction, the exact
    sequence of array operations :func:`linear_variance` historically
    performed — sharing a cached ``rho`` across points is bit-identical
    to recomputing it, because the kernel evaluation is a pure function
    of the lag coordinates.
    """

    def __init__(self, rows: int, cols: int, pitch_x: float,
                 pitch_y: float) -> None:
        if rows <= 0 or cols <= 0:
            raise EstimationError("grid dimensions must be positive")
        if pitch_x <= 0 or pitch_y <= 0:
            raise EstimationError("site pitches must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.pitch_x = float(pitch_x)
        self.pitch_y = float(pitch_y)
        with span("linear.geometry", rows=self.rows, cols=self.cols):
            i = np.arange(cols)
            j = np.arange(rows)
            count_x = np.where(i == 0, 1, 2) * (cols - i)
            count_y = np.where(j == 0, 1, 2) * (rows - j)
            #: Non-negative lag displacement components [m]; (m,), (k,).
            self.x = i * pitch_x
            self.y = j * pitch_y
            #: Folded pair multiplicities n_ij (eq. 16); m x k.
            self.counts = count_x[:, None] * count_y[None, :]
            #: Index of the (0, 0) lag — the n self-pairs.
            self.zero_lag = (0, 0)

    @property
    def n_lags(self) -> int:
        """Number of folded lag vectors, ``m k``."""
        return self.counts.size

    def rho(self, correlation: SpatialCorrelation) -> np.ndarray:
        """``rho_L`` at every lag — the correlation half of eq. (17).

        The x lags vary along axis 0 and the y lags along axis 1, so
        anisotropic (but even) correlation models stay exact.
        """
        with span("linear.kernel", n_lags=self.n_lags):
            return correlation.evaluate_xy(self.x[:, None],
                                           self.y[None, :])

    def variance_from_rho(self, rho: np.ndarray,
                          rg_correlation: RGCorrelation) -> float:
        """Complete eq. (17) from a (possibly cached) lag correlation.

        ``rho`` is never mutated (the covariance mapping allocates), so
        one cached array may serve many RG correlation models. The
        zero-lag entry is the n self-pairs and gets the full RG
        variance (eq. 11).
        """
        rho = np.asarray(rho, dtype=float)
        if np.any(np.abs(rho) > 1.0 + 1e-12):
            raise EstimationError("length correlation must lie in [-1, 1]")
        with span("linear.reduce"):
            scale = rg_correlation.covariance_scale
            if scale is not None:
                cov = scale * rho
            else:
                cov = np.interp(rho, rg_correlation.covariance_grid,
                                rg_correlation.covariance_values)
            cov[self.zero_lag] = rg_correlation.same_site_covariance
            return float(np.sum(self.counts * cov))


def linear_variance(
    rows: int,
    cols: int,
    pitch_x: float,
    pitch_y: float,
    correlation: SpatialCorrelation,
    rg_correlation: RGCorrelation,
) -> float:
    """Total-leakage variance of the ``rows x cols`` RG array — eq. (17).

    Parameters
    ----------
    rows / cols:
        Site grid dimensions (``k`` and ``m`` in the paper).
    pitch_x / pitch_y:
        Site pitches ``Delta W`` / ``Delta H`` [m].
    correlation:
        Total channel-length correlation function.
    rg_correlation:
        The RG covariance structure.
    """
    geometry = LagGeometry(rows, cols, pitch_x, pitch_y)
    return geometry.variance_from_rho(geometry.rho(correlation),
                                      rg_correlation)
