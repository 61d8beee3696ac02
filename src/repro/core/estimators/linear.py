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

#: Lags per block of the one-pass eq. (17) evaluation (32 Ki float64,
#: 256 KiB per temporary). Kernel, range check, covariance map and row
#: sums run block by block, so the working set stays in cache and peak
#: memory stays flat however large the site grid. In a fresh process,
#: blocks of 512 KiB made glibc hand every freed temporary back to the
#: kernel, costing ~5,600 page faults (~8 ms) per 1M-site estimate.
_LAG_BLOCK_ELEMENTS = 1 << 15


class LagGeometry:
    """Geometry-only half of the eq. (17) lag transform.

    Precomputes, for a ``rows x cols`` site grid, the folded lag
    coordinates and the separable multiplicities ``count_x``/``count_y``
    (eq. 16: ``n_ij = count_x[i] * count_y[j]``) — everything in the
    transform that depends only on the placement. The
    parameter-dependent half enters through :meth:`variance` (kernel,
    RG covariance mapping and weighted sum in one pass over blocks of
    lag rows) or, for a sweep that caches the kernel, through
    :meth:`rho` and :meth:`variance_from_rho`.

    Both paths run the same per-block reduce on the same blocks, and the
    kernel is elementwise in the lag coordinates, so
    ``variance(c, rg) == variance_from_rho(rho(c), rg)`` bit for bit.
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
            #: Non-negative lag displacement components [m]; (m,), (k,).
            self.x = i * pitch_x
            self.y = j * pitch_y
            #: Folded per-axis multiplicities (eq. 16); (m,), (k,).
            self.count_x = np.where(i == 0, 1.0, 2.0) * (cols - i)
            self.count_y = np.where(j == 0, 1.0, 2.0) * (rows - j)
            #: Index of the (0, 0) lag — the n self-pairs.
            self.zero_lag = (0, 0)

    @property
    def counts(self) -> np.ndarray:
        """Folded pair multiplicities ``n_ij`` as an ``m x k`` table
        (built on demand; the eq. (17) reduce never needs it)."""
        return self.count_x[:, None] * self.count_y[None, :]

    @property
    def n_lags(self) -> int:
        """Number of folded lag vectors, ``m k``."""
        return self.rows * self.cols

    def _kernel(self, correlation: SpatialCorrelation,
                rows: slice = slice(None)) -> np.ndarray:
        x = self.x[rows, None]
        with span("linear.kernel", n_lags=x.size * self.rows):
            return correlation.evaluate_xy(x, self.y[None, :])

    def rho(self, correlation: SpatialCorrelation) -> np.ndarray:
        """``rho_L`` at every lag — the correlation half of eq. (17).

        The x lags vary along axis 0 and the y lags along axis 1, so
        anisotropic (but even) correlation models stay exact.
        """
        return self._kernel(correlation)

    def variance(self, correlation: SpatialCorrelation,
                 rg_correlation: RGCorrelation) -> float:
        """Eq. (17) in one pass: kernel and reduce, block by block."""
        return self._reduce(lambda rows: self._kernel(correlation, rows),
                            rg_correlation)

    def variance_from_rho(self, rho: np.ndarray,
                          rg_correlation: RGCorrelation) -> float:
        """Complete eq. (17) from a (possibly cached) lag correlation.

        ``rho`` is never mutated (the covariance mapping allocates), so
        one cached array may serve many RG correlation models.
        """
        return self._reduce(np.asarray(rho, dtype=float).__getitem__,
                            rg_correlation)

    def _reduce(self, rho_rows, rg_correlation: RGCorrelation) -> float:
        """Walk blocks of lag rows: take the block's ``rho_rows(rows)``,
        map it to covariances, sum each row against ``count_y``; then
        sum the row sums against ``count_x``. The zero lag is the n
        self-pairs and gets the full RG variance (eq. 11)."""
        row_sums = np.empty(self.cols)
        step = max(1, _LAG_BLOCK_ELEMENTS // self.rows)
        for start in range(0, self.cols, step):
            rows = slice(start, start + step)
            rho = rho_rows(rows)
            with span("linear.reduce"):
                if rho.max() > 1.0 + 1e-12 or rho.min() < -1.0 - 1e-12:
                    raise EstimationError(
                        "length correlation must lie in [-1, 1]")
                scale = rg_correlation.covariance_scale
                if scale is not None:
                    cov = scale * rho
                else:
                    cov = np.interp(rho, rg_correlation.covariance_grid,
                                    rg_correlation.covariance_values)
                if start == 0:
                    cov[self.zero_lag] = rg_correlation.same_site_covariance
                np.multiply(cov, self.count_y, out=cov)
                np.sum(cov, axis=1, out=row_sums[rows])
        return float(np.sum(self.count_x * row_sums))


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
    return LagGeometry(rows, cols, pitch_x, pitch_y).variance(
        correlation, rg_correlation)
