"""Random-Gate leakage covariance (paper Section 2.2.3).

For two RGs at distinct locations, the covariance of their leakages is
the usage-weighted average over all gate-type pairs (eq. 9):

``C_XI(rho_L) = sum_mn alpha_m alpha_n [E[X_m X_n](rho_L) - mu_m mu_n]``

evaluated through the leakage-correlation mapping ``f_mn`` (eq. 10). At
the *same* location the covariance is the full RG variance (eq. 11) —
note the discontinuity: ``C_XI(rho_L -> 1) < sigma_XI^2`` because gate
*selection* at two distinct sites is independent even when the process
correlation is perfect.

Two evaluation modes:

* **exact** — the closed-form pairwise cross moment from the fitted
  ``(a, b, c)`` triplets, precomputed on a dense grid of ``rho_L`` and
  linearly interpolated (the mapping is smooth and nearly linear);
* **simplified** — the paper's Section 3.1.2 assumption
  ``rho_mn = rho_L`` for all pairs, giving
  ``C_XI(rho_L) = rho_L * (sum_i alpha_i sigma_i)^2``. This is the only
  option when cells were characterized by Monte Carlo (no triplets).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.random_gate import RandomGate
from repro.exceptions import EstimationError, MomentExistenceError

#: Bound on ``chunk * q * q`` elements per batched covariance-grid
#: buffer (256 KiB of float64, three buffers), so the working set stays
#: in cache and peak memory flat no matter how fine the rho grid or how
#: large the mixture.
_GRID_CHUNK_ELEMENTS = 1 << 15


def rg_covariance_grid(alphas: np.ndarray, a: np.ndarray, h: np.ndarray,
                       k: np.ndarray, grid: np.ndarray,
                       mean_total: float) -> np.ndarray:
    """RG covariance ``C_XI(rho_L)`` on a grid of ``rho_L`` values.

    For each grid point ``rho``: the alpha-weighted sum of the
    closed-form pairwise cross moments of all mixture-component pairs,
    minus ``mean_total**2`` (eqs. 9-10 through the standardized
    ``(a, h, k)`` parameters). Raises
    :class:`~repro.exceptions.MomentExistenceError` when any pair's
    cross moment does not exist at some grid point.

    The grid is evaluated in batched chunks instead of one python-loop
    iteration per point. That is bit-identical to the per-point loop:
    every operation stays elementwise over the same operand values, and
    the final ``alphas @ cross @ alphas`` contraction still runs per
    grid point on a contiguous ``(q, q)`` slice.
    """
    # Pairwise building blocks, computed once (q x q each) — exactly
    # the precomputation the historical loop hoisted.
    one = 1.0 - 2.0 * a
    d0 = np.outer(one, one)
    aa = np.outer(a, a)
    h_sq = h * h
    p0 = h_sq[:, None] * one[None, :] + h_sq[None, :] * one[:, None]
    p2 = 2.0 * (h_sq[:, None] * a[None, :] + h_sq[None, :] * a[:, None])
    p1 = 2.0 * np.outer(h, h)
    k_sum = k[:, None] + k[None, :]

    q = alphas.shape[0]
    values = np.empty_like(grid)
    chunk = max(1, _GRID_CHUNK_ELEMENTS // max(1, q * q))
    buffers = np.empty((3, min(chunk, grid.shape[0]), q, q))
    for start in range(0, grid.shape[0], chunk):
        rho = grid[start:start + chunk]
        n = rho.shape[0]
        det, quad, term = buffers[:, :n]
        # (4*rho)*rho == 4*(rho*rho) exactly: scaling by a power of
        # two commutes with IEEE rounding, so the batched form below
        # matches the historical per-scalar "4.0 * rho * rho * aa".
        rho_sq = rho * rho
        np.multiply((4.0 * rho_sq)[:, None, None], aa, out=det)
        np.subtract(d0, det, out=det)
        exists = det > 0
        if not exists.all():
            bad = int(np.argmin(exists.all(axis=(1, 2))))
            raise MomentExistenceError(
                "pairwise cross moment does not exist at "
                f"rho_L = {grid[start + bad]:.3f}")
        # quad = (p0 + rho*p1 + rho^2*p2) / det, then
        # cross = det**-0.5 * exp(k_sum + 0.5*quad), in place.
        np.multiply(rho[:, None, None], p1, out=quad)
        np.add(p0, quad, out=quad)
        np.multiply(rho_sq[:, None, None], p2, out=term)
        np.add(quad, term, out=quad)
        np.divide(quad, det, out=quad)
        np.multiply(0.5, quad, out=quad)
        np.add(k_sum, quad, out=quad)
        np.exp(quad, out=quad)
        np.power(det, -0.5, out=det)
        cross = np.multiply(det, quad, out=quad)
        for offset in range(n):
            values[start + offset] = float(
                alphas @ cross[offset] @ alphas) - mean_total ** 2
    return values


class RGCorrelation:
    """Distance-free RG covariance as a function of length correlation.

    Parameters
    ----------
    random_gate:
        The RG whose mixture defines the covariance.
    mu_l / sigma_l:
        Channel-length mean and *total* standard deviation.
    simplified:
        Force the simplified ``rho_mn = rho_L`` assumption. Defaults to
        exact when fits are available, simplified otherwise.
    n_grid:
        Grid resolution for the precomputed exact mapping on [-1, 1].
    """

    def __init__(self, random_gate: RandomGate, mu_l: float, sigma_l: float,
                 simplified: Optional[bool] = None, n_grid: int = 65) -> None:
        mixture = random_gate.mixture
        if simplified is None:
            simplified = not mixture.has_fits
        if not simplified and not mixture.has_fits:
            raise EstimationError(
                "exact RG correlation requires (a, b, c) fits; characterize "
                "the library in analytical mode or set simplified=True")
        self.random_gate = random_gate
        self.simplified = bool(simplified)
        self.variance = random_gate.variance

        if self.simplified:
            self._scale = random_gate.mean_of_stds ** 2
            self._grid = None
            self._values = None
        else:
            self._grid = np.linspace(-1.0, 1.0, n_grid)
            self._values = self._exact_covariance_grid(
                mixture, mu_l, sigma_l, self._grid)
            self._scale = None

    @classmethod
    def from_values(cls, random_gate: RandomGate, grid: np.ndarray,
                    values: np.ndarray) -> "RGCorrelation":
        """Exact-mode instance from a precomputed covariance mapping.

        ``grid``/``values`` must be the exact mapping for this random
        gate's mixture (e.g. produced by a cached
        :class:`repro.delta.moments.CrossMomentTable` contraction,
        which is bit-identical to a fresh :func:`rg_covariance_grid`
        build). Skips the O(grid x q^2) moment pass entirely.
        """
        instance = cls.__new__(cls)
        instance.random_gate = random_gate
        instance.simplified = False
        instance.variance = random_gate.variance
        instance._scale = None
        instance._grid = np.asarray(grid, dtype=float)
        instance._values = np.asarray(values, dtype=float)
        return instance

    @staticmethod
    def _exact_covariance_grid(mixture, mu_l: float, sigma_l: float,
                               grid: np.ndarray) -> np.ndarray:
        alphas = mixture.alphas
        a = np.array([fit.c for fit in mixture.fits]) * sigma_l ** 2
        if np.any(1.0 - 2.0 * a <= 0):
            raise MomentExistenceError(
                "a mixture component has c*sigma^2 >= 1/2; its pairwise "
                "moments do not exist")
        h = np.array([(fit.b + 2.0 * fit.c * mu_l) * sigma_l
                      for fit in mixture.fits])
        k = np.array([math.log(fit.a) + fit.b * mu_l + fit.c * mu_l ** 2
                      for fit in mixture.fits])
        mean_total = float(alphas @ mixture.means)
        return rg_covariance_grid(alphas, a, h, k, grid, mean_total)

    @property
    def covariance_scale(self) -> Optional[float]:
        """Simplified-mode slope ``(sum_i alpha_i sigma_i)^2``, or
        ``None`` in exact mode. With :attr:`covariance_grid` /
        :attr:`covariance_values` this exposes the covariance mapping in
        the exact representation the lag reductions consume."""
        return self._scale

    @property
    def covariance_grid(self) -> Optional[np.ndarray]:
        """Exact-mode ``rho_L`` interpolation grid, or ``None``."""
        return self._grid

    @property
    def covariance_values(self) -> Optional[np.ndarray]:
        """Exact-mode ``C_XI`` values on :attr:`covariance_grid`."""
        return self._values

    def covariance(self, rho_l) -> np.ndarray:
        """``C_XI`` between two *distinct* sites with length correlation
        ``rho_l`` (scalar or array)."""
        rho_l = np.asarray(rho_l, dtype=float)
        if np.any(np.abs(rho_l) > 1.0 + 1e-12):
            raise EstimationError("length correlation must lie in [-1, 1]")
        if self.simplified:
            return self._scale * rho_l
        return np.interp(rho_l, self._grid, self._values)

    def rho(self, rho_l) -> np.ndarray:
        """Normalized RG leakage correlation ``C_XI(rho_l) / sigma_XI^2``
        (the ``rho_XI`` entering eqs. (15)-(26)) for distinct sites."""
        if self.variance <= 0:
            raise EstimationError("random gate has zero variance")
        return self.covariance(rho_l) / self.variance

    @property
    def same_site_covariance(self) -> float:
        """Covariance at the same site: the RG variance (eq. 11)."""
        return self.variance

    @property
    def selection_gap(self) -> float:
        """``sigma_XI^2 - C_XI(1)``: the covariance discontinuity due to
        independent gate selection at distinct sites."""
        return float(self.variance - self.covariance(1.0))
