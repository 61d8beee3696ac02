"""The numpy reference backend — the default, bit-identical to the
historical inline estimator code.

Every kernel here is the exact sequence of array operations the
estimators performed before the backend layer existed (the elementwise
expressions, the ufunc order, the reductions), so routing through this
backend is a pure refactor: all results match the pre-backend code bit
for bit. The one structural change — the Random-Gate covariance grid is
evaluated in batched chunks over the ``rho_L`` grid instead of one
python-loop iteration per point — preserves bit-identity because every
operation stays elementwise over the same operand values and the final
``alphas @ cross @ alphas`` contraction still runs per grid point on a
contiguous ``(q, q)`` slice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.backend.base import KernelBackend
from repro.exceptions import MomentExistenceError

#: Bound on ``chunk * q * q`` elements per batched covariance-grid
#: buffer (256 KiB of float64, three buffers), so the working set stays
#: in cache and peak memory flat no matter how fine the rho grid or how
#: large the mixture.
_GRID_CHUNK_ELEMENTS = 1 << 15


class NumpyBackend(KernelBackend):
    """Pure-numpy kernels; the reference for every parity contract."""

    name = "numpy"

    def rg_covariance_grid(self, alphas: np.ndarray, a: np.ndarray,
                           h: np.ndarray, k: np.ndarray, grid: np.ndarray,
                           mean_total: float) -> np.ndarray:
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

    def lag_reduce(self, counts: np.ndarray, rho: np.ndarray,
                   zero_lag: Tuple[int, int], same_site: float,
                   scale: Optional[float],
                   grid: Optional[np.ndarray],
                   values: Optional[np.ndarray]) -> float:
        rho = np.asarray(rho, dtype=float)
        if scale is not None:
            cov = scale * rho
        else:
            cov = np.interp(rho, grid, values)
        cov[zero_lag] = same_site
        return float(np.sum(counts * cov))

    def weighted_sum(self, weights: np.ndarray,
                     values: np.ndarray) -> float:
        return float((weights * values).sum())

    def exp_lag_rho(self, x: np.ndarray, y: np.ndarray, length: float,
                    floor: float, scale: float,
                    gaussian: bool) -> np.ndarray:
        dx = np.asarray(x, dtype=float)[:, None]
        dy = np.asarray(y, dtype=float)[None, :]
        distance = np.hypot(dx, dy)
        if gaussian:
            base = np.exp(-((distance / length) ** 2))
        else:
            base = np.exp(-distance / length)
        if floor == 0.0 and scale == 1.0:
            return base
        return floor + scale * base

    def modulate_noise(self, draws: np.ndarray,
                       amplitude: np.ndarray) -> np.ndarray:
        noise = draws[:, 0] + 1j * draws[:, 1]
        return amplitude[None] * noise

    def status(self) -> Dict[str, object]:
        return {"name": self.name, "compiled": False, "threads": 1,
                "numpy": np.__version__}
