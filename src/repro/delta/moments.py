"""Pairwise cross-moment algebra for incremental estimation.

The exact RG covariance (paper eqs. 9-13) at a grid point ``rho_g`` is
the quadratic form

``C_g = alpha^T M_g alpha - mu_tot^2``

where ``M_g[m, n] = E[X_m X_n](rho_g)`` is the pairwise cross-moment
matrix — a function of the fitted ``(a, b, c)`` triplets and the process
statistics only, *independent of the mixture weights*. Everything this
module computes exploits that split:

* :func:`component_params` — the per-component ``(a, h, k)`` reduction
  of the fits (the same precomputation
  :meth:`RGCorrelation._exact_covariance_grid` performs);
* :func:`cross_block` — an arbitrary ``rows x cols`` sub-block of
  ``M_g`` over the whole grid, element-for-element identical to the
  entries :func:`~repro.core.rg_correlation.rg_covariance_grid` builds
  internally (same expression forms, so IEEE results match bit for
  bit);
* :func:`quadratic_products` — the one-pass chunked contraction
  producing everything :class:`~repro.delta.base.BaseEstimate` and
  :class:`~repro.delta.engine.DeltaProbe` snapshot: ``vq_g = a^T M_g
  a``, ``U_g = M_g a``, and optional line coefficients ``b_g = d^T M_g
  a`` / ``c_g = d^T M_g d`` for a probe direction ``d``;
* :class:`CrossMomentTable` — a cached full ``(G, q, q)`` tensor whose
  :meth:`contract` re-runs the grid build's final ``alphas @ cross[g] @
  alphas - mu_tot**2`` contraction verbatim, making usage-only rebuilds
  of the covariance grid **bit-identical** to a fresh
  ``rg_covariance_grid`` call.

An edit with support ``S`` (the components whose weight changed) then
updates the quadratic form in ``o(q)``:

``vq' = vq + 2 (U[:, S] @ delta) + delta^T M_SS delta``

with only the ``|S| x |S|`` block ``M_SS`` recomputed; committing the
edit additionally refreshes ``U' = U + M[:, S] @ delta`` so further
edits compose.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import MomentExistenceError

#: Bound on ``chunk * rows * cols`` elements per batched temporary
#: (~32 MiB of float64), keeping peak memory flat for any mixture size.
_CHUNK_ELEMENTS = 1 << 22


def component_params(fits, mu_l: float,
                     sigma_l: float) -> Tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Per-component ``(a, h, k)`` from the fitted ``(a, b, c)`` triplets.

    Exactly the reduction ``RGCorrelation._exact_covariance_grid``
    performs before handing off to ``rg_covariance_grid``, so cross-moment
    entries built from these parameters match the grid's bit for bit.
    """
    a = np.array([fit.c for fit in fits]) * sigma_l ** 2
    if np.any(1.0 - 2.0 * a <= 0):
        raise MomentExistenceError(
            "a mixture component has c*sigma^2 >= 1/2; its pairwise "
            "moments do not exist")
    h = np.array([(fit.b + 2.0 * fit.c * mu_l) * sigma_l for fit in fits])
    k = np.array([math.log(fit.a) + fit.b * mu_l + fit.c * mu_l ** 2
                  for fit in fits])
    return a, h, k


def _pair_blocks(a_r, h_r, k_r, a_c, h_c, k_c):
    """The rho-independent pairwise building blocks for a sub-block.

    Mirrors the hoisted precomputation in
    :func:`~repro.core.rg_correlation.rg_covariance_grid` restricted to
    ``rows x cols`` index subsets; every entry equals the corresponding
    full-matrix entry exactly (elementwise expressions only).
    """
    one_r = 1.0 - 2.0 * a_r
    one_c = 1.0 - 2.0 * a_c
    d0 = np.outer(one_r, one_c)
    aa = np.outer(a_r, a_c)
    h_sq_r = h_r * h_r
    h_sq_c = h_c * h_c
    p0 = h_sq_r[:, None] * one_c[None, :] + h_sq_c[None, :] * one_r[:, None]
    p2 = 2.0 * (h_sq_r[:, None] * a_c[None, :]
                + h_sq_c[None, :] * a_r[:, None])
    p1 = 2.0 * np.outer(h_r, h_c)
    k_sum = k_r[:, None] + k_c[None, :]
    return d0, aa, p0, p1, p2, k_sum


def _chunk(grid: np.ndarray, n_rows: int, n_cols: int) -> int:
    return max(1, _CHUNK_ELEMENTS // max(1, n_rows * n_cols))


def cross_block(a: np.ndarray, h: np.ndarray, k: np.ndarray,
                grid: np.ndarray, rows: np.ndarray,
                cols: np.ndarray) -> np.ndarray:
    """``M_g[rows, cols]`` for every grid point — shape ``(G, R, C)``.

    Entries are bit-identical to the corresponding entries of the full
    cross-moment matrices ``rg_covariance_grid`` builds: the expression
    forms (including the ``(4*rho_sq) * aa`` association) are copied
    verbatim, and all operations are elementwise.
    """
    rows = np.asarray(rows, dtype=int)
    cols = np.asarray(cols, dtype=int)
    d0, aa, p0, p1, p2, k_sum = _pair_blocks(
        a[rows], h[rows], k[rows], a[cols], h[cols], k[cols])
    out = np.empty((grid.shape[0], rows.shape[0], cols.shape[0]))
    chunk = _chunk(grid, rows.shape[0], cols.shape[0])
    for start in range(0, grid.shape[0], chunk):
        rho = grid[start:start + chunk]
        rho_sq = rho * rho
        det = d0[None] - (4.0 * rho_sq)[:, None, None] * aa[None]
        exists = det > 0
        if not exists.all():
            bad = int(np.argmin(exists.all(axis=(1, 2))))
            raise MomentExistenceError(
                "pairwise cross moment does not exist at "
                f"rho_L = {grid[start + bad]:.3f}")
        quad = (p0[None] + rho[:, None, None] * p1[None]
                + rho_sq[:, None, None] * p2[None]) / det
        out[start:start + chunk] = det ** -0.5 * np.exp(k_sum[None]
                                                        + 0.5 * quad)
    return out


def quadratic_products(a: np.ndarray, h: np.ndarray, k: np.ndarray,
                       grid: np.ndarray, alphas: np.ndarray,
                       direction: Optional[np.ndarray] = None,
                       want_u: bool = True):
    """One chunked pass over the grid computing the quadratic-form state.

    Returns ``(vq, U, b, c)`` where ``vq_g = alphas^T M_g alphas``,
    ``U_g = M_g alphas`` (``None`` when ``want_u`` is false), and — when
    a probe ``direction`` ``d`` is given — ``b_g = d^T M_g alphas`` and
    ``c_g = d^T M_g d`` (else ``None``). One pass costs the same as a
    covariance-grid build; every later edit or probe then works
    from these ``O(G q)`` summaries without touching ``M`` again.
    """
    q = alphas.shape[0]
    idx = np.arange(q)
    n_grid = grid.shape[0]
    vq = np.empty(n_grid)
    u = np.empty((n_grid, q)) if want_u else None
    b = np.empty(n_grid) if direction is not None else None
    c = np.empty(n_grid) if direction is not None else None
    d0, aa, p0, p1, p2, k_sum = _pair_blocks(a[idx], h[idx], k[idx],
                                             a[idx], h[idx], k[idx])
    chunk = _chunk(grid, q, q)
    for start in range(0, n_grid, chunk):
        rho = grid[start:start + chunk]
        rho_sq = rho * rho
        det = d0[None] - (4.0 * rho_sq)[:, None, None] * aa[None]
        exists = det > 0
        if not exists.all():
            bad = int(np.argmin(exists.all(axis=(1, 2))))
            raise MomentExistenceError(
                "pairwise cross moment does not exist at "
                f"rho_L = {grid[start + bad]:.3f}")
        quad = (p0[None] + rho[:, None, None] * p1[None]
                + rho_sq[:, None, None] * p2[None]) / det
        cross = det ** -0.5 * np.exp(k_sum[None] + 0.5 * quad)
        for offset in range(rho.shape[0]):
            g = start + offset
            m_alpha = cross[offset] @ alphas
            vq[g] = float(alphas @ m_alpha)
            if want_u:
                u[g] = m_alpha
            if direction is not None:
                b[g] = float(direction @ m_alpha)
                c[g] = float(direction @ (cross[offset] @ direction))
    return vq, u, b, c


class CrossMomentTable:
    """Cached full cross-moment tensor for usage-only rebuild reuse.

    Holds the ``(G, q, q)`` tensor ``cross[g] = M_g`` for one component
    set (one label tuple + process point + grid). :meth:`contract`
    reproduces ``rg_covariance_grid``'s terminal contraction — ``float(alphas
    @ cross[g] @ alphas) - mean_total**2`` per grid point, on a C-order
    contiguous ``(q, q)`` slice — so for any mixture weights over the
    *same* components the produced covariance values are bit-identical
    to a fresh ``rg_covariance_grid`` build. This is what lets
    usage-axis sweep points skip the O(G q^2) moment build and pay only
    the O(G q) contraction.

    ``max_elements`` bounds the cached tensor (default ~128 MiB of
    float64); :meth:`build` returns ``None`` above the bound so callers
    fall back to the normal path.
    """

    def __init__(self, grid: np.ndarray, cross: np.ndarray) -> None:
        self.grid = grid
        self.cross = np.ascontiguousarray(cross)

    @classmethod
    def build(cls, fits, mu_l: float, sigma_l: float, grid: np.ndarray,
              max_elements: int = 1 << 24) -> Optional["CrossMomentTable"]:
        q = len(fits)
        if grid.shape[0] * q * q > max_elements:
            return None
        a, h, k = component_params(fits, mu_l, sigma_l)
        idx = np.arange(q)
        return cls(grid, cross_block(a, h, k, grid, idx, idx))

    @property
    def nbytes(self) -> int:
        return int(self.cross.nbytes)

    def contract(self, alphas: np.ndarray, mean_total: float) -> np.ndarray:
        """Covariance values for mixture ``alphas`` — bit-identical to a
        fresh ``rg_covariance_grid`` build over the same components."""
        values = np.empty_like(self.grid)
        for g in range(self.grid.shape[0]):
            values[g] = float(alphas @ self.cross[g] @ alphas) \
                - mean_total ** 2
        return values
