"""The O(n^2) "true leakage" of a placed design (paper eq. 15).

Given every gate's position and leakage statistics, the variance of the
total leakage is the sum of all pairwise covariances. Two covariance
models are supported:

* **simplified** (``rho_leak = rho_L``, Section 3.1.2):
  ``var = sum_ab sigma_a sigma_b rho_L(d_ab)`` — the diagonal falls out
  naturally since ``rho_L(0) = 1``;
* **exact** — per-pair closed-form cross moments from the gates'
  ``(a, b, c)`` fits, so that ``var = sum_ab E[X_a X_b](rho_L(d_ab)) -
  (sum_a mu_a)^2``.

Both are evaluated block-wise so memory stays bounded for tens of
thousands of gates.

Beyond the dense O(n^2) reference loop kept here, :func:`exact_moments`
dispatches to the fast paths in
:mod:`repro.core.estimators.fast_exact` — spatial pruning, lattice lag
deduplication, and a shared-memory parallel block loop — selected via
``method=`` / ``n_jobs=`` / ``tolerance=``.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.characterization.fitting import LeakageFit
from repro.exceptions import EstimationError, MomentExistenceError
from repro.obs import span
from repro.process.correlation import SpatialCorrelation


def pair_params_from_fits(
    fits: Sequence[LeakageFit], mu_l: float, sigma_l: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-gate ``(a, h, k)`` parameter arrays for exact pair moments.

    For gate ``g`` with fit ``(a_g, b_g, c_g)``:
    ``a = c*sigma_l^2``, ``h = (b + 2*c*mu_l)*sigma_l``,
    ``k = ln(a_g) + b*mu_l + c*mu_l^2`` (standardized-variable form).
    """
    a = np.array([fit.c for fit in fits]) * sigma_l ** 2
    if np.any(1.0 - 2.0 * a <= 0):
        raise MomentExistenceError(
            "a fit has c*sigma^2 >= 1/2; pairwise moments do not exist")
    h = np.array([(fit.b + 2.0 * fit.c * mu_l) * sigma_l for fit in fits])
    k = np.array([math.log(fit.a) + fit.b * mu_l + fit.c * mu_l ** 2
                  for fit in fits])
    return a, h, k


def _pair_cross_moment(a1, h1, k1, a2, h2, k2, rho):
    """Vectorized ``E[X_1 X_2]`` for bivariate-normal lengths."""
    det = (1.0 - 2.0 * a1) * (1.0 - 2.0 * a2) - 4.0 * rho * rho * a1 * a2
    quad = (h1 * h1 * (1.0 - 2.0 * a2 + 2.0 * rho * rho * a2)
            + h2 * h2 * (1.0 - 2.0 * a1 + 2.0 * rho * rho * a1)
            + 2.0 * h1 * h2 * rho) / det
    return det ** -0.5 * np.exp(k1 + k2 + 0.5 * quad)


def exact_moments(
    positions: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    correlation: SpatialCorrelation,
    pair_params: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    corr_stds: Optional[np.ndarray] = None,
    block_size: int = 2048,
    *,
    method: str = "auto",
    n_jobs: int = 1,
    tolerance: float = 0.0,
    grid: Optional[Tuple[int, int]] = None,
) -> Tuple[float, float]:
    """``(mean, std)`` of a placed design's total leakage — eq. (15).

    Parameters
    ----------
    positions:
        ``(n, 2)`` gate coordinates [m].
    means / stds:
        Per-gate leakage mean and standard deviation [A].
    correlation:
        Total (D2D + WID) channel-length correlation function.
    pair_params:
        Optional per-gate ``(a, h, k)`` arrays from
        :func:`pair_params_from_fits`; when given, the exact ``f_mn``
        mapping is used instead of the simplified identity.
    corr_stds:
        Optional per-gate *correlatable* standard deviations used for the
        off-diagonal terms of the simplified model. Needed when a gate's
        ``stds`` include an independent per-gate mixture dimension (an
        unresolved input state): the state-selection variance appears on
        the diagonal but does not correlate across gates, exactly like
        the Random Gate's same-site discontinuity (paper eq. 11).
        Defaults to ``stds``. **Ignored on the exact ``pair_params``
        path** (a warning is emitted): the per-pair cross moments
        already carry each gate's full moment structure, and no
        diagonal/off-diagonal sigma split is applied there.
    block_size:
        Pairwise evaluation block edge.
    method:
        ``"auto"`` (default), ``"dense"``, ``"pruned"``, or ``"lagsum"``.
        ``auto`` keeps the dense path bit-compatible with the historical
        estimator at ``tolerance=0, n_jobs=1`` (and no ``grid`` hint);
        otherwise it picks the exact lag transform for lattice
        placements, spatial pruning for scattered placements under a
        short-range correlation, and the dense path as the fallback.
    n_jobs:
        Worker processes for the dense/pruned block loops (``-1`` for
        one per CPU). The lag transform is FFT-bound and ignores it.
    tolerance:
        Truncation threshold on the *decaying* part of the correlation.
        ``0`` disables truncation (the compact-support radius is still
        used for pruning). The induced variance error is bounded by
        ``tolerance * (sum corr_stds)^2`` on the simplified path.
    grid:
        Optional ``(rows, cols)`` site-lattice hint (e.g. from
        :class:`~repro.core.chip_model.FullChipModel`) enabling the lag
        transform without auto-detection.
    """
    positions = np.asarray(positions, dtype=float)
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    n = positions.shape[0]
    if positions.ndim != 2 or positions.shape[1] != 2:
        raise EstimationError(f"positions must be (n, 2), got {positions.shape}")
    if means.shape != (n,) or stds.shape != (n,):
        raise EstimationError("means/stds must align with positions")
    if corr_stds is None:
        corr_stds = stds
    else:
        corr_stds = np.asarray(corr_stds, dtype=float)
        if corr_stds.shape != (n,):
            raise EstimationError("corr_stds must align with positions")
        if pair_params is not None:
            warnings.warn(
                "corr_stds is ignored when pair_params is given: the "
                "exact pair-moment path applies no diagonal/off-diagonal "
                "sigma split", stacklevel=2)
    if method not in ("auto", "dense", "pruned", "lagsum"):
        raise EstimationError(
            f"unknown method {method!r}; choose auto, dense, pruned, "
            "or lagsum")

    mean_total = float(means.sum())

    from repro.core.estimators import fast_exact

    grid_info = None
    if method == "auto":
        method, grid_info = fast_exact.choose_method(
            positions, correlation, tolerance, n_jobs, grid)
    if method == "lagsum" and grid_info is None:
        rows, cols = grid if grid is not None else (None, None)
        grid_info = fast_exact.detect_grid(positions, rows=rows, cols=cols)
        if grid_info is None:
            raise EstimationError(
                "method='lagsum' requires positions on a regular site "
                "lattice (optionally hinted via grid=(rows, cols))")

    if method == "lagsum":
        variance = fast_exact.lagsum_variance(
            positions, means, stds, correlation, pair_params, corr_stds,
            grid_info, tolerance)
        return _finish(mean_total, variance)
    if method == "pruned":
        variance = fast_exact.pruned_variance(
            positions, means, stds, correlation, pair_params, corr_stds,
            block_size, tolerance, n_jobs)
        return _finish(mean_total, variance)
    if fast_exact.resolve_n_jobs(n_jobs) > 1:
        variance = fast_exact.dense_variance_parallel(
            positions, means, stds, correlation, pair_params, corr_stds,
            block_size, n_jobs)
        return _finish(mean_total, variance)

    variance = 0.0
    with span("exact.dense", n=n, block_size=block_size):
        for start_i in range(0, n, block_size):
            end_i = min(start_i + block_size, n)
            pos_i = positions[start_i:end_i]
            for start_j in range(start_i, n, block_size):
                end_j = min(start_j + block_size, n)
                pos_j = positions[start_j:end_j]
                delta = pos_i[:, None, :] - pos_j[None, :, :]
                rho = correlation.evaluate_xy(delta[..., 0], delta[..., 1])
                if pair_params is None:
                    block = (corr_stds[start_i:end_i, None]
                             * corr_stds[None, start_j:end_j] * rho)
                else:
                    a, h, k = pair_params
                    cross = _pair_cross_moment(
                        a[start_i:end_i, None], h[start_i:end_i, None],
                        k[start_i:end_i, None],
                        a[None, start_j:end_j], h[None, start_j:end_j],
                        k[None, start_j:end_j], rho)
                    block = cross - (means[start_i:end_i, None]
                                     * means[None, start_j:end_j])
                total = float(block.sum())
                if start_j == start_i:
                    variance += total
                else:
                    variance += 2.0 * total  # symmetric off-diagonal block
        if pair_params is None:
            # Replace the diagonal's correlatable variance with each
            # gate's full variance (they coincide when corr_stds is
            # stds).
            variance += float((stds ** 2).sum() - (corr_stds ** 2).sum())
    return _finish(mean_total, variance)


def _finish(mean_total: float, variance: float) -> Tuple[float, float]:
    if variance < 0:
        raise EstimationError(
            f"negative total variance ({variance:.3e}); inconsistent inputs")
    return mean_total, math.sqrt(variance)
