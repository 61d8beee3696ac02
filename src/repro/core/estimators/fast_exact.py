"""Fast paths for the O(n^2) "true leakage" estimator (eq. 15).

Three composable accelerations over the dense pairwise sum:

* **spatial pruning** (``method="pruned"``) — gates are bucketed into a
  uniform grid whose cell edge is the correlation's effective support,
  so only pairs in neighbouring buckets are evaluated: O(n*k) instead of
  O(n^2). The D2D correlation floor never decays, so the total
  correlation is split ``rho = rho_C + g`` and only the decaying part
  ``g`` is truncated; the constant part sums in closed form over *all*
  pairs (simplified model: ``rho_C * (sum sigma)^2``; exact pair
  moments: a gate-type-grouped evaluation of the cross moment at
  ``rho_C``). The truncation error of the variance is bounded by
  ``tolerance * (sum sigma)^2`` (simplified) and by the corresponding
  Lipschitz bound of ``f_mn`` (exact mode).

* **lag deduplication** (``method="lagsum"``) — when positions lie on a
  regular site lattice, pairs are grouped by (gate-type pair, lag
  vector): each unique correlation value is computed once and weighted
  by its multiplicity. This generalizes the paper's eq. (16) counting
  trick to heterogeneous per-gate statistics: the multiplicities are the
  2-D cross-correlations of the per-type occupancy grids (or, in the
  simplified model, the autocorrelation of the sigma grid), computed by
  FFT in O(n log n). The lag sum is *exact* on lattices — no truncation.

* **block parallelism** — the dense block loop and the pruned
  bucket-pair loop distribute over a :func:`repro.parallel.parallel_map`
  process pool with the per-gate arrays in shared memory; workers return
  partial variance sums that are reduced in deterministic task order.

The public entry point stays :func:`repro.core.estimators.exact.exact_moments`,
which dispatches here for ``method`` other than ``"dense"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy.fft import next_fast_len

from repro.exceptions import CorrelationError, EstimationError
from repro.obs import span
from repro.parallel import parallel_map, resolve_n_jobs
from repro.process.correlation import SpatialCorrelation, TotalCorrelation

#: Bucket-lattice blow-up guard: a detected lattice with more than this
#: many sites per gate is treated as "not a grid" (the FFT lag transform
#: would mostly multiply zeros).
_GRID_OCCUPANCY_FACTOR = 16

#: Half of the 3x3 bucket neighbourhood: each unordered bucket pair
#: appears exactly once ((0, 0) is the bucket with itself).
_HALF_NEIGHBOURHOOD = ((0, 0), (1, 0), (0, 1), (1, 1), (1, -1))


# ---------------------------------------------------------------------------
# Grid detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridInfo:
    """A regular site lattice underlying a set of positions.

    ``row_index``/``col_index`` give each gate's lattice coordinates;
    occupancy may be sparse (fewer gates than ``rows * cols``) or
    multiple (several gates on one site) — both are handled exactly by
    the lag transform.
    """

    rows: int
    cols: int
    pitch_x: float
    pitch_y: float
    row_index: np.ndarray
    col_index: np.ndarray

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols


def _axis_indices(values: np.ndarray, rel_tol: float):
    """Snap one coordinate axis to a uniform lattice.

    Returns ``(indices, count, pitch)`` or ``None`` when the values do
    not lie (within ``rel_tol`` of the pitch) on a uniform lattice.
    """
    unique = np.unique(values)
    if unique.size == 1:
        return np.zeros(values.shape[0], dtype=np.intp), 1, 1.0
    pitch = float(np.diff(unique).min())
    if pitch <= 0:
        return None
    offsets = (values - unique[0]) / pitch
    indices = np.rint(offsets)
    if float(np.abs(offsets - indices).max()) > rel_tol:
        return None
    count = int(indices.max()) + 1
    return indices.astype(np.intp), count, pitch


def detect_grid(
    positions: np.ndarray,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
    rel_tol: float = 1e-6,
) -> Optional[GridInfo]:
    """Detect a regular site lattice underlying ``positions``.

    ``rows``/``cols`` are optional hints (e.g. from a
    :class:`~repro.core.chip_model.FullChipModel`): when given, they
    must cover the detected occupied extent and fix the lattice
    dimensions. Returns ``None`` when the positions are not on a
    lattice, or when the lattice would be grossly under-occupied
    (more than ``16x`` as many sites as gates).
    """
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    if n == 0:
        return None
    x_axis = _axis_indices(positions[:, 0], rel_tol)
    y_axis = _axis_indices(positions[:, 1], rel_tol)
    if x_axis is None or y_axis is None:
        return None
    col_index, n_cols, pitch_x = x_axis
    row_index, n_rows, pitch_y = y_axis
    if rows is not None:
        if rows < n_rows:
            return None
        n_rows = int(rows)
    if cols is not None:
        if cols < n_cols:
            return None
        n_cols = int(cols)
    if n_rows * n_cols > max(_GRID_OCCUPANCY_FACTOR * n, 4096):
        return None
    # Degenerate single-row/column lattices get the other axis' pitch so
    # downstream lag distances stay sensible.
    if n_cols == 1:
        pitch_x = pitch_y
    if n_rows == 1:
        pitch_y = pitch_x
    return GridInfo(rows=n_rows, cols=n_cols, pitch_x=pitch_x,
                    pitch_y=pitch_y, row_index=row_index,
                    col_index=col_index)


# ---------------------------------------------------------------------------
# Correlation-floor split and truncation radius
# ---------------------------------------------------------------------------

def floor_split(correlation: SpatialCorrelation
                ) -> Tuple[float, SpatialCorrelation]:
    """Split ``rho(d) = rho_C + g(d)`` into the D2D floor and the
    decaying part ``g``.

    Only :class:`TotalCorrelation` carries an explicit floor; everything
    else is treated as fully decaying.
    """
    if isinstance(correlation, TotalCorrelation):
        return correlation.rho_floor, correlation.decaying_part()
    return 0.0, correlation


def truncation_radius(correlation: SpatialCorrelation,
                      tolerance: float) -> float:
    """Distance beyond which the *decaying* part of ``correlation``
    stays below ``tolerance``; ``inf`` when no finite radius exists."""
    _, decaying = floor_split(correlation)
    if tolerance <= 0 and not math.isfinite(decaying.support):
        return math.inf
    try:
        return decaying.effective_support(tolerance) if tolerance > 0 \
            else decaying.support
    except CorrelationError:
        return math.inf


# ---------------------------------------------------------------------------
# Exact pair-moment helpers (shared with the dense path)
# ---------------------------------------------------------------------------

def _independent_means(a: np.ndarray, h: np.ndarray,
                       k: np.ndarray) -> np.ndarray:
    """``E[X]`` implied by the standardized ``(a, h, k)`` parameters —
    the rho -> 0 limit of the pairwise cross moment."""
    one = 1.0 - 2.0 * a
    return one ** -0.5 * np.exp(k + h * h / (2.0 * one))


def _pair_floor_total(a: np.ndarray, h: np.ndarray, k: np.ndarray,
                      floor: float, block_size: int = 1024) -> float:
    """``sum_ab E[X_a X_b](rho_C)`` over all ordered gate pairs.

    With no floor the cross moment factorizes and the sum collapses to
    ``(sum_g E[X_g])^2``; otherwise gates are grouped by their unique
    ``(a, h, k)`` triplet so the cross moment is evaluated once per
    type pair (weighted by the pair-count product).
    """
    from repro.core.estimators.exact import _pair_cross_moment

    if floor == 0.0:
        return float(_independent_means(a, h, k).sum()) ** 2
    params, counts = np.unique(np.column_stack([a, h, k]), axis=0,
                               return_counts=True)
    au, hu, ku = params[:, 0], params[:, 1], params[:, 2]
    weights = counts.astype(float)
    total = 0.0
    n_types = params.shape[0]
    for start in range(0, n_types, block_size):
        stop = min(start + block_size, n_types)
        cross = _pair_cross_moment(
            au[start:stop, None], hu[start:stop, None], ku[start:stop, None],
            au[None, :], hu[None, :], ku[None, :], floor)
        total += float((weights[start:stop, None] * weights[None, :]
                        * cross).sum())
    return total


# ---------------------------------------------------------------------------
# Dense block loop (parallel)
# ---------------------------------------------------------------------------

def _dense_block_worker(task, arrays, payload) -> float:
    """Partial variance of one pairwise block — mirrors the serial dense
    loop in :mod:`repro.core.estimators.exact` bit for bit."""
    from repro.core.estimators.exact import _pair_cross_moment

    start_i, end_i, start_j, end_j = task
    positions = arrays["positions"]
    correlation = payload["correlation"]
    with span("exact.block"):
        delta = (positions[start_i:end_i, None, :]
                 - positions[None, start_j:end_j, :])
        rho = correlation.evaluate_xy(delta[..., 0], delta[..., 1])
        if payload["pair_mode"]:
            a, h, k = arrays["a"], arrays["h"], arrays["k"]
            means = arrays["means"]
            cross = _pair_cross_moment(
                a[start_i:end_i, None], h[start_i:end_i, None],
                k[start_i:end_i, None],
                a[None, start_j:end_j], h[None, start_j:end_j],
                k[None, start_j:end_j], rho)
            block = cross - (means[start_i:end_i, None]
                             * means[None, start_j:end_j])
        else:
            csig = arrays["corr_stds"]
            block = (csig[start_i:end_i, None]
                     * csig[None, start_j:end_j] * rho)
        total = float(block.sum())
        return total if start_i == start_j else 2.0 * total


def dense_variance_parallel(
    positions: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    correlation: SpatialCorrelation,
    pair_params,
    corr_stds: np.ndarray,
    block_size: int,
    n_jobs: int,
) -> float:
    """The dense O(n^2) variance with the block loop fanned out over a
    shared-memory worker pool. Equals the serial dense result exactly:
    identical per-block arithmetic, partials reduced in block order."""
    n = positions.shape[0]
    tasks = []
    for start_i in range(0, n, block_size):
        end_i = min(start_i + block_size, n)
        for start_j in range(start_i, n, block_size):
            tasks.append((start_i, end_i, start_j,
                          min(start_j + block_size, n)))
    arrays = {"positions": positions}
    if pair_params is not None:
        a, h, k = pair_params
        arrays.update(a=a, h=h, k=k, means=means)
    else:
        arrays["corr_stds"] = corr_stds
    payload = {"correlation": correlation,
               "pair_mode": pair_params is not None}
    partials = parallel_map(_dense_block_worker, tasks, arrays=arrays,
                            payload=payload, n_jobs=n_jobs)
    variance = 0.0
    for partial in partials:
        variance += partial
    if pair_params is None:
        variance += float((stds ** 2).sum() - (corr_stds ** 2).sum())
    return variance


# ---------------------------------------------------------------------------
# Spatial pruning
# ---------------------------------------------------------------------------

def _bucket_tasks(positions: np.ndarray, cutoff: float, block_size: int):
    """Sort gates into cutoff-sized buckets and enumerate the
    neighbouring (unordered) bucket-pair sub-blocks.

    Returns ``(order, tasks)``: a gate permutation grouping buckets
    contiguously, and an ``(m, 4)`` int array of
    ``(start_a, count_a, start_b, count_b)`` ranges into the permuted
    arrays. Ranges are capped at ``block_size`` so workers stay within
    bounded memory; diagonal sub-blocks are exactly those with
    ``start_a == start_b``.
    """
    cells = np.floor(positions / cutoff).astype(np.int64)
    order = np.lexsort((cells[:, 1], cells[:, 0]))
    sorted_cells = cells[order]
    unique_cells, starts = np.unique(sorted_cells, axis=0, return_index=True)
    n = positions.shape[0]
    counts = np.diff(np.append(starts, n))
    bucket_of = {(int(cx), int(cy)): idx
                 for idx, (cx, cy) in enumerate(unique_cells)}

    def chunks(bucket):
        start, count = int(starts[bucket]), int(counts[bucket])
        return [(s, min(block_size, start + count - s))
                for s in range(start, start + count, block_size)]

    tasks = []
    for idx, (cx, cy) in enumerate(unique_cells):
        for dx, dy in _HALF_NEIGHBOURHOOD:
            other = bucket_of.get((int(cx) + dx, int(cy) + dy))
            if other is None:
                continue
            if other == idx:
                own = chunks(idx)
                for i, (sa, ca) in enumerate(own):
                    for sb, cb in own[i:]:
                        tasks.append((sa, ca, sb, cb))
            else:
                for sa, ca in chunks(idx):
                    for sb, cb in chunks(other):
                        tasks.append((sa, ca, sb, cb))
    return order, np.asarray(tasks, dtype=np.int64).reshape(-1, 4)


def _pruned_chunk_worker(task, arrays, payload) -> float:
    """Partial variance over a contiguous range of bucket-pair blocks."""
    lo, hi = task
    with span("exact.pruned_chunk", n_blocks=hi - lo):
        return _pruned_chunk_sum(
            int(lo), int(hi), arrays["blocks"], arrays["positions"],
            payload["decaying"], payload["floor"], payload["pair_mode"],
            arrays)


def _pruned_chunk_sum(lo, hi, blocks, positions, decaying, floor,
                      pair_mode, arrays) -> float:
    from repro.core.estimators.exact import _pair_cross_moment

    total = 0.0
    for row in range(lo, hi):
        sa, ca, sb, cb = (int(v) for v in blocks[row])
        delta = (positions[sa:sa + ca, None, :]
                 - positions[None, sb:sb + cb, :])
        g = decaying.evaluate_xy(delta[..., 0], delta[..., 1])
        if pair_mode:
            a, h, k = arrays["a"], arrays["h"], arrays["k"]
            a1, h1, k1 = (a[sa:sa + ca, None], h[sa:sa + ca, None],
                          k[sa:sa + ca, None])
            a2, h2, k2 = (a[None, sb:sb + cb], h[None, sb:sb + cb],
                          k[None, sb:sb + cb])
            block = (_pair_cross_moment(a1, h1, k1, a2, h2, k2, floor + g)
                     - _pair_cross_moment(a1, h1, k1, a2, h2, k2, floor))
        else:
            csig = arrays["corr_stds"]
            block = csig[sa:sa + ca, None] * csig[None, sb:sb + cb] * g
        part = float(block.sum())
        total += part if sa == sb else 2.0 * part
    return total


def pruned_variance(
    positions: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    correlation: SpatialCorrelation,
    pair_params,
    corr_stds: np.ndarray,
    block_size: int,
    tolerance: float,
    n_jobs: int = 1,
) -> float:
    """Spatially pruned variance: neighbouring-bucket pairs evaluate the
    decaying correlation part; the constant D2D floor sums in closed
    form over all pairs; far pairs are truncated (error bounded by
    ``tolerance`` times the all-pairs sigma mass)."""
    floor, decaying = floor_split(correlation)
    cutoff = truncation_radius(correlation, tolerance)
    if not math.isfinite(cutoff):
        raise EstimationError(
            "spatial pruning needs a finite truncation radius; pass "
            "tolerance > 0 for infinite-support correlation models")
    extent = float(np.ptp(positions, axis=0).max()) if positions.size else 0.0
    cutoff = min(cutoff, max(extent, cutoff * 1e-9))

    with span("exact.prune_buckets"):
        order, blocks = _bucket_tasks(positions, cutoff, block_size)
    arrays = {"positions": positions[order], "blocks": blocks}
    if pair_params is not None:
        a, h, k = pair_params
        arrays.update(a=a[order], h=h[order], k=k[order])
    else:
        arrays["corr_stds"] = corr_stds[order]
    payload = {"decaying": decaying, "floor": floor,
               "pair_mode": pair_params is not None}

    n_jobs = resolve_n_jobs(n_jobs)
    n_blocks = blocks.shape[0]
    n_chunks = n_blocks if n_jobs == 1 else min(n_blocks, 16 * n_jobs)
    bounds = np.linspace(0, n_blocks, n_chunks + 1).astype(int) \
        if n_chunks else np.array([0, 0])
    tasks = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:])
             if hi > lo]
    partials = parallel_map(_pruned_chunk_worker, tasks, arrays=arrays,
                            payload=payload, n_jobs=n_jobs)
    near = 0.0
    for partial in partials:
        near += partial

    if pair_params is not None:
        a, h, k = pair_params
        variance = near + _pair_floor_total(a, h, k, floor) \
            - float(means.sum()) ** 2
    else:
        variance = near + floor * float(corr_stds.sum()) ** 2
        variance += float((stds ** 2).sum() - (corr_stds ** 2).sum())
    return variance


# ---------------------------------------------------------------------------
# Lag deduplication on a site lattice
# ---------------------------------------------------------------------------

def _lag_correlation(grid: GridInfo,
                     correlation: SpatialCorrelation) -> np.ndarray:
    """``rho`` at every lattice lag vector; shape
    ``(2*rows - 1, 2*cols - 1)`` indexed ``[rows-1+di, cols-1+dj]``."""
    with span("exact.lag_kernel", rows=grid.rows, cols=grid.cols):
        dj = np.arange(-(grid.cols - 1), grid.cols) * grid.pitch_x
        di = np.arange(-(grid.rows - 1), grid.rows) * grid.pitch_y
        return correlation.evaluate_xy(dj[None, :], di[:, None])


def lattice_fft_shape(rows: int, cols: int) -> Tuple[int, int]:
    """FFT shape for a linear convolution or cross-correlation of two
    ``rows x cols`` lattice grids: the smallest 2/3/5-smooth length
    ``>= 2n - 1`` on each axis.

    ``2n - 1`` is the number of distinct lags, so every lag lands on
    its own bin of the circular product (no wrap-around aliasing); a
    5-smooth length keeps pocketfft on its fast radix kernels.
    """
    return (next_fast_len(2 * rows - 1, real=True),
            next_fast_len(2 * cols - 1, real=True))


def _lag_crosscorr(spectrum_a: np.ndarray, spectrum_b: np.ndarray,
                   rows: int, cols: int,
                   shape: Tuple[int, int]) -> np.ndarray:
    """Cross-correlation ``sum_rc A[r, c] B[r+di, c+dj]`` for all lags,
    from precomputed ``rfft2`` spectra padded to ``shape``
    (:func:`lattice_fft_shape`).

    Lag ``d`` sits at circular index ``d mod N``; since ``N >= 2n - 1``
    the ``2n - 1`` lags occupy distinct bins, and rolling by
    ``(rows - 1, cols - 1)`` brings them to the front in order. Output
    is aligned with :func:`_lag_correlation`.
    """
    circular = np.fft.irfft2(np.conj(spectrum_a) * spectrum_b, s=shape)
    rolled = np.roll(circular, (rows - 1, cols - 1), axis=(0, 1))
    return rolled[: 2 * rows - 1, : 2 * cols - 1]


def lagsum_variance(
    positions: np.ndarray,
    means: np.ndarray,
    stds: np.ndarray,
    correlation: SpatialCorrelation,
    pair_params,
    corr_stds: np.ndarray,
    grid: GridInfo,
    tolerance: float = 0.0,
) -> float:
    """Exact lag-deduplicated variance on a site lattice.

    Simplified model: the pairwise sum is the lag-weighted
    autocorrelation of the per-site sigma grid (eq. 16 generalized to
    heterogeneous sigmas). Exact pair moments: gates are grouped by
    their unique ``(a, h, k)`` fit; the per-lag pair multiplicities are
    cross-correlations of the per-type occupancy grids, and each unique
    cross moment is evaluated once per (type pair, lag). A positive
    ``tolerance`` additionally truncates lags where the decaying
    correlation part is below it (the floor part still sums exactly).
    """
    rows, cols = grid.rows, grid.cols
    rho = _lag_correlation(grid, correlation)
    shape = lattice_fft_shape(rows, cols)

    if pair_params is None:
        with span("exact.sigma_grid"):
            sigma_grid = np.zeros((rows, cols))
            np.add.at(sigma_grid, (grid.row_index, grid.col_index),
                      corr_stds)
        with span("exact.fft", shape=f"{shape[0]}x{shape[1]}"):
            spectrum = np.fft.rfft2(sigma_grid, s=shape)
            auto = _lag_crosscorr(spectrum, spectrum, rows, cols, shape)
        with span("exact.reduce"):
            variance = float((auto * rho).sum())
            variance += float((stds ** 2).sum() - (corr_stds ** 2).sum())
            return variance

    from repro.core.estimators.exact import _pair_cross_moment

    a, h, k = pair_params
    params, type_of = np.unique(np.column_stack([a, h, k]), axis=0,
                                return_inverse=True)
    n_types = params.shape[0]
    counts = np.bincount(type_of, minlength=n_types).astype(float)
    spectra = []
    with span("exact.fft", n_types=n_types,
              shape=f"{shape[0]}x{shape[1]}"):
        for t in range(n_types):
            occupancy = np.zeros((rows, cols))
            members = type_of == t
            np.add.at(
                occupancy,
                (grid.row_index[members], grid.col_index[members]), 1.0)
            spectra.append(np.fft.rfft2(occupancy, s=shape))

    floor, _ = floor_split(correlation)
    active = (rho - floor) > tolerance if tolerance > 0 else None

    variance = 0.0
    with span("exact.reduce", n_types=n_types):
        for t in range(n_types):
            at, ht, kt = params[t]
            for u in range(t, n_types):
                au, hu, ku = params[u]
                weight = 1.0 if u == t else 2.0
                multiplicity = np.rint(_lag_crosscorr(
                    spectra[t], spectra[u], rows, cols, shape))
                if active is None:
                    cross = _pair_cross_moment(at, ht, kt, au, hu, ku,
                                               rho)
                    variance += weight * float(
                        (multiplicity * cross).sum())
                else:
                    cross_floor = float(_pair_cross_moment(
                        at, ht, kt, au, hu, ku, floor))
                    cross = _pair_cross_moment(at, ht, kt, au, hu, ku,
                                               rho[active])
                    near = float((multiplicity[active]
                                  * (cross - cross_floor)).sum())
                    variance += weight * (near + counts[t] * counts[u]
                                          * cross_floor)
        return variance - float(means.sum()) ** 2


# ---------------------------------------------------------------------------
# Method selection
# ---------------------------------------------------------------------------

def choose_method(
    positions: np.ndarray,
    correlation: SpatialCorrelation,
    tolerance: float,
    n_jobs: int,
    grid_hint: Optional[Tuple[int, int]],
) -> Tuple[str, Optional[GridInfo]]:
    """Pick the fastest applicable path for ``method="auto"``.

    At ``tolerance=0, n_jobs=1`` the dense path is kept for bit
    compatibility with the historical estimator. Otherwise lattice
    placements take the exact lag transform; scattered placements take
    spatial pruning when the correlation's truncation radius is
    meaningfully smaller than the die, and the (possibly parallel)
    dense path otherwise.
    """
    if tolerance == 0 and resolve_n_jobs(n_jobs) == 1 and grid_hint is None:
        return "dense", None
    rows, cols = grid_hint if grid_hint is not None else (None, None)
    grid = detect_grid(positions, rows=rows, cols=cols)
    if grid is not None:
        return "lagsum", grid
    cutoff = truncation_radius(correlation, tolerance)
    if math.isfinite(cutoff) and positions.size:
        extent = float(np.ptp(positions, axis=0).max())
        if cutoff < 0.5 * extent:
            return "pruned", None
    return "dense", None
