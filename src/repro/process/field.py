"""Correlated Gaussian random-field sampling.

Monte-Carlo validation of the full-chip estimators requires sampling the
within-die channel-length variation as a zero-mean, unit-variance
Gaussian field with a prescribed isotropic correlation function, at the
locations of all gates on the die.

Two exact samplers are provided:

* :class:`CholeskyFieldSampler` — works for arbitrary point sets; cost
  ``O(n^3)`` setup, suitable up to a few thousand points.
* :class:`CirculantFieldSampler` — FFT circulant-embedding sampler for
  regular grids (Dietrich & Newsam, 1997); near-linear cost, suitable for
  millions of sites. Exact when the embedding is positive semi-definite;
  small negative embedding eigenvalues are clipped with a recorded
  relative energy loss.

:func:`sample_field` dispatches between them.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import CorrelationError
from repro.process.correlation import SpatialCorrelation


class CholeskyFieldSampler:
    """Exact correlated-field sampler for an arbitrary set of points.

    Parameters
    ----------
    points:
        ``(n, 2)`` array of site coordinates [m].
    correlation:
        Isotropic correlation function.
    jitter:
        Diagonal regularization added if the correlation matrix is not
        numerically positive definite.
    """

    def __init__(self, points: np.ndarray, correlation: SpatialCorrelation,
                 jitter: float = 1e-10) -> None:
        self.points = np.asarray(points, dtype=float)
        self.correlation = correlation
        matrix = correlation.matrix(self.points)
        n = matrix.shape[0]
        try:
            self._chol = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            # Regularize: tiny negative eigenvalues from round-off are
            # expected for smooth kernels (e.g. Gaussian) on dense grids.
            matrix = matrix + jitter * n * np.eye(n)
            try:
                self._chol = np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError as exc:
                raise CorrelationError(
                    "correlation matrix is not positive semi-definite; "
                    "is the correlation function valid?") from exc

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    def sample(self, n_samples: int,
               rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Draw ``(n_samples, n_points)`` field realizations."""
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples!r}")
        rng = np.random.default_rng() if rng is None else rng
        white = rng.standard_normal((self.n_points, n_samples))
        return (self._chol @ white).T


class CirculantFieldSampler:
    """FFT circulant-embedding sampler on a regular ``rows x cols`` grid.

    Grid sites are at ``(col * pitch_x, row * pitch_y)``. Each call to
    :meth:`sample` returns realizations flattened in row-major (C) order,
    matching ``numpy.reshape(rows, cols)``.
    """

    def __init__(self, rows: int, cols: int, pitch_x: float, pitch_y: float,
                 correlation: SpatialCorrelation,
                 clip_tolerance: float = 1e-8) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("grid dimensions must be positive")
        if pitch_x <= 0 or pitch_y <= 0:
            raise ValueError("grid pitches must be positive")
        self.rows = int(rows)
        self.cols = int(cols)
        self.pitch_x = float(pitch_x)
        self.pitch_y = float(pitch_y)
        self.correlation = correlation

        # Minimal even embedding; doubling the grid guarantees that every
        # in-grid lag appears in the wrapped base row/column.
        self._p = max(2 * self.rows, 2)
        self._q = max(2 * self.cols, 2)
        row_idx = np.arange(self._p)
        col_idx = np.arange(self._q)
        wrap_rows = np.minimum(row_idx, self._p - row_idx) * self.pitch_y
        wrap_cols = np.minimum(col_idx, self._q - col_idx) * self.pitch_x
        base = correlation.evaluate_xy(wrap_cols[None, :],
                                       wrap_rows[:, None])

        eigenvalues = np.fft.fft2(base).real
        negative = eigenvalues[eigenvalues < 0]
        self.clipped_energy = float(-negative.sum() / np.abs(eigenvalues).sum()) \
            if negative.size else 0.0
        if self.clipped_energy > clip_tolerance:
            # Still proceed — the approximation error is recorded for the
            # caller — but refuse grossly invalid embeddings.
            if self.clipped_energy > 0.05:
                raise CorrelationError(
                    "circulant embedding strongly indefinite "
                    f"(clipped energy {self.clipped_energy:.3%}); increase the "
                    "grid size or use CholeskyFieldSampler")
        self._amplitude = np.sqrt(
            np.maximum(eigenvalues, 0.0) / (self._p * self._q))

    @property
    def n_points(self) -> int:
        return self.rows * self.cols

    def sample(self, n_samples: int,
               rng: Optional[np.random.Generator] = None, *,
               pair_chunk: Optional[int] = None) -> np.ndarray:
        """Draw ``(n_samples, rows*cols)`` field realizations.

        The complex draws and their FFTs run batched, ``pair_chunk``
        sample pairs at a time. The batching is bit-identical to the
        historical one-pair-at-a-time loop: a C-order
        ``(count, 2, p, q)`` normal draw consumes the RNG stream in
        exactly the real-block-then-imaginary-block-per-pair order the
        loop did, and a batched ``fft2`` over the trailing axes
        transforms each slice identically to a standalone call.

        ``pair_chunk=None`` (default) sizes batches so one batch's
        spectra stay within ~2 MiB — large batches of big embeddings
        fall out of cache and get *slower*, while small embeddings gain
        most from amortizing per-call overhead over many pairs.
        """
        if n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {n_samples!r}")
        if pair_chunk is None:
            pair_chunk = max(1, (2 << 20) // (16 * self._p * self._q))
        elif pair_chunk <= 0:
            raise ValueError(
                f"pair_chunk must be positive, got {pair_chunk!r}")
        rng = np.random.default_rng() if rng is None else rng
        out = np.empty((n_samples, self.n_points))
        # Each complex draw yields two independent real fields.
        n_pairs = (n_samples + 1) // 2
        for start in range(0, n_pairs, pair_chunk):
            count = min(pair_chunk, n_pairs - start)
            draws = rng.standard_normal((count, 2, self._p, self._q))
            noise = draws[:, 0] + 1j * draws[:, 1]
            spectra = np.fft.fft2(self._amplitude[None] * noise,
                                  axes=(-2, -1))
            blocks = spectra[:, : self.rows, : self.cols]
            first = 2 * start
            # Even sample indices take the real parts, odd the imaginary;
            # the final pair of an odd n_samples drops its imaginary half.
            out[first:first + 2 * count:2] = \
                blocks.real.reshape(count, self.n_points)
            stop = min(first + 2 * count, n_samples)
            n_im = (stop - first) // 2
            out[first + 1:stop:2] = \
                blocks.imag.reshape(count, self.n_points)[:n_im]
        return out


def grid_points(rows: int, cols: int, pitch_x: float,
                pitch_y: float) -> np.ndarray:
    """Coordinates of a row-major regular grid, shape ``(rows*cols, 2)``.

    Matches the flattening order of :class:`CirculantFieldSampler`.
    """
    cc, rr = np.meshgrid(np.arange(cols), np.arange(rows))
    return np.column_stack([cc.ravel() * pitch_x, rr.ravel() * pitch_y])


def sample_field(
    correlation: SpatialCorrelation,
    n_samples: int,
    *,
    points: Optional[np.ndarray] = None,
    grid: Optional[Tuple[int, int, float, float]] = None,
    rng: Optional[np.random.Generator] = None,
    cholesky_limit: int = 3000,
) -> np.ndarray:
    """Sample a unit-variance correlated Gaussian field.

    Exactly one of ``points`` (arbitrary ``(n, 2)`` coordinates) or
    ``grid`` (``(rows, cols, pitch_x, pitch_y)``) must be given. Regular
    grids above ``cholesky_limit`` points use the FFT sampler.

    Returns
    -------
    ndarray of shape ``(n_samples, n_points)``.
    """
    if (points is None) == (grid is None):
        raise ValueError("provide exactly one of points= or grid=")
    if grid is not None:
        rows, cols, pitch_x, pitch_y = grid
        if rows * cols > cholesky_limit:
            sampler: object = CirculantFieldSampler(
                rows, cols, pitch_x, pitch_y, correlation)
        else:
            sampler = CholeskyFieldSampler(
                grid_points(rows, cols, pitch_x, pitch_y), correlation)
        return sampler.sample(n_samples, rng)
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] > cholesky_limit:
        raise CorrelationError(
            f"{pts.shape[0]} arbitrary points exceed the Cholesky sampler "
            f"limit ({cholesky_limit}); place the design on a grid and use "
            "grid= instead")
    return CholeskyFieldSampler(pts, correlation).sample(n_samples, rng)
