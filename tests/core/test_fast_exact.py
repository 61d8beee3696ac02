"""Equivalence of the fast exact-estimator paths with the dense sum.

The dense O(n^2) pairwise loop is the reference; the pruned and lag-sum
paths must reproduce it — to machine precision on lattices and exact
bucket covers, and within the documented truncation bound when a
``tolerance`` is requested. Coverage spans random and grid placements,
heterogeneous per-gate fits, all four isotropic correlation families
(compact and infinite support) plus the D2D-floor total correlation,
and both moment modes (simplified ``corr_stds`` and exact
``pair_params``).
"""

import math

import numpy as np
import pytest

from repro.characterization.fitting import LeakageFit
from repro.core.estimators import (
    detect_grid,
    exact_moments,
    pair_params_from_fits,
)
from repro.core.estimators.fast_exact import (
    GridInfo,
    _lag_correlation,
    _lag_crosscorr,
    lattice_fft_shape,
)
from repro.exceptions import EstimationError
from repro.process import (
    AnisotropicCorrelation,
    ExponentialCorrelation,
    GaussianCorrelation,
    LinearCorrelation,
    ProcessParameter,
    SphericalCorrelation,
    TotalCorrelation,
)

MU_L = 50e-9
SIGMA_L = 2.5e-9

#: Four heterogeneous cell-state fits, tiled over the design so the
#: type-grouped paths see repeated (a, h, k) triplets.
FITS = (
    LeakageFit(a=2.0e-7, b=-4.5e7, c=9.0e13, rms_log_error=0.0),
    LeakageFit(a=5.0e-8, b=-6.0e7, c=1.4e14, rms_log_error=0.0),
    LeakageFit(a=1.1e-7, b=-5.2e7, c=1.1e14, rms_log_error=0.0),
    LeakageFit(a=3.3e-8, b=-3.8e7, c=7.0e13, rms_log_error=0.0),
)

CORRELATIONS = {
    "exponential": ExponentialCorrelation(2e-4),
    "gaussian": GaussianCorrelation(2e-4),
    "linear": LinearCorrelation(4e-4),
    "spherical": SphericalCorrelation(4e-4),
    "total-floor": TotalCorrelation(
        ExponentialCorrelation(2e-4),
        ProcessParameter("L", MU_L, SIGMA_L / math.sqrt(2),
                         SIGMA_L / math.sqrt(2))),
}


def random_placement(n, rng, extent=2e-3):
    return rng.uniform(0.0, extent, size=(n, 2))


def grid_placement(n_side, pitch=12e-6):
    cc, rr = np.meshgrid(np.arange(n_side), np.arange(n_side))
    return np.column_stack([cc.ravel() * pitch, rr.ravel() * pitch])


def rect_placement(rows, cols, pitch_x=12e-6, pitch_y=17e-6):
    cc, rr = np.meshgrid(np.arange(cols), np.arange(rows))
    return np.column_stack([cc.ravel() * pitch_x, rr.ravel() * pitch_y])


def gate_arrays(n, rng):
    """Heterogeneous means/stds/corr_stds plus tiled pair params.

    Means are the fit-implied ``E[X_g]`` so the pair-moment variance
    identity ``sum cross - (sum mu)^2`` stays consistent.
    """
    fits = tuple(FITS[i % len(FITS)] for i in range(n))
    pair_params = pair_params_from_fits(fits, MU_L, SIGMA_L)
    a, h, k = pair_params
    one = 1.0 - 2.0 * a
    means = one ** -0.5 * np.exp(k + h * h / (2.0 * one))
    stds = rng.uniform(0.2e-7, 0.8e-7, size=n)
    corr_stds = stds * rng.uniform(0.6, 1.0, size=n)
    return means, stds, corr_stds, pair_params


class TestLagCorrelation:
    """The lagsum layout: y lags along axis 0, x lags along axis 1."""

    @staticmethod
    def grid(rows, cols, pitch_x, pitch_y):
        empty = np.zeros(0, dtype=int)
        return GridInfo(rows, cols, pitch_x, pitch_y, empty, empty)

    def test_axis_layout_for_anisotropic_model(self):
        correlation = AnisotropicCorrelation(
            ExponentialCorrelation(2e-4), scale_x=2.0, scale_y=0.5)
        rho = _lag_correlation(self.grid(3, 4, 1e-4, 2e-4), correlation)
        assert rho.shape == (5, 7)
        dj = np.arange(-3, 4) * 1e-4
        di = np.arange(-2, 3) * 2e-4
        assert np.array_equal(rho, correlation.evaluate_xy(
            dj[None, :], di[:, None]))

    @pytest.mark.parametrize("name", ["exponential", "gaussian",
                                      "total-floor"])
    def test_matches_historical_lattice_kernel(self, name):
        """Equal, bit for bit, to the hand-fused kernel
        ``floor + scale * f(sqrt(dx*dx + dy*dy) / length)`` on (dy, dx),
        and within 1e-15 relative of the former ``hypot`` kernel, whose
        distances are at most 1 ulp away."""
        correlation = CORRELATIONS[name]
        rho = _lag_correlation(self.grid(9, 6, 12e-6, 15e-6), correlation)
        dj = np.arange(-5, 6) * 12e-6
        di = np.arange(-8, 9) * 15e-6
        wid = correlation.wid if name == "total-floor" else correlation

        def kernel(distance):
            if name == "gaussian":
                base = np.exp(-((distance / wid.length) ** 2))
            else:
                base = np.exp(-distance / wid.length)
            if name == "total-floor":
                floor = correlation.rho_floor
                base = floor + (1.0 - floor) * base
            return base

        dx, dy = dj[None, :], di[:, None]
        distance = np.sqrt(dx * dx + dy * dy)
        assert np.array_equal(rho, kernel(distance))
        oracle = np.hypot(di[:, None], dj[None, :])
        assert np.all(np.abs(distance - oracle) <= np.spacing(oracle))
        np.testing.assert_allclose(rho, kernel(oracle), rtol=1e-15, atol=0)


class TestGridDetection:
    def test_detects_square_grid(self):
        positions = grid_placement(9)
        info = detect_grid(positions)
        assert info is not None
        assert (info.rows, info.cols) == (9, 9)
        flat = info.row_index * info.cols + info.col_index
        assert sorted(flat) == list(range(81))

    def test_detects_sparse_grid(self, rng):
        positions = grid_placement(10)
        keep = rng.permutation(100)[:60]
        info = detect_grid(positions[keep])
        assert info is not None
        assert info.rows <= 10 and info.cols <= 10

    def test_rejects_scattered(self, rng):
        assert detect_grid(random_placement(50, rng)) is None

    def test_hint_expands_extent(self):
        positions = grid_placement(4)
        info = detect_grid(positions, rows=6, cols=6)
        assert (info.rows, info.cols) == (6, 6)

    def test_hint_below_extent_rejected(self):
        positions = grid_placement(6)
        assert detect_grid(positions, rows=4, cols=4) is None


@pytest.mark.parametrize("name", sorted(CORRELATIONS))
class TestPrunedMatchesDense:
    """Zero-tolerance pruning is exact: the bucket cover is clamped to
    the die extent, so no pair is ever dropped."""

    def test_simplified(self, name, rng):
        correlation = CORRELATIONS[name]
        positions = random_placement(300, rng)
        means, stds, corr_stds, _ = gate_arrays(300, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              corr_stds=corr_stds, method="dense")
        tol = 0.0 if math.isfinite(correlation.support) else 1e-12
        pruned = exact_moments(positions, means, stds, correlation,
                               corr_stds=corr_stds, method="pruned",
                               tolerance=tol)
        assert pruned[0] == dense[0]
        assert pruned[1] == pytest.approx(dense[1], rel=1e-9)

    def test_pair_params(self, name, rng):
        correlation = CORRELATIONS[name]
        positions = random_placement(200, rng)
        means, stds, _, pair_params = gate_arrays(200, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              pair_params=pair_params, method="dense")
        tol = 0.0 if math.isfinite(correlation.support) else 1e-12
        pruned = exact_moments(positions, means, stds, correlation,
                               pair_params=pair_params, method="pruned",
                               tolerance=tol)
        assert pruned[1] == pytest.approx(dense[1], rel=1e-9)


@pytest.mark.parametrize("name", sorted(CORRELATIONS))
class TestLagsumMatchesDense:
    """The lag transform is exact on lattices — full, sparse, and with
    multiple gates per site."""

    def test_simplified_full_grid(self, name, rng):
        correlation = CORRELATIONS[name]
        positions = grid_placement(16)
        n = positions.shape[0]
        means, stds, corr_stds, _ = gate_arrays(n, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              corr_stds=corr_stds, method="dense")
        lagsum = exact_moments(positions, means, stds, correlation,
                               corr_stds=corr_stds, method="lagsum")
        assert lagsum[1] == pytest.approx(dense[1], rel=1e-11)

    def test_pair_params_full_grid(self, name, rng):
        correlation = CORRELATIONS[name]
        positions = grid_placement(12)
        n = positions.shape[0]
        means, stds, _, pair_params = gate_arrays(n, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              pair_params=pair_params, method="dense")
        lagsum = exact_moments(positions, means, stds, correlation,
                               pair_params=pair_params, method="lagsum")
        assert lagsum[1] == pytest.approx(dense[1], rel=1e-11)

    def test_sparse_and_stacked_occupancy(self, name, rng):
        correlation = CORRELATIONS[name]
        base = grid_placement(10)
        keep = rng.permutation(100)[:70]
        positions = np.vstack([base[keep], base[keep[:15]]])  # 15 doubled
        n = positions.shape[0]
        means, stds, corr_stds, pair_params = gate_arrays(n, rng)
        for kwargs in ({"corr_stds": corr_stds},
                       {"pair_params": pair_params}):
            dense = exact_moments(positions, means, stds, correlation,
                                  method="dense", **kwargs)
            lagsum = exact_moments(positions, means, stds, correlation,
                                   method="lagsum", **kwargs)
            assert lagsum[1] == pytest.approx(dense[1], rel=1e-11)


#: Lattices whose 5-smooth FFT length differs from the historical
#: ``2n`` on at least one axis (2n - 1 -> length: 13 -> 15, 21 -> 24,
#: 9 -> 9, 25 -> 25, 17 -> 18, 1 -> 1, 27 -> 27).
ODD_SHAPES = ((7, 11), (5, 13), (9, 1), (11, 14))


@pytest.mark.parametrize("rows, cols", ODD_SHAPES)
class TestLagsumOddShapes:
    """Lag sums at the smallest exact FFT length match the dense path on
    shapes where that length is not the old ``2n`` padding."""

    def test_length_differs_from_double(self, rows, cols):
        assert lattice_fft_shape(rows, cols) != (2 * rows, 2 * cols)

    @pytest.mark.parametrize("name", ["exponential", "total-floor"])
    def test_simplified(self, rows, cols, name, rng):
        correlation = CORRELATIONS[name]
        positions = rect_placement(rows, cols)
        means, stds, corr_stds, _ = gate_arrays(rows * cols, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              corr_stds=corr_stds, method="dense")
        lagsum = exact_moments(positions, means, stds, correlation,
                               corr_stds=corr_stds, method="lagsum",
                               grid=(rows, cols))
        assert lagsum[1] == pytest.approx(dense[1], rel=1e-11)

    @pytest.mark.parametrize("name", ["exponential", "total-floor"])
    def test_pair_params(self, rows, cols, name, rng):
        correlation = CORRELATIONS[name]
        positions = rect_placement(rows, cols)
        means, stds, _, pair_params = gate_arrays(rows * cols, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              pair_params=pair_params, method="dense")
        lagsum = exact_moments(positions, means, stds, correlation,
                               pair_params=pair_params, method="lagsum",
                               grid=(rows, cols))
        assert lagsum[1] == pytest.approx(dense[1], rel=1e-11)

    def test_multiplicities_are_integer_pair_counts(self, rows, cols, rng):
        # Occupancy grids with stacked gates, cross-correlated at the FFT
        # length, must round to the direct per-lag pair counts.
        occ_a = rng.integers(0, 3, size=(rows, cols)).astype(float)
        occ_b = rng.integers(0, 3, size=(rows, cols)).astype(float)
        shape = lattice_fft_shape(rows, cols)
        raw = _lag_crosscorr(np.fft.rfft2(occ_a, s=shape),
                             np.fft.rfft2(occ_b, s=shape), rows, cols,
                             shape)
        counts = np.rint(raw)
        np.testing.assert_allclose(raw, counts, rtol=0.0, atol=1e-9)
        want = np.zeros((2 * rows - 1, 2 * cols - 1))
        for di in range(1 - rows, rows):
            for dj in range(1 - cols, cols):
                a = occ_a[max(0, -di):rows - max(0, di),
                          max(0, -dj):cols - max(0, dj)]
                b = occ_b[max(0, di):rows + min(0, di),
                          max(0, dj):cols + min(0, dj)]
                want[rows - 1 + di, cols - 1 + dj] = (a * b).sum()
        np.testing.assert_array_equal(counts, want)


class TestTruncationBound:
    def test_simplified_error_within_bound(self, rng):
        correlation = ExponentialCorrelation(1e-4)
        positions = random_placement(400, rng, extent=3e-3)
        means, stds, corr_stds, _ = gate_arrays(400, rng)
        _, dense_std = exact_moments(positions, means, stds, correlation,
                                     corr_stds=corr_stds, method="dense")
        for tolerance in (1e-3, 1e-6, 1e-9):
            _, fast_std = exact_moments(
                positions, means, stds, correlation, corr_stds=corr_stds,
                method="pruned", tolerance=tolerance)
            bound = tolerance * float(corr_stds.sum()) ** 2
            assert abs(fast_std ** 2 - dense_std ** 2) <= bound + 1e-30

    def test_pruned_needs_finite_radius(self, rng):
        positions = random_placement(50, rng)
        means, stds, corr_stds, _ = gate_arrays(50, rng)
        with pytest.raises(EstimationError):
            exact_moments(positions, means, stds,
                          ExponentialCorrelation(1e-4),
                          corr_stds=corr_stds, method="pruned",
                          tolerance=0.0)

    def test_lagsum_tolerance_still_tight(self, rng):
        correlation = CORRELATIONS["total-floor"]
        positions = grid_placement(12)
        n = positions.shape[0]
        means, stds, _, pair_params = gate_arrays(n, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              pair_params=pair_params, method="dense")
        truncated = exact_moments(positions, means, stds, correlation,
                                  pair_params=pair_params, method="lagsum",
                                  tolerance=1e-7)
        assert truncated[1] == pytest.approx(dense[1], rel=1e-5)


class TestParallelDeterminism:
    def test_dense_parallel_is_bit_identical(self, rng):
        correlation = CORRELATIONS["total-floor"]
        positions = random_placement(300, rng)
        means, stds, corr_stds, _ = gate_arrays(300, rng)
        serial = exact_moments(positions, means, stds, correlation,
                               corr_stds=corr_stds, method="dense",
                               block_size=64)
        twice = [exact_moments(positions, means, stds, correlation,
                               corr_stds=corr_stds, method="dense",
                               block_size=64, n_jobs=2)
                 for _ in range(2)]
        assert twice[0] == twice[1]  # run-to-run determinism
        assert twice[0] == serial    # and equal to serial, bit for bit

    def test_pruned_parallel_matches_serial(self, rng):
        correlation = LinearCorrelation(4e-4)
        positions = random_placement(400, rng)
        means, stds, _, pair_params = gate_arrays(400, rng)
        serial = exact_moments(positions, means, stds, correlation,
                               pair_params=pair_params, method="pruned",
                               block_size=64)
        parallel = exact_moments(positions, means, stds, correlation,
                                 pair_params=pair_params, method="pruned",
                                 block_size=64, n_jobs=2)
        assert parallel == serial


class TestDispatcher:
    def test_auto_keeps_dense_bit_compatibility(self, rng):
        # tolerance=0, n_jobs=1, no grid hint: auto must equal dense.
        correlation = CORRELATIONS["total-floor"]
        positions = grid_placement(8)
        n = positions.shape[0]
        means, stds, corr_stds, _ = gate_arrays(n, rng)
        auto = exact_moments(positions, means, stds, correlation,
                             corr_stds=corr_stds)
        dense = exact_moments(positions, means, stds, correlation,
                              corr_stds=corr_stds, method="dense")
        assert auto == dense

    def test_auto_takes_lagsum_on_grids(self, rng):
        correlation = CORRELATIONS["total-floor"]
        positions = grid_placement(8)
        n = positions.shape[0]
        means, stds, corr_stds, _ = gate_arrays(n, rng)
        dense = exact_moments(positions, means, stds, correlation,
                              corr_stds=corr_stds, method="dense")
        auto = exact_moments(positions, means, stds, correlation,
                             corr_stds=corr_stds, tolerance=1e-9)
        assert auto[1] == pytest.approx(dense[1], rel=1e-9)

    def test_lagsum_rejects_scattered(self, rng):
        positions = random_placement(40, rng)
        means, stds, corr_stds, _ = gate_arrays(40, rng)
        with pytest.raises(EstimationError):
            exact_moments(positions, means, stds,
                          CORRELATIONS["exponential"],
                          corr_stds=corr_stds, method="lagsum")

    def test_corr_stds_warning_on_pair_params(self, rng):
        positions = grid_placement(4)
        n = positions.shape[0]
        means, stds, corr_stds, pair_params = gate_arrays(n, rng)
        with pytest.warns(UserWarning, match="corr_stds is ignored"):
            exact_moments(positions, means, stds,
                          CORRELATIONS["exponential"],
                          pair_params=pair_params, corr_stds=corr_stds)


class TestEstimatorCrossCheck:
    def test_exact_method_matches_linear(self, small_characterization):
        from repro.core import CellUsage
        from repro.core.api import FullChipLeakageEstimator

        usage = CellUsage({"INV_X1": 0.5, "NAND2_X1": 0.3, "NOR2_X1": 0.2})
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, n_cells=3600, width=0.6e-3,
            height=0.6e-3, simplified_correlation=True)
        linear = estimator.estimate("linear")
        exact = estimator.estimate("exact")
        assert exact.std == pytest.approx(linear.std, rel=1e-9)
        assert exact.mean == pytest.approx(linear.mean, rel=1e-12)
