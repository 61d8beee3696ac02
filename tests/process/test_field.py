import numpy as np
import pytest

from repro.exceptions import CorrelationError
from repro.process import (
    CholeskyFieldSampler,
    CirculantFieldSampler,
    ExponentialCorrelation,
    GaussianCorrelation,
    LinearCorrelation,
    sample_field,
)
from repro.process.field import grid_points


CORR = ExponentialCorrelation(0.5e-3)


class TestCholeskySampler:
    def test_shape(self):
        points = np.random.default_rng(0).uniform(0, 1e-3, (30, 2))
        sampler = CholeskyFieldSampler(points, CORR)
        samples = sampler.sample(100, np.random.default_rng(1))
        assert samples.shape == (100, 30)

    def test_unit_variance_and_target_correlation(self):
        rng = np.random.default_rng(2)
        points = np.array([[0.0, 0.0], [2e-4, 0.0], [2e-3, 0.0]])
        sampler = CholeskyFieldSampler(points, CORR)
        samples = sampler.sample(60_000, rng)
        std = samples.std(axis=0)
        np.testing.assert_allclose(std, 1.0, atol=0.02)
        empirical = np.corrcoef(samples.T)
        expected = CORR.matrix(points)
        np.testing.assert_allclose(empirical, expected, atol=0.02)

    def test_gaussian_kernel_needs_jitter_but_succeeds(self):
        # Gaussian kernels on dense grids are numerically rank-deficient;
        # the sampler must regularize rather than fail.
        points = grid_points(8, 8, 1e-5, 1e-5)
        sampler = CholeskyFieldSampler(points, GaussianCorrelation(1e-3))
        samples = sampler.sample(10, np.random.default_rng(0))
        assert np.all(np.isfinite(samples))

    def test_rejects_non_positive_sample_count(self):
        sampler = CholeskyFieldSampler(np.zeros((1, 2)), CORR)
        with pytest.raises(ValueError):
            sampler.sample(0)


class TestCirculantSampler:
    def test_shape_and_order(self):
        sampler = CirculantFieldSampler(5, 7, 1e-5, 1e-5, CORR)
        samples = sampler.sample(9, np.random.default_rng(0))
        assert samples.shape == (9, 35)

    def test_matches_cholesky_statistics(self):
        rows, cols, pitch = 6, 6, 1e-4
        rng = np.random.default_rng(3)
        circ = CirculantFieldSampler(rows, cols, pitch, pitch, CORR)
        samples = circ.sample(50_000, rng)
        empirical = np.cov(samples.T)
        expected = CORR.matrix(grid_points(rows, cols, pitch, pitch))
        np.testing.assert_allclose(empirical, expected, atol=0.03)

    def test_valid_embedding_has_no_clipping(self):
        sampler = CirculantFieldSampler(16, 16, 1e-4, 1e-4,
                                        ExponentialCorrelation(4e-4))
        assert sampler.clipped_energy <= 1e-8

    def test_large_grid_is_fast_and_finite(self):
        sampler = CirculantFieldSampler(128, 128, 1e-5, 1e-5, CORR)
        samples = sampler.sample(4, np.random.default_rng(1))
        assert samples.shape == (4, 128 * 128)
        assert np.all(np.isfinite(samples))


class TestCirculantBatching:
    """The batched draw/FFT path must reproduce the historical
    one-pair-at-a-time loop draw-for-draw."""

    @staticmethod
    def looped_sample(sampler, n_samples, rng):
        """Verbatim replay of the pre-batching sample loop."""
        out = np.empty((n_samples, sampler.n_points))
        index = 0
        while index < n_samples:
            noise = (rng.standard_normal((sampler._p, sampler._q))
                     + 1j * rng.standard_normal((sampler._p, sampler._q)))
            spectrum = np.fft.fft2(sampler._amplitude * noise)
            block = spectrum[: sampler.rows, : sampler.cols]
            out[index] = block.real.ravel()
            index += 1
            if index < n_samples:
                out[index] = block.imag.ravel()
                index += 1
        return out

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 7, 8, 129])
    def test_bit_identical_to_loop(self, n_samples):
        sampler = CirculantFieldSampler(9, 13, 1e-5, 2e-5, CORR)
        want = self.looped_sample(sampler, n_samples,
                                  np.random.default_rng(42))
        got = sampler.sample(n_samples, np.random.default_rng(42))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pair_chunk", [1, 3, 64])
    def test_explicit_chunk_bit_identical(self, pair_chunk):
        sampler = CirculantFieldSampler(9, 13, 1e-5, 2e-5, CORR)
        want = self.looped_sample(sampler, 11, np.random.default_rng(5))
        got = sampler.sample(11, np.random.default_rng(5),
                             pair_chunk=pair_chunk)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_samples", [4, 7])
    def test_modulation_bit_identical(self, n_samples):
        # The historical modulation step, amplitude[None] * (re + 1j*im)
        # over a whole (count, 2, p, q) draw, followed by one batched FFT.
        sampler = CirculantFieldSampler(8, 6, 1e-5, 2e-5, CORR)
        n_pairs = (n_samples + 1) // 2
        draws = np.random.default_rng(11).standard_normal(
            (n_pairs, 2, sampler._p, sampler._q))
        noise = sampler._amplitude[None] * (draws[:, 0] + 1j * draws[:, 1])
        blocks = np.fft.fft2(noise, axes=(-2, -1))[:, :8, :6]
        want = np.empty((2 * n_pairs, sampler.n_points))
        want[0::2] = blocks.real.reshape(n_pairs, -1)
        want[1::2] = blocks.imag.reshape(n_pairs, -1)
        got = sampler.sample(n_samples, np.random.default_rng(11),
                             pair_chunk=n_pairs)
        assert np.array_equal(got, want[:n_samples])

    def test_rejects_non_positive_chunk(self):
        sampler = CirculantFieldSampler(4, 4, 1e-5, 1e-5, CORR)
        with pytest.raises(ValueError):
            sampler.sample(2, np.random.default_rng(0), pair_chunk=0)


class TestSampleFieldDispatch:
    def test_requires_exactly_one_geometry(self):
        with pytest.raises(ValueError):
            sample_field(CORR, 2)
        with pytest.raises(ValueError):
            sample_field(CORR, 2, points=np.zeros((3, 2)),
                         grid=(2, 2, 1e-5, 1e-5))

    def test_grid_dispatch_small_uses_cholesky(self):
        samples = sample_field(CORR, 3, grid=(4, 4, 1e-5, 1e-5),
                               rng=np.random.default_rng(0))
        assert samples.shape == (3, 16)

    def test_grid_dispatch_large_uses_fft(self):
        samples = sample_field(CORR, 2, grid=(80, 80, 1e-5, 1e-5),
                               rng=np.random.default_rng(0))
        assert samples.shape == (2, 6400)

    def test_points_dispatch(self):
        points = np.random.default_rng(0).uniform(0, 1e-3, (10, 2))
        samples = sample_field(CORR, 5, points=points,
                               rng=np.random.default_rng(0))
        assert samples.shape == (5, 10)

    def test_too_many_arbitrary_points_rejected(self):
        with pytest.raises(CorrelationError):
            sample_field(CORR, 1, points=np.zeros((5000, 2)))


def test_grid_points_row_major_order():
    pts = grid_points(2, 3, 10.0, 100.0)
    # Row-major: x varies fastest.
    np.testing.assert_allclose(pts[0], [0.0, 0.0])
    np.testing.assert_allclose(pts[1], [10.0, 0.0])
    np.testing.assert_allclose(pts[3], [0.0, 100.0])
