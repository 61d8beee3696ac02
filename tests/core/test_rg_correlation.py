import tracemalloc

import numpy as np
import pytest

from repro.core import CellUsage, RandomGate, RGCorrelation, expand_mixture
from repro.core import rg_correlation
from repro.core.rg_correlation import rg_covariance_grid
from repro.exceptions import EstimationError, MomentExistenceError

MU_L = 50e-9
SIGMA_L = 2.5e-9


@pytest.fixture(scope="module")
def random_gate(small_characterization):
    usage = CellUsage({"INV_X1": 0.4, "NAND2_X1": 0.3, "NOR2_X1": 0.2,
                       "XOR2_X1": 0.1})
    return RandomGate(expand_mixture(small_characterization, usage, 0.5))


@pytest.fixture(scope="module")
def exact(random_gate):
    return RGCorrelation(random_gate, MU_L, SIGMA_L, simplified=False)


@pytest.fixture(scope="module")
def simplified(random_gate):
    return RGCorrelation(random_gate, MU_L, SIGMA_L, simplified=True)


class TestStructure:
    def test_defaults_to_exact_with_fits(self, random_gate):
        rgc = RGCorrelation(random_gate, MU_L, SIGMA_L)
        assert not rgc.simplified

    def test_zero_correlation_zero_covariance(self, exact, simplified):
        assert float(exact.covariance(0.0)) == pytest.approx(0.0, abs=1e-22)
        assert float(simplified.covariance(0.0)) == 0.0

    def test_selection_gap_positive(self, exact):
        """Eq. (11): same-site variance exceeds the rho_L -> 1 limit of
        the distinct-site covariance, because gate selection at two
        sites is independent."""
        assert exact.selection_gap > 0
        assert exact.same_site_covariance == pytest.approx(
            exact.variance)

    def test_simplified_scale_is_mean_of_stds_squared(self, random_gate,
                                                      simplified):
        expected = random_gate.mean_of_stds ** 2
        assert float(simplified.covariance(1.0)) == pytest.approx(expected)

    def test_monotone_in_rho(self, exact):
        rhos = np.linspace(-1, 1, 41)
        cov = exact.covariance(rhos)
        assert np.all(np.diff(cov) > 0)

    def test_rho_normalized(self, exact):
        rhos = np.linspace(0, 1, 11)
        np.testing.assert_allclose(exact.rho(rhos),
                                   exact.covariance(rhos) / exact.variance)

    def test_out_of_range_rho_rejected(self, exact):
        with pytest.raises(EstimationError):
            exact.covariance(1.5)


class TestSimplifiedVsExact:
    def test_close_for_library_gates(self, exact, simplified):
        """Section 3.1.2: the rho_mn = rho_L assumption changes the
        covariance by a few percent at most."""
        rhos = np.linspace(0.05, 1.0, 20)
        exact_cov = exact.covariance(rhos)
        simple_cov = simplified.covariance(rhos)
        rel = np.abs(simple_cov - exact_cov) / exact_cov
        assert np.max(rel) < 0.06

    def test_exact_requires_fits(self, library, technology, rng):
        from repro.characterization import characterize_library
        mc_char = characterize_library(library, technology,
                                       mode="montecarlo",
                                       cells=["INV_X1"], n_samples=200,
                                       rng=rng)
        usage = CellUsage({"INV_X1": 1.0})
        rg = RandomGate(expand_mixture(mc_char, usage, 0.5))
        with pytest.raises(EstimationError):
            RGCorrelation(rg, MU_L, SIGMA_L, simplified=False)
        # but simplified works, and is the default for MC mode
        assert RGCorrelation(rg, MU_L, SIGMA_L).simplified


class TestInterpolationResolution:
    def test_grid_interpolation_error_is_negligible(self, random_gate):
        """The 65-point default grid must match a 1025-point reference
        to well below the simplified-assumption error (Section 3.1.2)."""
        coarse = RGCorrelation(random_gate, MU_L, SIGMA_L,
                               simplified=False, n_grid=65)
        fine = RGCorrelation(random_gate, MU_L, SIGMA_L,
                             simplified=False, n_grid=1025)
        rhos = np.linspace(-0.999, 0.999, 301)
        rel = np.abs(coarse.covariance(rhos) - fine.covariance(rhos)) \
            / fine.variance
        assert float(rel.max()) < 1e-5


class TestAgainstBruteForce:
    def test_covariance_matches_pairwise_sum(self, random_gate, exact):
        """Eq. (10) by direct summation over the mixture at a few rho."""
        from repro.characterization import pair_expectation
        mixture = random_gate.mixture
        for rho in (0.2, 0.7, 1.0):
            total = 0.0
            for wm, fm, mm in zip(mixture.alphas, mixture.fits,
                                  mixture.means):
                for wn, fn, mn in zip(mixture.alphas, mixture.fits,
                                      mixture.means):
                    cross = float(pair_expectation(fm, fn, MU_L, SIGMA_L,
                                                   rho))
                    total += wm * wn * (cross - mm * mn)
            assert float(exact.covariance(rho)) == pytest.approx(
                total, rel=1e-4)


def historical_rg_grid(alphas, a, h, k, grid, mean_total):
    """The original per-grid-point loop, verbatim op order."""
    one = 1.0 - 2.0 * a
    d0 = np.outer(one, one)
    aa = np.outer(a, a)
    h_sq = h * h
    p0 = h_sq[:, None] * one[None, :] + h_sq[None, :] * one[:, None]
    p2 = 2.0 * (h_sq[:, None] * a[None, :] + h_sq[None, :] * a[:, None])
    p1 = 2.0 * np.outer(h, h)
    k_sum = k[:, None] + k[None, :]
    values = np.empty_like(grid)
    for idx, rho in enumerate(grid):
        det = d0 - 4.0 * rho * rho * aa
        if np.any(det <= 0):
            raise MomentExistenceError(
                f"pairwise cross moment does not exist at rho_L = {rho:.3f}")
        quad = (p0 + rho * p1 + rho * rho * p2) / det
        cross = det ** -0.5 * np.exp(k_sum + 0.5 * quad)
        values[idx] = float(alphas @ cross @ alphas) - mean_total ** 2
    return values


def rg_case(q, rng):
    """Standardized mixture parameters inside the moment-existence
    region (``a < 1/(2(1+|rho|))`` for ``|rho| <= 1`` needs
    ``a < 0.25``; drawn from [0, 0.2])."""
    alphas = rng.uniform(0.5, 1.5, q)
    alphas /= alphas.sum()
    a = rng.uniform(0.0, 0.2, q)
    h = rng.normal(0.0, 0.4, q)
    k = rng.normal(-1.0, 0.3, q)
    one = 1.0 - 2.0 * a
    means = one ** -0.5 * np.exp(k + 0.5 * h * h / one)
    return alphas, a, h, k, float(alphas @ means)


GRID = np.linspace(-1.0, 1.0, 65)


class TestCovarianceGrid:
    """``rg_covariance_grid`` against the historical per-point loop."""

    @pytest.mark.parametrize("q", [1, 2, 17, 130])
    def test_bit_identical_to_historical_loop(self, q, rng):
        alphas, a, h, k, mean_total = rg_case(q, rng)
        got = rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
        want = historical_rg_grid(alphas, a, h, k, GRID, mean_total)
        assert np.array_equal(got, want)

    def test_chunking_is_bit_identical(self, rng, monkeypatch):
        """A chunk boundary inside the grid must not change a bit."""
        alphas, a, h, k, mean_total = rg_case(17, rng)
        want = rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
        monkeypatch.setattr(rg_correlation, "_GRID_CHUNK_ELEMENTS", 1)
        got = rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
        assert np.array_equal(got, want)

    def test_chunk_not_dividing_the_grid(self, rng):
        """A short last chunk (65 points in chunks of 8 at q=64) reuses
        the front of the in-place buffers and stays bit-identical."""
        q = 64
        chunk = rg_correlation._GRID_CHUNK_ELEMENTS // (q * q)
        assert 1 < chunk < GRID.size and GRID.size % chunk != 0
        alphas, a, h, k, mean_total = rg_case(q, rng)
        got = rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
        assert np.array_equal(got, historical_rg_grid(alphas, a, h, k,
                                                      GRID, mean_total))

    def test_peak_memory_is_bounded(self, rng):
        """Cache-sized in-place chunks: at q=130 the whole call
        allocates under 4 MiB (a 65-point grid of full-size temporaries
        is ~9 MiB each)."""
        alphas, a, h, k, mean_total = rg_case(130, rng)
        tracemalloc.start()
        try:
            rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_existence_error_matches_historical(self, rng):
        alphas, a, h, k, mean_total = rg_case(4, rng)
        a = a + 0.3  # push pairs past a = 1/(2(1+|rho|)) at |rho| near 1
        with pytest.raises(MomentExistenceError) as err_grid:
            rg_covariance_grid(alphas, a, h, k, GRID, mean_total)
        with pytest.raises(MomentExistenceError) as err_historical:
            historical_rg_grid(alphas, a, h, k, GRID, mean_total)
        assert str(err_grid.value) == str(err_historical.value)
