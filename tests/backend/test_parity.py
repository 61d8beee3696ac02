"""Kernel parity: numpy backend vs the historical inline formulas
(bit-exact), and every available backend vs numpy within the declared
:data:`~repro.backend.base.KERNELS` contracts.

The randomized cases draw standardized mixture parameters inside the
moment-existence region (``a < 1/(2(1+|rho|))`` for ``|rho| <= 1``
requires ``a < 0.25``; we draw ``a in [0, 0.2]``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import KERNELS, available_backends, get_backend
from repro.exceptions import MomentExistenceError

BACKENDS = available_backends()


def historical_rg_grid(alphas, a, h, k, grid, mean_total):
    """The pre-backend per-grid-point loop, verbatim op order."""
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
    alphas = rng.uniform(0.5, 1.5, q)
    alphas /= alphas.sum()
    a = rng.uniform(0.0, 0.2, q)
    h = rng.normal(0.0, 0.4, q)
    k = rng.normal(-1.0, 0.3, q)
    one = 1.0 - 2.0 * a
    means = one ** -0.5 * np.exp(k + 0.5 * h * h / one)
    return alphas, a, h, k, float(alphas @ means)


def lag_case(rows, cols, rng, pitch=2e-6):
    x = (np.arange(2 * cols - 1) - (cols - 1)) * pitch
    y = (np.arange(2 * rows - 1) - (rows - 1)) * pitch
    counts = rng.integers(1, 50, (2 * cols - 1, 2 * rows - 1)).astype(float)
    rho = rng.uniform(-1.0, 1.0, counts.shape)
    return x, y, counts, rho, (cols - 1, rows - 1)


# -- numpy backend vs historical inline code (bit-exact) ------------------


@pytest.mark.parametrize("q", [1, 2, 17, 130])
def test_numpy_rg_grid_bit_identical_to_historical_loop(q, rng):
    kernels = get_backend("numpy")
    alphas, a, h, k, mean_total = rg_case(q, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    got = kernels.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    want = historical_rg_grid(alphas, a, h, k, grid, mean_total)
    assert np.array_equal(got, want)


def test_numpy_rg_grid_chunking_is_bit_identical(rng, monkeypatch):
    """A chunk boundary inside the grid must not change a single bit."""
    from repro.backend import numpy_backend

    alphas, a, h, k, mean_total = rg_case(17, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    kernels = numpy_backend.NumpyBackend()
    want = kernels.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    monkeypatch.setattr(numpy_backend, "_GRID_CHUNK_ELEMENTS", 1)
    got = kernels.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    assert np.array_equal(got, want)


def test_numpy_rg_grid_chunk_not_dividing_the_grid(rng):
    """A short last chunk (65 points in chunks of 8 at q=64) reuses the
    front of the in-place buffers and stays bit-identical."""
    from repro.backend import numpy_backend

    q = 64
    chunk = numpy_backend._GRID_CHUNK_ELEMENTS // (q * q)
    grid = np.linspace(-1.0, 1.0, 65)
    assert 1 < chunk < grid.size and grid.size % chunk != 0
    alphas, a, h, k, mean_total = rg_case(q, rng)
    got = get_backend("numpy").rg_covariance_grid(alphas, a, h, k, grid,
                                                  mean_total)
    assert np.array_equal(got, historical_rg_grid(alphas, a, h, k, grid,
                                                  mean_total))


def test_numpy_rg_grid_peak_memory_is_bounded(rng):
    """Cache-sized in-place chunks: at q=130 the whole call allocates
    under 4 MiB (a 65-point grid of full-size temporaries is ~9 MiB
    each)."""
    import tracemalloc

    alphas, a, h, k, mean_total = rg_case(130, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    kernels = get_backend("numpy")
    tracemalloc.start()
    try:
        kernels.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_numpy_rg_grid_existence_error_matches_historical(rng):
    kernels = get_backend("numpy")
    alphas, a, h, k, mean_total = rg_case(4, rng)
    a = a + 0.3  # push pairs past a = 1/(2(1+|rho|)) at |rho| near 1
    grid = np.linspace(-1.0, 1.0, 65)
    with pytest.raises(MomentExistenceError) as err_backend:
        kernels.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    with pytest.raises(MomentExistenceError) as err_historical:
        historical_rg_grid(alphas, a, h, k, grid, mean_total)
    assert str(err_backend.value) == str(err_historical.value)


def test_numpy_lag_reduce_bit_identical(rng):
    kernels = get_backend("numpy")
    x, y, counts, rho, zero_lag = lag_case(7, 9, rng)
    # Simplified mapping: cov = scale * rho, zero lag replaced.
    scale = 2.5e-13
    cov = scale * rho
    cov[zero_lag] = 4.0e-13
    want = float(np.sum(counts * cov))
    got = kernels.lag_reduce(counts, rho, zero_lag, 4.0e-13, scale,
                             None, None)
    assert got == want
    # Exact mapping: cov = interp(rho, grid, values).
    grid = np.linspace(-1.0, 1.0, 33)
    values = np.sort(rng.normal(0.0, 1e-13, 33))
    cov = np.interp(rho, grid, values)
    cov[zero_lag] = 4.0e-13
    want = float(np.sum(counts * cov))
    got = kernels.lag_reduce(counts, rho, zero_lag, 4.0e-13, None,
                             grid, values)
    assert got == want


def test_numpy_lag_reduce_does_not_mutate_rho(rng):
    kernels = get_backend("numpy")
    _, _, counts, rho, zero_lag = lag_case(5, 5, rng)
    before = rho.copy()
    kernels.lag_reduce(counts, rho, zero_lag, 1.0, 2.0, None, None)
    assert np.array_equal(rho, before)


def test_numpy_weighted_sum_bit_identical(rng):
    kernels = get_backend("numpy")
    weights = rng.uniform(0.0, 100.0, (31, 17))
    values = rng.normal(0.0, 1.0, (31, 17))
    assert kernels.weighted_sum(weights, values) == float(
        (weights * values).sum())


@pytest.mark.parametrize("gaussian", [False, True])
@pytest.mark.parametrize("floor,scale", [(0.0, 1.0), (0.35, 0.65)])
def test_numpy_exp_lag_rho_bit_identical(gaussian, floor, scale, rng):
    kernels = get_backend("numpy")
    x, y, _, _, _ = lag_case(11, 13, rng)
    length = 0.5e-3
    distance = np.hypot(x[:, None], y[None, :])
    if gaussian:
        base = np.exp(-((distance / length) ** 2))
    else:
        base = np.exp(-distance / length)
    want = base if (floor == 0.0 and scale == 1.0) else floor + scale * base
    got = kernels.exp_lag_rho(x, y, length, floor, scale, gaussian)
    assert np.array_equal(got, want)


def test_numpy_modulate_noise_bit_identical(rng):
    kernels = get_backend("numpy")
    draws = rng.standard_normal((3, 2, 8, 6))
    amplitude = rng.uniform(0.0, 1.0, (8, 6))
    want = amplitude[None] * (draws[:, 0] + 1j * draws[:, 1])
    got = kernels.modulate_noise(draws, amplitude)
    assert np.array_equal(got, want)


# -- every available backend vs the numpy reference -----------------------


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_rg_grid_within_contract(name, rng):
    reference = get_backend("numpy")
    candidate = get_backend(name)
    alphas, a, h, k, mean_total = rg_case(40, rng)
    grid = np.linspace(-1.0, 1.0, 65)
    want = reference.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    got = candidate.rg_covariance_grid(alphas, a, h, k, grid, mean_total)
    np.testing.assert_allclose(got, want,
                               rtol=KERNELS["rg_covariance_grid"].rtol,
                               atol=0.0)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_existence_error_within_contract(name, rng):
    candidate = get_backend(name)
    alphas, a, h, k, mean_total = rg_case(4, rng)
    with pytest.raises(MomentExistenceError):
        candidate.rg_covariance_grid(alphas, a + 0.3, h, k,
                                     np.linspace(-1.0, 1.0, 65),
                                     mean_total)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_lag_reduce_within_contract(name, rng):
    reference = get_backend("numpy")
    candidate = get_backend(name)
    x, y, counts, rho, zero_lag = lag_case(21, 19, rng)
    rtol = KERNELS["lag_reduce"].rtol
    want = reference.lag_reduce(counts, rho, zero_lag, 3.0e-13, 1.2e-13,
                                None, None)
    got = candidate.lag_reduce(counts, rho, zero_lag, 3.0e-13, 1.2e-13,
                               None, None)
    assert got == pytest.approx(want, rel=rtol)
    grid = np.linspace(-1.0, 1.0, 65)
    values = np.sort(rng.normal(0.0, 1e-13, 65))
    want = reference.lag_reduce(counts, rho, zero_lag, 3.0e-13, None,
                                grid, values)
    got = candidate.lag_reduce(counts, rho, zero_lag, 3.0e-13, None,
                               grid, values)
    assert got == pytest.approx(want, rel=rtol)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_weighted_sum_within_contract(name, rng):
    reference = get_backend("numpy")
    candidate = get_backend(name)
    weights = rng.uniform(0.0, 100.0, (63, 41))
    values = rng.normal(0.0, 1e-12, (63, 41))
    want = reference.weighted_sum(weights, values)
    got = candidate.weighted_sum(weights, values)
    assert got == pytest.approx(want, rel=KERNELS["weighted_sum"].rtol)


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("gaussian", [False, True])
def test_backend_exp_lag_rho_within_contract(name, gaussian, rng):
    reference = get_backend("numpy")
    candidate = get_backend(name)
    x, y, _, _, _ = lag_case(33, 27, rng)
    want = reference.exp_lag_rho(x, y, 0.5e-3, 0.4, 0.6, gaussian)
    got = candidate.exp_lag_rho(x, y, 0.5e-3, 0.4, 0.6, gaussian)
    np.testing.assert_allclose(got, want,
                               rtol=KERNELS["exp_lag_rho"].rtol, atol=0.0)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_modulate_noise_bit_compatible(name, rng):
    assert KERNELS["modulate_noise"].rtol == 0.0
    reference = get_backend("numpy")
    candidate = get_backend(name)
    draws = rng.standard_normal((4, 2, 16, 12))
    amplitude = rng.uniform(0.0, 1.0, (16, 12))
    want = reference.modulate_noise(draws, amplitude)
    got = candidate.modulate_noise(draws, amplitude)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_warmup_and_status(name):
    candidate = get_backend(name)
    assert candidate.warmup() > 0.0
    status = candidate.status()
    assert status["name"] == candidate.name
    assert status["threads"] >= 1
