"""The thermal operator against a direct O(n^2) sum.

:class:`~repro.thermal.model.ThermalOperator` convolves the power map
with the spreading kernel at
:func:`~repro.core.estimators.fast_exact.lattice_fft_shape`, the
smallest 5-smooth FFT length ``>= 2n - 1`` per axis. The read window
is exact only if circular wrap-around never reaches it, so the
operator is checked against the direct sum

    R_pkg * sum_j p_j + sum_j K(d_ij) p_j

on grids where ``2n - 1`` is prime (the FFT pads past it) and where it
is already 5-smooth (no padding), on a non-square pitch, and with a
batched leading axis as the Monte-Carlo oracle applies it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimators.fast_exact import lattice_fft_shape
from repro.obs import Tracer
from repro.thermal import ThermalConfig
from repro.thermal.model import ThermalOperator

CONFIG = ThermalConfig(package_resistance=40.0, spreading_resistance=3e5,
                       spreading_length=60e-6)


def direct_rise(power, pitch_x, pitch_y, config):
    """``R_pkg * sum(p) + sum_j K(d_ij) p_j`` by explicit pair sums."""
    rows, cols = power.shape[-2:]
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    x = (cc * pitch_x).ravel()
    y = (rr * pitch_y).ravel()
    distance = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    lag_x = np.arange(1 - cols, cols) * pitch_x
    lag_y = np.arange(1 - rows, rows) * pitch_y
    norm = np.exp(-np.hypot(lag_x[None, :], lag_y[:, None])
                  / config.spreading_length).sum()
    kernel = (config.spreading_resistance / norm
              * np.exp(-distance / config.spreading_length))
    flat = power.reshape(power.shape[:-2] + (rows * cols,))
    rise = (config.package_resistance * flat.sum(axis=-1)[..., None]
            + flat @ kernel.T)
    return rise.reshape(power.shape)


def is_5_smooth(n):
    for factor in (2, 3, 5):
        while n % factor == 0:
            n //= factor
    return n == 1


class TestDirectSum:
    # 2n-1 per axis: 1x9 -> 1, 17 (prime, pads to 18); 7x11 -> 13, 21
    # (pad to 15, 24); 13x5 -> 25, 9 and 3x1 -> 5, 1 (already 5-smooth);
    # 16x16 -> 31 (prime, pads to 32).
    @pytest.mark.parametrize("rows, cols", [(1, 9), (7, 11), (13, 5),
                                            (16, 16), (3, 1)])
    def test_random_power_maps(self, rows, cols, rng):
        pitch = 20e-6
        theta = ThermalOperator(rows, cols, pitch, pitch, CONFIG)
        for _ in range(3):
            power = rng.uniform(0.0, 1e-3, size=(rows, cols))
            np.testing.assert_allclose(
                theta.apply(power), direct_rise(power, pitch, pitch, CONFIG),
                rtol=1e-12)

    def test_non_square_pitch(self, rng):
        rows, cols = 9, 14
        pitch_x, pitch_y = 15e-6, 55e-6
        theta = ThermalOperator(rows, cols, pitch_x, pitch_y, CONFIG)
        power = rng.uniform(0.0, 1e-3, size=(rows, cols))
        np.testing.assert_allclose(
            theta.apply(power), direct_rise(power, pitch_x, pitch_y, CONFIG),
            rtol=1e-12)

    def test_batched_leading_axis(self, rng):
        rows, cols = 7, 11
        pitch_x, pitch_y = 25e-6, 18e-6
        theta = ThermalOperator(rows, cols, pitch_x, pitch_y, CONFIG)
        power = rng.uniform(0.0, 1e-3, size=(4, rows, cols))
        rise = theta.apply(power)
        assert rise.shape == power.shape
        np.testing.assert_allclose(
            rise, direct_rise(power, pitch_x, pitch_y, CONFIG), rtol=1e-12)
        for sample in range(power.shape[0]):
            np.testing.assert_allclose(rise[sample],
                                       theta.apply(power[sample]),
                                       rtol=1e-13)


class TestLatticeFftShape:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 3000), cols=st.integers(1, 3000))
    def test_smallest_5_smooth_length_covering_all_lags(self, rows, cols):
        shape = lattice_fft_shape(rows, cols)
        for n, length in zip((rows, cols), shape):
            assert length >= 2 * n - 1
            assert is_5_smooth(length)
            assert not any(is_5_smooth(m) for m in range(2 * n - 1, length))

    def test_operator_span_reports_shape(self):
        with Tracer() as tracer:
            ThermalOperator(124, 127, 20e-6, 20e-6, CONFIG)
        (root,) = tracer.export()["spans"]
        assert root["name"] == "thermal.operator"
        assert root["attrs"]["shape"] == "250x256"
