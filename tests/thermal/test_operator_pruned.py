"""The thermal operator's pruned inverse transform is exact.

:meth:`ThermalOperator.apply` inverts only the rows of the product it
reads. That is the same sequence of 1-D transforms on the same data as
``irfft2`` over the whole padded lattice, so the result must equal the
unpruned formula bit for bit on every lattice shape, batched or not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.thermal import ThermalConfig
from repro.thermal.model import ThermalOperator

CONFIG = ThermalConfig(package_resistance=40.0, spreading_resistance=3e5,
                       spreading_length=60e-6)

SHAPES = [(128, 128), (127, 131), (1, 64), (64, 1), (90, 33), (256, 200)]


def unpruned_rise(theta: ThermalOperator, power: np.ndarray) -> np.ndarray:
    """``R_pkg * sum(p)`` plus the read window of the full ``irfft2``."""
    shape = theta._shape
    total = power.sum(axis=(-2, -1))[..., None, None]
    rise = np.broadcast_to(theta.package_resistance * total,
                           power.shape).copy()
    full = np.fft.irfft2(np.fft.rfft2(power, s=shape)
                         * theta._kernel_spectrum, s=shape)
    return rise + full[..., theta.rows - 1:2 * theta.rows - 1,
                       theta.cols - 1:2 * theta.cols - 1]


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
@pytest.mark.parametrize("rows, cols", SHAPES,
                         ids=[f"{r}x{c}" for r, c in SHAPES])
def test_pruned_apply_equals_full_inverse(rows, cols, batch):
    theta = ThermalOperator(rows, cols, 20e-6, 15e-6, CONFIG)
    rng = np.random.default_rng(rows * 1000 + cols)
    power = rng.uniform(0.0, 1e-6, batch + (rows, cols))
    got = theta.apply(power)
    assert got.shape == power.shape
    assert np.array_equal(got, unpruned_rise(theta, power))
