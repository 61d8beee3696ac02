"""Oracle contracts of the coupled power–thermal solver.

Three independent checks pin the solver (``docs/THERMAL.md``):

* **Open-loop limit** — with ``feedback=False`` the thermal path must
  be *bit-identical* to the historical isothermal answer: the
  ``temperature_sweep`` point at the same ambient and, at the
  technology's own temperature, the plain ``estimate()``. Equality is
  asserted with ``==``, not a tolerance.
* **Zero-resistance limit** — with feedback enabled but every thermal
  resistance at (or near) zero, the fixed point *is* the uniform
  ambient: one iteration, zero residual, bit-identical moments.
* **Spreading kernel** — the lateral operator's response to a point
  source equals the direct sum ``R_sp e^{-d/lambda} / norm`` over the
  site-centre distances of :meth:`FullChipModel.site_positions`, on a
  grid whose pitches differ (the Monte-Carlo oracle shares the
  operator, so it cannot see an axis mix-up).
* **Monte Carlo** — a seeded per-sample self-consistent chip MC
  (:func:`repro.thermal.coupled_monte_carlo` draws every site's
  mixture component and channel length, then runs the *same*
  fixed-point iteration per sample) must agree with the analytical
  coupled moments within confidence intervals derived from the sample
  itself (z = 6), never hand-tuned ``rel=`` fudge factors — the
  pattern of ``tests/characterization/test_moment_properties.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.temperature import temperature_sweep
from repro.core import FullChipModel
from repro.thermal import ThermalConfig, coupled_monte_carlo
from repro.thermal.model import ThermalOperator

#: One seed for the whole module: every draw below is reproducible.
SEED = 20070604


class TestOpenLoopLimit:
    def test_bit_identical_to_plain_estimate(self, make_estimator):
        estimator = make_estimator()
        plain = estimator.estimate("linear")
        thermal = estimator.estimate(
            "linear", thermal=ThermalConfig(feedback=False))
        assert thermal.mean == plain.mean
        assert thermal.std == plain.std
        assert thermal.mean_with_vt == plain.mean_with_vt
        doc = thermal.details["thermal"]
        assert doc["feedback"] is False
        assert doc["iterations"] == 0

    def test_bit_identical_to_temperature_sweep(
            self, library, technology, thermal_usage, make_estimator):
        temperatures = [313.15, 338.15]
        points = temperature_sweep(library, technology, thermal_usage,
                                   2048, 1e-3, 1e-3, temperatures)
        estimator = make_estimator()
        for temperature, point in zip(temperatures, points):
            config = ThermalConfig(feedback=False, ambient=temperature)
            thermal = estimator.estimate("linear", thermal=config)
            assert thermal.mean == point.estimate.mean
            assert thermal.std == point.estimate.std
            assert (thermal.details["thermal"]["ambient"]
                    == temperature)


class TestZeroResistanceLimit:
    def test_exactly_zero_resistance_is_bit_identical(self,
                                                      make_estimator):
        estimator = make_estimator(simplified_correlation=True)
        plain = estimator.estimate("linear")
        config = ThermalConfig(package_resistance=0.0,
                               spreading_resistance=0.0,
                               power_scale=1000.0)
        coupled = estimator.estimate("linear", thermal=config)
        assert coupled.mean == plain.mean
        assert coupled.std == plain.std
        doc = coupled.details["thermal"]
        assert doc["feedback"] is True
        assert doc["converged"] is True
        assert doc["iterations"] == 1
        assert doc["residual"] == 0.0
        assert doc["delta_t_max"] == 0.0

    def test_near_zero_resistance_converges_to_uniform_answer(
            self, make_estimator):
        estimator = make_estimator(simplified_correlation=True)
        plain = estimator.estimate("linear")
        config = ThermalConfig(package_resistance=1e-9,
                               spreading_resistance=1e-9,
                               power_scale=100.0)
        coupled = estimator.estimate("linear", thermal=config)
        doc = coupled.details["thermal"]
        assert doc["converged"] is True
        assert doc["delta_t_max"] < 1e-6
        assert np.isclose(coupled.mean, plain.mean, rtol=1e-6)
        assert np.isclose(coupled.std, plain.std, rtol=1e-6)


class TestSpreadingKernel:
    @pytest.mark.parametrize("source", [(0, 0), (2, 5), (4, 1)])
    def test_point_source_matches_direct_distance_sum(self, source):
        rows, cols = 5, 8
        pitch_x, pitch_y = 20e-6, 70e-6
        chip = FullChipModel(n_cells=rows * cols, width=cols * pitch_x,
                             height=rows * pitch_y, rows=rows, cols=cols)
        config = ThermalConfig(package_resistance=0.0,
                               spreading_resistance=0.8,
                               spreading_length=60e-6)
        theta = ThermalOperator(rows, cols, chip.pitch_x, chip.pitch_y,
                                config)
        power = np.zeros((rows, cols))
        power[source] = 1.0
        rise = theta.apply(power)

        positions = chip.site_positions()
        lag_x = np.arange(1 - cols, cols) * pitch_x
        lag_y = np.arange(1 - rows, rows) * pitch_y
        norm = np.exp(-np.hypot(lag_x[:, None], lag_y[None, :])
                      / config.spreading_length).sum()
        distance = np.linalg.norm(
            positions - positions[source[0] * cols + source[1]], axis=1)
        want = (config.spreading_resistance
                * np.exp(-distance / config.spreading_length) / norm)
        np.testing.assert_allclose(rise.ravel(), want, rtol=1e-9,
                                   atol=1e-12 * want.max())


class TestMonteCarloOracle:
    """Coupled analytical moments vs the per-sample fixed-point MC."""

    CONFIG = ThermalConfig(package_resistance=120.0,
                           spreading_resistance=40.0,
                           power_scale=800.0,
                           background_power=0.01)
    N_SAMPLES = 600

    def test_coupled_moments_within_sample_ci(self, make_estimator):
        estimator = make_estimator(simplified_correlation=True)
        coupled = estimator.estimate("linear", thermal=self.CONFIG)
        doc = coupled.details["thermal"]
        assert doc["converged"] is True
        # The operating point must exercise real feedback, or the test
        # degenerates into the open-loop check above.
        assert doc["feedback_gain"] > 0.05
        assert doc["delta_t_max"] > 1.0

        mc = coupled_monte_carlo(estimator, self.CONFIG,
                                 n_samples=self.N_SAMPLES,
                                 rng=np.random.default_rng(SEED))
        mean_se = mc.std / np.sqrt(mc.n_samples)
        z_mean = (coupled.mean - mc.mean) / mean_se
        z_std = (coupled.std - mc.std) / mc.std_standard_error()
        assert abs(z_mean) < 6.0, (
            f"coupled mean {coupled.mean:.6e} vs MC {mc.mean:.6e} "
            f"(z = {z_mean:.2f})")
        assert abs(z_std) < 6.0, (
            f"coupled std {coupled.std:.6e} vs MC {mc.std:.6e} "
            f"(z = {z_std:.2f})")

    def test_feedback_amplifies_spread(self, make_estimator):
        """The coupled std must exceed the open-loop std: hotter
        samples leak more, which heats them further — positive
        feedback widens the distribution by ~1/(1-gain)."""
        estimator = make_estimator(simplified_correlation=True)
        open_loop = estimator.estimate("linear")
        coupled = estimator.estimate("linear", thermal=self.CONFIG)
        assert coupled.mean > open_loop.mean
        assert coupled.std > open_loop.std
        amplification = coupled.details["thermal"]["std_amplification"]
        assert amplification > 1.0
