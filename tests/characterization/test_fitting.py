import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.characterization.characterizer as characterizer_module
from repro.characterization import (
    LeakageFit,
    characterize_library,
    fit_leakage,
    fit_leakage_batch,
    sample_lengths,
)
from repro.exceptions import CharacterizationError
from repro.spice import solve_dc_batch

MU_L = 50e-9
SIGMA_L = 2.5e-9


class TestSampleLengths:
    def test_span_and_count(self):
        points = sample_lengths(MU_L, SIGMA_L, n_points=9, span=3.0)
        assert points.shape == (9,)
        assert points[0] == pytest.approx(MU_L - 3 * SIGMA_L)
        assert points[-1] == pytest.approx(MU_L + 3 * SIGMA_L)
        assert np.all(np.diff(points) > 0)

    def test_rejects_too_few_points(self):
        with pytest.raises(CharacterizationError):
            sample_lengths(MU_L, SIGMA_L, n_points=2)


class TestFitLeakage:
    @settings(max_examples=50, deadline=None)
    @given(
        log_a=st.floats(min_value=-25, max_value=-15),
        b=st.floats(min_value=-2.5e8, max_value=-0.5e8),
        c=st.floats(min_value=1e14, max_value=3e15),
    )
    def test_recovers_exact_quadratic(self, log_a, b, c):
        a = math.exp(log_a)
        lengths = sample_lengths(MU_L, SIGMA_L)
        leakages = a * np.exp(b * lengths + c * lengths ** 2)
        fit = fit_leakage(lengths, leakages)
        assert fit.b == pytest.approx(b, rel=1e-6)
        assert fit.c == pytest.approx(c, rel=1e-5)
        assert math.log(fit.a) == pytest.approx(log_a, rel=1e-6)
        assert fit.rms_log_error < 1e-9

    def test_evaluate_roundtrip(self):
        fit = LeakageFit(a=1e-9, b=-1.6e8, c=1.1e15, rms_log_error=0.0)
        lengths = sample_lengths(MU_L, SIGMA_L)
        values = fit.evaluate(lengths)
        refit = fit_leakage(lengths, values)
        assert refit.b == pytest.approx(fit.b, rel=1e-8)

    def test_reports_residual_for_imperfect_model(self, rng):
        lengths = sample_lengths(MU_L, SIGMA_L)
        leakages = 1e-9 * np.exp(-1.6e8 * lengths) \
            * (1.0 + 0.05 * rng.standard_normal(lengths.shape))
        fit = fit_leakage(lengths, leakages)
        assert fit.rms_log_error > 1e-3

    def test_rejects_non_positive_leakage(self):
        lengths = sample_lengths(MU_L, SIGMA_L)
        leakages = np.full_like(lengths, -1e-9)
        with pytest.raises(CharacterizationError):
            fit_leakage(lengths, leakages)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(CharacterizationError):
            fit_leakage(np.arange(5.0), np.arange(4.0))

    def test_rejects_degenerate_points(self):
        with pytest.raises(CharacterizationError):
            fit_leakage(np.full(5, MU_L), np.full(5, 1e-9))

    def test_as_tuple(self):
        fit = LeakageFit(a=1.0, b=2.0, c=3.0, rms_log_error=0.0)
        assert fit.as_tuple() == (1.0, 2.0, 3.0)


def oracle_fit(lengths, leakages):
    """The historical per-state fit: one ``np.linalg.lstsq`` per state.

    Returns ``(ln a, b, c, rms_log_error)``.
    """
    center = float(lengths.mean())
    scale = float(lengths.std())
    z = (lengths - center) / scale
    log_x = np.log(leakages)
    coeff, _, __, ___ = np.linalg.lstsq(
        np.column_stack([z * z, z, np.ones_like(z)]), log_x, rcond=None)
    c2, c1, c0 = (float(v) for v in coeff)
    c = c2 / (scale * scale)
    b = c1 / scale - 2.0 * c2 * center / (scale * scale)
    log_a = c0 - c1 * center / scale + c2 * center * center / (scale * scale)
    fitted = c * lengths ** 2 + b * lengths + log_a
    return log_a, b, c, float(np.sqrt(np.mean((fitted - log_x) ** 2)))


@pytest.fixture(scope="module")
def library_leakages(library, device_model, technology):
    """Leakage of every state of the library at the 9 fit lengths."""
    lengths = sample_lengths(technology.length.nominal,
                             technology.length.sigma, 9)
    systems = [(cell.netlist, state.nodes)
               for cell in library for state in cell.states]
    solutions = solve_dc_batch(systems, device_model, lengths)
    return lengths, np.array([solution.leakage for solution in solutions])


class TestFitLeakageBatch:
    def test_each_state_alone_is_bit_identical_to_the_batch(
            self, library_leakages):
        lengths, leakages = library_leakages
        batch = fit_leakage_batch(lengths, leakages)
        assert len(batch) == len(leakages) == 504
        for row, fit in zip(leakages, batch):
            assert fit_leakage(lengths, row) == fit
        # Any sub-batch too: a state's fit never depends on its company.
        assert fit_leakage_batch(lengths, leakages[1::7]) == batch[1::7]

    def test_matches_historical_per_state_lstsq(self, library_leakages):
        """``ln a``, ``b`` and ``c`` to rtol 1e-12. ``a`` itself is
        compared through ``ln a``: it is the fit extrapolated to L = 0,
        so both methods' last-ulp differences in the centered
        coefficients reach it amplified (~1e-12 relative). The RMS
        residual gets an absolute floor of 1e-14 in ``ln X`` for the
        same reason; it is ~1e-3 for library states."""
        lengths, leakages = library_leakages
        got = np.array([[math.log(fit.a), fit.b, fit.c, fit.rms_log_error]
                        for fit in fit_leakage_batch(lengths, leakages)])
        want = np.array([oracle_fit(lengths, row) for row in leakages])
        np.testing.assert_allclose(got[:, :3], want[:, :3], rtol=1e-12,
                                   atol=0)
        np.testing.assert_allclose(got[:, 3], want[:, 3], rtol=1e-12,
                                   atol=1e-14)

    def test_empty_batch(self):
        lengths = sample_lengths(MU_L, SIGMA_L)
        assert fit_leakage_batch(lengths, np.empty((0, 9))) == []

    def test_rejects_rows_of_the_wrong_length(self):
        with pytest.raises(CharacterizationError):
            fit_leakage_batch(sample_lengths(MU_L, SIGMA_L),
                              np.full((2, 8), 1e-9))

    def test_non_positive_leakage_names_cell_and_state(
            self, library, technology, monkeypatch):
        real = characterizer_module.solve_dc_batch

        def solve(systems, *args, **kwargs):
            solutions = real(systems, *args, **kwargs)
            solutions[5].leakage[3] = 0.0
            return solutions

        monkeypatch.setattr(characterizer_module, "solve_dc_batch", solve)
        cells = ["INV_X1", "NAND2_X1"]
        label = library["NAND2_X1"].states[3].label
        with pytest.raises(CharacterizationError) as info:
            characterize_library(library, technology, cells=cells)
        message = str(info.value)
        assert message.startswith("NAND2_X1 state ")
        assert label in message
        assert "must be positive" in message
