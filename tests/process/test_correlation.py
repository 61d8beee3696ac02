import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import CorrelationError
from repro.process import correlation as correlation_module
from repro.process import (
    AnisotropicCorrelation,
    CompositeCorrelation,
    ExponentialCorrelation,
    GaussianCorrelation,
    LinearCorrelation,
    ProcessParameter,
    SphericalCorrelation,
    TotalCorrelation,
)
from repro.process.correlation import ScaledCorrelation, SpatialCorrelation

ALL_FAMILIES = [
    ExponentialCorrelation(1e-3),
    GaussianCorrelation(1e-3),
    LinearCorrelation(2e-3),
    SphericalCorrelation(2e-3),
]


@pytest.mark.parametrize("corr", ALL_FAMILIES, ids=lambda c: type(c).__name__)
class TestFamilyContract:
    def test_unity_at_zero(self, corr):
        assert float(corr(0.0)) == pytest.approx(1.0)

    def test_bounded(self, corr):
        d = np.linspace(0, 5e-3, 200)
        values = corr(d)
        assert np.all(values <= 1.0 + 1e-12)
        assert np.all(values >= -1e-12)

    def test_monotone_decreasing(self, corr):
        d = np.linspace(0, 5e-3, 200)
        values = corr(d)
        assert np.all(np.diff(values) <= 1e-12)

    def test_rejects_negative_distance(self, corr):
        with pytest.raises(CorrelationError):
            corr(-1.0)

    def test_positive_semidefinite_on_random_points(self, corr):
        rng = np.random.default_rng(3)
        points = rng.uniform(0, 3e-3, size=(40, 2))
        matrix = corr.matrix(points)
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > -1e-8

    def test_effective_support_is_small_beyond(self, corr):
        support = corr.effective_support(1e-4)
        assert float(corr(support * 1.001)) <= 1.2e-4


class TestSpecificShapes:
    def test_exponential_decay_rate(self):
        corr = ExponentialCorrelation(1e-3)
        assert float(corr(1e-3)) == pytest.approx(math.exp(-1.0))

    def test_gaussian_decay_rate(self):
        corr = GaussianCorrelation(1e-3)
        assert float(corr(1e-3)) == pytest.approx(math.exp(-1.0))

    def test_linear_reaches_exact_zero(self):
        corr = LinearCorrelation(2e-3)
        assert float(corr(2e-3)) == 0.0
        assert float(corr(3e-3)) == 0.0
        assert corr.support == 2e-3

    def test_spherical_compact_support(self):
        corr = SphericalCorrelation(2e-3)
        assert float(corr(2e-3)) == pytest.approx(0.0, abs=1e-15)
        assert float(corr(5e-3)) == 0.0

    @pytest.mark.parametrize("ctor", [ExponentialCorrelation,
                                      GaussianCorrelation,
                                      LinearCorrelation,
                                      SphericalCorrelation])
    def test_rejects_non_positive_scale(self, ctor):
        with pytest.raises(CorrelationError):
            ctor(0.0)


class TestComposite:
    def test_convex_combination(self):
        comp = CompositeCorrelation(
            [ExponentialCorrelation(1e-3), LinearCorrelation(2e-3)],
            [0.3, 0.7])
        d = np.array([0.0, 5e-4, 1e-3])
        expected = (0.3 * ExponentialCorrelation(1e-3)(d)
                    + 0.7 * LinearCorrelation(2e-3)(d))
        np.testing.assert_allclose(comp(d), expected)

    def test_rejects_bad_weights(self):
        with pytest.raises(CorrelationError):
            CompositeCorrelation([ExponentialCorrelation(1e-3)], [0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(CorrelationError):
            CompositeCorrelation([ExponentialCorrelation(1e-3)], [0.5, 0.5])

    def test_support_is_max_of_components(self):
        comp = CompositeCorrelation(
            [LinearCorrelation(1e-3), LinearCorrelation(3e-3)], [0.5, 0.5])
        assert comp.support == 3e-3


class TestTotalCorrelation:
    def make(self, d2d=3e-9, wid=4e-9):
        param = ProcessParameter("L", 50e-9, d2d, wid)
        return TotalCorrelation(ExponentialCorrelation(1e-3), param)

    def test_floor_at_infinity(self):
        total = self.make()
        assert float(total(1.0)) == pytest.approx(total.rho_floor, abs=1e-6)

    def test_unity_at_zero(self):
        assert float(self.make()(0.0)) == pytest.approx(1.0)

    def test_normalization_formula(self):
        # rho(d) = (s_dd^2 + s_wd^2 * rho_wid(d)) / (s_dd^2 + s_wd^2)
        total = self.make(d2d=3e-9, wid=4e-9)
        d = 7e-4
        wid_rho = math.exp(-d / 1e-3)
        expected = (9 + 16 * wid_rho) / 25
        assert float(total(d)) == pytest.approx(expected)

    def test_decaying_part_vanishes_at_infinity(self):
        total = self.make()
        decaying = total.decaying_part()
        assert float(decaying(0.0)) == pytest.approx(1 - total.rho_floor)
        assert float(decaying(1.0)) == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(length=st.floats(min_value=1e-5, max_value=1e-2),
       d1=st.floats(min_value=0, max_value=1e-2),
       d2=st.floats(min_value=0, max_value=1e-2))
def test_exponential_is_multiplicative_in_distance(length, d1, d2):
    """exp(-(d1+d2)/l) == exp(-d1/l)*exp(-d2/l) — the Markov property."""
    corr = ExponentialCorrelation(length)
    assert float(corr(d1 + d2)) == pytest.approx(
        float(corr(d1)) * float(corr(d2)), rel=1e-9)


#: One instance per concrete model; the anisotropic one has unequal
#: scales so a metric that mixed the axes' signs would show.
EVEN_MODELS = {
    ExponentialCorrelation: ExponentialCorrelation(1e-3),
    GaussianCorrelation: GaussianCorrelation(1e-3),
    LinearCorrelation: LinearCorrelation(2e-3),
    SphericalCorrelation: SphericalCorrelation(2e-3),
    CompositeCorrelation: CompositeCorrelation(
        [ExponentialCorrelation(0.3e-3), SphericalCorrelation(2e-3)],
        [0.25, 0.75]),
    AnisotropicCorrelation: AnisotropicCorrelation(
        GaussianCorrelation(1e-3), scale_x=2.0, scale_y=0.5),
    TotalCorrelation: TotalCorrelation(
        ExponentialCorrelation(1e-3),
        ProcessParameter("L", 50e-9, 1.5e-9, 2.0e-9)),
    ScaledCorrelation: ScaledCorrelation(GaussianCorrelation(1e-3), 0.6),
}


def _concrete_models(cls=SpatialCorrelation):
    for sub in cls.__subclasses__():
        if (sub.__module__ == correlation_module.__name__
                and not inspect.isabstract(sub)):
            yield sub
        yield from _concrete_models(sub)


class TestEvenInEachComponent:
    """The ``evaluate_xy`` contract the eq. (17) quadrant fold needs:
    ``rho(-dx, dy) == rho(dx, -dy) == rho(dx, dy)``, bit for bit."""

    def test_every_concrete_model_has_an_instance(self):
        assert set(_concrete_models()) == set(EVEN_MODELS)

    @pytest.mark.parametrize("cls", list(EVEN_MODELS),
                             ids=lambda c: c.__name__)
    def test_reflections_are_bit_identical(self, cls):
        correlation = EVEN_MODELS[cls]
        dx = np.linspace(-3e-3, 3e-3, 37)[:, None]
        dy = np.arange(-7, 8)[None, :] * 1.7e-4
        rho = correlation.evaluate_xy(dx, dy)
        assert np.array_equal(correlation.evaluate_xy(-dx, dy), rho)
        assert np.array_equal(correlation.evaluate_xy(dx, -dy), rho)
        if cls is AnisotropicCorrelation:
            assert not np.array_equal(correlation.evaluate_xy(dy.T, dx.T),
                                      rho.T)
