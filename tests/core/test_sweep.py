"""Batched sweep engine: bit-identical loop equivalence.

The contract under test is absolute: every grid point of
``estimate_sweep`` equals — to the last bit of ``mean``, ``std``, and
every ``details`` entry — the corresponding single-point
``FullChipLeakageEstimator(...).estimate(method)`` call. Each test
builds the looped reference directly from the axis overrides and
compares with ``==``, never ``approx``.
"""

import itertools

import numpy as np
import pytest

from repro.core import CellUsage, FullChipLeakageEstimator
from repro.core.api import estimate_sweep
from repro.core.estimators.linear import LagGeometry, linear_variance
from repro.core.sweep import (
    SweepAxis,
    cell_count_axis,
    correlation_axis,
    correlation_length_axis,
    d2d_split_axis,
    die_axis,
    signal_probability_axis,
    temperature_axis,
    usage_axis,
)
from repro.exceptions import EstimationError
from repro.process import (
    AnisotropicCorrelation,
    CompositeCorrelation,
    ExponentialCorrelation,
    GaussianCorrelation,
    ProcessParameter,
    TotalCorrelation,
)
from repro.process.correlation import ScaledCorrelation


BASE = dict(n_cells=2_000, width=0.8e-3, height=0.8e-3,
            signal_probability=0.5, correlation=None)


@pytest.fixture(scope="module")
def usage():
    return CellUsage({"INV_X1": 0.5, "NAND2_X1": 0.3, "NOR2_X1": 0.2})


def looped(characterization, usage, axes, method,
           simplified_correlation=None, **kwargs):
    """The naive per-point loop the sweep must reproduce bit-for-bit."""
    base = dict(BASE)
    base["characterization"] = characterization
    base["usage"] = usage
    base.update({k: kwargs[k] for k in
                 ("n_cells", "width", "height", "signal_probability")
                 if k in kwargs})
    estimates = []
    for combo in itertools.product(*(axis.overrides for axis in axes)):
        config = dict(base)
        for override in combo:
            config.update(override)
        estimator = FullChipLeakageEstimator(
            config["characterization"], config["usage"],
            config["n_cells"], config["width"], config["height"],
            signal_probability=config["signal_probability"],
            correlation=config["correlation"],
            simplified_correlation=simplified_correlation)
        estimates.append(estimator.estimate(method))
    return estimates


def assert_bit_identical(sweep, reference):
    assert len(sweep) == len(reference)
    for got, want in zip(sweep, reference):
        assert got.mean == want.mean
        assert got.std == want.std
        assert got.method == want.method
        assert got.n_cells == want.n_cells
        assert got.signal_probability == want.signal_probability
        assert got.vt_multiplier == want.vt_multiplier
        assert got.details == want.details


def run_case(characterization, usage, axes, method,
             simplified_correlation=None, **kwargs):
    base = dict(n_cells=BASE["n_cells"], width=BASE["width"],
                height=BASE["height"])
    base.update(kwargs)
    sweep = estimate_sweep(
        characterization, usage, base["n_cells"], base["width"],
        base["height"], axes=axes, method=method,
        signal_probability=base.get("signal_probability", 0.5),
        simplified_correlation=simplified_correlation,
        n_jobs=base.get("n_jobs", 1))
    assert_bit_identical(sweep, looped(
        characterization, usage, axes, method,
        simplified_correlation=simplified_correlation, **kwargs))
    return sweep


class TestAxisEquivalence:
    """One axis at a time, every axis type, bit-identical to the loop."""

    @pytest.mark.parametrize("method", ["linear", "integral2d", "exact"])
    def test_correlation_length_axis(self, small_characterization, usage,
                                     technology, method):
        axis = correlation_length_axis([0.2e-3, 0.5e-3, 1.1e-3],
                                       technology)
        # The exact engine maps RG covariance onto per-site sigmas,
        # which requires the simplified correlation model.
        simplified = True if method == "exact" else None
        run_case(small_characterization, usage, [axis], method,
                 simplified_correlation=simplified)

    @pytest.mark.slow
    @pytest.mark.parametrize("method", ["linear", "integral2d"])
    def test_d2d_split_axis(self, small_characterization, usage,
                            technology, method):
        axis = d2d_split_axis(technology, [0.0, 0.25, 0.6])
        run_case(small_characterization, usage, [axis], method)

    def test_correlation_axis_mixed_kernels(self, small_characterization,
                                            usage):
        # Mixed families fall back to per-kernel evaluation — still
        # bit-identical, just a longer ledger.
        axis = correlation_axis([ExponentialCorrelation(0.4e-3),
                                 GaussianCorrelation(0.4e-3)])
        run_case(small_characterization, usage, [axis], "linear")

    def test_usage_axis(self, small_characterization, usage):
        other = CellUsage({"INV_X1": 0.2, "NAND2_X1": 0.2,
                           "XOR2_X1": 0.6})
        axis = usage_axis([usage, other], values=("base", "xor-heavy"))
        run_case(small_characterization, usage, [axis], "linear")

    def test_signal_probability_axis(self, small_characterization, usage):
        axis = signal_probability_axis([0.1, 0.5, 0.9])
        run_case(small_characterization, usage, [axis], "linear")

    def test_cell_count_axis(self, small_characterization, usage):
        axis = cell_count_axis([500, 2_000, 8_000])
        run_case(small_characterization, usage, [axis], "linear")

    def test_die_axis(self, small_characterization, usage):
        axis = die_axis([(0.5e-3, 0.5e-3), (1e-3, 0.7e-3)])
        run_case(small_characterization, usage, [axis], "linear")

    def test_temperature_axis(self, library, small_characterization,
                              usage, technology):
        axis = temperature_axis([300.0, 360.0], library, technology,
                                cells=["INV_X1", "NAND2_X1", "NOR2_X1"])
        # characterization=None: the axis supplies it per point.
        sweep = estimate_sweep(
            None, usage, BASE["n_cells"], BASE["width"], BASE["height"],
            axes=[axis], method="linear")
        for index, override in enumerate(axis.overrides):
            estimator = FullChipLeakageEstimator(
                override["characterization"], usage, BASE["n_cells"],
                BASE["width"], BASE["height"])
            assert_bit_identical([sweep[index]],
                                 [estimator.estimate("linear")])

    def test_auto_method_resolution(self, small_characterization, usage):
        # "auto" resolves per geometry; compare with the same "auto"
        # request so requested_method matches in details too.
        axis = cell_count_axis([1_000, 4_000])
        run_case(small_characterization, usage, [axis], "auto")


class TestGridSemantics:
    def test_two_axis_grid_is_c_order(self, small_characterization,
                                      usage, technology):
        lengths = correlation_length_axis([0.3e-3, 0.6e-3], technology)
        probs = signal_probability_axis([0.2, 0.5, 0.8])
        sweep = run_case(small_characterization, usage, [lengths, probs],
                         "linear")
        assert sweep.shape == (2, 3)
        assert len(sweep) == 6
        # Tuple indexing and coords agree with C-order flattening.
        for i in range(2):
            for j in range(3):
                flat = i * 3 + j
                assert sweep[(i, j)] is sweep.estimates[flat]
                coords = sweep.coords(flat)
                assert coords["correlation_length"] == \
                    lengths.values[i]
                assert coords["signal_probability"] == probs.values[j]
        assert sweep.grid().shape == (2, 3)

    def test_fanout_matches_serial(self, small_characterization, usage,
                                   technology):
        lengths = correlation_length_axis([0.3e-3, 0.6e-3], technology)
        counts = cell_count_axis([800, 3_000])
        serial = estimate_sweep(
            small_characterization, usage, BASE["n_cells"], BASE["width"],
            BASE["height"], axes=[counts, lengths], method="linear",
            n_jobs=1)
        fanned = estimate_sweep(
            small_characterization, usage, BASE["n_cells"], BASE["width"],
            BASE["height"], axes=[counts, lengths], method="linear",
            n_jobs=2)
        assert_bit_identical(fanned, serial)
        assert fanned.stats["fanout_groups"] == 2

    def test_amortization_ledger(self, small_characterization, usage,
                                 technology):
        lengths = correlation_length_axis(
            [0.2e-3, 0.4e-3, 0.6e-3, 0.8e-3], technology)
        probs = signal_probability_axis([0.3, 0.7])
        sweep = run_case(small_characterization, usage, [lengths, probs],
                         "linear")
        # One floorplan, one geometry; kernels evaluated once per length
        # (not per point); RG mixture once per probability.
        assert sweep.stats["points"] == 8
        assert sweep.stats["chip_models"] == 1
        assert sweep.stats["geometries"] == 1
        assert sweep.stats["rho_kernel_evaluations"] == 4
        assert sweep.stats["rg_builds"] == 2

    def test_to_dict_serializes(self, small_characterization, usage,
                                technology):
        axis = correlation_length_axis([0.3e-3], technology)
        sweep = estimate_sweep(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            axes=[axis], method="linear")
        import json
        document = json.loads(json.dumps(sweep.to_dict()))
        assert document["shape"] == [1]
        assert document["estimates"][0]["mean"] == sweep[0].mean


class TestValidation:
    def test_no_axes_rejected(self, small_characterization, usage):
        with pytest.raises(EstimationError, match="at least one"):
            estimate_sweep(small_characterization, usage, 1_000, 1e-3,
                           1e-3, axes=[])

    def test_duplicate_axis_names_rejected(self, small_characterization,
                                           usage):
        axis = signal_probability_axis([0.4, 0.6])
        with pytest.raises(EstimationError, match="duplicate"):
            estimate_sweep(small_characterization, usage, 1_000, 1e-3,
                           1e-3, axes=[axis, axis])

    def test_unknown_override_key_rejected(self):
        with pytest.raises(EstimationError, match="unknown config keys"):
            SweepAxis(name="bad", values=(1,),
                      overrides=({"frobnicate": 1},))

    def test_missing_characterization_rejected(self, usage):
        axis = signal_probability_axis([0.5])
        with pytest.raises(EstimationError,
                           match="no characterization"):
            estimate_sweep(None, usage, 1_000, 1e-3, 1e-3, axes=[axis])

    def test_misaligned_axis_rejected(self):
        with pytest.raises(EstimationError, match="aligned"):
            SweepAxis(name="p", values=(0.1, 0.2),
                      overrides=({"signal_probability": 0.1},))

    def test_conflicting_override_keys_rejected(self,
                                                small_characterization,
                                                usage):
        # Both axes emit a final "correlation" model; crossing them
        # would silently let the later one win at every point.
        technology = small_characterization.technology
        lengths = correlation_length_axis([0.3e-3, 0.9e-3], technology)
        split = d2d_split_axis(technology, [0.2, 0.5])
        with pytest.raises(EstimationError,
                           match="both override config key"):
            estimate_sweep(small_characterization, usage, 1_000, 1e-3,
                           1e-3, axes=[lengths, split])


class TestLagGeometry:
    """The geometry/parameter split underlying the shared hot path."""

    def test_matches_linear_variance(self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 2_000, 0.8e-3, 0.8e-3)
        chip = estimator.chip
        correlation = \
            small_characterization.technology.total_correlation
        geometry = LagGeometry(chip.rows, chip.cols, chip.pitch_x,
                               chip.pitch_y)
        split = geometry.variance_from_rho(geometry.rho(correlation),
                                           estimator.rg_correlation)
        direct = linear_variance(chip.rows, chip.cols, chip.pitch_x,
                                 chip.pitch_y, correlation,
                                 estimator.rg_correlation)
        assert split == direct

    def test_cached_rho_not_mutated(self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3)
        chip = estimator.chip
        geometry = LagGeometry(chip.rows, chip.cols, chip.pitch_x,
                               chip.pitch_y)
        rho = geometry.rho(
            small_characterization.technology.total_correlation)
        snapshot = rho.copy()
        first = geometry.variance_from_rho(rho, estimator.rg_correlation)
        second = geometry.variance_from_rho(rho, estimator.rg_correlation)
        assert first == second
        assert np.array_equal(rho, snapshot)

    def test_multiplicities_sum_to_pair_count(self):
        geometry = LagGeometry(7, 11, 1e-5, 2e-5)
        n = 7 * 11
        assert int(geometry.counts.sum()) == n * n
        assert int(geometry.counts[geometry.zero_lag]) == n

    @pytest.mark.parametrize("simplified", [True, False])
    def test_variance_from_rho_matches_historical_reduce(
            self, small_characterization, usage, simplified):
        """The eq. (17) reduce is the historical op sequence, bit for
        bit: map rho to covariances (scale or interpolation), put the
        RG variance on the zero lag, sum against the multiplicities."""
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=simplified)
        rg = estimator.rg_correlation
        chip = estimator.chip
        geometry = LagGeometry(chip.rows, chip.cols, chip.pitch_x,
                               chip.pitch_y)
        rho = geometry.rho(
            small_characterization.technology.total_correlation)
        if simplified:
            cov = rg.covariance_scale * rho
        else:
            cov = np.interp(rho, rg.covariance_grid, rg.covariance_values)
        cov[geometry.zero_lag] = rg.same_site_covariance
        want = float(np.sum(geometry.counts * cov))
        assert geometry.variance_from_rho(rho, rg) == want

    def test_simplified_reduce_does_not_mutate_rho(
            self, small_characterization, usage):
        estimator = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=True)
        geometry = LagGeometry(5, 5, 2e-6, 2e-6)
        rho = np.random.default_rng(3).uniform(-1.0, 1.0,
                                               geometry.counts.shape)
        snapshot = rho.copy()
        geometry.variance_from_rho(rho, estimator.rg_correlation)
        assert np.array_equal(rho, snapshot)

    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("wrap", ["bare", "total", "scaled"])
    def test_rho_matches_historical_lattice_kernel(self, gaussian, wrap):
        """The lattice rho equals the formerly hand-fused kernel
        ``floor + scale * f(hypot(x, y) / length)`` bit for bit."""
        length = 0.5e-3
        family = GaussianCorrelation if gaussian else ExponentialCorrelation
        correlation = family(length)
        floor, scale = 0.0, 1.0
        if wrap == "total":
            parameter = ProcessParameter("L", 50e-9, 1.5e-9, 2.0e-9)
            correlation = TotalCorrelation(correlation, parameter)
            floor, scale = correlation.rho_floor, 1.0 - correlation.rho_floor
        elif wrap == "scaled":
            correlation = ScaledCorrelation(correlation, 0.65)
            scale = 0.65
        geometry = LagGeometry(11, 13, 2e-6, 3e-6)
        distance = np.hypot(geometry.x[:, None], geometry.y[None, :])
        if gaussian:
            base = np.exp(-((distance / length) ** 2))
        else:
            base = np.exp(-distance / length)
        want = base if (floor, scale) == (0.0, 1.0) else floor + scale * base
        assert np.array_equal(geometry.rho(correlation), want)

    def test_rho_axis_layout_for_anisotropic_model(self):
        """x lags vary along axis 0 and y lags along axis 1."""
        correlation = AnisotropicCorrelation(
            ExponentialCorrelation(0.5e-3), scale_x=2.0, scale_y=0.5)
        geometry = LagGeometry(3, 4, 2e-4, 1e-4)
        rho = geometry.rho(correlation)
        assert rho.shape == (4, 3)
        assert np.array_equal(rho, correlation.evaluate_xy(
            geometry.x[:, None], geometry.y[None, :]))
        assert not np.array_equal(rho[:3, :3], rho[:3, :3].T)

    def test_folded_quadrant_layout(self):
        """Lags cover the non-negative quadrant; each multiplicity
        counts the up-to-four signed lags ``(+-i, +-j)``."""
        geometry = LagGeometry(3, 4, 2e-4, 1e-4)
        assert geometry.zero_lag == (0, 0)
        np.testing.assert_array_equal(geometry.x, np.arange(4) * 2e-4)
        np.testing.assert_array_equal(geometry.y, np.arange(3) * 1e-4)
        np.testing.assert_array_equal(
            geometry.counts,
            np.outer([4, 6, 4, 2], [3, 4, 2]))
        assert geometry.n_lags == 12


def full_lattice_variance(rows, cols, pitch_x, pitch_y, correlation, rg):
    """The unfolded eq. (17) sum over all ``(2m-1)(2k-1)`` signed lags."""
    i = np.arange(-(cols - 1), cols)
    j = np.arange(-(rows - 1), rows)
    counts = (cols - np.abs(i))[:, None] * (rows - np.abs(j))[None, :]
    rho = correlation.evaluate_xy((i * pitch_x)[:, None],
                                  (j * pitch_y)[None, :])
    if rg.covariance_scale is not None:
        cov = rg.covariance_scale * rho
    else:
        cov = np.interp(rho, rg.covariance_grid, rg.covariance_values)
    cov[cols - 1, rows - 1] = rg.same_site_covariance
    return float(np.sum(counts * cov)), rho


#: Relative agreement of the quadrant fold with the full-lattice sum.
#: The folded kernel values are the same floats; only the summation
#: order differs (docs/THEORY.md section 4).
FOLD_RTOL = 1e-12


def _fold_models():
    floor = ProcessParameter("L", 50e-9, 1.5e-9, 2.0e-9)
    return {
        "exponential": ExponentialCorrelation(0.5e-3),
        "gaussian_d2d": TotalCorrelation(GaussianCorrelation(0.4e-3),
                                         floor),
        "anisotropic": AnisotropicCorrelation(
            ExponentialCorrelation(0.5e-3), scale_x=2.0, scale_y=0.5),
        "composite": CompositeCorrelation(
            [ExponentialCorrelation(0.2e-3), GaussianCorrelation(1e-3)],
            [0.4, 0.6]),
    }


class TestQuadrantFold:
    """The folded transform against the full signed-lag oracle."""

    @pytest.mark.parametrize("simplified", [True, False])
    @pytest.mark.parametrize("model", sorted(_fold_models()))
    @pytest.mark.parametrize("grid", [(7, 11, 1e-5, 2e-5),
                                      (48, 64, 1.5e-5, 1e-5),
                                      (1, 9, 3e-5, 3e-5)])
    def test_matches_full_lattice_sum(self, small_characterization, usage,
                                      simplified, model, grid):
        rows, cols, pitch_x, pitch_y = grid
        correlation = _fold_models()[model]
        rg = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=simplified).rg_correlation
        want, full_rho = full_lattice_variance(rows, cols, pitch_x,
                                               pitch_y, correlation, rg)
        geometry = LagGeometry(rows, cols, pitch_x, pitch_y)
        rho = geometry.rho(correlation)
        # The quadrant holds the very floats of the lattice's
        # non-negative corner: only the summation order changes.
        assert np.array_equal(rho, full_rho[cols - 1:, rows - 1:])
        got = linear_variance(rows, cols, pitch_x, pitch_y, correlation,
                              rg)
        assert got == pytest.approx(want, rel=FOLD_RTOL)
