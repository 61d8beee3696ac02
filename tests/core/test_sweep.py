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
from repro.core.estimators.linear import (
    _LAG_BLOCK_ELEMENTS,
    LagGeometry,
    linear_variance,
)
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
        """The eq. (17) reduce is this op sequence, bit for bit: map rho
        to covariances (scale or interpolation), put the RG variance on
        the zero lag, sum each lag row against ``count_y``, then the
        row sums against ``count_x``. The grid fits in one block.

        The former ``sum(counts * cov)`` over the full table stays as an
        oracle: only the summation order differs (REDUCE_RTOL)."""
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
        row_sums = np.sum(cov * geometry.count_y, axis=1)
        want = float(np.sum(geometry.count_x * row_sums))
        got = geometry.variance_from_rho(rho, rg)
        assert got == want
        historical = float(np.sum(geometry.counts * cov))
        assert got == pytest.approx(historical, rel=REDUCE_RTOL)

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
        """The lattice rho equals the hand-fused kernel
        ``floor + scale * f(sqrt(x*x + y*y) / length)`` bit for bit, and
        the former ``hypot`` kernel within 1 ulp of distance."""
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
        x, y = geometry.x[:, None], geometry.y[None, :]

        def kernel(distance):
            if gaussian:
                base = np.exp(-((distance / length) ** 2))
            else:
                base = np.exp(-distance / length)
            if (floor, scale) == (0.0, 1.0):
                return base
            return floor + scale * base

        rho = geometry.rho(correlation)
        distance = np.sqrt(x * x + y * y)
        assert np.array_equal(rho, kernel(distance))
        oracle = np.hypot(x, y)
        assert np.all(np.abs(distance - oracle) <= np.spacing(oracle))
        np.testing.assert_allclose(rho, kernel(oracle), rtol=RHO_RTOL,
                                   atol=0)

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


#: Relative agreement of lag ``rho`` with the ``np.hypot`` kernel: the
#: distances differ by at most 1 ulp (docs/THEORY.md section 4).
RHO_RTOL = 1e-15
#: Relative agreement of the separable reduce with ``sum(counts * cov)``.
REDUCE_RTOL = 1e-14


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


class TestOnePass:
    """``LagGeometry.variance`` — eq. (17) kernel and reduce in one pass
    over blocks of lag rows — against the two-stage cached-``rho``
    path that sweeps use."""

    SHAPES = [(7, 11), (1, 40_000), (40_000, 1), (40_000, 3), (300, 250)]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("simplified", [True, False])
    @pytest.mark.parametrize("model", sorted(_fold_models()))
    def test_bit_identical_to_variance_from_rho(
            self, small_characterization, usage, model, simplified, shape):
        rows, cols = shape
        correlation = _fold_models()[model]
        rg = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=simplified).rg_correlation
        geometry = LagGeometry(rows, cols, 1.1e-5, 0.9e-5)
        if shape in ((1, 40_000), (40_000, 3), (300, 250)):
            assert cols > _LAG_BLOCK_ELEMENTS // rows  # several blocks
        two_stage = geometry.variance_from_rho(geometry.rho(correlation),
                                               rg)
        assert geometry.variance(correlation, rg) == two_stage
        assert linear_variance(rows, cols, 1.1e-5, 0.9e-5, correlation,
                               rg) == two_stage

    def test_multi_block_reduce_does_not_mutate_rho(
            self, small_characterization, usage):
        rg = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=True).rg_correlation
        geometry = LagGeometry(300, 250, 2e-6, 2e-6)
        rho = np.random.default_rng(5).uniform(-1.0, 1.0, (250, 300))
        snapshot = rho.copy()
        geometry.variance_from_rho(rho, rg)
        assert np.array_equal(rho, snapshot)

    def test_range_check_covers_every_block(self, small_characterization,
                                            usage):
        rg = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3,
            simplified_correlation=True).rg_correlation
        geometry = LagGeometry(300, 250, 2e-6, 2e-6)
        rho = np.zeros((250, 300))
        rho[-1, -1] = -1.5
        with pytest.raises(EstimationError, match=r"\[-1, 1\]"):
            geometry.variance_from_rho(rho, rg)

    def test_peak_memory_at_one_million_sites(self, small_characterization,
                                              usage):
        """No ``m x k`` temporary: the 1024 x 1024 pass stays far below
        one 8 MiB lag table."""
        import tracemalloc

        rg = FullChipLeakageEstimator(
            small_characterization, usage, 1_000, 0.5e-3, 0.5e-3
        ).rg_correlation
        correlation = \
            small_characterization.technology.total_correlation
        tracemalloc.start()
        try:
            linear_variance(1024, 1024, 4.9e-6, 4.9e-6, correlation, rg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_one_million_sites_identical_across_interpreters(self):
        """A fresh interpreter, and one with single-threaded OpenBLAS,
        print the same 1M-site linear estimate to the last digit."""
        import os
        import subprocess
        import sys

        import repro

        source = os.path.dirname(os.path.dirname(repro.__file__))
        script = (
            "from repro.cells import build_library\n"
            "from repro.characterization import characterize_library\n"
            "from repro.core import CellUsage, FullChipLeakageEstimator\n"
            "from repro.process import synthetic_90nm\n"
            "technology = synthetic_90nm(correlation_length=0.5e-3)\n"
            "characterization = characterize_library(\n"
            "    build_library(), technology, cells=['INV_X1', 'NAND2_X1'])\n"
            "usage = CellUsage({'INV_X1': 0.6, 'NAND2_X1': 0.4})\n"
            "estimate = FullChipLeakageEstimator(\n"
            "    characterization, usage, 1 << 20, 5e-3, 5e-3\n"
            ").estimate('linear')\n"
            "print(repr((estimate.mean, estimate.std,\n"
            "            estimate.details['site_variance'])))\n")
        outputs = []
        for threads in (None, "1"):
            env = dict(os.environ, PYTHONPATH=source)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=120).stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("(")
