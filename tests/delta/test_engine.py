"""Delta-engine correctness: incremental estimates vs fresh runs.

The contract under test (``repro.delta.engine`` docstring): for any
sequence of edits, ``estimate_delta(base, edits)`` matches a fresh
``estimate("linear")`` of the edited scenario within
``DELTA_MEAN_RTOL`` / ``DELTA_STD_RTOL``, and a no-effective-change
call returns the base's own estimate bit-identically. The property
test drives randomized edit sequences; the golden pins one canonical
cell-swap ECO so numeric drift in the delta path is caught the same
way estimator drift is.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import CellUsage
from repro.core.api import FullChipLeakageEstimator
from repro.delta import (
    DELTA_MEAN_RTOL,
    DELTA_STD_RTOL,
    BaseEstimate,
    CellSwapEdit,
    DeltaProbe,
    FloorplanResizeEdit,
    UsageHistogramEdit,
    estimate_delta,
)
from repro.exceptions import EstimationError
from tests.test_goldens import check_golden

N_CELLS = 4096
WIDTH = 1e-3
HEIGHT = 1e-3


@pytest.fixture(scope="module")
def base(small_characterization):
    usage = CellUsage.uniform(small_characterization.cell_names)
    return BaseEstimate.build(small_characterization, usage,
                              N_CELLS, WIDTH, HEIGHT)


def fold_reference(base, edits):
    """Reference fold: the documented edit semantics, applied in order."""
    fractions = dict(base.fractions)
    n_cells = base.chip.n_cells
    width, height = base.chip.width, base.chip.height
    for edit in edits:
        if isinstance(edit, FloorplanResizeEdit):
            n_cells = edit.n_cells if edit.n_cells is not None else n_cells
            width = edit.width if edit.width is not None else width
            height = edit.height if edit.height is not None else height
        else:
            edit.apply(fractions, n_cells)
    return fractions, n_cells, width, height


def fresh_estimate(characterization, fractions, n_cells, width, height,
                   signal_probability):
    estimator = FullChipLeakageEstimator(
        characterization, CellUsage(fractions), n_cells, width, height,
        signal_probability=signal_probability)
    return estimator.estimate("linear")


def assert_close(delta, fresh):
    assert math.isclose(delta.mean, fresh.mean, rel_tol=DELTA_MEAN_RTOL)
    assert math.isclose(delta.std, fresh.std, rel_tol=DELTA_STD_RTOL)


class TestNoEffectiveChange:
    def test_identity_histogram_returns_base_bit_identically(self, base):
        result = estimate_delta(base,
                                UsageHistogramEdit(dict(base.fractions)))
        assert result.mean == base.estimate.mean
        assert result.std == base.estimate.std
        ledger = result.details["delta"]
        assert ledger["support"] == 0
        assert ledger["moments_recomputed"] == 0
        assert ledger["lags_recomputed"] == 0

    def test_revert_after_swap_returns_base(self, base):
        edits = [
            CellSwapEdit(from_cell="INV_X1", to_cell="NAND2_X1",
                         fraction=0.05),
            UsageHistogramEdit(dict(base.fractions)),
        ]
        result = estimate_delta(base, edits)
        assert result.mean == base.estimate.mean
        assert result.std == base.estimate.std

    def test_base_never_mutated(self, base):
        fractions_before = dict(base.fractions)
        alphas_before = base.alphas.copy()
        estimate_delta(base, [
            CellSwapEdit(from_cell="INV_X1", to_cell="XOR2_X1",
                         fraction=0.2),
            FloorplanResizeEdit(n_cells=2048),
        ])
        assert base.fractions == fractions_before
        np.testing.assert_array_equal(base.alphas, alphas_before)


class TestAgainstFresh:
    def test_cell_swap_matches_fresh(self, base, small_characterization):
        edit = CellSwapEdit(from_cell="INV_X1", to_cell="NOR2_X1",
                            fraction=0.01)
        delta = estimate_delta(base, edit)
        fractions, n, w, h = fold_reference(base, [edit])
        fresh = fresh_estimate(small_characterization, fractions, n, w, h,
                               base.signal_probability)
        assert_close(delta, fresh)
        ledger = delta.details["delta"]
        assert ledger["usage_changed"]
        assert not ledger["geometry_changed"]
        assert 0 < ledger["moments_recomputed"] < base.n_components

    def test_floorplan_resize_matches_fresh(self, base,
                                            small_characterization):
        edit = FloorplanResizeEdit(n_cells=6000, width=1.2e-3,
                                   height=1.1e-3)
        delta = estimate_delta(base, edit)
        fractions, n, w, h = fold_reference(base, [edit])
        fresh = fresh_estimate(small_characterization, fractions, n, w, h,
                               base.signal_probability)
        assert_close(delta, fresh)
        assert delta.details["delta"]["geometry_changed"]

    def test_wire_form_bit_identical_to_typed(self, base):
        typed = [CellSwapEdit(from_cell="NAND2_X1", to_cell="DFF_X1",
                              fraction=0.03),
                 FloorplanResizeEdit(n_cells=5000)]
        from_typed = estimate_delta(base, typed)
        from_wire = estimate_delta(base, [edit.to_dict() for edit in typed])
        assert from_wire.mean == from_typed.mean
        assert from_wire.std == from_typed.std

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_edit_sequences_match_fresh(self, base,
                                               small_characterization,
                                               seed):
        """Property: any folded edit sequence stays within tolerance."""
        rng = np.random.default_rng(20070604 + seed)
        names = list(base.fractions)
        edits = []
        for _ in range(int(rng.integers(1, 5))):
            kind = rng.integers(0, 3)
            if kind == 0:
                src, dst = rng.choice(names, size=2, replace=False)
                edits.append(CellSwapEdit(
                    from_cell=str(src), to_cell=str(dst),
                    fraction=float(rng.uniform(0.001, 0.2))))
            elif kind == 1:
                weights = rng.uniform(0.5, 2.0, size=len(names))
                weights /= weights.sum()
                edits.append(UsageHistogramEdit(
                    dict(zip(names, weights.tolist()))))
            else:
                edits.append(FloorplanResizeEdit(
                    n_cells=int(rng.integers(1024, 8192)),
                    width=float(rng.uniform(0.8e-3, 1.5e-3)),
                    height=float(rng.uniform(0.8e-3, 1.5e-3))))
        delta = estimate_delta(base, edits)
        fractions, n, w, h = fold_reference(base, edits)
        fresh = fresh_estimate(small_characterization, fractions, n, w, h,
                               base.signal_probability)
        assert_close(delta, fresh)


class TestSamePitchReuse:
    """A same-pitch shrink reuses the base's kernel values (a crop of
    the stored lag table) and still matches a fresh estimate."""

    PITCH = 2.0 ** -14

    def test_same_pitch_shrink_crops_base_rho(self, small_characterization):
        usage = CellUsage.uniform(small_characterization.cell_names)
        base = BaseEstimate.build(small_characterization, usage, 64 * 64,
                                  64 * self.PITCH, 64 * self.PITCH)
        assert (base.chip.rows, base.chip.cols) == (64, 64)
        edit = FloorplanResizeEdit(n_cells=40 * 48, width=48 * self.PITCH,
                                   height=40 * self.PITCH)
        delta = estimate_delta(base, edit)
        assert (delta.details["rows"], delta.details["cols"]) == (40, 48)
        ledger = delta.details["delta"]
        assert ledger["geometry_changed"]
        assert ledger["lags_recomputed"] == 0
        assert ledger["lags_reused"] > 0
        fractions, n, w, h = fold_reference(base, [edit])
        fresh = fresh_estimate(small_characterization, fractions, n, w, h,
                               base.signal_probability)
        assert_close(delta, fresh)


    def test_hypot_built_base_rho_shrinks_within_bounds(
            self, small_characterization):
        """A base stored by a revision whose kernel measured distances
        with ``np.hypot`` (rho up to 1 ulp of distance away) still
        crops into a same-pitch shrink that matches a fresh estimate."""
        pitch = 1e-5
        usage = CellUsage.uniform(small_characterization.cell_names)
        base = BaseEstimate.build(small_characterization, usage, 64 * 64,
                                  64 * pitch, 64 * pitch)
        x = np.arange(64)[:, None] * base.chip.pitch_x
        y = np.arange(64)[None, :] * base.chip.pitch_y
        hypot_rho = base.correlation._evaluate(np.hypot(x, y))
        assert not np.array_equal(hypot_rho, base.rho)
        document = dict(base.to_dict(), rho=hypot_rho.tolist())
        stored = BaseEstimate.from_dict(
            document, characterization=small_characterization,
            correlation=base.correlation)
        edit = FloorplanResizeEdit(n_cells=40 * 48, width=48 * pitch,
                                   height=40 * pitch)
        delta = estimate_delta(stored, edit)
        assert delta.details["delta"]["lags_recomputed"] == 0
        fractions, n, w, h = fold_reference(base, [edit])
        fresh = fresh_estimate(small_characterization, fractions, n, w, h,
                               base.signal_probability)
        assert_close(delta, fresh)


class TestDeltaProbe:
    def test_probe_matches_estimate_delta(self, base):
        target = {name: value * (1.3 if name == "INV_X1" else 1.0)
                  for name, value in base.fractions.items()}
        total = sum(target.values())
        target = {name: value / total for name, value in target.items()}
        probe = DeltaProbe(base, target)
        for t in (0.25, 0.5, 1.0):
            blended = {
                name: (1.0 - t) * base.fractions[name] + t * target[name]
                for name in base.fractions}
            expected = estimate_delta(base, UsageHistogramEdit(blended))
            got = probe.probe(t)
            assert math.isclose(got.mean, expected.mean, rel_tol=1e-12)
            assert math.isclose(got.std, expected.std, rel_tol=1e-9)


class TestRoundTrip:
    def test_imported_base_reproduces_delta(self, base,
                                            small_characterization):
        restored = BaseEstimate.from_dict(
            base.to_dict(), characterization=small_characterization)
        edit = CellSwapEdit(from_cell="XOR2_X1", to_cell="INV_X1",
                            fraction=0.04)
        original = estimate_delta(base, edit)
        roundtrip = estimate_delta(restored, edit)
        assert math.isclose(roundtrip.mean, original.mean, rel_tol=1e-12)
        assert math.isclose(roundtrip.std, original.std, rel_tol=1e-9)

    def test_rejects_schema_1_artifact(self, base, small_characterization):
        """Version 1 stored ``rho`` over the full signed lag lattice;
        its layout no longer matches, so import refuses it."""
        document = dict(base.to_dict(), schema_version=1)
        with pytest.raises(EstimationError, match="schema v1"):
            BaseEstimate.from_dict(document,
                                   characterization=small_characterization)

    def test_loads_artifact_with_backend_entry(self, base,
                                               small_characterization):
        """Artifacts written when bases recorded their kernel backend
        (``"backend": "numpy"``) still load, with identical content."""
        document = base.to_dict()
        assert "backend" not in document
        restored = BaseEstimate.from_dict(
            dict(document, backend="numpy"),
            characterization=small_characterization)
        assert restored.to_dict() == document


class TestGoldenECO:
    def test_cell_swap_eco_golden(self, base, update_goldens):
        """Canonical ECO: 5% of INV_X1 swapped to NOR2_X1 plus a 2%
        cell-count growth — pinned like the estimator goldens."""
        estimate = estimate_delta(base, [
            CellSwapEdit(from_cell="INV_X1", to_cell="NOR2_X1",
                         fraction=0.05),
            FloorplanResizeEdit(n_cells=int(N_CELLS * 1.02)),
        ])
        document = estimate.to_dict()
        # Ledger counters are part of the pinned contract: a change in
        # reuse accounting is a behavior change too.
        check_golden("delta_cell_swap_eco", document, update_goldens)
