"""Sweep usage-axis reuse through the delta cross-moment table.

``core.sweep._build_components`` promises (in its docstring) that
usage-only points reusing the cached
:class:`repro.delta.moments.CrossMomentTable` stay **bit-identical**
to a fresh per-point ``RGComponents.build`` — the contraction
replicates the terminal operations of ``rg_covariance_grid`` verbatim.
These tests pin that promise: a usage-axis sweep must (a) actually take the
reuse path after the first point, and (b) produce means/stds equal —
``==``, not approx — to one-shot estimator runs of the same points.
"""

from __future__ import annotations

import pytest

from repro.core import CellUsage
from repro.core.api import FullChipLeakageEstimator, estimate_sweep
from repro.core.sweep import signal_probability_axis, usage_axis

N_CELLS = 4096
WIDTH = 1e-3
HEIGHT = 1e-3


def _usages(names):
    """Three mixes over the same support (same component labels)."""
    n = len(names)
    uniform = CellUsage.uniform(names)
    tilted = CellUsage({name: (2.0 if i == 0 else 1.0) / (n + 1.0)
                        for i, name in enumerate(names)})
    skewed = CellUsage({name: (i + 1.0) / (n * (n + 1.0) / 2.0)
                        for i, name in enumerate(names)})
    return [uniform, tilted, skewed]


class TestUsageAxisReuse:
    @pytest.fixture(scope="class")
    def sweep(self, small_characterization):
        names = small_characterization.cell_names
        return estimate_sweep(
            small_characterization, CellUsage.uniform(names),
            N_CELLS, WIDTH, HEIGHT,
            axes=[usage_axis(_usages(names))],
            method="linear")

    def test_reuse_path_taken(self, sweep):
        assert sweep.stats.get("cross_tables", 0) >= 1
        # First point seeds the table key, second pays the build; every
        # later usage-only point contracts the cached tensor.
        assert sweep.stats.get("delta_rg_reuses", 0) >= 2

    def test_points_bit_identical_to_fresh(self, sweep,
                                           small_characterization):
        names = small_characterization.cell_names
        for usage, swept in zip(_usages(names), sweep):
            fresh = FullChipLeakageEstimator(
                small_characterization, usage,
                N_CELLS, WIDTH, HEIGHT).estimate("linear")
            assert swept.mean == fresh.mean
            assert swept.std == fresh.std


class TestSignalProbabilityAxisReuse:
    def test_p_axis_points_bit_identical(self, small_characterization):
        """p changes the mixture weights over fixed labels — the other
        usage-only shape the table accelerates."""
        names = small_characterization.cell_names
        usage = CellUsage.uniform(names)
        ps = [0.3, 0.5, 0.7]
        sweep = estimate_sweep(
            small_characterization, usage, N_CELLS, WIDTH, HEIGHT,
            axes=[signal_probability_axis(ps)],
            method="linear")
        assert sweep.stats.get("delta_rg_reuses", 0) >= 2
        for p, swept in zip(ps, sweep):
            fresh = FullChipLeakageEstimator(
                small_characterization, usage, N_CELLS, WIDTH, HEIGHT,
                signal_probability=p).estimate("linear")
            assert swept.mean == fresh.mean
            assert swept.std == fresh.std
