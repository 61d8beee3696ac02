"""Fast anchor ladder vs full re-characterization at acceptance size.

A 16,384-gate, 1 x 1 mm die whose leakage power heats the die through
a package + spreading-resistance model, solved to a self-consistent
temperature map by both leakage(T) engines (``docs/THERMAL.md``):

* ``mode="full"`` quantizes the map and re-characterizes the library
  once per distinct temperature bin;
* ``mode="fast"`` characterizes only at a sparse ladder of anchor
  temperatures and interpolates piecewise-linearly in between.

Both solves must converge and agree within ``FAST_FULL_RTOL``. The
fast path's advantage is asserted as a deterministic count instead of
a wall-clock ratio: the number of library characterizations each solve
runs, read from the ``thermal.characterize`` spans of a traced solve.
Each arm runs on a fresh characterization, so neither inherits the
other's anchors or bins (the thermal layer caches per characterization
object).
"""

from __future__ import annotations

import math

import pytest

from repro.characterization import characterize_library
from repro.core import CellUsage, FullChipLeakageEstimator
from repro.process import synthetic_90nm
from repro.thermal import FAST_FULL_RTOL, ThermalConfig

N_CELLS = 16_384
WIDTH = HEIGHT = 1e-3
CELLS = ("INV_X1", "NAND2_X1")

# Sized for a visibly non-isothermal die: ~3 K of self-heating with a
# spatial spread of ~0.4 K from the spreading kernel (edge sites lose
# kernel mass past the die boundary), so the 0.005 K quantization of the
# full arm yields many distinct temperature bins rather than one. The
# spreading resistance is per-site (the kernel table is normalized to
# sum to it), hence the large number.
BASE = dict(package_resistance=40.0, spreading_resistance=3e5,
            spreading_length=0.3e-3, power_scale=400.0,
            full_quantization=0.005)

#: The full solve must characterize at least this many times as many
#: temperatures as the fast solve (the characterizations are the cost
#: of either arm; about 129 against 3 at this operating point).
MIN_CHARACTERIZATION_RATIO = 5


def characterizations(estimate):
    """Library characterizations one traced solve ran."""
    stages = estimate.details["trace"]["stages"]
    return sum(stats["count"] for name, stats in stages.items()
               if name.split("/")[-1] == "thermal.characterize")


@pytest.fixture(scope="module")
def solves(library):
    usage = CellUsage.uniform(list(CELLS))
    technology = synthetic_90nm(correlation_length=0.5e-3,
                                d2d_fraction=0.5)
    results = {}
    for mode in ("fast", "full"):
        characterization = characterize_library(library, technology,
                                                cells=CELLS)
        estimator = FullChipLeakageEstimator(
            characterization, usage, N_CELLS, WIDTH, HEIGHT,
            simplified_correlation=True)
        results[mode] = estimator.estimate(
            "linear", thermal=ThermalConfig(mode=mode, **BASE), trace=True)
    return results


@pytest.mark.parametrize("mode", ["fast", "full"])
def test_solve_converges(solves, mode):
    doc = solves[mode].details["thermal"]
    assert doc["mode"] == mode
    assert doc["converged"], f"residuals={doc['residuals']}"
    assert doc["residual"] <= doc["tolerance"]
    assert doc["delta_t_max"] > 1.0  # a genuinely self-heated die


def test_fast_within_documented_bound_of_full(solves):
    fast, full = solves["fast"], solves["full"]
    assert math.isclose(fast.mean, full.mean, rel_tol=FAST_FULL_RTOL)
    assert math.isclose(fast.std, full.std, rel_tol=FAST_FULL_RTOL)


def test_fast_characterizes_only_its_anchors(solves):
    fast, full = solves["fast"], solves["full"]
    n_anchors = fast.details["thermal"]["anchors"]
    assert characterizations(fast) == n_anchors
    assert (characterizations(full)
            >= MIN_CHARACTERIZATION_RATIO * n_anchors)
