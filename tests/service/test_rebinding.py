"""Correlation-only revisits share the characterization and RG tiers.

The characterization tier is keyed on what characterization reads (mode,
cells, total sigma_L, temperature), so a request that differs from an
earlier one only in its WID correlation length or D2D/WID split hits it
and the RG tier. The pipeline hands such a request a view of the cached
cell table bound to its own technology, so chip-level code reads the
request's correlation: every result must stay bit-identical to the
library called directly on the request's own technology. A request
whose technology config equals the one that built the entry gets the
cached object itself, which keeps per-object caches (the thermal anchor
ladder) warm.
"""

from __future__ import annotations

import dataclasses

from repro.cells.library import build_library
from repro.characterization import characterize_library
from repro.core import CellUsage, FullChipLeakageEstimator
from repro.delta import BaseEstimate, estimate_delta
from repro.service import ServiceClient, WhatIfRequest
from repro.service.cache import TIER_CHARACTERIZATION, TIER_RG
from repro.service.pipeline import EstimationPipeline
from repro.service.sweep import SweepAxisSpec, SweepRequest

from .test_client import direct_estimate

THERMAL = {"feedback": True, "package_resistance": 40.0,
           "spreading_resistance": 3e5, "spreading_length": 3e-4,
           "power_scale": 20.0}


def recorrelated(request, corr_length_mm=1.3, d2d_fraction=0.25):
    return dataclasses.replace(request, technology=dataclasses.replace(
        request.technology, corr_length_mm=corr_length_mm,
        d2d_fraction=d2d_fraction))


def direct_estimator(request):
    characterization = characterize_library(
        build_library(), request.technology.build(), mode=request.mode,
        cells=request.cells)
    return FullChipLeakageEstimator(
        characterization, CellUsage(dict(request.usage)), request.n_cells,
        request.width_mm * 1e-3, request.height_mm * 1e-3,
        signal_probability=request.signal_probability)


class TestCorrelationRevisit:
    def test_hits_both_tiers_and_matches_the_direct_call(self,
                                                         small_request):
        other = recorrelated(small_request)
        with ServiceClient(workers=1) as client:
            first = client.estimate(small_request, timeout=120.0)
            second = client.estimate(other, timeout=120.0)
            stats = client.cache_stats()
        assert stats[TIER_CHARACTERIZATION]["misses"] == 1
        assert stats[TIER_CHARACTERIZATION]["hits"] == 1
        assert stats[TIER_RG]["misses"] == 1
        assert stats[TIER_RG]["hits"] == 1
        direct = direct_estimate(other)
        assert (second.mean, second.std, second.method) == (
            direct.mean, direct.std, direct.method)
        assert second.details == direct.details
        # Same cell table and RG, another correlation.
        assert second.mean == first.mean
        assert second.std != first.std

    def test_equal_configs_get_the_cached_object(self, small_request):
        pipeline = EstimationPipeline()
        first = pipeline._characterization(small_request)
        resized = dataclasses.replace(small_request, n_cells=1600,
                                      width_mm=0.8, height_mm=0.8)
        assert pipeline._characterization(resized) is first
        view = pipeline._characterization(recorrelated(small_request))
        assert view is not first
        assert view.technology.wid_correlation.length == 1.3 * 1e-3
        assert view.technology.length.sigma == first.technology.length.sigma
        assert all(a is b for a, b in zip(view.state_table(),
                                          first.state_table()))
        # Handing out a view leaves the entry with its builder's config.
        assert pipeline._characterization(small_request) is first

    def test_thermal_anchor_ladder_is_reused(self, small_request):
        thermal = dataclasses.replace(
            small_request, thermal=THERMAL, simplified_correlation=True,
            trace=True)
        resized = dataclasses.replace(thermal, n_cells=1024, width_mm=0.64,
                                      height_mm=0.64)
        with ServiceClient(workers=1) as client:
            cold = client.estimate(thermal, timeout=120.0)
            warm = client.estimate(resized, timeout=120.0)
        assert cold.details["trace"]["stages"]["thermal.characterize"][
            "count"] >= 1
        assert "thermal.characterize" not in warm.details["trace"]["stages"]
        assert warm.details["thermal"]["iterations"] >= 1

    def test_whatif_base_on_a_rebound_characterization(self, small_request):
        other = recorrelated(small_request)
        whatif = {"type": "cell_swap", "from_cell": "INV_X1",
                  "to_cell": "NAND2_X1", "fraction": 0.03}
        with ServiceClient(workers=1) as client:
            client.estimate(small_request, timeout=120.0)
            client.estimate(other, timeout=120.0)
            first = client.whatif(WhatIfRequest(
                base=small_request.key(), edits=[whatif]))
            request = WhatIfRequest(base=other.key(), edits=[whatif])
            second = client.whatif(request)
            assert client.cache_stats()[TIER_CHARACTERIZATION]["misses"] == 1
        direct = estimate_delta(
            BaseEstimate.from_estimator(direct_estimator(other)),
            request.parsed_edits())
        assert (second.mean, second.std) == (direct.mean, direct.std)
        assert second.std != first.std

    def test_sweep_points_over_correlation_share_one_characterization(
            self, small_request):
        sweep = SweepRequest(base=small_request, axes=(
            SweepAxisSpec("corr_length_mm", (0.3, 0.9, 2.0)),
            SweepAxisSpec("d2d_fraction", (0.2, 0.6))))
        with ServiceClient(workers=1) as client:
            response = client.sweep(sweep)
            stats = client.cache_stats()
        assert stats[TIER_CHARACTERIZATION]["misses"] == 1
        assert stats[TIER_CHARACTERIZATION]["hits"] == sweep.n_points - 1
        stds = set()
        for point, estimate in zip(sweep.expand(), response.estimates):
            direct = direct_estimate(point)
            assert (estimate.mean, estimate.std) == (direct.mean,
                                                     direct.std)
            stds.add(estimate.std)
        assert len(stds) == sweep.n_points
