"""Request canonicalization, content hashing, and job lifecycle."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.service.jobs import (
    EstimateRequest,
    Job,
    JobState,
    TechnologyConfig,
)


def make(**overrides):
    base = dict(n_cells=1000, width_mm=1.0, height_mm=1.0,
                usage={"INV_X1": 0.5, "NAND2_X1": 0.5})
    base.update(overrides)
    return EstimateRequest(**base)


class TestValidation:
    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            make(n_cells=0)
        with pytest.raises(ConfigurationError):
            make(width_mm=-1.0)

    def test_rejects_bad_probability_and_method(self):
        with pytest.raises(ConfigurationError):
            make(signal_probability=1.5)
        with pytest.raises(ConfigurationError):
            make(method="magic")

    def test_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            make(tolerance=-1e-6)
        with pytest.raises(ConfigurationError):
            make(n_jobs=0)
        with pytest.raises(ConfigurationError):
            make(mode="spice")

    def test_rejects_bad_technology(self):
        with pytest.raises(ConfigurationError):
            TechnologyConfig(corr_length_mm=0.0)
        with pytest.raises(ConfigurationError):
            TechnologyConfig(d2d_fraction=1.5)

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            EstimateRequest.from_dict(
                {"n_cells": 10, "width_mm": 1, "height_mm": 1,
                 "surprise": True})

    def test_rejects_retired_backend_field(self):
        """Requests carry no kernel selection; an old document that
        still names one is refused, not silently ignored."""
        with pytest.raises(ConfigurationError, match="backend"):
            EstimateRequest.from_dict(
                {"n_cells": 10, "width_mm": 1, "height_mm": 1,
                 "backend": "numpy"})
        assert "backend" not in make().to_dict()


class TestCanonicalization:
    def test_usage_order_does_not_change_key(self):
        a = make(usage={"INV_X1": 0.5, "NAND2_X1": 0.5})
        b = make(usage={"NAND2_X1": 0.5, "INV_X1": 0.5})
        assert a.key() == b.key()
        assert a.canonical_json() == b.canonical_json()

    def test_priority_does_not_change_key(self):
        assert make(priority=0).key() == make(priority=7).key()

    def test_content_changes_change_key(self):
        base = make()
        assert base.key() != make(n_cells=1001).key()
        assert base.key() != make(tolerance=1e-6).key()
        assert base.key() != make(n_jobs=2).key()
        assert base.key() != make(
            technology=TechnologyConfig(temperature_c=85.0)).key()

    def test_tier_keys_isolate_their_inputs(self):
        base = make()
        resized = make(n_cells=4000, width_mm=2.0, height_mm=2.0,
                       method="integral2d")
        # Geometry/method sweeps share characterization and RG artifacts.
        assert base.characterization_key() == resized.characterization_key()
        assert base.rg_key() == resized.rg_key()
        assert base.key() != resized.key()
        # A usage change invalidates RG but not characterization.
        reused = make(usage={"INV_X1": 1.0})
        assert base.characterization_key() == reused.characterization_key()
        assert base.rg_key() != reused.rg_key()
        # A temperature change invalidates everything.
        corner = make(technology=TechnologyConfig(temperature_c=125.0))
        assert base.characterization_key() != corner.characterization_key()
        assert base.rg_key() != corner.rg_key()
        # So does a total sigma_L change.
        wider = make(technology=TechnologyConfig(sigma_l=0.07))
        assert base.characterization_key() != wider.characterization_key()
        assert base.rg_key() != wider.rg_key()
        # A correlation-only change (WID correlation length, D2D/WID
        # split) reaches only the chip level: characterization and RG
        # are shared, the estimate is not.
        for technology in (TechnologyConfig(corr_length_mm=1.7),
                           TechnologyConfig(d2d_fraction=0.2),
                           TechnologyConfig(corr_length_mm=0.3,
                                            d2d_fraction=0.9)):
            correlated = make(technology=technology)
            assert (base.characterization_key()
                    == correlated.characterization_key())
            assert base.rg_key() == correlated.rg_key()
            assert base.key() != correlated.key()

    def test_round_trip_through_json(self):
        request = make(cells=("NAND2_X1", "INV_X1"), priority=3,
                       technology=TechnologyConfig(temperature_c=85.0),
                       simplified_correlation=True)
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = EstimateRequest.from_dict(wire)
        assert rebuilt == request
        assert rebuilt.key() == request.key()
        assert rebuilt.priority == 3
        assert rebuilt.cells == ("INV_X1", "NAND2_X1")  # sorted


class TestJob:
    def test_lifecycle_and_snapshot(self):
        job = Job(make())
        assert job.state == JobState.QUEUED
        assert not job.finished
        job.mark_running()
        assert job.state == JobState.RUNNING
        job.finish(JobState.FAILED, error="boom")
        assert job.finished
        assert job.wait(0.0)
        snapshot = job.snapshot()
        assert snapshot["state"] == "failed"
        assert snapshot["error"] == "boom"
        assert snapshot["request"]["n_cells"] == 1000

    def test_cancellation_check(self):
        from repro.service.jobs import JobCancelledError

        job = Job(make())
        job.check_alive()  # no deadline, not cancelled -> fine
        job.cancel()
        with pytest.raises(JobCancelledError):
            job.check_alive()

    def test_deadline_check(self):
        from repro.service.jobs import JobTimeoutError

        job = Job(make(), deadline=-1.0)  # already in the past
        with pytest.raises(JobTimeoutError):
            job.check_alive()

    def test_ids_are_unique_and_carry_the_key(self):
        request = make()
        first, second = Job(request), Job(request)
        assert first.id != second.id
        assert request.key()[:12] in first.id
