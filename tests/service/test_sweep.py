"""Service sweeps: one job per grid, bit-identical points, warm cache."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ConfigurationError
from repro.service import RemoteClient, ServiceClient, create_server
from repro.service.jobs import EstimateRequest, TechnologyConfig
from repro.service.sweep import (
    MAX_SWEEP_POINTS,
    SweepAxisSpec,
    SweepRequest,
    SweepResponse,
)

from .conftest import CELLS


def base_request(**overrides) -> EstimateRequest:
    fields = dict(
        n_cells=900, width_mm=0.6, height_mm=0.6,
        usage={"INV_X1": 0.5, "NAND2_X1": 0.5}, cells=CELLS,
        method="linear", technology=TechnologyConfig(corr_length_mm=0.5))
    fields.update(overrides)
    return EstimateRequest(**fields)


class TestSweepRequest:
    def test_expand_is_c_order(self):
        request = SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("n_cells", (400, 800)),
                  SweepAxisSpec("signal_probability", (0.3, 0.5, 0.7))))
        points = request.expand()
        assert request.shape == (2, 3)
        assert [p.n_cells for p in points] == [400] * 3 + [800] * 3
        assert [p.signal_probability for p in points] == \
            [0.3, 0.5, 0.7] * 2

    def test_derived_equals_directly_built(self):
        """replace() re-runs canonicalization: a derived point hashes
        identically to a request built with the same fields."""
        request = SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("corr_length_mm", (0.3,)),))
        derived = request.expand()[0]
        direct = base_request(
            technology=TechnologyConfig(corr_length_mm=0.3))
        assert derived == direct
        assert derived.key() == direct.key()

    def test_die_axis_sets_both_dimensions(self):
        request = SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("die", ((0.5, 0.4), (0.8, 0.8))),))
        points = request.expand()
        assert (points[0].width_mm, points[0].height_mm) == (0.5, 0.4)
        assert (points[1].width_mm, points[1].height_mm) == (0.8, 0.8)

    def test_usage_axis_canonicalizes(self):
        axis = SweepAxisSpec(
            "usage", ({"NAND2_X1": 0.5, "INV_X1": 0.5},))
        assert axis.values[0] == (("INV_X1", 0.5), ("NAND2_X1", 0.5))

    def test_round_trips_through_json(self):
        request = SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("d2d_fraction", (0.1, 0.4)),),
            priority=3)
        document = json.loads(json.dumps(request.to_dict()))
        again = SweepRequest.from_dict(document)
        assert again == request
        assert again.key() == request.key()

    def test_priority_excluded_from_key(self):
        axes = (SweepAxisSpec("signal_probability", (0.5,)),)
        low = SweepRequest(base=base_request(), axes=axes, priority=0)
        high = SweepRequest(base=base_request(), axes=axes, priority=9)
        assert low.key() == high.key()

    def test_rejects_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            SweepAxisSpec("bogus", (1, 2))

    def test_rejects_empty_axes(self):
        with pytest.raises(ConfigurationError, match="at least one axis"):
            SweepRequest(base=base_request(), axes=())

    def test_rejects_duplicate_axes(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            SweepRequest(base=base_request(),
                         axes=(SweepAxisSpec("n_cells", (100,)),
                               SweepAxisSpec("n_cells", (200,))))

    def test_rejects_oversized_grid(self):
        with pytest.raises(ConfigurationError, match="limit"):
            SweepRequest(
                base=base_request(),
                axes=(SweepAxisSpec(
                    "n_cells", tuple(range(100, 100 + MAX_SWEEP_POINTS
                                           + 1))),))


class TestServiceSweep:
    def sweep_request(self):
        return SweepRequest(
            base=base_request(),
            axes=(SweepAxisSpec("corr_length_mm", (0.3, 0.5, 0.9)),
                  SweepAxisSpec("signal_probability", (0.4, 0.6))))

    def test_points_bit_identical_to_estimates(self):
        request = self.sweep_request()
        with ServiceClient(workers=2) as client:
            response = client.sweep(request)
            assert response.shape == (3, 2)
            assert len(response) == 6
            for point, estimate in zip(request.expand(),
                                       response.estimates):
                single = client.estimate(point)
                assert single.mean == estimate.mean
                assert single.std == estimate.std
                assert single.details == estimate.details

    def test_backfills_estimate_tier(self):
        request = self.sweep_request()
        with ServiceClient(workers=1) as client:
            client.sweep(request)
            before = client.cache_stats()["estimate"]["hits"]
            for point in request.expand():
                client.estimate(point)
            after = client.cache_stats()["estimate"]["hits"]
            assert after - before == request.n_points

    def test_metrics_count_jobs_and_points(self):
        with ServiceClient(workers=1) as client:
            client.sweep(self.sweep_request())
            text = client.metrics_text()
            assert "repro_sweep_jobs_total 1" in text
            assert "repro_sweep_points_total 6" in text
            assert "repro_sweep_point_seconds" in text

    def test_keyword_and_async_submission(self):
        with ServiceClient(workers=1) as client:
            job = client.submit_sweep(SweepRequest(
                base=base_request(),
                axes=({"name": "n_cells", "values": [400, 900]},)))
            response = client.scheduler.wait(job)
            assert isinstance(response, SweepResponse)
            assert len(response) == 2

    def test_identical_sweeps_coalesce(self):
        request = self.sweep_request()
        with ServiceClient(workers=1) as client:
            first = client.submit_sweep(request)
            second = client.submit_sweep(request)
            assert second.id == first.id
            client.scheduler.wait(first)


@pytest.fixture()
def server():
    client = ServiceClient(workers=2)
    http_server = create_server(client, port=0)
    thread = threading.Thread(target=http_server.serve_forever,
                              daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{http_server.server_address[1]}"
    try:
        yield base
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)
        client.close()


def post(base, path, document, timeout=300.0):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


SWEEP_BODY = {
    "base": {
        "n_cells": 900,
        "width_mm": 0.6,
        "height_mm": 0.6,
        "usage": {"INV_X1": 0.5, "NAND2_X1": 0.5},
        "cells": list(CELLS),
        "method": "linear",
    },
    "axes": [{"name": "signal_probability", "values": [0.3, 0.7]}],
}


class TestHttpSweep:
    def test_round_trip(self, server):
        status, document = post(server, "/v1/sweep", SWEEP_BODY)
        assert status == 200
        assert document["state"] == "done"
        sweep = document["sweep"]
        assert sweep["shape"] == [2]
        assert len(sweep["estimates"]) == 2
        assert all(e["mean"] > 0 for e in sweep["estimates"])
        assert sweep["stats"]["points"] == 2

    def test_matches_single_point_estimates(self, server):
        _, document = post(server, "/v1/sweep", SWEEP_BODY)
        for probability, estimate in zip(
                [0.3, 0.7], document["sweep"]["estimates"]):
            body = dict(SWEEP_BODY["base"],
                        signal_probability=probability)
            _, single = post(server, "/v1/estimate", body)
            assert single["estimate"]["mean"] == estimate["mean"]
            assert single["estimate"]["std"] == estimate["std"]

    def test_remote_client(self, server):
        client = RemoteClient(server)
        response = client.sweep(SweepRequest.from_dict(SWEEP_BODY))
        assert isinstance(response, SweepResponse)
        assert response.shape == (2,)
        assert response.estimates[0].mean > 0

    def test_bad_axis_is_client_error(self, server):
        body = dict(SWEEP_BODY, axes=[{"name": "bogus", "values": [1]}])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/sweep", body)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())
        assert "unknown sweep axis" in detail["error"]

    @pytest.mark.parametrize("axis, message", [
        ({"name": "signal_probability", "values": [0.5, 1.5]},
         "signal_probability"),
        ({"name": "n_cells", "values": [0]}, "n_cells"),
        ({"name": "die", "values": [[0.5, 0.5], [-0.5, 0.5]]},
         "die dimensions"),
        ({"name": "usage", "values": [{"INV_X1": -0.5, "NAND2_X1": 1.5}]},
         "non-negative"),
        ({"name": "sigma_l", "values": [0.05, -0.01]}, "sigma_l"),
        ({"name": "temperature_c", "values": [25.0, -300.0]},
         "absolute zero"),
    ])
    def test_bad_axis_value_is_client_error(self, server, axis, message):
        """A value the base would reject is a 400 at parse time, not a
        queued job that fails in the worker."""
        body = dict(SWEEP_BODY, axes=[axis])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/sweep", body)
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())
        assert detail["kind"] == "bad_request"
        assert message in detail["error"]

    def test_async_flow(self, server):
        body = dict(SWEEP_BODY, **{"async": True})
        status, document = post(server, "/v1/sweep", body)
        assert status == 202
        job_id = document["job_id"]
        deadline = 30.0
        import time
        start = time.monotonic()
        while time.monotonic() - start < deadline:
            with urllib.request.urlopen(
                    f"{server}/v1/jobs/{job_id}", timeout=30.0) as resp:
                snapshot = json.loads(resp.read())
            if snapshot["state"] in ("done", "failed"):
                break
            time.sleep(0.05)
        assert snapshot["state"] == "done"
