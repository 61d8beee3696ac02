"""Incremental what-if over the service: the ``base=`` protocol e2e.

Covers the full interactive loop the delta engine exists for: run one
full estimate, then fire a storm of ≥100 what-if edits against its
content hash over HTTP, each answered from the recorded base without a
fresh run. Also pins the protocol's failure shape — typed 404 for an
unknown base, graceful full-recompute fallback with
``details["delta"]["fallback_reason"]`` — and the ``repro_delta_*``
metrics that make the hit/fallback split observable.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, WhatIfRequest, create_server
from repro.service.jobs import EstimateRequest, TechnologyConfig
from repro.service.metrics import MetricsRegistry

from .conftest import CELLS


@pytest.fixture()
def stack():
    metrics = MetricsRegistry()
    client = ServiceClient(workers=2, metrics=metrics)
    http_server = create_server(client, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    base_url = f"http://127.0.0.1:{http_server.server_address[1]}"
    try:
        yield base_url, client, metrics
    finally:
        http_server.shutdown()
        http_server.server_close()
        thread.join(timeout=5.0)
        client.close()


def get(base, path):
    with urllib.request.urlopen(base + path, timeout=30.0) as response:
        return response.status, response.read().decode("utf-8")


def post(base, path, document, timeout=300.0):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


ESTIMATE_BODY = {
    "n_cells": 900,
    "width_mm": 0.6,
    "height_mm": 0.6,
    "usage": {"INV_X1": 0.5, "NAND2_X1": 0.5},
    "cells": list(CELLS),
    "method": "linear",
}


def record_base(base_url):
    """Run the full estimate and return its content hash."""
    status, document = post(base_url, "/v1/estimate", ESTIMATE_BODY)
    assert status == 200
    request = EstimateRequest.from_dict(ESTIMATE_BODY)
    return request.key()


def swap_edit(fraction):
    return {"type": "cell_swap", "from_cell": "INV_X1",
            "to_cell": "NAND2_X1", "fraction": fraction}


class TestWhatIfEndpoint:
    def test_single_whatif_round_trip(self, stack):
        base_url, _, _ = stack
        key = record_base(base_url)
        status, document = post(base_url, "/v1/estimate",
                                {"base": key, "edits": [swap_edit(0.01)]})
        assert status == 200
        assert document["state"] == "done"
        estimate = document["estimate"]
        assert estimate["mean"] > 0
        ledger = estimate["details"]["delta"]
        assert ledger["edits"] == 1
        assert not ledger.get("fallback")

    def test_healthz_details_surface_cache_and_base_store(self, stack):
        base_url, _, _ = stack
        record_base(base_url)
        status, body = get(base_url, "/v1/healthz")
        assert status == 200
        details = json.loads(body)["details"]
        assert details["base_store"]["requests"] == 1
        estimate_tier = details["cache"]["estimate"]
        assert estimate_tier["entries"] == 1
        assert estimate_tier["bytes"] > 0
        assert {"hits", "misses", "evictions"} <= set(estimate_tier)

    def test_unknown_base_is_typed_404(self, stack):
        base_url, _, _ = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base_url, "/v1/estimate",
                 {"base": "f" * 64, "edits": [swap_edit(0.01)]})
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
        assert body["kind"] == "unknown_base"

    def test_malformed_whatif_is_400(self, stack):
        base_url, _, _ = stack
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base_url, "/v1/estimate",
                 {"base": "f" * 64, "edits": [{"type": "teleport"}]})
        assert excinfo.value.code == 400

    def test_storm_of_edits_served_from_one_base(self, stack):
        """≥100 distinct what-ifs against one recorded base, e2e."""
        base_url, client, metrics = stack
        key = record_base(base_url)
        means = []
        for i in range(100):
            fraction = 0.001 + i * 0.004
            status, document = post(
                base_url, "/v1/estimate",
                {"base": key, "edits": [swap_edit(fraction)]})
            assert status == 200
            estimate = document["estimate"]
            assert not estimate["details"]["delta"].get("fallback")
            means.append(estimate["mean"])
        # NAND2 leaks differently from INV, so the swept swap fraction
        # must move the mean monotonically — the storm is real work.
        assert len(set(means)) == len(means)
        scrape = metrics.render()
        assert 'repro_delta_requests_total{outcome="hit"} 100' in scrape
        # One base build serves the whole storm.
        assert client.pipeline.base_store_stats()["bases"] == 1

    def test_fallback_recomputes_and_reports_reason(self, stack):
        """An edit the delta engine rejects still gets an answer."""
        base_url, _, metrics = stack
        key = record_base(base_url)
        # Growing the chip beyond the linear-transform regime trips
        # DeltaIncompatibleError inside the engine -> full recompute.
        status, document = post(
            base_url, "/v1/estimate",
            {"base": key,
             "edits": [{"type": "floorplan_resize", "n_cells": 600_000,
                        "width": 20e-3, "height": 20e-3}]},
            timeout=600.0)
        assert status == 200
        estimate = document["estimate"]
        ledger = estimate["details"]["delta"]
        assert ledger["fallback"]
        assert "fallback_reason" in ledger
        assert estimate["mean"] > 0
        assert estimate["n_cells"] == 600_000
        scrape = metrics.render()
        assert "repro_delta_fallbacks_total" in scrape


class TestInProcessClient:
    def test_serviceclient_whatif_helper(self):
        metrics = MetricsRegistry()
        client = ServiceClient(workers=1, metrics=metrics)
        try:
            full = client.estimate(EstimateRequest.from_dict(ESTIMATE_BODY))
            key = EstimateRequest.from_dict(ESTIMATE_BODY).key()
            assert client.has_base(key)
            estimate = client.whatif(
                WhatIfRequest(base=key, edits=[swap_edit(0.05)]))
            assert estimate.mean > 0
            assert estimate.mean != full.mean
            assert estimate.details["delta"]["edits"] == 1
        finally:
            client.close()

    def test_technology_config_travels(self):
        client = ServiceClient(workers=1)
        try:
            body = dict(ESTIMATE_BODY,
                        technology=TechnologyConfig(
                            corr_length_mm=0.25).to_dict())
            request = EstimateRequest.from_dict(body)
            client.estimate(request)
            estimate = client.whatif(WhatIfRequest(
                base=request.key(), edits=[swap_edit(0.02)]))
            assert estimate.mean > 0
        finally:
            client.close()

    def test_whatifs_keep_their_base_alive(self):
        """A base named by what-ifs is refreshed on use, so fresh
        estimates served in between do not evict it."""
        client = ServiceClient(workers=1)
        try:
            client.pipeline.max_base_requests = 4
            base = EstimateRequest.from_dict(ESTIMATE_BODY)
            client.estimate(base)
            key = base.key()
            for step in range(client.pipeline.max_base_requests + 10):
                client.estimate(EstimateRequest.from_dict(
                    dict(ESTIMATE_BODY, n_cells=1000 + step)))
                estimate = client.whatif(WhatIfRequest(
                    base=key, edits=[swap_edit(0.01 + 0.001 * step)]))
                assert estimate.details["delta"]["edits"] == 1
            assert client.has_base(key)
        finally:
            client.close()
