"""Process-mode ServiceClient: crash-only serving through the
supervised OS-process worker pool."""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import urllib.request

import pytest

from repro.exceptions import ConfigurationError
from repro.service import ServiceClient, create_server
from repro.service.faults import FaultInjector
from repro.service.jobs import DeadlineExceeded, EstimateRequest
from repro.service.sweep import SweepRequest
from repro.service.whatif import WhatIfRequest

from .conftest import CELLS

REQUEST = EstimateRequest(
    n_cells=900,
    width_mm=0.6,
    height_mm=0.6,
    usage={"INV_X1": 0.5, "NAND2_X1": 0.5},
    cells=CELLS,
    method="linear",
)

#: Fast supervision for tests: quick heartbeats, near-instant restarts.
POOL_OPTIONS = {
    "heartbeat_interval": 0.02,
    "heartbeat_timeout": 1.0,
    "restart_backoff": 0.01,
    "max_backoff": 0.1,
    "init_timeout": 60.0,
}


@pytest.fixture(scope="module")
def process_client():
    client = ServiceClient(workers=1, worker_mode="process",
                           process_pool=dict(POOL_OPTIONS))
    try:
        yield client
    finally:
        client.close()


@pytest.fixture(scope="module")
def thread_baseline():
    client = ServiceClient(workers=1)
    try:
        yield client.estimate(REQUEST)
    finally:
        client.close()


class TestProcessModeRoundTrip:
    def test_estimate_computes_in_a_child_process(self, process_client,
                                                  thread_baseline):
        estimate = process_client.estimate(REQUEST, timeout=120.0)
        # Bit-identical with the thread-mode pipeline: the child runs
        # the same deterministic code on the same request.
        assert estimate.to_dict() == thread_baseline.to_dict()
        liveness = process_client.worker_liveness()
        assert liveness
        for entry in liveness:
            assert entry["pid"] != os.getpid()
            assert entry["alive"]

    def test_memory_tier_never_replays_a_trace(self, process_client):
        traced = dataclasses.replace(REQUEST, n_cells=901, trace=True)
        cold = process_client.estimate(traced, timeout=120.0)
        assert "trace" in cold.details
        warm = process_client.estimate(
            dataclasses.replace(traced, trace=False), timeout=120.0)
        assert "trace" not in warm.details
        expected = cold.to_dict()
        expected["details"] = {name: value for name, value
                               in cold.details.items() if name != "trace"}
        assert warm.to_dict() == expected

    def test_repeat_is_answered_warm_by_the_parent(self, process_client):
        first = process_client.estimate(REQUEST, timeout=120.0)
        before = process_client.metrics.render()
        again = process_client.estimate(REQUEST, timeout=30.0)
        assert again.to_dict() == first.to_dict()
        after = process_client.metrics.render()

        def hits(text):
            return sum(
                float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if (line.startswith("repro_cache_requests_total")
                    and 'result="hit"' in line))

        assert hits(after) > hits(before)

    def test_whatif_ships_the_base_request(self, process_client):
        base_estimate = process_client.estimate(REQUEST, timeout=120.0)
        delta = process_client.whatif(
            WhatIfRequest(base=REQUEST.key(),
                          edits=({"type": "floorplan_resize",
                                  "n_cells": 1000},)),
            timeout=120.0)
        assert delta.n_cells == 1000
        assert delta.mean != base_estimate.mean

    def test_sweep_through_the_pool(self, process_client):
        response = process_client.sweep(
            SweepRequest(base=REQUEST,
                         axes=({"name": "n_cells",
                                "values": (300, 500)},)),
            timeout=240.0)
        assert len(response.estimates) == 2
        assert [point.n_cells for point in response.estimates] == [300, 500]

    def test_healthz_reports_worker_processes(self, process_client):
        server = create_server(process_client, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            with urllib.request.urlopen(base + "/v1/healthz",
                                        timeout=30.0) as response:
                document = json.loads(response.read())
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)
        assert document["worker_mode"] == "process"
        workers = document["details"]["workers"]
        assert workers
        for entry in workers:
            assert entry["pid"] != os.getpid()
            assert entry["restarts"] is not None

    def test_worker_metrics_exported(self, process_client):
        process_client.worker_liveness()
        text = process_client.metrics.render()
        assert "repro_worker_up" in text
        assert "repro_worker_restarts_total" in text


class TestProcessModeFailures:
    def test_deadline_overrun_kills_worker_and_types_the_error(self):
        # A deterministic 10s stall at the child's compute site against
        # a 1s deadline: the worker is killed mid-task and the caller
        # sees the typed deadline error -- never a hang.
        faults = FaultInjector("compute.hang:1.0:1", seed=5,
                               hang_seconds=10.0)
        client = ServiceClient(workers=1, worker_mode="process",
                               faults=faults,
                               process_pool=dict(POOL_OPTIONS))
        try:
            job = client.submit(REQUEST, timeout=1.0)
            with pytest.raises(DeadlineExceeded):
                client.wait(job, timeout=30.0)
            # Supervision replaced the killed worker; the pool serves.
            estimate = client.estimate(REQUEST, timeout=120.0)
            assert estimate.n_cells == REQUEST.n_cells
            assert client._process_pool.restarts >= 1
        finally:
            client.close()

    def test_library_override_is_rejected_in_process_mode(self):
        with pytest.raises(ConfigurationError):
            ServiceClient(workers=1, worker_mode="process",
                          library=object())

    def test_close_reaps_worker_processes(self):
        client = ServiceClient(workers=1, worker_mode="process",
                               process_pool=dict(POOL_OPTIONS))
        # Shepherds spawn workers asynchronously: read pids only once
        # every slot has answered its ready handshake.
        deadline = time.monotonic() + 60.0
        while True:
            entries = client.worker_liveness()
            if all(entry["state"] == "up" for entry in entries):
                break
            assert time.monotonic() < deadline, entries
            time.sleep(0.01)
        pids = [entry["pid"] for entry in entries]
        assert pids
        client.close()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)


class TestShardedCacheRestart:
    def test_cache_rebuild_report_on_cold_start(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        client = ServiceClient(workers=1, worker_mode="process",
                               cache_dir=cache_dir,
                               process_pool=dict(POOL_OPTIONS))
        try:
            assert client.cache_rebuild == {
                "scanned": 0, "valid": 0, "quarantined": 0,
                "stale_dropped": 0}
            first = client.estimate(REQUEST, timeout=120.0)
        finally:
            client.close()

        # A successor process trusts only what the rebuild verified --
        # and serves the predecessor's result from disk, identically.
        successor = ServiceClient(workers=1, worker_mode="process",
                                  cache_dir=cache_dir,
                                  process_pool=dict(POOL_OPTIONS))
        try:
            assert successor.cache_rebuild["valid"] >= 1
            assert successor.cache_rebuild["quarantined"] == 0
            again = successor.estimate(REQUEST, timeout=30.0)
            assert again.to_dict() == first.to_dict()
        finally:
            successor.close()
