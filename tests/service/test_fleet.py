"""Replica fleet: ring properties, routing, failover, supervised
restart, and whole-fleet graceful drain."""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.exceptions import ConfigurationError, ReproError
from repro.service.fleet import (
    HashRing,
    ReplicaFleet,
    _FrontHandler,
    create_front,
)
from repro.service.jobs import EstimateRequest
from repro.service.sweep import SweepRequest

from .conftest import CELLS

ESTIMATE_BODY = {
    "n_cells": 900,
    "width_mm": 0.6,
    "height_mm": 0.6,
    "usage": {"INV_X1": 0.5, "NAND2_X1": 0.5},
    "cells": list(CELLS),
    "method": "linear",
}

#: Replica options every fleet in this module shares: single worker,
#: fast graceful drain so teardown stays quick.
REPLICA_OPTIONS = {"workers": 1, "cache_entries": 64, "drain_grace": 20.0}

FLEET_OPTIONS = {"restart_backoff": 0.05, "max_backoff": 0.5,
                 "poll_interval": 0.05}


def get(base, path):
    request = urllib.request.Request(base + path)
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post(base, path, document, timeout=300.0):
    data = json.dumps(document).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestRoutingKey:
    route = staticmethod(_FrontHandler._routing_key)

    def test_sweeps_route_by_their_content_hash(self):
        sweeps = [{"base": ESTIMATE_BODY,
                   "axes": [{"name": "n_cells", "values": values}]}
                  for values in ([300, 500], [700, 900])]
        keys = [self.route("/v1/sweep", sweep) for sweep in sweeps]
        assert keys[0] != keys[1]
        for key, sweep in zip(keys, sweeps):
            assert key == SweepRequest.from_dict(sweep).key()

    def test_sweep_key_ignores_base_key_order(self):
        axes = [{"name": "n_cells", "values": [300, 500]}]
        reordered = dict(reversed(list(ESTIMATE_BODY.items())))
        assert (self.route("/v1/sweep", {"base": ESTIMATE_BODY,
                                         "axes": axes})
                == self.route("/v1/sweep", {"base": reordered,
                                            "axes": axes}))

    def test_whatifs_route_by_their_base_hash(self):
        key = EstimateRequest.from_dict(ESTIMATE_BODY).key()
        whatif = {"base": key,
                  "edits": [{"type": "floorplan_resize", "n_cells": 1000}]}
        assert self.route("/v1/estimate", whatif) == key
        assert self.route("/v1/estimate", ESTIMATE_BODY) == key


class TestHashRing:
    def test_owner_is_stable(self):
        ring = HashRing(4)
        keys = [f"key-{i}" for i in range(500)]
        owners = [ring.owner(key) for key in keys]
        assert owners == [ring.owner(key) for key in keys]

    def test_keyspace_is_spread_over_every_slot(self):
        ring = HashRing(4)
        counts = Counter(ring.owner(f"key-{i}") for i in range(2000))
        assert sorted(counts) == [0, 1, 2, 3]
        # Virtual nodes keep the split roughly even: no slot owns more
        # than twice its fair share.
        assert max(counts.values()) < 2 * (2000 / 4)

    def test_preference_starts_at_owner_and_covers_all(self):
        ring = HashRing(3)
        for i in range(50):
            order = ring.preference(f"key-{i}")
            assert order[0] == ring.owner(f"key-{i}")
            assert sorted(order) == [0, 1, 2]

    def test_single_replica_ring(self):
        ring = HashRing(1)
        assert ring.owner("anything") == 0
        assert ring.preference("anything") == [0]

    def test_rejects_empty_ring(self):
        with pytest.raises(ConfigurationError):
            HashRing(0)


@pytest.fixture(scope="module")
def fleet_front():
    fleet, front = create_front(2, options=dict(REPLICA_OPTIONS),
                                fleet_options=dict(FLEET_OPTIONS))
    thread = threading.Thread(target=front.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{front.server_address[1]}"
    try:
        yield fleet, front, base
    finally:
        pids = [pid for pid in fleet.pids() if pid]
        front.drain(grace=30.0)
        thread.join(timeout=10.0)
        for pid in pids:
            # Reaped, not orphaned: drain must leave no replica behind.
            with pytest.raises(OSError):
                os.kill(pid, 0)


class TestFleetRouting:
    def test_estimate_routes_and_coalesces(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        first = document["estimate"]

        started = time.monotonic()
        status, repeat = post(base, "/v1/estimate", ESTIMATE_BODY)
        warm_seconds = time.monotonic() - started
        assert status == 200
        # Same content key -> same replica -> warm memory tier,
        # bit-identical result.
        assert repeat["estimate"] == first
        assert warm_seconds < 1.0

    def test_whatif_routes_to_the_base_owner(self, fleet_front):
        fleet, front, base = fleet_front
        status, _ = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        key = EstimateRequest.from_dict(ESTIMATE_BODY).key()
        # Routed by the base hash, the delta lands on the replica that
        # recorded the base -- no unknown_base even with 2 replicas.
        status, document = post(base, "/v1/estimate", {
            "base": key,
            "edits": [{"type": "floorplan_resize", "n_cells": 1000}],
        })
        assert status == 200
        assert document["estimate"]["n_cells"] == 1000

    def test_sweep_through_the_front(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = post(base, "/v1/sweep", {
            "base": ESTIMATE_BODY,
            "axes": [{"name": "n_cells", "values": [300, 500]}],
        })
        assert status == 200
        assert len(document["sweep"]["estimates"]) == 2

    def test_healthz_aggregates_replicas(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = get(base, "/v1/healthz")
        assert status == 200
        assert document["status"] in ("ok", "degraded")
        assert document["fleet"]["n_replicas"] == 2
        entries = {entry["replica"]: entry
                   for entry in document["replicas"]}
        assert sorted(entries) == [0, 1]
        for entry in entries.values():
            if entry["alive"]:
                assert entry["healthz"]["status"] == "ok"

    def test_readyz_reports_ready_replicas(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = get(base, "/v1/readyz")
        assert status == 200
        assert document["ready_replicas"]

    def test_job_status_fans_out(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        status, job = get(base, f"/v1/jobs/{document['job_id']}")
        assert status == 200
        assert job["state"] == "done"

    def test_unknown_job_is_404_everywhere(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = get(base, "/v1/jobs/nope")
        assert status == 404
        assert document["kind"] == "not_found"

    def test_front_metrics_scrape(self, fleet_front):
        fleet, front, base = fleet_front
        with urllib.request.urlopen(base + "/v1/metrics",
                                    timeout=30.0) as response:
            text = response.read().decode("utf-8")
        assert "repro_front_requests_total" in text
        assert "repro_front_routed_total" in text

    def test_kill_fails_over_and_supervisor_restarts(self, fleet_front):
        fleet, front, base = fleet_front
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        baseline = document["estimate"]

        key = EstimateRequest.from_dict(ESTIMATE_BODY).key()
        owner = front.ring.owner(key)
        assert fleet.kill(owner) is not None

        # The very next request fails over to the surviving replica and
        # still answers bit-identically (shared deterministic pipeline).
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        assert document["estimate"] == baseline

        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if fleet.address(owner) is not None:
                break
            time.sleep(0.05)
        assert fleet.address(owner) is not None, fleet.failures
        assert fleet.restarts >= 1
        assert any("exited with code" in note for note in fleet.failures)

        # The restarted slot serves again: repeat until the ring owner
        # answers (it may briefly still be warming).
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        assert document["estimate"] == baseline


class TestSupervisionRobustness:
    # A replica whose child dies before sending the ready handshake
    # tears the pipe: poll() returns on EOF, recv() raises EOFError.
    # Supervision must see a typed ReproError and keep supervising.
    # cache_shards=0 with a cache_dir makes ServiceClient raise in the
    # child before the handshake is sent.

    def test_death_before_handshake_is_a_typed_error(self, tmp_path):
        fleet = ReplicaFleet(
            1, dict(REPLICA_OPTIONS, cache_dir=str(tmp_path / "cache"),
                    cache_shards=0),
            **FLEET_OPTIONS)
        try:
            with pytest.raises(ReproError,
                               match="before its ready handshake"):
                fleet.start()
        finally:
            fleet.stop(grace=5.0)

    def test_supervisor_survives_failed_respawns(self, tmp_path):
        fleet = ReplicaFleet(1, dict(REPLICA_OPTIONS), **FLEET_OPTIONS)
        fleet.start()
        try:
            assert fleet.address(0) is not None
            # Sabotage the options so every respawned child dies before
            # its handshake, then kill the replica.
            fleet.options["cache_dir"] = str(tmp_path / "cache")
            fleet.options["cache_shards"] = 0
            fleet.kill(0)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if any("respawn failed" in note
                       for note in fleet.failures):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no respawn-failure note recorded")
            assert fleet._supervisor.is_alive()
            # Heal the options: supervision is still running, so the
            # slot must come back on its own.
            fleet.options["cache_shards"] = 8
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if fleet.address(0) is not None:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"slot never recovered: {fleet.failures}")
        finally:
            fleet.stop(grace=5.0)


class TestFleetDrain:
    def test_whole_fleet_drain_reaps_every_replica(self):
        fleet, front = create_front(2, options=dict(REPLICA_OPTIONS),
                                    fleet_options=dict(FLEET_OPTIONS))
        thread = threading.Thread(target=front.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{front.server_address[1]}"
        pids = [pid for pid in fleet.pids() if pid]
        assert len(pids) == 2

        front.begin_drain()
        status, document = post(base, "/v1/estimate", ESTIMATE_BODY)
        assert status == 503
        assert document["kind"] == "draining"
        status, document = get(base, "/v1/readyz")
        assert status == 503

        clean = front.drain(grace=30.0)
        thread.join(timeout=10.0)
        assert clean
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)
