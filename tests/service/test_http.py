"""HTTP API: endpoints, status codes, async flow, metrics scrape."""

from __future__ import annotations

import http.client
import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, create_server

from .conftest import CELLS


@pytest.fixture()
def server():
    client = ServiceClient(workers=2)
    http_server = create_server(client, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{http_server.server_address[1]}"
    try:
        yield base
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


class TestEndpoints:
    def test_healthz_ok_while_workers_live(self, server):
        status, body = get(server, "/v1/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"

    def test_sync_estimate_round_trip(self, server):
        status, document = post(server, "/v1/estimate", ESTIMATE_BODY)
        assert status == 200
        assert document["state"] == "done"
        estimate = document["estimate"]
        assert estimate["mean"] > 0
        assert estimate["std"] > 0
        assert estimate["method"] == "linear"

    def test_async_estimate_and_job_polling(self, server):
        status, document = post(
            server, "/v1/estimate", dict(ESTIMATE_BODY, **{"async": 1}))
        assert status == 202
        job_id = document["job_id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            status, body = get(server, f"/v1/jobs/{job_id}")
            assert status == 200
            snapshot = json.loads(body)
            if snapshot["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.05)
        assert snapshot["state"] == "done"
        assert snapshot["estimate"]["mean"] > 0

    def test_unknown_job_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/jobs/job-does-not-exist")
        assert excinfo.value.code == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/nope")
        assert excinfo.value.code == 404


class TestKeepAlive:
    def test_kept_alive_requests_do_not_stall(self, server):
        """Sequential requests on one connection answer promptly (no
        Nagle / delayed-ACK stall between the header and body writes)."""
        host, port = server[len("http://"):].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(10):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                response.read()
                assert response.status == 200
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.2, f"10 kept-alive requests took {elapsed:.3f} s"

    def test_front_handler_disables_nagle(self):
        from repro.service.fleet import _FrontHandler

        assert _FrontHandler.disable_nagle_algorithm is True


class TestErrors:
    def test_invalid_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/estimate", {"n_cells": -5, "width_mm": 1,
                                          "height_mm": 1})
        assert excinfo.value.code == 400
        detail = json.loads(excinfo.value.read())
        assert "error" in detail

    def test_non_json_body_is_400(self, server):
        request = urllib.request.Request(
            server + "/v1/estimate", data=b"this is not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400


class TestMetricsScrape:
    def test_second_identical_request_shows_cache_hit(self, server):
        post(server, "/v1/estimate", ESTIMATE_BODY)
        post(server, "/v1/estimate", ESTIMATE_BODY)
        status, text = get(server, "/v1/metrics")
        assert status == 200
        hit_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_cache_requests_total")
            and 'tier="estimate"' in line and 'result="hit"' in line
        ]
        assert hit_lines, "expected an estimate-tier cache hit sample"
        assert float(hit_lines[0].rsplit(" ", 1)[1]) >= 1
        assert "repro_http_requests_total" in text
        assert "repro_request_seconds_bucket" in text
        assert "repro_queue_depth" in text

    def test_process_worker_respawn_counts_without_health_check(self):
        """The supervisor counts a worker-process respawn when it
        performs it: a bare ``/v1/metrics`` scrape, with no health
        check before it, shows the restart."""
        client = ServiceClient(workers=1, worker_mode="process",
                               process_pool={"heartbeat_interval": 0.02})
        http_server = create_server(client, port=0)
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{http_server.server_address[1]}"
        pool = client._process_pool
        try:
            deadline = time.monotonic() + 60.0
            while client.worker_liveness()[0]["state"] != "up":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(client.worker_liveness()[0]["pid"], signal.SIGKILL)
            while pool.restarts < 1:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status, text = get(base, "/v1/metrics")
            assert status == 200
            samples = [line for line in text.splitlines()
                       if line.startswith("repro_worker_restarts_total ")]
            assert [float(line.rsplit(" ", 1)[1])
                    for line in samples] == [1.0]
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
            client.close()


class TestReadiness:
    def test_readyz_ok_when_serving(self, server):
        status, body = get(server, "/v1/readyz")
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ready"
        assert document["draining"] is False
        assert document["saturated"] is False

    def test_saturated_scheduler_reports_unready(self):
        """Readiness (not liveness) goes 503 while the queue is full."""
        from repro.service.metrics import MetricsRegistry
        from repro.service.scheduler import EstimationScheduler

        gate = threading.Event()

        def compute(request, job):
            assert gate.wait(10.0)
            return "ok"

        scheduler = EstimationScheduler(compute, workers=1, queue_limit=1)

        class StubClient:
            metrics = MetricsRegistry()
            faults = None

            def __init__(self, scheduler):
                self.scheduler = scheduler

        http_server = create_server(StubClient(scheduler), port=0)
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{http_server.server_address[1]}"
        try:
            from repro.service.jobs import EstimateRequest

            def submit(n):
                return scheduler.submit(EstimateRequest(
                    n_cells=n, width_mm=1.0, height_mm=1.0))

            submit(10)  # occupies the single worker
            deadline = time.monotonic() + 5.0
            while (scheduler.queue_depth > 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)  # wait for the worker to claim it
            submit(20)  # fills the queue (limit 1)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(base, "/v1/readyz")
            assert excinfo.value.code == 503
            document = json.loads(excinfo.value.read())
            assert document["saturated"] is True
            assert "saturated" in document["reasons"]
            # Liveness stays green: the process is healthy, just busy.
            status, _ = get(base, "/v1/healthz")
            assert status == 200
            gate.set()
        finally:
            gate.set()
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
            scheduler.close()

    def test_draining_refuses_new_work_but_stays_alive(self, server_pair):
        base, http_server = server_pair
        http_server.begin_drain()
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(base, "/v1/readyz")
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["draining"] is True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(base, "/v1/estimate", ESTIMATE_BODY)
        assert excinfo.value.code == 503
        assert json.loads(excinfo.value.read())["kind"] == "draining"
        status, _ = get(base, "/v1/healthz")  # liveness unaffected
        assert status == 200
        status, text = get(base, "/v1/metrics")
        assert "repro_http_draining 1" in text

    def test_drain_waits_for_inflight_requests(self, server_pair):
        base, http_server = server_pair
        results = {}

        def slow_post():
            results["estimate"] = post(base, "/v1/estimate", ESTIMATE_BODY)

        poster = threading.Thread(target=slow_post)
        poster.start()
        deadline = time.monotonic() + 10.0
        while http_server.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        http_server.begin_drain()
        assert http_server.await_idle(grace=120.0)
        poster.join(timeout=10.0)
        status, document = results["estimate"]
        assert status == 200
        assert document["estimate"]["mean"] > 0

    def test_retired_process_pool_reports_unhealthy_and_unready(self):
        """With no restart budget, killing the only worker process
        retires the pool; health checks must stop answering 200."""
        client = ServiceClient(workers=1, worker_mode="process",
                               process_pool={"max_restarts": 0,
                                             "heartbeat_interval": 0.02})
        http_server = create_server(client, port=0)
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{http_server.server_address[1]}"
        try:
            # A starting slot counts as a live worker.
            status, _ = get(base, "/v1/readyz")
            assert status == 200
            deadline = time.monotonic() + 60.0
            while client.worker_liveness()[0]["state"] != "up":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(client.worker_liveness()[0]["pid"], signal.SIGKILL)
            while not client._process_pool.stopped:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for path in ("/v1/healthz", "/v1/readyz"):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    get(base, path)
                assert excinfo.value.code == 503
                assert json.loads(excinfo.value.read())["workers"] == 0
        finally:
            http_server.shutdown()
            http_server.server_close()
            thread.join(timeout=5.0)
            client.close()


@pytest.fixture()
def server_pair():
    """Like ``server`` but also yields the server object for drain tests."""
    from repro.service import ServiceClient, create_server

    client = ServiceClient(workers=2)
    http_server = create_server(client, port=0)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{http_server.server_address[1]}"
    try:
        yield base, http_server
    finally:
        if not http_server.draining:
            http_server.shutdown()
            http_server.server_close()
        else:
            try:
                http_server.shutdown()
                http_server.server_close()
            except Exception:
                pass
        thread.join(timeout=5.0)
        client.close()


class TestValidation:
    def test_unknown_request_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/estimate",
                 dict(ESTIMATE_BODY, surprise_field=1))
        assert excinfo.value.code == 400
        document = json.loads(excinfo.value.read())
        assert document["kind"] == "bad_request"
        assert "surprise_field" in document["error"]

    def test_backend_field_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/estimate",
                 dict(ESTIMATE_BODY, backend="numpy"))
        assert excinfo.value.code == 400
        document = json.loads(excinfo.value.read())
        assert document["kind"] == "bad_request"
        assert "backend" in document["error"]

    def test_oversized_body_is_400(self, server):
        padded = dict(ESTIMATE_BODY, usage={
            f"CELL_{i}": 0.0 for i in range(60000)})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/estimate", padded)
        assert excinfo.value.code == 400
        document = json.loads(excinfo.value.read())
        assert "too large" in document["error"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(
            server + "/v1/estimate", data=b"",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_error_responses_feed_the_4xx_counter(self, server):
        with pytest.raises(urllib.error.HTTPError):
            get(server, "/v1/nope")
        with pytest.raises(urllib.error.HTTPError):
            post(server, "/v1/estimate", {"bad": True})
        status, text = get(server, "/v1/metrics")
        lines = [line for line in text.splitlines()
                 if line.startswith("repro_http_errors_total")
                 and 'status_class="4xx"' in line]
        assert lines and float(lines[0].rsplit(" ", 1)[1]) >= 2
        assert "repro_http_request_bytes_bucket" in text
