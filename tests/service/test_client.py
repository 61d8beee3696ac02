"""End-to-end service correctness: bit-identical results, cache tiers."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cells.library import build_library
from repro.characterization import characterize_library
from repro.core import CellUsage, FullChipLeakageEstimator
from repro.service import ServiceClient
from repro.service.cache import TIER_CHARACTERIZATION, TIER_ESTIMATE, TIER_RG

from .conftest import CELLS


def direct_estimate(request):
    """Reference result computed without the service stack."""
    technology = request.technology.build()
    characterization = characterize_library(
        build_library(), technology, mode=request.mode,
        cells=request.cells)
    estimator = FullChipLeakageEstimator(
        characterization,
        CellUsage(dict(request.usage)),
        request.n_cells,
        request.width_mm * 1e-3,
        request.height_mm * 1e-3,
        signal_probability=request.signal_probability)
    return estimator.estimate(request.method, n_jobs=request.n_jobs,
                              tolerance=request.tolerance)


class TestBitIdentical:
    def test_cold_and_warm_paths_match_direct_estimate(self, small_request):
        direct = direct_estimate(small_request)
        with ServiceClient(workers=2) as client:
            cold = client.estimate(small_request, timeout=120.0)
            warm = client.estimate(small_request, timeout=120.0)
        for result in (cold, warm):
            assert result.mean == direct.mean
            assert result.std == direct.std
            assert result.method == direct.method

    def test_disk_warm_path_is_bit_identical(self, small_request, tmp_path):
        with ServiceClient(workers=1, cache_dir=str(tmp_path)) as client:
            cold = client.estimate(small_request, timeout=120.0)
        # A fresh client with an empty memory cache must revive the disk
        # entry into a float-exact LeakageEstimate.
        with ServiceClient(workers=1, cache_dir=str(tmp_path)) as client:
            warm = client.estimate(small_request, timeout=120.0)
            stats = client.cache_stats()[TIER_ESTIMATE]
            assert stats["disk_hits"] == 1
        assert warm.mean == cold.mean
        assert warm.std == cold.std
        assert warm.to_dict() == cold.to_dict()


class TestTieredReuse:
    def test_geometry_sweep_reuses_characterization_and_rg(
            self, small_request):
        with ServiceClient(workers=1) as client:
            client.estimate(small_request, timeout=120.0)
            resized = dataclasses.replace(
                small_request, n_cells=1600, width_mm=0.8, height_mm=0.8)
            client.estimate(resized, timeout=120.0)
            stats = client.cache_stats()
            assert stats[TIER_CHARACTERIZATION]["hits"] == 1
            assert stats[TIER_RG]["hits"] == 1
            assert stats[TIER_ESTIMATE]["hits"] == 0

    def test_identical_request_hits_estimate_tier(self, small_request):
        with ServiceClient(workers=1) as client:
            client.estimate(small_request, timeout=120.0)
            client.estimate(small_request, timeout=120.0)
            stats = client.cache_stats()
            assert stats[TIER_ESTIMATE]["hits"] == 1

    def test_metrics_text_exposes_required_families(self, small_request):
        with ServiceClient(workers=1) as client:
            client.estimate(small_request, timeout=120.0)
            text = client.metrics_text()
        assert "repro_requests_total" in text
        assert "repro_cache_requests_total" in text
        assert "repro_queue_depth" in text
        assert "repro_stage_seconds_bucket" in text


class TestCacheStoreSpan:
    def test_cache_writes_are_their_own_stage(self, small_request):
        """The characterization and estimate cache writes are traced as
        ``cache_store`` spans (one per tier), not hidden in the root's
        self time, and reach ``repro_stage_seconds``."""
        traced = dataclasses.replace(small_request, trace=True)
        with ServiceClient(workers=1) as client:
            cold = client.estimate(traced, timeout=120.0)
            text = client.metrics_text()
        document = cold.details["trace"]
        assert document["stages"]["cache_store"]["count"] == 2
        tiers = [child["attrs"]["tier"]
                 for child in document["spans"][0]["children"]
                 if child["name"] == "cache_store"]
        assert tiers == [TIER_CHARACTERIZATION, TIER_ESTIMATE]
        assert 'stage="cache_store"' in text


class TestAsyncApi:
    def test_submit_then_wait(self, small_request):
        with ServiceClient(workers=1) as client:
            job = client.submit(small_request)
            result = client.wait(job, timeout=120.0)
            assert result.mean > 0
            assert client.job(job.id) is job

    def test_kwargs_and_dict_requests(self):
        with ServiceClient(workers=1) as client:
            by_kwargs = client.estimate(
                n_cells=900, width_mm=0.6, height_mm=0.6,
                usage={"INV_X1": 0.5, "NAND2_X1": 0.5}, cells=CELLS,
                method="linear", timeout=120.0)
            by_dict = client.estimate(
                {"n_cells": 900, "width_mm": 0.6, "height_mm": 0.6,
                 "usage": {"INV_X1": 0.5, "NAND2_X1": 0.5},
                 "cells": list(CELLS), "method": "linear"},
                timeout=120.0)
        assert by_kwargs.mean == by_dict.mean
        assert by_kwargs.std == by_dict.std


# -- retry / backoff / circuit breaker (no sockets: scripted transport) --

import io
import json as _json
import urllib.error

from repro.exceptions import ConfigurationError, ServiceError
from repro.service.client import (
    NO_RETRY,
    CircuitBreaker,
    CircuitOpenError,
    RemoteClient,
    RetryPolicy,
)
from repro.service.jobs import DeadlineExceeded


def http_error(status, body=None, kind=None):
    if body is None:
        body = {"error": f"synthetic {status}", "kind": kind}
    raw = _json.dumps(body).encode("utf-8")
    return urllib.error.HTTPError(
        "http://test/v1/estimate", status, "synthetic", {},
        io.BytesIO(raw))


class ScriptedClient(RemoteClient):
    """A RemoteClient whose transport replays a scripted outcome list.

    Each entry is either an exception instance (raised) or a dict
    (returned as the JSON reply).
    """

    def __init__(self, script, **kwargs):
        kwargs.setdefault("retry", RetryPolicy(max_attempts=4, base=0.0,
                                               jitter=0.0))
        kwargs.setdefault("breaker", False)
        super().__init__("http://scripted", **kwargs)
        self.script = list(script)
        self.attempts = 0

    def _attempt(self, method, url, data, headers):
        self.attempts += 1
        outcome = self.script.pop(0)
        if isinstance(outcome, BaseException):
            raise outcome
        return _json.dumps(outcome).encode("utf-8"), "application/json"


class TestRetryPolicy:
    def test_connection_errors_are_retried_to_success(self):
        client = ScriptedClient([
            ConnectionResetError("boom"),
            ConnectionResetError("boom again"),
            {"ok": True},
        ])
        assert client._call("GET", "/v1/jobs") == {"ok": True}
        assert client.attempts == 3
        assert client.retries == 2

    def test_raw_oserror_is_retried_like_a_connection_error(self):
        # A dying/draining server can surface a bare OSError before
        # urllib wraps it (e.g. EPIPE straight off the socket); it must
        # take the same retry path as wrapped connection errors.
        client = ScriptedClient([
            OSError(32, "Broken pipe"),
            {"ok": True},
        ])
        assert client._call("GET", "/v1/jobs") == {"ok": True}
        assert client.attempts == 2
        assert client.retries == 1

    def test_raw_oserror_lands_in_breaker_accounting(self):
        breaker = CircuitBreaker(failure_threshold=2)
        client = ScriptedClient(
            [OSError(104, "Connection reset by peer") for _ in range(4)],
            breaker=breaker)
        # Both raw-OSError attempts count as breaker failures, so the
        # third attempt finds the breaker open -- no longer bypassing
        # the accounting.
        with pytest.raises(CircuitOpenError):
            client._call("GET", "/v1/jobs")
        assert breaker.state == "open"
        assert client.attempts == 2

    def test_retriable_statuses_are_retried(self):
        client = ScriptedClient([http_error(503, kind="draining"),
                                 {"ok": True}])
        assert client._call("GET", "/v1/jobs") == {"ok": True}
        assert client.attempts == 2

    def test_client_errors_are_never_retried(self):
        client = ScriptedClient([http_error(400, kind="bad_request"),
                                 {"never": "reached"}])
        with pytest.raises(ConfigurationError, match="synthetic 400") as err:
            client._call("POST", "/v1/estimate", body={})
        assert err.value.status == 400
        assert err.value.kind == "bad_request"
        assert client.attempts == 1

    def test_exhausted_retries_raise_the_last_error(self):
        client = ScriptedClient([ConnectionResetError(f"try {n}")
                                 for n in range(4)])
        with pytest.raises(ServiceError, match="cannot reach"):
            client._call("GET", "/v1/jobs")
        assert client.attempts == 4

    def test_structured_error_bodies_map_to_typed_exceptions(self):
        client = ScriptedClient([http_error(
            504, body={"error": "deadline exceeded mid-estimate",
                       "kind": "deadline"})], retry=NO_RETRY)
        with pytest.raises(DeadlineExceeded,
                           match="deadline exceeded mid-estimate") as err:
            client._call("POST", "/v1/estimate", body={})
        assert err.value.status == 504
        assert err.value.kind == "deadline"

    def test_unstructured_error_body_preserves_status(self):
        exc = urllib.error.HTTPError(
            "http://test/x", 500, "oops", {},
            io.BytesIO(b"<html>proxy said no</html>"))
        client = ScriptedClient([exc], retry=NO_RETRY)
        with pytest.raises(ServiceError, match="HTTP 500") as err:
            client._call("GET", "/x")
        assert err.value.status == 500

    def test_backoff_grows_and_caps(self):
        import random

        policy = RetryPolicy(base=0.1, multiplier=2.0, max_backoff=0.3,
                             jitter=0.0)
        rng = random.Random(0)
        delays = [policy.backoff(attempt, rng) for attempt in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_rejects_nonsense_parameters(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base=-1.0)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_opens_after_consecutive_connection_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=10.0,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        breaker.before_call()  # still closed
        breaker.record_failure()
        with pytest.raises(CircuitOpenError, match="3 consecutive"):
            breaker.before_call()

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0,
                                 clock=clock)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.now += 10.0
        assert breaker.state == CircuitBreaker.HALF_OPEN
        breaker.before_call()  # the probe is allowed through
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=10.0,
                                 clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.now += 10.0
        breaker.before_call()
        breaker.record_failure()  # single probe failure reopens
        with pytest.raises(CircuitOpenError):
            breaker.before_call()

    def test_http_error_responses_do_not_trip_the_breaker(self):
        client = ScriptedClient(
            [http_error(500) for _ in range(4)],
            retry=RetryPolicy(max_attempts=4, base=0.0, jitter=0.0),
            breaker=CircuitBreaker(failure_threshold=2))
        with pytest.raises(ServiceError):
            client._call("GET", "/x")
        # Four 5xx responses, threshold 2: still closed.
        assert client.breaker.state == CircuitBreaker.CLOSED

    def test_open_breaker_fails_fast_without_transport(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=60.0,
                                 clock=clock)
        client = ScriptedClient([ConnectionResetError("down"),
                                 {"never": "reached"}],
                                retry=NO_RETRY, breaker=breaker)
        with pytest.raises(ServiceError, match="cannot reach"):
            client._call("GET", "/x")
        with pytest.raises(CircuitOpenError):
            client._call("GET", "/x")
        assert client.attempts == 1  # the second call never hit transport

    def test_each_client_gets_its_own_breaker(self):
        a = RemoteClient("http://a")
        b = RemoteClient("http://b")
        assert a.breaker is not b.breaker
        assert RemoteClient("http://c", breaker=False).breaker is None
