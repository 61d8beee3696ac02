"""Graceful drain during a multi-point sweep.

The SIGTERM handler wires to :meth:`LeakageHTTPServer.drain`; these
tests drive that path directly while a sweep grid is in flight and
assert the drain contract: the grid finishes whole (or fails with a
typed error) -- a partial grid is never served -- while new work is
refused with a typed ``503 draining``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceClient, create_server
from repro.service.faults import SITE_COMPUTE_HANG, FaultInjector, FaultRule

from .conftest import CELLS

SWEEP_BODY = {
    "base": {
        "n_cells": 900,
        "width_mm": 0.6,
        "height_mm": 0.6,
        "usage": {"INV_X1": 0.5, "NAND2_X1": 0.5},
        "cells": list(CELLS),
        "method": "linear",
    },
    "axes": [{"name": "n_cells", "values": [300, 500, 700, 900, 1100]}],
}


def _slow_client():
    """A client whose first grid point stalls, so the sweep is still in
    flight when the test looks for it however fast the grid computes."""
    return ServiceClient(workers=1, faults=FaultInjector(
        {SITE_COMPUTE_HANG: FaultRule(1.0, 1)}, hang_seconds=0.5))


def test_drain_mid_sweep_finishes_the_whole_grid():
    client = _slow_client()
    server = create_server(client, port=0)
    serve_thread = threading.Thread(target=server.serve_forever,
                                    daemon=True)
    serve_thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    sweep_result = {}

    def run_sweep():
        data = json.dumps(SWEEP_BODY).encode("utf-8")
        request = urllib.request.Request(
            base + "/v1/sweep", data=data,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=300.0) as response:
                sweep_result["status"] = response.status
                sweep_result["document"] = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            sweep_result["status"] = exc.code
            sweep_result["document"] = json.loads(exc.read())

    sweep_thread = threading.Thread(target=run_sweep, daemon=True)
    sweep_thread.start()

    # Wait until the sweep request is actually in flight server-side.
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and server.inflight < 1:
        time.sleep(0.01)
    assert server.inflight >= 1, "sweep never reached the server"

    drain_outcome = {}

    def run_drain():
        drain_outcome["clean"] = server.drain(grace=120.0)

    drain_thread = threading.Thread(target=run_drain, daemon=True)
    drain_thread.start()

    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and not server.draining:
        time.sleep(0.01)
    assert server.draining

    # New work is refused with the typed draining error while the
    # in-flight sweep keeps running.
    data = json.dumps(SWEEP_BODY["base"]).encode("utf-8")
    refused = urllib.request.Request(
        base + "/v1/estimate", data=data,
        headers={"Content-Type": "application/json"})
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(refused, timeout=30.0)
    assert excinfo.value.code == 503
    assert json.loads(excinfo.value.read())["kind"] == "draining"

    sweep_thread.join(timeout=240.0)
    assert not sweep_thread.is_alive(), "sweep hung through drain"
    drain_thread.join(timeout=240.0)
    assert not drain_thread.is_alive(), "drain hung"
    serve_thread.join(timeout=10.0)
    client.close()

    # The drain contract: the whole grid or a typed error -- a partial
    # grid is never served. With a generous grace the grid finishes.
    assert drain_outcome["clean"] is True
    assert sweep_result["status"] == 200
    estimates = sweep_result["document"]["sweep"]["estimates"]
    assert len(estimates) == 5
    assert ([point["n_cells"] for point in estimates]
            == [300, 500, 700, 900, 1100])


def test_drain_with_short_grace_still_never_serves_partial_grids():
    """Even when the grace expires first, the caller sees the full grid
    (the job keeps running to completion) or a typed error -- never a
    truncated ``estimates`` list."""
    client = _slow_client()
    server = create_server(client, port=0)
    serve_thread = threading.Thread(target=server.serve_forever,
                                    daemon=True)
    serve_thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"

    outcome = {}

    def run_sweep():
        data = json.dumps(SWEEP_BODY).encode("utf-8")
        request = urllib.request.Request(
            base + "/v1/sweep", data=data,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request,
                                        timeout=300.0) as response:
                outcome["status"] = response.status
                outcome["document"] = json.loads(response.read())
        except urllib.error.HTTPError as exc:
            outcome["status"] = exc.code
            try:
                outcome["document"] = json.loads(exc.read())
            except ValueError:
                outcome["document"] = None
        except (urllib.error.URLError, ConnectionError, OSError) as exc:
            # The socket died with the server: a visible connection
            # error is a typed outcome too -- never a partial document.
            outcome["status"] = None
            outcome["error"] = exc

    sweep_thread = threading.Thread(target=run_sweep, daemon=True)
    sweep_thread.start()

    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and server.inflight < 1:
        time.sleep(0.01)
    assert server.inflight >= 1

    # Grace likely shorter than the grid: await_idle may give up, the
    # accept loop closes either way. Whether the drain was clean is
    # timing-dependent (a warm grid can finish inside even this grace);
    # the invariant is the response shape, asserted below.
    server.drain(grace=0.05)

    sweep_thread.join(timeout=240.0)
    assert not sweep_thread.is_alive(), "sweep hung through hard drain"
    serve_thread.join(timeout=10.0)
    client.close()

    if outcome.get("status") == 200:
        estimates = outcome["document"]["sweep"]["estimates"]
        assert len(estimates) == 5
    elif outcome.get("status") is not None:
        assert outcome["document"]["kind"] in (
            "draining", "cancelled", "failed", "timeout", "deadline")
    else:
        assert "error" in outcome
