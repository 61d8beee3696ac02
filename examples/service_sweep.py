#!/usr/bin/env python3
"""Corner and geometry sweeps through the estimation service.

A signoff flow sweeps temperature corners, die floorplans, and usage
mixes around a baseline. This example runs one 12-point corner x die
grid two ways:

* **per-request path** — one ``estimate`` call per point: a job, queue
  slot and deadline each; the cache still shares one characterization
  per corner.
* **batched ``/v1/sweep``** — the whole grid as *one* job. Points the
  estimate tier lacks go to one call of the batched sweep engine
  (``repro.core.sweep``): one lag kernel per floorplan, one Random-Gate
  mixture per mix. Results are bit-identical to the loop, ``stats``
  counts the shared work, and each point back-fills the estimate tier.

Against a running ``repro serve`` use ``RemoteClient`` instead of
``ServiceClient``; the request document is what ``POST /v1/sweep``
accepts.

Run:  python examples/service_sweep.py
"""

import time

from repro.analysis import format_table
from repro.service import (EstimateRequest, ServiceClient, SweepRequest,
                           TechnologyConfig)

# A compact library subset keeps this demo snappy; drop `cells` to
# characterize the full library.
CELLS = ("INV_X1", "NAND2_X1", "NOR2_X1")
USAGE = {"INV_X1": 0.4, "NAND2_X1": 0.4, "NOR2_X1": 0.2}

BASE = EstimateRequest(
    n_cells=50_000, width_mm=0.8, height_mm=0.8,
    usage=USAGE, cells=CELLS, method="linear",
    technology=TechnologyConfig(temperature_c=25.0))

SWEEP = SweepRequest(base=BASE, axes=[
    {"name": "temperature_c", "values": [25.0, 85.0, 125.0]},
    {"name": "die", "values": [[0.6, 0.6], [0.8, 0.8],
                               [1.0, 1.0], [1.4, 1.4]]},
])


def main():
    points = SWEEP.expand()

    # -- old path: one request per point ------------------------------
    with ServiceClient(workers=2) as client:
        start = time.perf_counter()
        looped = [client.estimate(point, timeout=600.0)
                  for point in points]
        t_loop = time.perf_counter() - start

    # -- batched path: the whole grid as one job ----------------------
    with ServiceClient(workers=2) as client:
        start = time.perf_counter()
        response = client.sweep(SWEEP, timeout=600.0)
        t_sweep = time.perf_counter() - start

        assert all(got.mean == want.mean and got.std == want.std
                   for got, want in zip(response.estimates, looped))

        rows = []
        for (temperature_c, die), estimate in zip(
                ((t, d) for t in SWEEP.axes[0].values
                 for d in SWEEP.axes[1].values),
                response.estimates):
            rows.append([f"{temperature_c:.0f} C",
                         f"{die[0]:.1f} x {die[1]:.1f} mm",
                         f"{estimate.mean_with_vt * 1e3:.3f} mA",
                         f"{100 * estimate.cv:.1f}%"])
        print(format_table(
            ["corner", "die", "mean leakage", "CV"], rows,
            title=f"Corner x die grid via /v1/sweep "
                  f"({len(response)} points, one job)"))

        n = len(points)
        print(format_table(
            ["path", "jobs", "total [s]", "per point [ms]"],
            [["per-request loop", f"{n}", f"{t_loop:.3f}",
              f"{t_loop / n * 1e3:.1f}"],
             ["batched /v1/sweep", "1", f"{t_sweep:.3f}",
              f"{t_sweep / n * 1e3:.1f}"]],
            title="Same grid, same results — amortized latency"))

        # -- the engine's shared-work ledger ---------------------------
        ledger = {key: value for key, value in response.stats.items()
                  if key != "trace"}
        print(format_table(
            ["counter", "value"],
            [[key, f"{value:.4g}" if isinstance(value, float)
              else str(value)] for key, value in ledger.items()],
            title="Sweep stats ledger"))

        # -- backfill: any grid point is now an estimate-tier hit ------
        start = time.perf_counter()
        client.estimate(points[5], timeout=600.0)
        print(f"\nsingle-point repeat after the sweep: "
              f"{(time.perf_counter() - start) * 1e6:.0f} us (cache hit)")

        stats = client.cache_stats()
        print(format_table(
            ["tier", "hits", "misses", "entries"],
            [[tier, data["hits"], data["misses"], data["entries"]]
             for tier, data in stats.items()],
            title="Cache tiers after the batched sweep"))


if __name__ == "__main__":
    main()
