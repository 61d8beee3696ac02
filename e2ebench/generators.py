"""Seeded request generators: the only inputs the program receives.

Every generator is a pure function of its seed and emits plain
wire-format request documents. Costs are stratified so that two seeds send statistically
equivalent traffic: the seed picks *which* cells, corners, geometries
and orders, never *how much* work a block of requests holds. That is
what lets the spread between runs with different seeds measure the
program and the host rather than the draw.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Dict, List, Sequence, Tuple

#: Die geometry of the canonical 16,384-gate design (paper-scale density).
CANONICAL_CELLS = 16_384
CANONICAL_DIE_MM = 0.45


def _die_for(n_cells: int) -> float:
    """Die edge [mm] keeping the canonical cell density."""
    return round(CANONICAL_DIE_MM * math.sqrt(n_cells / CANONICAL_CELLS), 6)


def _usage(rng: random.Random, cells: Sequence[str]) -> Dict[str, float]:
    weights = [0.2 + rng.random() for _ in cells]
    total = sum(weights)
    return {cell: weight / total for cell, weight in zip(cells, weights)}


#: Library cells in three characterization-cost classes, from timing
#: ``characterize_library`` on each cell alone (median of three, one
#: corner): cheap under 2 ms, mid 5-20 ms, dear 30-60 ms. Cost follows
#: neither the state count nor the transistor count (XOR2 costs 60 ms
#: with 4 states, DFF 10 ms with 8), so subsets are drawn per class.
#: Cells above 80 ms (4-input and complex gates, adders, set/reset
#: flip-flops) are left out: one of them outweighs a whole subset.
CHEAP_CELLS = ("BUF_X1", "BUF_X2", "BUF_X4", "BUF_X8", "CLKBUF_X1",
               "CLKBUF_X2", "CLKBUF_X4", "INV_X1", "INV_X2", "INV_X4",
               "INV_X8", "SRAM6T_X1")
MID_CELLS = ("AND2_X1", "AND2_X2", "DFF_X1", "DFF_X2", "LATCH_X1",
             "MUX2_X1", "MUX2_X2", "NAND2B_X1", "NAND2_X1", "NAND2_X2",
             "NAND2_X4", "NOR2B_X1", "NOR2_X1", "NOR2_X2", "NOR2_X4",
             "OR2_X1", "OR2_X2", "TINV_X1")
DEAR_CELLS = ("AND3_X1", "AOI21_X1", "AOI21_X2", "NAND3_X1", "NAND3_X2",
              "NOR3_X1", "NOR3_X2", "OAI21_X1", "OAI21_X2", "OR3_X1",
              "XNOR2_X1", "XNOR2_X2", "XOR2_X1", "XOR2_X2")


def _subset(rng: random.Random, size: int) -> List[str]:
    """``size/2`` cheap, ``size/4`` mid and ``size/4`` dear cells."""
    return sorted(rng.sample(CHEAP_CELLS, size // 2)
                  + rng.sample(MID_CELLS, size // 4)
                  + rng.sample(DEAR_CELLS, size // 4))


# ---------------------------------------------------------------------------
# cold_corners
# ---------------------------------------------------------------------------

#: Subset sizes; every block of five requests holds each size once.
COLD_SUBSET_SIZES = (8, 12, 16, 20, 24)
#: Share of requests that revisit an earlier corner with only a new
#: correlation assumption (the paper's correlation-length study).
COLD_REUSE_SHARE = 0.25


def cold_corners(seed: int,
                 count: int) -> Tuple[List[Dict[str, Any]], List[int]]:
    """``count`` cold-corner requests and, per request, the index of
    the request whose corner it reuses (``-1`` for a fresh corner).

    Subsets are drawn per cost class (:func:`_subset`), so a subset's
    size fixes its characterization cost to within a few per cent.
    """
    rng = random.Random(f"cold_corners:{seed}")
    requests: List[Dict[str, Any]] = []
    reuse_of: List[int] = []
    last_of_size: Dict[int, int] = {}
    while len(requests) < count:
        sizes = list(COLD_SUBSET_SIZES)
        rng.shuffle(sizes)
        for size in sizes:
            if len(requests) == count:
                break
            technology = {
                "corr_length_mm": round(rng.uniform(0.2, 1.5), 6),
                "d2d_fraction": round(rng.uniform(0.2, 0.8), 6),
            }
            source = last_of_size.get(size)
            if source is not None and rng.random() < COLD_REUSE_SHARE:
                earlier = requests[source]
                technology["sigma_l"] = earlier["technology"]["sigma_l"]
                technology["temperature_c"] = \
                    earlier["technology"]["temperature_c"]
                cells, usage = earlier["cells"], earlier["usage"]
                reuse_of.append(source)
            else:
                technology["sigma_l"] = round(rng.uniform(0.03, 0.07), 6)
                technology["temperature_c"] = round(rng.uniform(25, 110), 3)
                cells = _subset(rng, size)
                usage = _usage(rng, cells)
                reuse_of.append(-1)
            last_of_size[size] = len(requests)
            requests.append({
                "n_cells": CANONICAL_CELLS,
                "width_mm": CANONICAL_DIE_MM,
                "height_mm": CANONICAL_DIE_MM,
                "cells": cells,
                "usage": usage,
                "method": "linear",
                "technology": technology,
            })
    return requests, reuse_of


# ---------------------------------------------------------------------------
# serve_hot / explore_mixed: one design
# ---------------------------------------------------------------------------

def design(seed: int, name: str, size: int = 8) -> Dict[str, Any]:
    """One design's base request: a cost-stratified cell subset, its
    usage, a process corner, and the canonical geometry."""
    rng = random.Random(f"{name}:design:{seed}")
    cells = _subset(rng, size)
    return {
        "n_cells": CANONICAL_CELLS,
        "width_mm": CANONICAL_DIE_MM,
        "height_mm": CANONICAL_DIE_MM,
        "cells": cells,
        "usage": _usage(rng, cells),
        "method": "linear",
        "technology": {
            "corr_length_mm": round(rng.uniform(0.3, 1.0), 6),
            "d2d_fraction": round(rng.uniform(0.3, 0.7), 6),
            "sigma_l": round(rng.uniform(0.04, 0.06), 6),
            "temperature_c": round(rng.uniform(60, 100), 3),
        },
    }


def hot_keys(seed: int, base: Dict[str, Any], k: int) -> List[Dict[str, Any]]:
    """``k`` distinct requests on one design (distinct cell counts)."""
    rng = random.Random(f"serve_hot:keys:{seed}")
    counts = rng.sample(range(8_000, 64_000), k)
    return [dict(base, n_cells=n, width_mm=_die_for(n), height_mm=_die_for(n))
            for n in counts]


def hot_schedule(seed: int, k: int, count: int) -> List[int]:
    """Which of the ``k`` primed requests each timed request sends."""
    rng = random.Random(f"serve_hot:schedule:{seed}")
    return [rng.randrange(k) for _ in range(count)]


#: One explore_mixed block of 20 operations, by kind. Sorted by cost
#: the block reads: 7 what-ifs and the 16k estimate (ranks 0-40 %), 5
#: exact (40-65 %), the 64k and 256k estimates, 2 thermal (75-85 %),
#: the two 1M estimates (85-95 %) and the sweep. The median thus sits
#: mid-way through the exact class and the 90th percentile between the
#: two 1M estimates, away from any boundary between cost classes, so a
#: run cut mid-block moves neither.
EXPLORE_BLOCK = (("whatif", 7), ("exact", 5), ("thermal", 2), ("sweep", 1),
                 ("linear", 5))
#: Site counts of the new-geometry linear estimates in a block.
EXPLORE_LINEAR_SITES = (16_384, 65_536, 262_144, 1_048_576, 1_048_576)


#: The coupled power-thermal configuration of explore_mixed's thermal
#: estimates: the package and spreading network of the thermal
#: benchmark at a power scale that keeps the feedback gain between
#: about 0.05 and 0.2 on generated designs (4-6 fixed-point iterations).
THERMAL = {"feedback": True, "package_resistance": 40.0,
           "spreading_resistance": 3e5, "spreading_length": 3e-4,
           "power_scale": 20.0}


def explore_ops(seed: int, base: Dict[str, Any], base_key: str,
                count: int) -> List[Tuple[str, str, Dict[str, Any]]]:
    """``count`` operations ``(kind, path, body)`` in seeded order.

    No two operations (nor any operation and ``base``) share a body,
    so every one carries a content key no earlier one had.
    """
    rng = random.Random(f"explore_mixed:ops:{seed}")
    seen = {json.dumps(base, sort_keys=True)}
    ops: List[Tuple[str, str, Dict[str, Any]]] = []
    while len(ops) < count:
        kinds = [kind for kind, n in EXPLORE_BLOCK for _ in range(n)]
        linear_sites = list(EXPLORE_LINEAR_SITES)
        rng.shuffle(kinds)
        for kind in kinds:
            sites = linear_sites.pop() if kind == "linear" else 0
            while True:
                path, body = _operation(rng, kind, sites, base, base_key)
                fingerprint = json.dumps(body, sort_keys=True)
                if fingerprint not in seen:
                    break
            seen.add(fingerprint)
            ops.append((kind, path, body))
    return ops[:count]


def _operation(rng: random.Random, kind: str, sites: int,
               base: Dict[str, Any], base_key: str
               ) -> Tuple[str, Dict[str, Any]]:
    if kind == "sweep":
        return "/v1/sweep", _sweep(rng, base)
    if kind == "whatif":
        return "/v1/estimate", _whatif(rng, base_key, base["cells"])
    if kind == "linear":
        n = int(sites * rng.uniform(0.97, 1.03))
        extra: Dict[str, Any] = {}
    else:
        n = rng.randrange(15_000, 17_000)
        extra = {"simplified_correlation": True}
        if kind == "exact":
            extra["method"] = "exact"
        else:
            extra["thermal"] = THERMAL
    # A continuous aspect ratio keeps the key space unbounded.
    stretch = math.sqrt(rng.uniform(0.9, 1.1))
    return "/v1/estimate", dict(
        base, n_cells=n, width_mm=round(_die_for(n) * stretch, 6),
        height_mm=round(_die_for(n) / stretch, 6), **extra)


def _sweep(rng: random.Random, base: Dict[str, Any]) -> Dict[str, Any]:
    """A 10 x 10 grid: cell count x (signal probability or usage)."""
    start = rng.randrange(8_000, 12_000)
    counts = [start + 1_000 * i for i in range(10)]
    if rng.random() < 0.5:
        second = {"name": "signal_probability",
                  "values": [round(rng.uniform(0.1, 0.9), 6)
                             for _ in range(10)]}
    else:
        second = {"name": "usage",
                  "values": [_usage(rng, base["cells"]) for _ in range(10)]}
    return {"base": dict(base),
            "axes": [{"name": "n_cells", "values": counts}, second]}


def _whatif(rng: random.Random, base_key: str,
            cells: Sequence[str]) -> Dict[str, Any]:
    if rng.random() < 0.5:
        n = rng.randrange(12_000, 24_000)
        edit = {"type": "floorplan_resize", "n_cells": n,
                "width": _die_for(n) * 1e-3, "height": _die_for(n) * 1e-3}
    else:
        source, target = rng.sample(list(cells), 2)
        edit = {"type": "cell_swap", "from_cell": source, "to_cell": target,
                "fraction": round(rng.uniform(0.005, 0.05), 6)}
    return {"base": base_key, "edits": [edit]}
