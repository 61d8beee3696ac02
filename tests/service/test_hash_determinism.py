"""Content-hash determinism for the service's request identities.

The cache tiers, the coalescer, and the delta ``base=`` protocol all
key on ``request.key()`` — a sha256 over the canonical JSON of the
request. That makes three properties load-bearing:

* **insertion-order independence** — dict field order must not leak
  into the hash (clients build payloads in arbitrary order);
* **numpy-scalar transparency** — ``np.int64(4096)`` and ``4096`` must
  hash identically (sweep/benchmark code passes numpy scalars);
* **cross-process stability** — a hash recorded by one server process
  must resolve in another (disk cache reuse, delta bases handed
  between sessions), so no ``PYTHONHASHSEED``/``id()`` dependence.
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from repro.service.jobs import EstimateRequest, TechnologyConfig
from repro.service.sweep import SweepAxisSpec, SweepRequest
from repro.service.whatif import WhatIfRequest


def _estimate_request(**overrides):
    fields = dict(
        n_cells=4096, width_mm=1.0, height_mm=1.0,
        usage={"INV_X1": 0.5, "NAND2_X1": 0.3, "NOR2_X1": 0.2},
        signal_probability=0.5, method="linear")
    fields.update(overrides)
    return EstimateRequest(**fields)


BASE_HASH = "a" * 64


def _whatif_request(edits=None):
    return WhatIfRequest(base=BASE_HASH, edits=edits or [
        {"type": "cell_swap", "from_cell": "INV_X1",
         "to_cell": "NAND2_X1", "fraction": 0.01},
    ])


class TestInsertionOrder:
    def test_usage_order_irrelevant(self):
        forward = _estimate_request(
            usage={"INV_X1": 0.5, "NAND2_X1": 0.3, "NOR2_X1": 0.2})
        reversed_ = _estimate_request(
            usage={"NOR2_X1": 0.2, "NAND2_X1": 0.3, "INV_X1": 0.5})
        assert forward.key() == reversed_.key()

    def test_wire_document_key_order_irrelevant(self):
        document = _estimate_request().to_dict()
        shuffled = json.loads(json.dumps(document))
        shuffled = dict(reversed(list(shuffled.items())))
        assert EstimateRequest.from_dict(shuffled).key() == \
            _estimate_request().key()

    def test_whatif_edit_key_order_irrelevant(self):
        a = _whatif_request([{"type": "cell_swap", "from_cell": "INV_X1",
                              "to_cell": "NAND2_X1", "fraction": 0.01}])
        b = _whatif_request([{"fraction": 0.01, "to_cell": "NAND2_X1",
                              "from_cell": "INV_X1", "type": "cell_swap"}])
        assert a.key() == b.key()

    def test_edit_order_is_significant(self):
        # Edits fold in order — permuting them is a different request.
        swap = {"type": "cell_swap", "from_cell": "INV_X1",
                "to_cell": "NAND2_X1", "fraction": 0.01}
        resize = {"type": "floorplan_resize", "n_cells": 2048}
        assert _whatif_request([swap, resize]).key() != \
            _whatif_request([resize, swap]).key()


class TestNumpyScalars:
    def test_numpy_ints_and_floats_hash_like_builtins(self):
        plain = _estimate_request()
        numpified = _estimate_request(
            n_cells=np.int64(4096), width_mm=np.float64(1.0),
            height_mm=np.float64(1.0),
            usage={"INV_X1": np.float64(0.5),
                   "NAND2_X1": np.float64(0.3),
                   "NOR2_X1": np.float64(0.2)},
            signal_probability=np.float64(0.5))
        assert numpified.key() == plain.key()

    def test_sweep_axis_numpy_values(self):
        plain = SweepRequest(
            base=_estimate_request(),
            axes=(SweepAxisSpec(name="signal_probability",
                                values=(0.3, 0.5)),))
        numpified = SweepRequest(
            base=_estimate_request(),
            axes=(SweepAxisSpec(name="signal_probability",
                                values=(np.float64(0.3),
                                        np.float64(0.5))),))
        assert numpified.key() == plain.key()


class TestIrrelevantFields:
    def test_priority_trace_excluded(self):
        plain = _estimate_request()
        tweaked = _estimate_request(priority=7, trace=True)
        assert tweaked.key() == plain.key()

    def test_whatif_priority_excluded(self):
        assert _whatif_request().key() == \
            WhatIfRequest(base=BASE_HASH, priority=9, edits=[
                {"type": "cell_swap", "from_cell": "INV_X1",
                 "to_cell": "NAND2_X1", "fraction": 0.01}]).key()

    def test_technology_participates(self):
        assert _estimate_request().key() != _estimate_request(
            technology=TechnologyConfig(corr_length_mm=0.25)).key()


SUBPROCESS_SCRIPT = """
import json, sys
import numpy as np
from repro.service.jobs import EstimateRequest
from repro.service.sweep import SweepAxisSpec, SweepRequest
from repro.service.whatif import WhatIfRequest

estimate = EstimateRequest(
    n_cells=np.int64(4096), width_mm=1.0, height_mm=1.0,
    usage={"NOR2_X1": 0.2, "INV_X1": 0.5, "NAND2_X1": 0.3},
    signal_probability=0.5, method="linear")
sweep = SweepRequest(
    base=estimate,
    axes=(SweepAxisSpec(name="signal_probability", values=(0.3, 0.5)),))
whatif = WhatIfRequest(base="a" * 64, edits=[
    {"type": "cell_swap", "from_cell": "INV_X1",
     "to_cell": "NAND2_X1", "fraction": 0.01}])
print(json.dumps({"estimate": estimate.key(), "sweep": sweep.key(),
                  "whatif": whatif.key()}))
"""


class TestCrossProcess:
    @pytest.mark.parametrize("hashseed", ["0", "12345"])
    def test_hashes_stable_across_processes(self, hashseed):
        result = subprocess.run(
            [sys.executable, "-c", SUBPROCESS_SCRIPT],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": hashseed})
        got = json.loads(result.stdout)
        here = {
            "estimate": _estimate_request().key(),
            "sweep": SweepRequest(
                base=_estimate_request(),
                axes=(SweepAxisSpec(name="signal_probability",
                                    values=(0.3, 0.5)),)).key(),
            "whatif": _whatif_request().key(),
        }
        assert got == here
