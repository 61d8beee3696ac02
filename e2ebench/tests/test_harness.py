"""Self-tests of the benchmark harness (not of the program).

Run with ``python3 -m pytest e2ebench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH_DIR)

import harness  # noqa: E402
import run  # noqa: E402

harness.require_program()

import cold_corners  # noqa: E402
import explore_mixed  # noqa: E402
import generators  # noqa: E402
import serve_hot  # noqa: E402
from repro.cells.library import build_library  # noqa: E402


# -- generators ---------------------------------------------------------------

def test_cost_classes_are_disjoint_library_cells():
    names = set(build_library().names)
    classes = (generators.CHEAP_CELLS, generators.MID_CELLS,
               generators.DEAR_CELLS)
    every = [cell for cells in classes for cell in cells]
    assert len(every) == len(set(every)) and set(every) <= names
    assert len(generators.CHEAP_CELLS) >= max(
        generators.COLD_SUBSET_SIZES) // 2


def test_cold_corners_deterministic_per_seed():
    first = generators.cold_corners(7, 60)
    assert first == generators.cold_corners(7, 60)
    assert harness.digest(first[0]) != harness.digest(
        generators.cold_corners(8, 60)[0])


def test_cold_corners_stratified_and_reusing():
    requests, reuse_of = generators.cold_corners(3, 200)
    for block in range(0, 200, 5):
        sizes = sorted(len(r["cells"]) for r in requests[block:block + 5])
        assert sizes == list(generators.COLD_SUBSET_SIZES)
    reused = [i for i, source in enumerate(reuse_of) if source >= 0]
    assert 0.1 < len(reused) / len(requests) < 0.4
    for index in reused:
        now, then = requests[index], requests[reuse_of[index]]
        assert now["cells"] == then["cells"]
        assert now["technology"]["sigma_l"] == then["technology"]["sigma_l"]
        assert (now["technology"]["corr_length_mm"]
                != then["technology"]["corr_length_mm"])


def test_hot_and_explore_inputs_deterministic_per_seed():
    base = generators.design(5, "serve_hot")
    assert base == generators.design(5, "serve_hot")
    keys = generators.hot_keys(5, base, 32)
    assert keys == generators.hot_keys(5, base, 32)
    assert len({k["n_cells"] for k in keys}) == 32
    assert (generators.hot_schedule(5, 32, 500)
            == generators.hot_schedule(5, 32, 500))
    ops = generators.explore_ops(5, base, "k", 120)
    assert ops == generators.explore_ops(5, base, "k", 120)
    assert harness.digest(ops) != harness.digest(
        generators.explore_ops(6, base, "k", 120))


def test_explore_blocks_hold_fixed_composition():
    base = generators.design(2, "explore_mixed")
    ops = generators.explore_ops(2, base, "k", 200)
    expected = sorted(kind for kind, n in generators.EXPLORE_BLOCK
                      for _ in range(n))
    for block in range(0, 200, 20):
        assert sorted(op[0] for op in ops[block:block + 20]) == expected
    bodies = [json.dumps(body, sort_keys=True) for _, _, body in ops]
    assert len(set(bodies)) == len(bodies)


# -- metric names -------------------------------------------------------------

def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(harness.REPO_ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == harness.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


# -- statistics ---------------------------------------------------------------

@pytest.mark.parametrize("q, supported, unsupported", [
    (0.5, 20, 19), (0.75, 40, 39), (0.9, 100, 99), (0.99, 1000, 999)])
def test_percentile_needs_ten_samples_beyond(q, supported, unsupported):
    values = list(range(supported))
    rank = math.ceil(q * supported)
    assert harness.percentile(values, q) == rank - 1
    assert sum(v > harness.percentile(values, q) for v in values) >= 10
    assert harness.percentile(list(range(unsupported)), q) is None


def test_tail_reports_fallback_when_unsupported():
    diagnostics = {}
    value = harness.tail(list(range(30)), 0.9, diagnostics)
    assert value == 19 and diagnostics["tail_fallback"] == 20 / 30
    diagnostics = {}
    assert harness.tail(list(range(200)), 0.9, diagnostics) == 179
    assert "tail_fallback" not in diagnostics


def test_tracing_overhead_compares_like_with_like():
    samples = ([("a", True, 2.2)] * 5 + [("a", False, 2.0)] * 5
               + [("b", True, 11.0)] * 5 + [("b", False, 10.0)] * 5)
    assert harness.tracing_overhead(samples) == pytest.approx(1.2 / 12.0)



# -- the server process -------------------------------------------------------

def test_served_process_workers_write_only_inside_the_checkout(monkeypatch):
    """The worker heartbeats' shared-memory file lands in ``TMP_DIR``,
    not in ``/dev/shm``, and the run's temporary files are removed."""
    import tempfile

    monkeypatch.delenv("TMPDIR", raising=False)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)
    harness.confine_temp_files()
    server = harness.ServeProcess(("--worker-mode", "process",
                                   "--workers", "1"))
    try:
        assert any(name.startswith("pymp-")
                   for name in os.listdir(harness.TMP_DIR))
    finally:
        server.stop()
        harness.clear_temp_files()
    assert not os.path.exists(harness.TMP_DIR)


# -- verification -------------------------------------------------------------

def test_cold_corners_flags_a_perturbed_result():
    from repro.service import ServiceClient

    requests, _ = generators.cold_corners(11, 5)
    document = min(requests, key=lambda r: len(r["cells"]))
    library = build_library()
    with ServiceClient() as client:
        result = client.estimate(document)
    done = [(0, False, 0.1, result)]
    assert cold_corners._check(done, [document], library, 0)[0] == 0
    nudged = replace(result, std=math.nextafter(result.std, math.inf))
    done = [(0, False, 0.1, nudged)]
    assert cold_corners._check(done, [document], library, 0)[0] == 1


def test_serve_hot_flags_a_perturbed_response():
    primed = [{"mean": 1.0, "std": 0.5, "details": {}}]
    good = json.dumps({"job_id": "j", "estimate": primed[0]}).encode()
    bad = json.dumps({"job_id": "j", "estimate": dict(
        primed[0], mean=math.nextafter(1.0, 2.0))}).encode()
    assert serve_hot._wrong([(0, 200, good)], primed) == 0
    assert serve_hot._wrong([(0, 200, bad), (0, 503, b"")], primed) == 2


def test_explore_flags_unsound_and_perturbed_results():
    import random

    from repro.service import ServiceClient

    thermal = {"mean": 1.0, "std": 0.1, "details": {
        "thermal": {"converged": True, "feedback": True}}}
    assert explore_mixed._sound("thermal", thermal)
    thermal["details"]["thermal"]["converged"] = False
    assert not explore_mixed._sound("thermal", thermal)
    assert not explore_mixed._sound("linear", {
        "mean": float("nan"), "std": 0.1, "details": {}})
    assert not explore_mixed._sound("exact", {
        "mean": 1.0, "std": 0.1, "details": {"degraded": True}})

    base = generators.design(4, "explore_mixed")
    ops = generators.explore_ops(4, base, "k", 20)
    linear = next(op for op in ops if op[0] == "linear"
                  and op[2]["n_cells"] < 100_000)
    whatif = next(op for op in ops if op[0] == "whatif")
    with ServiceClient() as client:
        served = client.estimate(linear[2]).to_dict()
        edited = client.estimate(explore_mixed._edited(
            base, whatif[2]["edits"])).to_dict()
        check = lambda op, result: explore_mixed._matches(  # noqa: E731
            client, None, random.Random(0), op, result, base)
        assert check(linear, served) == (True, True)
        one_ulp = dict(served, mean=math.nextafter(served["mean"], 1.0))
        assert check(linear, one_ulp) == (True, False)
        assert check(linear, dict(served, mean=served["mean"] * 1.000001)
                     ) == (False, False)
        assert check(whatif, edited) == (True, True)
        assert check(whatif, dict(edited, std=edited["std"] * 1.001)
                     ) == (False, False)
