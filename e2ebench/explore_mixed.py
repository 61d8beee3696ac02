"""explore_mixed: design-space exploration against one server.

``repro serve --worker-mode process --workers 2`` with one design
primed during set-up; ``CONNECTIONS`` connections then issue a fixed
seeded sequence of new-geometry linear estimates (16k to 1M sites),
fast-exact estimates, 100-point sweeps, ``base=`` what-ifs and coupled
thermal estimates. Every operation has a content key no earlier one
had, so the estimate tier is written here, not read; the work falls on
the estimators and kernels, the delta engine, the thermal solver and
the process-worker dispatch, while characterization only hits.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from typing import Any, Dict, List, Tuple

import generators
import harness as h
import serve_hot

SERVE_ARGS = ("--worker-mode", "process", "--workers", "2")
CONNECTIONS = 2
TAIL_Q = 0.90
PLANNED = 6_000
#: Operations from the end of the generated sequence that warm the
#: workers; the timed window stops long before reaching them.
PRIME_OPS = 40
#: Per-kind sample checked against a fresh in-process computation.
VERIFY_PER_KIND = {"linear": 3, "exact": 2, "sweep": 2, "whatif": 3}
#: Sweep points checked per sampled sweep.
VERIFY_POINTS = 3
#: Agreement required between a result computed in one of the
#: server's worker processes and the same request recomputed in
#: another process. Multi-threaded OpenBLAS rounds some reductions
#: differently from one process to the next (measured: ~1e-15 relative
#: on the mean, ~1e-13 on the std), so results are bit-identical only
#: within a process; bit differences are counted in the diagnostics.
CROSS_PROCESS_RTOL = 1e-9


def _inputs(seed: int):
    from repro.service.jobs import EstimateRequest

    base = generators.design(seed, "explore_mixed")
    base_key = EstimateRequest.from_dict(base).key()
    ops = generators.explore_ops(seed, base, base_key, PLANNED + PRIME_OPS)
    return base, base_key, ops[:PLANNED], ops[PLANNED:]


def _prime(server, base: Dict[str, Any], warm, retries: List[int]) -> None:
    """Warm both workers: characterization, the simplified-correlation
    RG bundle, the thermal anchor ladder and the delta base snapshot
    (each worker process holds its own), on operations from the end of
    the generated sequence, which the timed window never reaches."""
    session = server.session()
    h.prime(session, "/v1/estimate", base, retries)
    by_kind: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {}
    for kind, path, body in warm:
        by_kind.setdefault(kind, []).append((path, body))
    rounds = [by_kind[kind][:CONNECTIONS]
              for kind in ("exact", "thermal", "whatif", "sweep")]

    def worker(offset: int) -> None:
        for pairs in rounds:
            path, body = pairs[offset % len(pairs)]
            h.prime(session, path, body, retries)

    for _ in range(2):
        h.parallel(worker, CONNECTIONS)


def _drive(server, ops, base: Dict[str, Any], seconds: float, trace: bool):
    """Closed loop on every connection until ``seconds`` pass:
    ``(index, traced, wall, status, body)`` per operation, and how many
    what-ifs had to re-record their base."""
    records: List[Any] = []
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    rerecorded = [0]
    base_payload = json.dumps(base).encode("utf-8")
    start = time.perf_counter()
    deadline = start + seconds

    def worker(_: int) -> None:
        session = server.session()
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                break  # the whole generated sequence has been sent
            kind, path, body = ops[index]
            traced = trace and index % 2 == 1
            if traced:
                body = _traced_body(kind, body)
            payload = json.dumps(body).encode("utf-8")
            sent = time.perf_counter()
            status, raw = session.request("POST", path, payload)
            if status == 404 and json.loads(raw).get("kind") == "unknown_base":
                # The server keeps base candidates in an LRU that serving
                # estimates refreshes and what-ifs do not, so ~1,000
                # estimates later the base is gone. The protocol's answer
                # is to re-run the base estimate and retry; the client
                # pays for it in this operation's latency.
                session.request("POST", "/v1/estimate", base_payload)
                status, raw = session.request("POST", path, payload)
                with lock:
                    rerecorded[0] += 1
            wall = time.perf_counter() - sent
            with lock:
                records.append((index, traced, wall, status, raw))

    h.parallel(worker, CONNECTIONS)
    return records, time.perf_counter() - start, rerecorded[0]


def _traced_body(kind: str, body: Dict[str, Any]) -> Dict[str, Any]:
    if kind == "sweep":
        return dict(body, base=dict(body["base"], trace=True))
    return dict(body, trace=True)


def _estimate_of(kind: str, document: Dict[str, Any]):
    return document["sweep"] if kind == "sweep" else document["estimate"]


def _sound(kind: str, result: Dict[str, Any]) -> bool:
    """Structural checks every response must pass."""
    estimates = result["estimates"] if kind == "sweep" else [result]
    for estimate in estimates:
        details = estimate.get("details", {})
        if details.get("degraded") or not (
                math.isfinite(estimate["mean"])
                and math.isfinite(estimate["std"])):
            return False
    if kind == "thermal":
        thermal = result["details"].get("thermal", {})
        return bool(thermal.get("converged")) and thermal.get("feedback")
    if kind == "sweep":
        return len(result["estimates"]) == 100
    return True


def _verify(records, ops, base, seed: int, session
            ) -> Tuple[Dict[str, int], int]:
    """Failed operations by ``kind:reason`` (errors, unsound results,
    sampled results that disagree with a recomputation) and the number
    of sampled results that agree only to :data:`CROSS_PROCESS_RTOL`,
    not bit for bit."""
    from repro.service import ServiceClient

    bad: Dict[int, str] = {}
    parsed = {}
    for index, _, _, status, raw in records:
        kind = ops[index][0]
        if status != 200:
            bad[index] = f"{kind}:http_{status}"
            continue
        result = _estimate_of(kind, json.loads(raw))
        if not _sound(kind, result):
            bad[index] = f"{kind}:unsound"
        parsed[index] = result
    rng = random.Random(f"explore_mixed:verify:{seed}")
    bit_differences = 0
    with ServiceClient(workers=1) as client:
        for kind, count in VERIFY_PER_KIND.items():
            candidates = sorted(i for i in parsed
                                if ops[i][0] == kind and i not in bad)
            for index in rng.sample(candidates, min(count, len(candidates))):
                close, identical = _matches(client, session, rng, ops[index],
                                            parsed[index], base)
                if not close:
                    bad[index] = f"{kind}:mismatch"
                bit_differences += not identical
    reasons: Dict[str, int] = {}
    for reason in bad.values():
        reasons[reason] = reasons.get(reason, 0) + 1
    return reasons, bit_differences


def _close(served: float, fresh: float, rtol: float) -> bool:
    return abs(served - fresh) <= rtol * abs(fresh)


def _matches(client, session, rng, op, served, base) -> Tuple[bool, bool]:
    """``(agrees within tolerance, bit-identical)`` for one sampled
    operation, recomputed in this process by a fresh ``ServiceClient``.

    What-ifs must agree with a fresh estimate of the edited scenario to
    the delta engine's documented tolerance. Sweep points are first
    re-requested one by one from the server, which may send them to the
    other worker process.
    """
    from repro.delta import DELTA_MEAN_RTOL, DELTA_STD_RTOL
    from repro.service.sweep import SweepRequest

    kind, _, body = op
    if kind == "whatif":
        fresh = client.estimate(_edited(base, body["edits"]))
        close = (_close(served["mean"], fresh.mean, DELTA_MEAN_RTOL)
                 and _close(served["std"], fresh.std, DELTA_STD_RTOL))
        return close, close
    pairs = []
    if kind == "sweep":
        points = SweepRequest.from_dict(body).expand()
        for position in rng.sample(range(len(points)), VERIFY_POINTS):
            point = served["estimates"][position]
            status, raw = session.post_json("/v1/estimate",
                                            points[position].to_dict())
            if status != 200:
                return False, False
            pairs.append((point, json.loads(raw)["estimate"]))
            pairs.append((point, client.estimate(points[position]).to_dict()))
    else:
        pairs.append((served, client.estimate(body).to_dict()))
    close = all(_close(a["mean"], b["mean"], CROSS_PROCESS_RTOL)
                and _close(a["std"], b["std"], CROSS_PROCESS_RTOL)
                and a["method"] == b["method"] for a, b in pairs)
    identical = all((a["mean"], a["std"]) == (b["mean"], b["std"])
                    for a, b in pairs)
    return close, identical


def _edited(base: Dict[str, Any], edits) -> Dict[str, Any]:
    """The edited scenario as a plain request, folding the edits with
    the public edit model."""
    from repro.delta import FloorplanResizeEdit, edit_from_dict

    fractions = dict(base["usage"])
    n_cells = base["n_cells"]
    width, height = base["width_mm"] * 1e-3, base["height_mm"] * 1e-3
    for document in edits:
        edit = edit_from_dict(document)
        if isinstance(edit, FloorplanResizeEdit):
            n_cells = edit.n_cells if edit.n_cells is not None else n_cells
            width = edit.width if edit.width is not None else width
            height = edit.height if edit.height is not None else height
        else:
            edit.apply(fractions, n_cells)
    return dict(base, usage=fractions, n_cells=n_cells,
                width_mm=width * 1e3, height_mm=height * 1e3)


def run(seed: int, seconds: float, trace: bool):
    diagnostics: Dict[str, Any] = {"host_probe_before_ms": h.host_probe()}
    base, _, ops, warm = _inputs(seed)
    diagnostics.update({
        "workload": "explore_mixed", "seed": seed, "trace": trace,
        "planned_digest": h.digest([body for _, _, body in ops]),
        "connections": CONNECTIONS,
    })
    if trace:
        server = h.ServeProcess(SERVE_ARGS)
        setup_times = [server.ready_s]
    else:
        setup_times, server = h.serve_setup_times(SERVE_ARGS)
    retries = [0]
    try:
        _prime(server, base, warm, retries)
        diagnostics["prime_retries"] = retries[0]
        records, window, rerecorded = _drive(server, ops, base, seconds,
                                             trace)
        rss, breakdown = server.peak_rss_mb()
        session = server.session()
        health = session.get_json("/v1/healthz")
        snapshots = []
        if trace:
            for index, traced, _, status, raw in records:
                if traced and status == 200:
                    job = json.loads(raw)["job_id"]
                    snapshots.append(session.get_json(f"/v1/jobs/{job}"))
        failures, bit_differences = _verify(records, ops, base, seed,
                                            session)
    finally:
        server.stop()
    failed = sum(failures.values())
    sent = sorted(index for index, _, _, _, _ in records)
    walls = [wall * 1e3 for _, _, wall, _, _ in records]
    diagnostics.update({
        "sent_digest": h.digest([ops[i][2] for i in sent]),
        "sent": len(sent), "setup_times_s": setup_times,
        "rss_breakdown_mb": breakdown, "failures": failures,
        "cross_process_bit_differences": bit_differences,
        "base_rerecorded": rerecorded,
        "p50_by_kind_ms": _p50_by_kind(records, ops),
        "host_probe_after_ms": h.host_probe(),
    })
    if trace:
        metrics = _layers(records, ops, health, snapshots)
        # The routing front and the open-loop generator exist only in
        # serve_hot's fleet; its traced run supplies those two layers.
        hit_attempted, hit_failed, hit_path, hit_diagnostics = \
            serve_hot.run(seed, seconds, True)
        for name in ("front.hop_p50_ms", "client.generator_lag_p99_ms"):
            metrics[name] = hit_path[name]
        diagnostics["hit_path"] = dict(hit_diagnostics, metrics=hit_path)
        return (len(records) + hit_attempted, failed + hit_failed, metrics,
                diagnostics)
    metrics = {
        "setup_s": h.median(setup_times),
        "latency_p50_ms": h.median(walls),
        "latency_p90_ms": h.tail(walls, TAIL_Q, diagnostics),
        "throughput_rps": len(records) / window,
        "peak_rss_mb": rss,
        "success_rate": 1.0 - failed / len(records),
    }
    return len(records), failed, metrics, diagnostics


def _cost_class(op) -> str:
    kind, _, body = op
    if kind == "linear":
        return f"linear-{round(math.log2(body['n_cells']))}"
    return kind


def _p50_by_kind(records, ops) -> Dict[str, float]:
    walls: Dict[str, List[float]] = {}
    for index, _, wall, _, _ in records:
        walls.setdefault(_cost_class(ops[index]), []).append(wall * 1e3)
    return {cls: h.median(values) for cls, values in sorted(walls.items())}


def _layers(records, ops, health, snapshots) -> Dict[str, float]:
    from repro.service.jobs import EstimateRequest

    traces, samples, overheads = [], [], []
    client_wall = attributed = 0.0
    delta_self, fallbacks, whatifs = [], 0, 0
    thermal_walls, iterations, point_ms, response_bytes = [], [], [], []
    for index, traced, wall, status, raw in records:
        if status != 200:
            continue
        kind = ops[index][0]
        samples.append((_cost_class(ops[index]), traced, wall))
        result = _estimate_of(kind, json.loads(raw))
        if not traced:
            response_bytes.append(len(raw))
            continue
        if kind == "sweep":
            trace = result["stats"]["trace"]
            point_ms.append(result["stats"]["seconds_per_point"] * 1e3)
        else:
            details = result["details"]
            trace = details["trace"]
            if kind == "whatif":
                whatifs += 1
                fallbacks += bool(details.get("delta", {}).get("fallback"))
                delta_self.append(h.stage_self_ms(trace, [
                    name for name in trace["stages"]
                    if name.startswith("delta.")]))
            if kind == "thermal":
                thermal_walls.append(h.span_wall_ms(trace, "thermal.solve"))
                iterations.append(details["thermal"]["iterations"])
        traces.append(trace)
        overheads.append(wall * 1e3 - h.root_wall_ms(trace))
        client_wall += wall * 1e3
        attributed += h.attributed_ms(trace)
    queue_waits = [(s["started_at"] - s["created_at"]) * 1e3
                   for s in snapshots
                   if s and s.get("started_at") is not None]
    attributed += sum(queue_waits)
    details = health.get("details", {})
    metrics = h.layer_means(traces)
    metrics.update(h.cache_ratios(details.get("cache", {})))
    requests = [EstimateRequest.from_dict(body)
                for kind, _, body in ops[:400]
                if kind in ("linear", "exact", "thermal")]
    metrics.update({
        "jobs.key_us": h.key_us(requests),
        "http.overhead_p50_ms": h.median(overheads),
        "http.response_bytes": h.mean(response_bytes),
        "queue_wait.p50_ms": h.median(queue_waits) if queue_waits else 0.0,
        "sweep.point_ms": h.median(point_ms) if point_ms else 0.0,
        "delta.self_ms": h.mean(delta_self),
        "delta.fallback_ratio": fallbacks / whatifs if whatifs else 0.0,
        "thermal.solve_ms": h.mean(thermal_walls),
        "thermal.iterations": h.mean(iterations),
        "worker.restarts": float(sum(worker.get("restarts") or 0
                                     for worker in details.get("workers",
                                                               ()))),
        "unattributed.share": 1.0 - attributed / client_wall,
        "tracing.overhead_share": h.tracing_overhead(samples),
    })
    return metrics
