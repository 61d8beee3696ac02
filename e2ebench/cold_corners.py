"""cold_corners: every request is a new process corner.

An in-process thread-mode ``ServiceClient`` driven as a closed loop
with one outstanding request. Characterization and the Random-Gate
build do nearly all the work; the estimator itself is ~1 ms.
"""

from __future__ import annotations

import math
import os
import random
import time
from typing import Any, Dict, List, Tuple

import generators
import harness as h

#: Tail percentile: a 40-second run completes 130-190 cold requests,
#: so p90 has ten or more samples beyond it.
TAIL_Q = 0.90
#: Completed requests checked bit for bit against a direct library call.
VERIFY_SAMPLE = 2
#: Generated sequence length (a run stops on time, long before this).
PLANNED = 2_000


def _state_counts(library) -> Dict[str, int]:
    return {name: len(library[name].states) for name in library.names}


def _direct(library, document: Dict[str, Any]):
    """The request answered by the library alone (no service)."""
    from repro.characterization.characterizer import characterize_library
    from repro.core.api import FullChipLeakageEstimator
    from repro.core.usage import CellUsage
    from repro.service.jobs import EstimateRequest

    request = EstimateRequest.from_dict(document)
    characterization = characterize_library(
        library, request.technology.build(), mode=request.mode,
        cells=request.cells)
    estimator = FullChipLeakageEstimator(
        characterization, CellUsage(dict(request.usage)), request.n_cells,
        request.width_mm * 1e-3, request.height_mm * 1e-3)
    return estimator.estimate(request.method, n_jobs=request.n_jobs,
                              tolerance=request.tolerance)


def _drive(client, documents, seconds: float, trace: bool
           ) -> Tuple[List[Tuple[int, bool, float, Any]], float]:
    """Closed loop until ``seconds`` pass; ``(index, traced, wall,
    result-or-exception)`` per request and the elapsed window."""
    done = []
    start = time.perf_counter()
    deadline = start + seconds
    for index, document in enumerate(documents):
        if time.perf_counter() >= deadline:
            break
        traced = trace and index % 2 == 1
        sent = time.perf_counter()
        try:
            result = client.estimate(dict(document, trace=traced))
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            result = exc
        done.append((index, traced, time.perf_counter() - sent, result))
    return done, time.perf_counter() - start


def _check(done, documents, library, seed: int) -> Tuple[int, List[int]]:
    """Failures among ``done`` (errors, degraded or non-finite results,
    and any sampled result not bit-identical to the direct call)."""
    bad = set()
    for position, (_, _, _, result) in enumerate(done):
        if (isinstance(result, Exception) or result.degraded
                or not (math.isfinite(result.mean)
                        and math.isfinite(result.std))):
            bad.add(position)
    rng = random.Random(f"cold_corners:verify:{seed}")
    candidates = [p for p in range(len(done)) if p not in bad]
    sample = sorted(rng.sample(candidates, min(VERIFY_SAMPLE,
                                               len(candidates))))
    for position in sample:
        index, _, _, result = done[position]
        direct = _direct(library, documents[index])
        if (direct.mean, direct.std, direct.method) != (
                result.mean, result.std, result.method):
            bad.add(position)
    return len(bad), sample


def run(seed: int, seconds: float, trace: bool):
    from repro.service import ServiceClient

    diagnostics: Dict[str, Any] = {"host_probe_before_ms": h.host_probe()}
    setup_times = [] if trace else h.client_setup_times()
    client = ServiceClient()
    try:
        library = client.pipeline.library
        states = _state_counts(library)
        documents, reuse_of = generators.cold_corners(seed, PLANNED)
        done, elapsed = _drive(client, documents, seconds, trace)
        rss = h.vm_hwm_mb(os.getpid())
        stats = client.cache_stats()
        restarts_text = client.metrics_text()
    finally:
        client.close()
    failed, verified = _check(done, documents, library, seed)
    sent = [documents[index] for index, _, _, _ in done]
    reused = sum(1 for index, _, _, _ in done if reuse_of[index] >= 0)
    walls = [wall * 1e3 for _, _, wall, _ in done]
    diagnostics.update({
        "workload": "cold_corners", "seed": seed, "trace": trace,
        "planned_digest": h.digest(documents),
        "sent_digest": h.digest(sent), "sent": len(sent),
        "reuse_share": reused / len(sent) if sent else 0.0,
        "setup_times_s": setup_times,
        "verified_positions": verified, "window_s": elapsed,
        "host_probe_after_ms": h.host_probe(),
    })
    if trace:
        metrics = _layers(done, documents, states, stats, restarts_text)
    else:
        tail = h.tail(walls, TAIL_Q, diagnostics)
        metrics = {
            "setup_s": h.median(setup_times),
            "latency_p50_ms": h.median(walls),
            "latency_p90_ms": tail,
            "throughput_rps": len(done) / elapsed,
            "peak_rss_mb": rss,
            "success_rate": 1.0 - failed / len(done),
        }
    return len(done), failed, metrics, diagnostics


def _layers(done, documents, states, stats, metrics_text) -> Dict[str, float]:
    from repro.service.jobs import EstimateRequest

    traces, walls, samples = [], [], []
    for index, traced, wall, result in done:
        if isinstance(result, Exception):
            continue
        document = documents[index]
        n_states = sum(states[cell] for cell in document["cells"])
        # Cost class: the subset size; wall per (cell, state) system
        # evens out the few states by which same-size subsets differ.
        samples.append((str(len(document["cells"])), traced,
                        wall / n_states))
        if traced:
            traces.append(result.details["trace"])
            walls.append((wall * 1e3, n_states))
    metrics = h.layer_means(traces)
    metrics.update(h.cache_ratios(stats))
    attributed = sum(h.attributed_ms(trace) for trace in traces)
    metrics.update({
        "characterize.states": h.mean([n for _, n in walls]),
        "queue_wait.p50_ms": h.median([
            h.stage_self_ms(trace, ("queue_wait",)) for trace in traces]),
        "jobs.key_us": h.key_us([EstimateRequest.from_dict(document)
                                 for document in documents[:200]]),
        "worker.restarts": _counter(metrics_text,
                                    "repro_worker_restarts_total"),
        "unattributed.share": 1.0 - attributed / sum(w for w, _ in walls),
        "tracing.overhead_share": h.tracing_overhead(samples),
    })
    return metrics


def _counter(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    return 0.0
