"""serve_hot: every timed request is an estimate-tier cache hit.

``repro serve --replicas 2 --worker-mode process`` (a routing front,
two replicas, one process worker each) with ``HOT_KEYS`` distinct
requests primed during set-up. The timed window is an open loop at
``RATE`` requests per second (each request timed from when it was due)
followed by a closed loop on ``CONNECTIONS`` connections. The
estimators do no work here: hashing, the cache lookup, serialization,
HTTP and the front's proxy hop do.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

import generators
import harness as h

SERVE_ARGS = ("--replicas", "2", "--worker-mode", "process",
              "--workers", "1")
HOT_KEYS = 128
#: Open-loop arrival rate [1/s]: a fifth of the closed-loop capacity
#: (~550 req/s), so that even when the hypervisor steals a sixth of the
#: CPU (measured on the reference host) no backlog builds and latency
#: reflects service time. At 200 req/s one such run's median latency
#: grew from 3 ms to 520 ms.
RATE = 100.0
#: Share of the window spent in the open loop (the rest is closed).
OPEN_SHARE = 0.5
#: Connections (= cores of the reference host).
CONNECTIONS = 2
#: Tail percentile. The p99 of a 2,000-request open loop was set by the
#: one or two ~50-100 ms stalls a shared 2-core host imposes per run
#: (measured 14-149 ms across five runs of identical code while p90
#: stayed within 3.0-3.2 ms); it is kept as a diagnostic, not gated.
TAIL_Q = 0.90
#: The tail and the throughput are medians over this many equal
#: segments of their phase: a burst of CPU steal that covers a minority
#: of a run moves one or two segments, not the reported value.
SEGMENTS = 5
PLANNED = 40_000


def _bodies(documents: Sequence[Dict[str, Any]]) -> List[bytes]:
    return [json.dumps(document).encode("utf-8") for document in documents]


def _prime(server, documents: Sequence[Dict[str, Any]],
           retries: List[int]) -> List[Dict[str, Any]]:
    """Send every key once (cold) and once more (warm); return the
    estimate each key computed."""
    primed: List[Any] = [None] * len(documents)

    def worker(offset: int) -> None:
        session = server.session()
        for index in range(offset, len(documents), CONNECTIONS):
            raw = h.prime(session, "/v1/estimate", documents[index], retries)
            primed[index] = json.loads(raw)["estimate"]
            h.prime(session, "/v1/estimate", documents[index], retries)

    h.parallel(worker, CONNECTIONS)
    return primed


def open_loop(session_factory, bodies, schedule, rate: float,
              seconds: float, path: str = "/v1/estimate"):
    """Requests due at ``start + i / rate``; ``(key, due, sent, done,
    status, body)`` per request, timed from its due time."""
    count = int(rate * seconds)
    records: List[Any] = [None] * count
    cursor = iter(range(count))
    lock = threading.Lock()
    start = time.perf_counter() + 0.05

    def worker(_: int) -> None:
        session = session_factory()
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                break
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            key = schedule[index]
            status, raw = session.request("POST", path, bodies[key])
            records[index] = (key, due, sent, time.perf_counter(), status,
                              raw)

    h.parallel(worker, CONNECTIONS)
    return records


def closed_loop(session_factory, bodies, schedule, offset: int,
                seconds: float):
    """Back-to-back requests on every connection until ``seconds``
    pass; ``(key, wall, status, body, done)`` per request, the start
    and the window."""
    records: List[Any] = []
    cursor = iter(range(offset, len(schedule)))
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def worker(_: int) -> None:
        session = session_factory()
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                break  # the whole generated schedule has been sent
            key = schedule[index]
            sent = time.perf_counter()
            status, raw = session.request("POST", "/v1/estimate", bodies[key])
            done = time.perf_counter()
            with lock:
                records.append((key, done - sent, status, raw, done))

    h.parallel(worker, CONNECTIONS)
    return records, start, time.perf_counter() - start


def segment_tail(latencies: Sequence[float]) -> List[float]:
    """The tail percentile of each of :data:`SEGMENTS` equal runs of
    consecutive requests."""
    size = len(latencies) // SEGMENTS
    return [h.tail(latencies[i * size:(i + 1) * size], TAIL_Q, {})
            for i in range(SEGMENTS)]


def segment_throughput(done: Sequence[float], start: float,
                       window: float) -> List[float]:
    """Completions per second in each of :data:`SEGMENTS` equal slices
    of the closed-loop window."""
    width = window / SEGMENTS
    counts = [0] * SEGMENTS
    for moment in done:
        counts[min(SEGMENTS - 1, int((moment - start) / width))] += 1
    return [count / width for count in counts]


def _wrong(responses: Sequence[Tuple[int, int, bytes]],
           primed: Sequence[Dict[str, Any]]) -> int:
    """Responses that failed or differ from their key's primed result."""
    bad = 0
    for key, status, raw in responses:
        if status != 200 or json.loads(raw).get("estimate") != primed[key]:
            bad += 1
    return bad


def _inputs(seed: int):
    base = generators.design(seed, "serve_hot")
    documents = generators.hot_keys(seed, base, HOT_KEYS)
    schedule = generators.hot_schedule(seed, HOT_KEYS, PLANNED)
    return documents, schedule


def run(seed: int, seconds: float, trace: bool):
    diagnostics: Dict[str, Any] = {"host_probe_before_ms": h.host_probe()}
    documents, schedule = _inputs(seed)
    bodies = _bodies(documents)
    diagnostics.update({
        "workload": "serve_hot", "seed": seed, "trace": trace,
        "planned_digest": h.digest([documents, schedule]),
        "rate_rps": RATE, "connections": CONNECTIONS,
    })
    if trace:
        server = h.ServeProcess(SERVE_ARGS)
        setup_times = [server.ready_s]
    else:
        setup_times, server = h.serve_setup_times(SERVE_ARGS)
    retries = [0]
    try:
        primed = _prime(server, documents, retries)
        diagnostics["prime_retries"] = retries[0]
        if trace:
            return _traced(server, documents, bodies, schedule, primed,
                           seconds, diagnostics)
        opened = open_loop(server.session, bodies, schedule, RATE,
                           seconds * OPEN_SHARE)
        closed, start, window = closed_loop(
            server.session, bodies, schedule, len(opened),
            seconds * (1.0 - OPEN_SHARE))
        rss, breakdown = server.peak_rss_mb()
    finally:
        server.stop()
    responses = ([(key, status, raw) for key, _, _, _, status, raw in opened]
                 + [(key, status, raw) for key, _, status, raw, _ in closed])
    failed = _wrong(responses, primed)
    latencies = [(done - due) * 1e3 for _, due, _, done, _, _ in opened]
    tails = segment_tail(latencies)
    rates = segment_throughput([r[4] for r in closed], start, window)
    sent = len(opened) + len(closed)
    diagnostics.update({
        "sent_digest": h.digest(schedule[:sent]), "sent": sent,
        "setup_times_s": setup_times, "rss_breakdown_mb": breakdown,
        "generator_lag_p50_ms": h.median(
            [(s - d) * 1e3 for _, d, s, _, _, _ in opened]),
        "closed_p50_ms": h.median([r[1] * 1e3 for r in closed]),
        "latency_p99_ms": h.percentile(latencies, 0.99),
        "tail_percentile": TAIL_Q, "segment_tails_ms": tails,
        "segment_throughputs_rps": rates,
        "host_probe_after_ms": h.host_probe(),
    })
    metrics = {
        "setup_s": h.median(setup_times),
        "latency_p50_ms": h.median(latencies),
        "latency_p90_ms": h.median(tails),
        "throughput_rps": h.median(rates),
        "peak_rss_mb": rss,
        "success_rate": 1.0 - failed / sent,
    }
    return sent, failed, metrics, diagnostics


def _traced(server, documents, bodies, schedule, primed, seconds,
            diagnostics):
    """Per-layer run: front vs direct-to-replica on the same keys, an
    open loop for the generator lag, and the same keys against an
    in-process client whose traces time the hit path."""
    from repro.service import ServiceClient
    from repro.service.fleet import HashRing
    from repro.service.jobs import EstimateRequest

    requests = [EstimateRequest.from_dict(d) for d in documents]
    front = server.session()
    health = front.get_json("/v1/healthz")
    ports = {entry["replica"]: entry["port"] for entry in health["replicas"]}
    ring = HashRing(len(ports))
    owner = [ring.preference(request.key())[0] for request in requests]
    direct = {index: h.HttpSession(server.host, port)
              for index, port in ports.items()}

    # Front vs direct on identical keys, alternating which goes first.
    pairs: List[Tuple[float, float]] = []
    responses, jobs = [], []
    deadline = time.perf_counter() + 0.4 * seconds
    position = 0
    while time.perf_counter() < deadline:
        key = schedule[position]
        walls = {}
        for route in (("front", "direct") if position % 2 else
                      ("direct", "front")):
            session = front if route == "front" else direct[owner[key]]
            sent = time.perf_counter()
            status, raw = session.request("POST", "/v1/estimate", bodies[key])
            walls[route] = (time.perf_counter() - sent) * 1e3
            responses.append((key, status, raw))
            if route == "direct" and status == 200:
                jobs.append((owner[key], json.loads(raw)["job_id"]))
        pairs.append((walls["front"], walls["direct"]))
        position += 1
    queue_waits = []
    for replica, job_id in jobs[-200:]:
        snapshot = direct[replica].get_json(f"/v1/jobs/{job_id}")
        if snapshot and snapshot.get("started_at") is not None:
            queue_waits.append(
                (snapshot["started_at"] - snapshot["created_at"]) * 1e3)

    opened = open_loop(server.session, bodies, schedule[position:], RATE,
                       0.3 * seconds)
    responses += [(key, status, raw) for key, _, _, _, status, raw in opened]
    stats = []
    health = front.get_json("/v1/healthz")
    restarts = float(health["fleet"]["restarts"])
    for entry in health["replicas"]:
        details = entry.get("healthz", {}).get("details", {})
        stats.append(details.get("cache", {}))
        restarts += sum(worker.get("restarts") or 0
                        for worker in details.get("workers", ()))
    failed = _wrong(responses, primed)

    # The hit path in process, where the pipeline's trace reaches it.
    samples, traces = [], []
    with ServiceClient() as client:
        for request in requests:
            client.estimate(request)
        deadline = time.perf_counter() + 0.3 * seconds
        index = 0
        while time.perf_counter() < deadline:
            traced = index % 2 == 1
            request = EstimateRequest.from_dict(
                dict(documents[schedule[index]], trace=traced))
            sent = time.perf_counter()
            result = client.estimate(request)
            samples.append(("hit", traced, time.perf_counter() - sent))
            if traced:
                traces.append(result.details["trace"])
            index += 1
        hits = [client.estimate(request) for request in requests]
    serialize = []
    for result in hits:
        start = time.perf_counter()
        json.dumps({"job_id": "job-000000-000000000000", "state": "done",
                    "coalesced": 0, "estimate": result.to_dict()}
                   ).encode("utf-8")
        serialize.append((time.perf_counter() - start) * 1e3)

    front_p50 = h.median([f for f, _ in pairs])
    direct_p50 = h.median([d for _, d in pairs])
    service_p50 = h.median([h.root_wall_ms(t) for t in traces])
    queue_p50 = h.median(queue_waits) if queue_waits else 0.0
    metrics = h.layer_means([])
    metrics.update(h.cache_ratios(h.merge_cache_stats(stats)))
    metrics.update({
        "cache_lookup.self_ms": h.mean([
            h.stage_self_ms(t, ("cache_lookup",)) for t in traces]),
        "serialize.self_ms": h.median(serialize),
        "jobs.key_us": h.key_us(requests),
        "http.overhead_p50_ms": direct_p50 - service_p50,
        "http.response_bytes": h.mean([len(raw) for _, _, raw in responses]),
        "front.hop_p50_ms": front_p50 - direct_p50,
        "queue_wait.p50_ms": queue_p50,
        "worker.restarts": restarts,
        "client.generator_lag_p99_ms": h.tail(
            [(s - d) * 1e3 for _, d, s, _, _, _ in opened], 0.99, {}),
        "unattributed.share": 1.0 - (service_p50 + queue_p50
                                     + h.median(serialize)) / direct_p50,
        "tracing.overhead_share": h.tracing_overhead(samples),
    })
    diagnostics.update({
        "front_p50_ms": front_p50, "direct_p50_ms": direct_p50,
        "service_p50_ms": service_p50, "pairs": len(pairs),
        "host_probe_after_ms": h.host_probe(),
    })
    return len(responses), failed, metrics, diagnostics
