"""Shared machinery of the end-to-end benchmark.

Statistics (the percentile rule), the host-speed probe, per-process
peak memory from ``/proc``, a supervised ``repro serve`` child process,
the HTTP client, load threads, fresh-interpreter set-up probes, trace
attribution, and the result line. Nothing here knows about a
particular workload.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
#: Temporary files of the harness and of every process it starts
#: (``TMPDIR``); emptied when a run ends.
TMP_DIR = os.path.join(BENCH_DIR, ".tmp")
#: Runs ``python -m repro`` with its temporary files in :data:`TMP_DIR`.
LAUNCHER = os.path.join(BENCH_DIR, "launch.py")

#: A percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics rule: anything thinner is one outlier).
MIN_SAMPLES_BEYOND = 10

#: Fresh-interpreter starts per run; ``setup_s`` is their median.
SETUP_PROBES = 3


#: End-to-end metrics (printed with ``--trace 0``) and their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
}

#: Per-layer metrics (printed with ``--trace 1``) and their units. A
#: workload that never reaches a layer reports it as 0.
PER_LAYER_UNITS = {
    "characterize.self_ms": "ms",
    "rg.self_ms": "ms",
    "characterize.states": "count",
    "cache.characterization.hit_ratio": "ratio",
    "cache.rg.hit_ratio": "ratio",
    "cache.estimate.hit_ratio": "ratio",
    "cache.bytes": "bytes",
    "cache.evictions": "count",
    "jobs.key_us": "us",
    "cache_lookup.self_ms": "ms",
    "serialize.self_ms": "ms",
    "http.overhead_p50_ms": "ms",
    "http.response_bytes": "bytes",
    "front.hop_p50_ms": "ms",
    "queue_wait.p50_ms": "ms",
    "estimate.self_ms": "ms",
    "linear.geometry.self_ms": "ms",
    "linear.kernel.self_ms": "ms",
    "linear.reduce.self_ms": "ms",
    "exact.lag_kernel.self_ms": "ms",
    "exact.sigma_grid.self_ms": "ms",
    "exact.fft.self_ms": "ms",
    "exact.reduce.self_ms": "ms",
    "sweep.point_ms": "ms",
    "delta.self_ms": "ms",
    "delta.fallback_ratio": "ratio",
    "thermal.solve_ms": "ms",
    "thermal.iterations": "count",
    "worker.restarts": "count",
    "client.generator_lag_p99_ms": "ms",
    "unattributed.share": "ratio",
    "tracing.overhead_share": "ratio",
}


def require_program() -> None:
    """Make the package under ``src/`` importable, or fail loudly.

    Raises ``SystemExit`` (non-zero, no result line) when the checkout
    does not contain the program, so a benchmark copied without its
    subject can never print a number.
    """
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise SystemExit(f"e2ebench: no program to measure under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def confine_temp_files() -> None:
    """Point this process's temporary files, and its children's, at an
    empty :data:`TMP_DIR`, so that a run writes only inside the
    checkout."""
    clear_temp_files()
    os.makedirs(TMP_DIR)
    os.environ["TMPDIR"] = TMP_DIR
    tempfile.tempdir = TMP_DIR


def clear_temp_files() -> None:
    """Remove :data:`TMP_DIR` and whatever the processes left in it."""
    shutil.rmtree(TMP_DIR, ignore_errors=True)


def child_env() -> Dict[str, str]:
    """Environment for child interpreters that run the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile, or ``None`` when unsupported.

    The value at 1-based rank ``ceil(q * n)`` is reported only if at
    least :data:`MIN_SAMPLES_BEYOND` samples rank above it; a p99 thus
    needs 1000 samples and a p90 needs 100.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q!r}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return float(sorted(values)[rank - 1])


def tail(values: Sequence[float], q: float,
         diagnostics: Dict[str, Any]) -> float:
    """The workload's fixed tail percentile, recorded in ``diagnostics``.

    A run too short to support it (a host far slower than the one the
    workload was sized on) falls back to the highest supported rank and
    says so under ``tail_fallback``, so the number is never silently a
    different statistic.
    """
    diagnostics["tail_percentile"] = q
    diagnostics["tail_samples"] = len(values)
    value = percentile(values, q)
    if value is not None:
        return value
    ordered = sorted(values)
    rank = max(1, len(ordered) - MIN_SAMPLES_BEYOND)
    diagnostics["tail_fallback"] = rank / len(ordered)
    return float(ordered[rank - 1])


def mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


# ---------------------------------------------------------------------------
# host-speed probe (diagnostic only: never used to normalise or gate)
# ---------------------------------------------------------------------------

def host_probe() -> float:
    """Milliseconds for a fixed pure-Python + numpy loop (median of 3)."""
    import numpy as np

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        grid = np.arange(100_000, dtype=float)
        for _ in range(20):
            grid = np.sqrt(grid * grid + 1.0)
        return (time.perf_counter() - start) * 1e3

    return median([once() for _ in range(3)])


def cpu_jiffies() -> Tuple[int, int]:
    """``(steal, total)`` CPU jiffies of the machine, from ``/proc/stat``.

    On a virtual machine, steal is time the hypervisor gave this
    machine's CPUs to someone else: the share of it over a run says how
    contended the host was.
    """
    with open("/proc/stat") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


# ---------------------------------------------------------------------------
# memory: VmHWM from /proc
# ---------------------------------------------------------------------------

def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one process in MiB (0 when gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from the ``/proc`` ppid links."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ')'.
        fields = stat[stat.rfind(")") + 2:].split()
        children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def tree_hwm_mb(root: int) -> Tuple[float, Dict[int, float]]:
    """Summed VmHWM over ``root``'s process tree, plus the breakdown."""
    breakdown = {pid: vm_hwm_mb(pid) for pid in process_tree(root)}
    return sum(breakdown.values()), breakdown


# ---------------------------------------------------------------------------
# HTTP
# ---------------------------------------------------------------------------

class HttpSession:
    """HTTP client to one address, one connection per request.

    That is how the program's own clients talk to the service
    (``RemoteClient`` over ``urllib``, and the fleet front to its
    replicas). A kept-alive connection would measure something else on
    this service: it answers with two small TCP writes (headers, then
    body), so on a reused connection Nagle's algorithm holds the body
    until the client's delayed ACK fires, about 40 ms per request.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """Send one request; returns ``(status, body)``.

        A transport failure surfaces as ``(0, b"")`` so callers count
        it as a failed operation instead of crashing the run.
        """
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=self.timeout)
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            return 0, b""
        finally:
            connection.close()

    def post_json(self, path: str, document: Any) -> Tuple[int, bytes]:
        return self.request("POST", path,
                            json.dumps(document).encode("utf-8"))

    def get_json(self, path: str) -> Optional[Dict[str, Any]]:
        status, raw = self.request("GET", path)
        if status != 200:
            return None
        return json.loads(raw)


def parallel(target, n: int) -> None:
    """Run ``target(i)`` for ``i`` in ``range(n)`` on ``n`` threads and
    re-raise the first exception any of them raised."""
    errors: List[BaseException] = []

    def guarded(offset: int) -> None:
        try:
            target(offset)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


#: Deadline and attempts for set-up requests (see :func:`prime`).
PRIME_DEADLINE_S = 10.0
PRIME_ATTEMPTS = 3


def prime(session: HttpSession, path: str, document: Dict[str, Any],
          retries: List[int]) -> bytes:
    """Send one set-up request under a deadline, retrying on failure.

    A freshly forked process worker occasionally deadlocks on its first
    task (main thread parked on a futex while its heartbeat thread keeps
    it looking alive; about one server start in 35). The request
    deadline makes the pool kill and replace that worker, and the retry
    lands on a healthy one. Retries are counted in ``retries[0]`` and
    reported; requests in the timed window carry no deadline.
    """
    body = json.dumps(dict(document, timeout=PRIME_DEADLINE_S)).encode()
    for attempt in range(PRIME_ATTEMPTS):
        status, raw = session.request("POST", path, body)
        if status == 200:
            return raw
        retries[0] += 1
    raise RuntimeError(f"set-up request to {path} failed {PRIME_ATTEMPTS} "
                       f"times; last HTTP {status}: {raw[:200]!r}")


# ---------------------------------------------------------------------------
# the service as a child process
# ---------------------------------------------------------------------------

_LISTENING = re.compile(r"listening on http://([^:/]+):(\d+)")


class ServeProcess:
    """``python -m repro serve ...`` (through :data:`LAUNCHER`) in its
    own session, ready to use.

    :attr:`ready_s` is the wall time from spawn until ``/v1/readyz``
    answered 200: interpreter start, imports, library build, worker
    and replica start-up — what every deployment pays.
    """

    def __init__(self, serve_args: Sequence[str],
                 ready_timeout: float = 120.0) -> None:
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, LAUNCHER, "serve", "--port", "0", *serve_args],
            cwd=REPO_ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True)
        self.output: List[str] = []
        lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(lines,), daemon=True)
        self._reader.start()
        try:
            self.host, self.port = self._await_address(lines, ready_timeout)
            self._await_ready(start + ready_timeout)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - start

    def _drain(self, lines: "queue.Queue[Optional[str]]") -> None:
        for line in self.process.stdout:
            self.output.append(line.rstrip("\n"))
            lines.put(line)
        lines.put(None)

    def _await_address(self, lines, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server never reported its address")
            try:
                line = lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    "server exited before listening:\n"
                    + "\n".join(self.output[-20:]))
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))

    def _await_ready(self, deadline: float) -> None:
        session = HttpSession(self.host, self.port, timeout=5.0)
        while time.perf_counter() < deadline:
            if session.request("GET", "/v1/readyz")[0] == 200:
                return
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def session(self) -> HttpSession:
        return HttpSession(self.host, self.port)

    def peak_rss_mb(self) -> Tuple[float, Dict[int, float]]:
        return tree_hwm_mb(self.process.pid)

    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL the whole session."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                pass
        # Replicas and workers share the session: reap any straggler.
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        self._reader.join(timeout=5.0)


def serve_setup_times(serve_args: Sequence[str],
                      probes: int = SETUP_PROBES) -> Tuple[
                          List[float], ServeProcess]:
    """Start the server ``probes`` times; keep the last one running.

    Returns every start-to-ready time and the live server.
    """
    times = []
    for _ in range(probes - 1):
        server = ServeProcess(serve_args)
        times.append(server.ready_s)
        server.stop()
    server = ServeProcess(serve_args)
    times.append(server.ready_s)
    return times, server


_CLIENT_PROBE = """
import sys
from repro.service import ServiceClient
client = ServiceClient()
sys.stdout.write("ready\\n")
sys.stdout.flush()
client.close()
"""


def client_setup_times(probes: int = SETUP_PROBES) -> List[float]:
    """Fresh interpreter -> import -> library -> ready ``ServiceClient``.

    Timed from spawn until the child reports ready; the child's own
    teardown is not counted.
    """
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _CLIENT_PROBE], cwd=REPO_ROOT,
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            if line.strip() != "ready":
                raise RuntimeError("set-up probe did not become ready")
        finally:
            child.stdout.close()
            child.wait(timeout=60.0)
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# inputs and output
# ---------------------------------------------------------------------------

def digest(documents: Iterable[Any]) -> str:
    """SHA-256 over the canonical JSON of a request sequence."""
    hasher = hashlib.sha256()
    for document in documents:
        hasher.update(json.dumps(document, sort_keys=True,
                                 separators=(",", ":")).encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(result: Dict[str, Any], diagnostics: Dict[str, Any]) -> None:
    """Print the diagnostics line, then the result as the last line."""
    print("# diagnostics " + json.dumps(diagnostics, sort_keys=True,
                                        default=str))
    print(json.dumps(result))
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# traces and layer attribution
# ---------------------------------------------------------------------------

#: Per-layer stage groups: a layer's self time is the summed self time
#: of these trace stages (``rg`` does its work in the nested
#: ``api.rg_build`` span, so both belong to the RG layer).
LAYER_STAGES = {
    "characterize.self_ms": ("characterize",),
    "rg.self_ms": ("rg", "api.rg_build"),
    "cache_lookup.self_ms": ("cache_lookup",),
    "serialize.self_ms": ("serialize",),
    "estimate.self_ms": ("estimate",),
    "linear.geometry.self_ms": ("linear.geometry",),
    "linear.kernel.self_ms": ("linear.kernel",),
    "linear.reduce.self_ms": ("linear.reduce",),
    "exact.lag_kernel.self_ms": ("exact.lag_kernel",),
    "exact.sigma_grid.self_ms": ("exact.sigma_grid",),
    "exact.fft.self_ms": ("exact.fft",),
    "exact.reduce.self_ms": ("exact.reduce",),
}


def stage_self_ms(trace: Dict[str, Any], names: Iterable[str]) -> float:
    stages = trace.get("stages", {})
    return 1e3 * sum(float(stages[name]["self_s"])
                     for name in names if name in stages)


def attributed_ms(trace: Dict[str, Any]) -> float:
    """Time a request's trace accounts for: the self time of every
    local stage (which sums to the root span's wall) plus the scheduler
    queue wait the service records beside it."""
    stages = trace.get("stages", {})
    local = sum(float(entry["self_s"]) for entry in stages.values()
                if not entry.get("remote"))
    queued = float(stages.get("queue_wait", {}).get("self_s", 0.0))
    return 1e3 * (local + queued)


def root_wall_ms(trace: Dict[str, Any]) -> float:
    spans = trace.get("spans") or [{}]
    return 1e3 * float(spans[0].get("wall_s") or 0.0)


def span_wall_ms(trace: Dict[str, Any], name: str) -> float:
    entry = trace.get("stages", {}).get(name)
    return 1e3 * float(entry["wall_s"]) if entry else 0.0


def layer_means(traces: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Mean per traced operation of every :data:`LAYER_STAGES` layer."""
    if not traces:
        return {name: 0.0 for name in LAYER_STAGES}
    return {name: mean([stage_self_ms(trace, stages) for trace in traces])
            for name, stages in LAYER_STAGES.items()}


def tracing_overhead(samples: Sequence[Tuple[str, bool, float]]) -> float:
    """Traced vs untraced cost of equivalent operations.

    ``samples`` are ``(cost class, traced, wall)``; per class the
    median traced wall is compared with the median untraced wall, and
    the differences are weighted by how often each class ran.
    """
    by_class: Dict[str, Tuple[List[float], List[float]]] = {}
    for cls, traced, wall in samples:
        by_class.setdefault(cls, ([], []))[0 if traced else 1].append(wall)
    extra = base = 0.0
    for traced, untraced in by_class.values():
        if traced and untraced:
            weight = len(traced) + len(untraced)
            extra += weight * (median(traced) - median(untraced))
            base += weight * median(untraced)
    return extra / base if base else 0.0


def cache_ratios(stats: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Hit ratios per tier plus bytes and evictions from ``cache_stats``."""
    metrics = {}
    for tier in ("characterization", "rg", "estimate"):
        entry = stats.get(tier, {})
        hits = entry.get("hits", 0) + entry.get("disk_hits", 0)
        lookups = hits + entry.get("misses", 0)
        metrics[f"cache.{tier}.hit_ratio"] = hits / lookups if lookups else 0.0
    metrics["cache.bytes"] = float(sum(
        entry.get("bytes", 0) for entry in stats.values()))
    metrics["cache.evictions"] = float(sum(
        entry.get("evictions", 0) for entry in stats.values()))
    return metrics


def merge_cache_stats(stats_list: Iterable[Dict[str, Dict[str, int]]]
                      ) -> Dict[str, Dict[str, int]]:
    merged: Dict[str, Dict[str, int]] = {}
    for stats in stats_list:
        for tier, entry in stats.items():
            target = merged.setdefault(tier, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + int(value)
    return merged


def key_us(requests: Sequence[Any], rounds: int = 5) -> float:
    """Median per-call cost of ``EstimateRequest.key()`` [us]."""
    per_round = []
    for _ in range(rounds):
        start = time.perf_counter()
        for request in requests:
            request.key()
        per_round.append((time.perf_counter() - start) / len(requests))
    return median(per_round) * 1e6
