"""Replica fleet: crash-only scale-out of the estimation service.

``repro serve --replicas N`` runs N full service replicas — each an OS
process hosting its own :class:`~repro.service.client.ServiceClient`
and :class:`~repro.service.http.LeakageHTTPServer` on an ephemeral
port — behind one routing front:

:class:`HashRing`
    Consistent hashing with virtual nodes over replica *slots* (not
    ports): a request's content key always prefers the same slot, so
    identical in-flight requests coalesce on one replica and warm that
    replica's memory tier, and a slot keeps its keyspace across
    restarts. ``preference(key)`` yields the failover order.
:class:`ReplicaFleet`
    Spawns and supervises the replica processes on the same
    :class:`~repro.parallel.Supervisor` that runs process-pool workers
    (spawn, ready handshake, backoff, restart budget, event record). A
    replica that exits (crash, SIGKILL, injected ``replica.kill``) is
    restarted with exponential backoff on the same slot, and the
    backoff resets once a replica has stayed ready for ``max_backoff``
    seconds; ``drain()`` delivers SIGTERM to every replica — each
    finishes its in-flight requests under the standard graceful-drain
    path — and reaps stragglers.
:class:`FrontServer`
    The routing HTTP front. ``POST /v1/estimate`` / ``POST /v1/sweep``
    are routed by content key along the ring's preference order;
    a replica that is unreachable or answers ``503 draining`` is
    skipped (readiness-aware failover). ``GET /v1/jobs/<id>`` fans out
    (job ids are replica-local). ``GET /v1/healthz`` aggregates
    replica health; ``GET /v1/readyz`` is ready while the front is not
    draining and at least one replica is. Front-level chaos draws the
    ``replica.kill`` fault here — one seeded stream, one budget —
    SIGKILLs the preferred replica, and lets failover + supervision
    prove the request still completes.

Every replica may share one ``--cache-dir``: the
:class:`~repro.service.cache.ResultCache`'s per-shard file locks make
cross-process writers safe, so a result computed by one replica warms
the whole fleet's disk tier.

Whole-fleet drain: SIGTERM to the front (or :meth:`FrontServer.drain`)
flips the front unready, drains every replica, then stops the accept
loop — in-flight requests finish everywhere; new work is refused with
a typed ``503 draining``.
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro import __version__
from repro.exceptions import ConfigurationError, ReproError
from repro.parallel import StartOutcome, Supervisor
from repro.service.faults import SITE_REPLICA_KILL, FaultInjector
from repro.service.jobs import EstimateRequest
from repro.service.metrics import MetricsRegistry
from repro.service.sweep import SweepRequest

__all__ = [
    "FrontServer",
    "HashRing",
    "ReplicaFleet",
    "create_front",
]

_MAX_BODY_BYTES = 1 << 20  # same request-size contract as the replicas


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


class HashRing:
    """Consistent-hash ring mapping content keys to replica slots.

    Virtual nodes (``vnodes`` ring points per slot) smooth the keyspace
    split; slots are stable identities, so a restarted replica resumes
    exactly the keyspace its predecessor owned.
    """

    def __init__(self, n_replicas: int, vnodes: int = 64) -> None:
        if n_replicas < 1:
            raise ConfigurationError(
                f"a fleet needs at least 1 replica, got {n_replicas}")
        if vnodes < 1:
            raise ConfigurationError(
                f"vnodes must be positive, got {vnodes}")
        self.n_replicas = n_replicas
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for replica in range(n_replicas):
            for vnode in range(vnodes):
                token = f"replica-{replica}/vnode-{vnode}".encode("ascii")
                digest = hashlib.sha256(token).digest()
                points.append((int.from_bytes(digest[:8], "big"), replica))
        points.sort()
        self._points = points
        self._positions = [position for position, _ in points]

    @staticmethod
    def _position(key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def owner(self, key: str) -> int:
        """The slot that prefers ``key``."""
        start = bisect.bisect_left(self._positions, self._position(key))
        return self._points[start % len(self._points)][1]

    def preference(self, key: str) -> List[int]:
        """Every distinct slot in ring order from ``key``'s owner.

        The failover order: try ``preference(key)[0]`` first, walk
        clockwise on unreachable/draining replicas.
        """
        start = bisect.bisect_left(self._positions, self._position(key))
        count = len(self._points)
        order: List[int] = []
        seen = set()
        for step in range(count):
            replica = self._points[(start + step) % count][1]
            if replica not in seen:
                seen.add(replica)
                order.append(replica)
                if len(order) == self.n_replicas:
                    break
        return order


# ---------------------------------------------------------------------------
# replica processes
# ---------------------------------------------------------------------------


def _replica_main(conn, index: int, options: Dict[str, Any]) -> None:
    """Child entry point: one full service replica on an ephemeral port.

    Reports ``("ready", port, pid)`` over ``conn`` once bound, then
    serves until SIGTERM (graceful drain: finish in-flight, refuse new
    work, stop) or a crash. Runs in a forked/spawned child — never call
    directly in the parent.
    """
    # The replica owns its own lifecycle from here; a SIGINT aimed at
    # the parent's terminal group must not kill replicas mid-drain.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.service.client import ServiceClient
    from repro.service.http import create_server

    faults = None
    spec = options.get("faults_spec")
    if spec:
        # Per-replica deterministic stream: same spec, slot-salted seed.
        faults = FaultInjector(
            spec, seed=int(options.get("faults_seed", 0)) + 1009 * index)
    client = ServiceClient(
        workers=options.get("workers", 2),
        queue_limit=options.get("queue_limit", 64),
        cache_dir=options.get("cache_dir"),
        cache_entries=options.get("cache_entries", 256),
        default_timeout=options.get("default_timeout"),
        faults=faults,
        worker_mode=options.get("worker_mode", "thread"),
        # Replicas may share one cache_dir; per-shard file locks make
        # the cross-process writers safe.
        cache_shards=options.get("cache_shards", 8),
        process_pool=options.get("process_pool"))
    server = create_server(client, host=options.get("host", "127.0.0.1"),
                           port=0)

    drain_grace = float(options.get("drain_grace", 10.0))
    drain_started = threading.Event()

    def _graceful(signum, frame):
        if drain_started.is_set():
            return
        drain_started.set()
        threading.Thread(target=server.drain, kwargs={"grace": drain_grace},
                         name=f"repro-replica-{index}-drain",
                         daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    conn.send(("ready", server.server_address[1], os.getpid()))
    conn.close()
    try:
        server.serve_forever()
    finally:
        client.close()
    # Skip interpreter teardown: inherited non-daemon machinery from the
    # parent must not hold a drained replica's exit hostage.
    os._exit(0)


class ReplicaFleet:
    """Spawn, supervise, and drain N service replica processes.

    Parameters
    ----------
    n_replicas:
        Replica process count (slots ``0 .. n_replicas-1``).
    options:
        Replica configuration forwarded to every
        :func:`_replica_main` child: ``workers``, ``queue_limit``,
        ``cache_dir``, ``cache_entries``, ``default_timeout``,
        ``worker_mode``, ``cache_shards``, ``process_pool``,
        ``drain_grace``, ``host``, ``faults_spec``, ``faults_seed``.
    restart_backoff / max_backoff:
        Exponential per-slot restart delay bounds. A replica that has
        been ready for ``max_backoff`` seconds counts as healthy again:
        its next restart waits ``restart_backoff``.
    max_restarts:
        Fleet-wide restart budget; exceeding it stops supervision (the
        front then reports the slot down rather than flap forever).
    init_timeout:
        Seconds to wait for a replica's ready handshake.
    poll_interval:
        Supervisor wake period.

    Spawn, handshake, backoff, budget and the event record are the
    shared :class:`~repro.parallel.Supervisor`'s; the fleet adds the
    port handshake payload, SIGTERM drain and the replica metrics.
    """

    def __init__(self, n_replicas: int,
                 options: Optional[Dict[str, Any]] = None, *,
                 restart_backoff: float = 0.2, max_backoff: float = 5.0,
                 max_restarts: int = 100, init_timeout: float = 120.0,
                 poll_interval: float = 0.1,
                 metrics: Optional[MetricsRegistry] = None,
                 name: str = "repro-replica") -> None:
        if n_replicas < 1:
            raise ConfigurationError(
                f"a fleet needs at least 1 replica, got {n_replicas}")
        self.n_replicas = n_replicas
        self.options = dict(options or {})
        self.name = name
        self.poll_interval = poll_interval
        self.metrics = metrics
        self._replica_up = None
        self._replica_restarts = None
        if metrics is not None:
            self._replica_up = metrics.gauge(
                "repro_replica_up",
                "1 while the replica slot has a live process.",
                labelnames=("replica",))
            self._replica_restarts = metrics.counter(
                "repro_replica_restarts_total",
                "Replica processes restarted by fleet supervision.")
        self._replicas = Supervisor(
            n_replicas, _replica_main,
            lambda index, generation, conn: (conn, index, self.options),
            name=name, init_timeout=init_timeout,
            restart_backoff=restart_backoff, max_backoff=max_backoff,
            max_restarts=max_restarts, poll_interval=poll_interval,
            on_restart=(None if self._replica_restarts is None
                        else self._replica_restarts.inc),
            # Daemonic replicas die with an abandoned parent instead of
            # holding interpreter exit hostage — crash-only either way.
            # The exception: process-mode replicas spawn their own
            # worker children, which multiprocessing forbids for daemons.
            daemon=self.options.get("worker_mode", "thread") != "process")
        self._stopping = self._replicas.stopping
        self._supervisor: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn every replica, wait for readiness, start supervision."""
        for index in range(self.n_replicas):
            outcome, reason = self._replicas.start(index)
            if outcome is not StartOutcome.READY:
                raise ReproError(f"replica {index} {reason}")
            self._set_up(index, 1)
        self._supervisor = threading.Thread(
            target=self._supervise, name=f"{self.name}-supervisor",
            daemon=True)
        self._supervisor.start()

    def _set_up(self, index: int, value: int) -> None:
        if self._replica_up is not None:
            self._replica_up.set(value, replica=str(index))

    def _supervise(self) -> None:
        """Restart dead replicas on their slots with backoff.

        No lock is held across a restart's fork + handshake, and a
        failed restart is absorbed into the slot's backoff, so one
        flapping slot neither stalls routing to the survivors nor kills
        supervision.
        """
        replicas = self._replicas
        while not self._stopping.wait(self.poll_interval):
            for slot in replicas.slots:
                if self._stopping.is_set() or slot.retired:
                    continue
                process = slot.process
                now = time.monotonic()
                if process is not None and process.is_alive():
                    if (slot.ready and slot.failures
                            and now - slot.ready_at >= replicas.max_backoff):
                        replicas.healthy(slot.index)
                    continue
                if slot.ready:  # first observation of this death
                    replicas.died(slot.index, "exit",
                                  f"exited with code {process.exitcode}")
                    self._set_up(slot.index, 0)
                if now < slot.next_start:
                    continue
                outcome, _ = replicas.start(slot.index)
                if outcome is StartOutcome.READY:
                    self._set_up(slot.index, 1)

    # -- observation -------------------------------------------------------

    def _port(self, index: int) -> Optional[int]:
        slot = self._replicas.slots[index]
        process = slot.process
        if slot.ready and process is not None and process.is_alive():
            return int(slot.message[1])  # ("ready", port, pid)
        return None

    def address(self, index: int) -> Optional[Tuple[str, int]]:
        """``(host, port)`` for a live slot, else ``None``."""
        port = self._port(index)
        if port is None:
            return None
        return (self.options.get("host", "127.0.0.1"), port)

    def pids(self) -> List[Optional[int]]:
        return [entry["pid"] if entry["alive"] else None
                for entry in self._replicas.liveness()]

    @property
    def restarts(self) -> int:
        return self._replicas.restarts

    @property
    def failures(self) -> List[str]:
        """Supervision findings, newest last (bounded)."""
        return self._replicas.events.failures

    def liveness(self) -> List[Dict[str, Any]]:
        """Per-slot supervision snapshot for the front's healthz."""
        return [{"replica": entry["slot"], "pid": entry["pid"],
                 "port": self._port(entry["slot"]), "alive": entry["alive"],
                 "state": entry["state"], "generation": entry["generation"],
                 "restarts": entry["restarts"]}
                for entry in self._replicas.liveness()]

    # -- chaos + shutdown --------------------------------------------------

    def kill(self, index: int) -> Optional[int]:
        """SIGKILL a replica (the ``replica.kill`` fault); returns pid."""
        slot = self._replicas.slots[index]
        process, pid = slot.process, slot.pid
        if process is None or not process.is_alive() or pid is None:
            return None
        try:
            os.kill(pid, signal.SIGKILL)
        except (OSError, ProcessLookupError):  # already gone
            return None
        return pid

    def drain(self, grace: float = 10.0) -> bool:
        """SIGTERM every replica and wait for graceful exits.

        Returns True when every replica exited within the grace period;
        stragglers are SIGKILLed (crash-only: the shared cache tolerates
        it, restarts rebuild from disk).
        """
        self._stopping.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
        slots = self._replicas.slots
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()  # SIGTERM -> replica graceful drain
        deadline = time.monotonic() + grace
        clean = True
        for slot in slots:
            if slot.process is not None:
                slot.process.join(max(0.0, deadline - time.monotonic()))
                clean = clean and not slot.process.is_alive()
            self._replicas.kill(slot.index)  # SIGKILL stragglers
            self._set_up(slot.index, 0)
        return clean

    def stop(self, grace: float = 10.0) -> bool:
        """Alias for :meth:`drain` (symmetric with the worker pools)."""
        return self.drain(grace=grace)


# ---------------------------------------------------------------------------
# the routing front
# ---------------------------------------------------------------------------


class FrontServer(ThreadingHTTPServer):
    """Routing HTTP front for a :class:`ReplicaFleet`.

    Routes submissions along the ring's preference order with
    readiness-aware failover; aggregates health; draws replica-level
    chaos from one seeded stream.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], fleet: ReplicaFleet, *,
                 faults: Optional[FaultInjector] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 vnodes: int = 64, route_timeout: float = 300.0) -> None:
        super().__init__(address, _FrontHandler)
        self.fleet = fleet
        self.ring = HashRing(fleet.n_replicas, vnodes=vnodes)
        self.faults = faults
        self.metrics = MetricsRegistry() if metrics is None else metrics
        if faults is not None and faults.metrics is None:
            faults.bind_metrics(self.metrics)
        self.route_timeout = route_timeout
        self.draining = False
        self._front_requests = self.metrics.counter(
            "repro_front_requests_total",
            "Front requests by endpoint and status code.",
            labelnames=("endpoint", "code"))
        self._front_routed = self.metrics.counter(
            "repro_front_routed_total",
            "Submissions routed, by owning replica slot.",
            labelnames=("replica",))
        self._front_failovers = self.metrics.counter(
            "repro_front_failovers_total",
            "Requests moved past an unreachable or draining replica.")
        self._front_kills = self.metrics.counter(
            "repro_front_replica_kills_total",
            "replica.kill faults fired by the front.")
        self._draining_gauge = self.metrics.gauge(
            "repro_front_draining",
            "1 while the front is draining (refusing new work).")
        self._draining_gauge.set(0)

    # -- drain -------------------------------------------------------------

    def begin_drain(self) -> None:
        self.draining = True
        self._draining_gauge.set(1)

    def drain(self, grace: float = 10.0) -> bool:
        """Whole-fleet graceful shutdown.

        Front goes unready, every replica drains (finishing its
        in-flight requests — including ones this front is still
        proxying), then the accept loop stops.
        """
        self.begin_drain()
        clean = self.fleet.drain(grace=grace)
        self.shutdown()
        self.server_close()
        return clean


class _FrontHandler(BaseHTTPRequestHandler):
    server_version = f"repro-front/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in separate writes; without TCP_NODELAY
    # Nagle holds the body for the client's delayed ACK (~40 ms) on
    # every kept-alive request after the first.
    disable_nagle_algorithm = True

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing (mirrors the replica handler's reply contract) ----------

    def _count(self, endpoint: str, code: int) -> None:
        self.server._front_requests.inc(endpoint=endpoint, code=str(code))

    def _reply(self, endpoint: str, code: int, body: bytes,
               content_type: str) -> None:
        self._count(endpoint, code)
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, endpoint: str, code: int, document) -> None:
        self._reply(endpoint, code, json.dumps(document).encode("utf-8"),
                    "application/json")

    def _error(self, endpoint: str, code: int, message: str,
               kind: str) -> None:
        self._json(endpoint, code, {"error": message, "kind": kind})

    def _read_body(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ConfigurationError(
                f"request body too large ({length} bytes; "
                f"limit {_MAX_BODY_BYTES})")
        return self.rfile.read(length) if length else b""

    # -- routing -----------------------------------------------------------

    @staticmethod
    def _routing_key(path: str, document: Dict[str, Any]) -> str:
        """The content key a submission routes by.

        Sweeps and estimates route by their own content hash (identical
        requests coalesce replica-side); a sweep's ``base`` is its base
        request, so the sweep path is tested first. What-ifs route by
        their ``base`` hash — the same key as the estimate that
        recorded the base — so a base recorded on a replica is found by
        every later delta against it. Unparseable bodies route by a stable
        hash of the raw document — the replica owns rejecting them.
        """
        body = {key: value for key, value in document.items()
                if key not in ("timeout", "async")}
        try:
            if path == "/v1/sweep":
                return SweepRequest.from_dict(body).key()
            if "base" in body:
                return str(body["base"])
            return EstimateRequest.from_dict(body).key()
        except Exception:  # noqa: BLE001 - route bad bodies stably
            canonical = json.dumps(document, sort_keys=True, default=str)
            return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _forward(self, index: int, method: str, path: str,
                 body: Optional[bytes]) -> Optional[Tuple[int, str, bytes]]:
        """One proxy attempt to one replica; None when unreachable."""
        address = self.server.fleet.address(index)
        if address is None:
            return None
        host, port = address
        connection = http.client.HTTPConnection(
            host, port, timeout=self.server.route_timeout)
        try:
            headers = {"Accept": "application/json"}
            if body:
                headers["Content-Type"] = "application/json"
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            return (response.status,
                    response.getheader("Content-Type",
                                       "application/json"),
                    raw)
        except (OSError, http.client.HTTPException):
            return None
        finally:
            connection.close()

    @staticmethod
    def _is_draining_reply(status: int, raw: bytes) -> bool:
        if status != 503:
            return False
        try:
            document = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return False
        return (isinstance(document, dict)
                and document.get("kind") == "draining")

    def _route(self, endpoint: str, path: str, body: bytes) -> None:
        """Route one submission along the preference order."""
        server = self.server
        if server.draining:
            self._error(endpoint, 503,
                        "front is draining; not accepting new work",
                        "draining")
            return
        try:
            document = json.loads(body) if body else {}
            if not isinstance(document, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(endpoint, 400, f"invalid JSON body: {exc}",
                        "bad_request")
            return
        key = self._routing_key(path, document)
        order = server.ring.preference(key)

        faults = server.faults
        if faults is not None and faults.should_fire(SITE_REPLICA_KILL):
            # Front-drawn chaos: kill the preferred replica, then prove
            # the request survives via failover + supervised restart.
            if server.fleet.kill(order[0]) is not None:
                server._front_kills.inc()

        for position, index in enumerate(order):
            if position:
                server._front_failovers.inc()
            reply = self._forward(index, "POST", path, body)
            if reply is None:
                continue  # unreachable: dead or mid-restart
            status, content_type, raw = reply
            if self._is_draining_reply(status, raw):
                continue  # readiness-aware: skip draining replicas
            server._front_routed.inc(replica=str(index))
            self._reply(endpoint, status, raw, content_type)
            return
        self._error(endpoint, 503,
                    "no replica available (all unreachable or draining)",
                    "unavailable")

    # -- verbs -------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "estimate"] or parts == ["v1", "sweep"]:
                endpoint = parts[1]
                try:
                    body = self._read_body()
                except ConfigurationError as exc:
                    self._error(endpoint, 400, str(exc), "bad_request")
                    return
                target = self.path  # preserve query (?async=1)
                self._route(endpoint, target, body)
            else:
                self._error("unknown", 404,
                            f"no such endpoint: {url.path}", "not_found")
        except (ConnectionError, BrokenPipeError):
            raise
        except Exception:  # noqa: BLE001 - last-resort 500, no traceback
            self._error("internal", 500, "internal server error",
                        "internal")

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        try:
            if parts == ["v1", "healthz"]:
                self._healthz()
            elif parts == ["v1", "readyz"]:
                self._readyz()
            elif parts == ["v1", "metrics"]:
                self._metrics()
            elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                self._job_status(parts[2])
            else:
                self._error("unknown", 404,
                            f"no such endpoint: {url.path}", "not_found")
        except (ConnectionError, BrokenPipeError):
            raise
        except Exception:  # noqa: BLE001 - last-resort 500, no traceback
            self._error("internal", 500, "internal server error",
                        "internal")

    def _healthz(self) -> None:
        fleet = self.server.fleet
        replicas = fleet.liveness()
        for entry in replicas:
            if not entry["alive"]:
                continue
            reply = self._forward(entry["replica"], "GET", "/v1/healthz",
                                  None)
            if reply is not None:
                try:
                    entry["healthz"] = json.loads(reply[2])
                except ValueError:
                    pass
        alive = sum(1 for entry in replicas if entry["alive"])
        status = ("ok" if alive == fleet.n_replicas
                  else "degraded" if alive else "down")
        document = {
            "status": status,
            "role": "front",
            "version": __version__,
            "replicas": replicas,
            "fleet": {
                "n_replicas": fleet.n_replicas,
                "alive": alive,
                "restarts": fleet.restarts,
            },
        }
        self._json("healthz", 200 if alive else 503, document)

    def _readyz(self) -> None:
        draining = self.server.draining
        ready_replicas = []
        if not draining:
            for entry in self.server.fleet.liveness():
                if not entry["alive"]:
                    continue
                reply = self._forward(entry["replica"], "GET",
                                      "/v1/readyz", None)
                if reply is not None and reply[0] == 200:
                    ready_replicas.append(entry["replica"])
        ready = bool(ready_replicas) and not draining
        document = {
            "status": "ready" if ready else "unready",
            "draining": draining,
            "ready_replicas": ready_replicas,
        }
        self._json("readyz", 200 if ready else 503, document)

    def _metrics(self) -> None:
        text = self.server.metrics.render()
        self._count("metrics", 200)
        self._reply("metrics", 200, text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8")

    def _job_status(self, job_id: str) -> None:
        # Job ids are replica-local; fan out and return the first hit.
        for entry in self.server.fleet.liveness():
            if not entry["alive"]:
                continue
            reply = self._forward(entry["replica"], "GET",
                                  f"/v1/jobs/{job_id}", None)
            if reply is not None and reply[0] != 404:
                status, content_type, raw = reply
                self._reply("jobs", status, raw, content_type)
                return
        self._error("jobs", 404, f"unknown job {job_id!r} on any replica",
                    "not_found")


def create_front(n_replicas: int, host: str = "127.0.0.1", port: int = 0,
                 options: Optional[Dict[str, Any]] = None, *,
                 faults: Optional[FaultInjector] = None,
                 fleet_options: Optional[Dict[str, Any]] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 vnodes: int = 64) -> Tuple[ReplicaFleet, FrontServer]:
    """Start a replica fleet and bind its routing front.

    Returns ``(fleet, front)`` with every replica ready and the front
    bound (``port=0`` picks a free port — read back
    ``front.server_address``). Call ``front.serve_forever()`` to serve
    and ``front.drain()`` for whole-fleet graceful shutdown. The
    ``replica.kill`` site of ``faults`` is drawn by the front; the
    remaining sites are replayed inside every replica (slot-salted
    seeds) via ``options['faults_spec']``.
    """
    registry = MetricsRegistry() if metrics is None else metrics
    fleet = ReplicaFleet(n_replicas, options, metrics=registry,
                         **dict(fleet_options or {}))
    try:
        fleet.start()
        front = FrontServer((host, port), fleet, faults=faults,
                            metrics=registry, vnodes=vnodes)
    except Exception:
        fleet.stop(grace=2.0)
        raise
    return fleet, front
