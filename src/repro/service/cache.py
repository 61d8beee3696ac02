"""Content-addressed, tiered result cache for the estimation service.

Three tiers mirror the pipeline's artifact ladder, each keyed by the
content hash of exactly the request subset it depends on (see
:class:`~repro.service.jobs.EstimateRequest`):

``characterization``
    Cell moment fits (eqs. (1)-(5)) per (technology, mode, cell
    subset) — the expensive stage, shared across every design and
    usage under one process corner.
``rg``
    Random-Gate statistics (eqs. (6)-(11)) per (characterization,
    usage, signal probability) — shared across die geometries and
    estimator methods.
``estimate``
    Full-chip results (eqs. (15)-(17)) per complete request.

Each tier is an in-memory LRU with a size bound. Tiers whose values
serialize to JSON (``characterization`` via the store module's
document, ``estimate`` via ``LeakageEstimate.to_dict``) additionally
persist to disk when a directory is configured: one file per entry in
a hash-partitioned shard directory guarded by a per-shard ``flock``
(so threads, worker processes and replicas can share one directory),
written atomically (unique temp file + ``os.replace``) so concurrent
writers can never tear an entry, and stamped with the cache schema
version plus the git revision so entries from another code revision
are silently invalidated. The ``rg`` tier holds live model objects and
stays memory-only.

Integrity: every disk entry carries a SHA-256 checksum of its canonical
payload JSON. An entry that fails to parse, fails its checksum, or is
structurally wrong is **quarantined** — moved to
``<persist_dir>/quarantine/`` for post-mortem rather than deleted —
counted in ``repro_cache_corruptions_total{tier=...}``, and reported as
a miss so the pipeline transparently recomputes. A bad byte on disk can
therefore delay an answer but never change one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import threading
import time
import uuid
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro import __version__
from repro.service.faults import (
    SITE_CACHE_READ,
    SITE_CACHE_WRITE,
    SITE_SHARD_LOCK_TIMEOUT,
    FaultInjector,
)

try:
    import fcntl
except ImportError:  # non-POSIX: shard locks degrade to no-ops
    fcntl = None

#: Bump when the on-disk entry layout changes (v2: payload checksum).
CACHE_SCHEMA_VERSION = 2

TIER_CHARACTERIZATION = "characterization"
TIER_RG = "rg"
TIER_ESTIMATE = "estimate"
TIERS = (TIER_CHARACTERIZATION, TIER_RG, TIER_ESTIMATE)

#: Subdirectory of ``persist_dir`` where corrupt entries are moved.
QUARANTINE_DIR = "quarantine"

#: Sentinel distinguishing "no entry" from a cached ``None``.
MISS = object()

_stamp_lock = threading.Lock()
_stamp_cache: Optional[str] = None


def _git_revision() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = proc.stdout.strip()
    return rev if proc.returncode == 0 and rev else None


def cache_stamp() -> str:
    """Version stamp written into (and required of) disk entries.

    Combines the cache schema version with the git revision when
    available (falling back to the package version), so entries written
    by a different code revision — which may compute different numbers —
    never satisfy a lookup.
    """
    global _stamp_cache
    with _stamp_lock:
        if _stamp_cache is None:
            rev = _git_revision() or f"pkg-{__version__}"
            _stamp_cache = f"v{CACHE_SCHEMA_VERSION}:{rev}"
        return _stamp_cache


def payload_checksum(payload: Any) -> str:
    """SHA-256 over the payload's canonical JSON (sorted keys)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TierStats:
    """Hit/miss accounting for one tier (thread-safe via the cache lock)."""

    __slots__ = ("hits", "disk_hits", "misses", "evictions", "corruptions")

    def __init__(self) -> None:
        self.hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.evictions = 0
        self.corruptions = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "disk_hits": self.disk_hits,
                "misses": self.misses, "evictions": self.evictions,
                "corruptions": self.corruptions}


def _entry_nbytes(value: Any, payload: Any = None) -> int:
    """Approximate in-memory footprint of one cache entry.

    Entries with a JSON payload are sized by their serialized form (the
    exact figure the disk layer writes); live-object tiers (``rg``) fall
    back to a shallow ``sys.getsizeof`` — an order-of-magnitude figure,
    which is what capacity planning off ``/v1/healthz`` needs.
    """
    import sys

    if payload is not None:
        try:
            return len(json.dumps(payload))
        except (TypeError, ValueError):
            pass
    try:
        return int(sys.getsizeof(value))
    except TypeError:
        return 0


class ResultCache:
    """Tiered LRU cache with checksummed, sharded JSON-on-disk persistence.

    Parameters
    ----------
    max_entries:
        Per-tier in-memory entry bound (least recently used evicted).
    persist_dir:
        Directory for the disk layer; ``None`` disables persistence.
        Entries land at ``<persist_dir>/shard-NN/<tier>/<key>.json``
        (a key's shard is its SHA-256 prefix mod ``n_shards``); corrupt
        ones are moved to ``<persist_dir>/quarantine/``.
    metrics:
        Optional :class:`~repro.service.metrics.MetricsRegistry`; when
        given, lookups increment
        ``repro_cache_requests_total{tier=...,result=hit|disk_hit|miss}``
        and quarantines ``repro_cache_corruptions_total{tier=...}``.
    stamp:
        Version stamp override (defaults to :func:`cache_stamp`);
        entries whose stamp differs are treated as absent.
    faults:
        Optional :class:`~repro.service.faults.FaultInjector`; the
        ``cache.read`` / ``cache.write`` sites corrupt entry bytes on
        the way in/out of disk (memory tiers are never touched), and
        ``shard.lock_timeout`` simulates a lock timeout.
    n_shards:
        Shard directory count (every process sharing a directory must
        agree).
    lock_timeout:
        Seconds to wait for a shard lock. Each shard's lock file
        (``locks/shard-NN.lock``, outside the shard directory so shard
        quarantine cannot replace a held lock's inode) is taken with
        ``fcntl.flock`` — shared for reads, exclusive for writes. A lock
        that cannot be taken in time degrades the operation instead of
        stalling it: reads report a miss, writes update memory only;
        each is counted in ``repro_cache_lock_timeouts_total{tier=...}``.
    shard_corruption_threshold:
        A shard that accumulates this many corrupt entries is presumed
        damaged (torn filesystem, bad disk) and moved wholesale to the
        quarantine directory; a fresh empty shard takes its place.

    :meth:`rebuild` is the restart path: it walks every shard, drops
    stale-stamp entries, quarantines corrupt ones, and reports what it
    found, so a crashed process's cache directory is verified before
    being trusted.
    """

    def __init__(self, max_entries: int = 256,
                 persist_dir: Optional[str] = None,
                 metrics=None,
                 stamp: Optional[str] = None,
                 faults: Optional[FaultInjector] = None,
                 n_shards: int = 8,
                 lock_timeout: float = 2.0,
                 shard_corruption_threshold: int = 4) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards!r}")
        self.max_entries = int(max_entries)
        self.n_shards = int(n_shards)
        self.lock_timeout = float(lock_timeout)
        self._shard_corruption_threshold = int(shard_corruption_threshold)
        self._shard_corruptions: Dict[int, int] = {}
        self.persist_dir = persist_dir
        self.stamp = cache_stamp() if stamp is None else str(stamp)
        self._faults = faults
        self._lock = threading.Lock()
        self._tiers: Dict[str, OrderedDict] = {
            tier: OrderedDict() for tier in TIERS}
        self._stats: Dict[str, TierStats] = {
            tier: TierStats() for tier in TIERS}
        self._sizes: Dict[str, Dict[str, int]] = {
            tier: {} for tier in TIERS}
        self._requests = None
        self._corruptions = None
        self._lock_timeouts = None
        if metrics is not None:
            self._requests = metrics.counter(
                "repro_cache_requests_total",
                "Cache lookups by artifact tier and outcome.",
                labelnames=("tier", "result"))
            self._corruptions = metrics.counter(
                "repro_cache_corruptions_total",
                "Disk entries quarantined for failing integrity checks.",
                labelnames=("tier",))
            self._lock_timeouts = metrics.counter(
                "repro_cache_lock_timeouts_total",
                "Shard lock acquisitions that timed out (degraded to "
                "miss/skip).",
                labelnames=("tier",))

    def _check_tier(self, tier: str) -> None:
        if tier not in self._tiers:
            raise KeyError(f"unknown cache tier {tier!r}; one of {TIERS}")

    def _record(self, tier: str, result: str) -> None:
        if self._requests is not None:
            self._requests.inc(tier=tier, result=result)

    # -- disk layer -------------------------------------------------------

    def shard_of(self, key: str) -> int:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % self.n_shards

    def _shard_dir(self, shard: int) -> str:
        return os.path.join(self.persist_dir, f"shard-{shard:02d}")

    def _path(self, tier: str, key: str) -> str:
        return os.path.join(self._shard_dir(self.shard_of(key)), tier,
                            f"{key}.json")

    @contextlib.contextmanager
    def _shard_lock(self, shard: int, exclusive: bool):
        """Acquire the shard's flock; yields False on (real or injected)
        timeout instead of blocking callers indefinitely."""
        if fcntl is None:
            yield True
            return
        if (self._faults is not None
                and self._faults.should_fire(SITE_SHARD_LOCK_TIMEOUT)):
            yield False
            return
        os.makedirs(self._shard_dir(shard), exist_ok=True)
        # Lock files live OUTSIDE the shard directory: shard quarantine
        # os.replace()s the whole shard dir, and a lock moved with it
        # would fork the lock identity — holders of the old inode and
        # of the fresh file would both believe they hold "the" shard
        # lock and write concurrently.
        lock_path = os.path.join(self.persist_dir, "locks",
                                 f"shard-{shard:02d}.lock")
        os.makedirs(os.path.dirname(lock_path), exist_ok=True)
        operation = fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH
        deadline = time.monotonic() + self.lock_timeout
        with open(lock_path, "a") as handle:
            while True:
                try:
                    fcntl.flock(handle.fileno(),
                                operation | fcntl.LOCK_NB)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        yield False
                        return
                    time.sleep(0.005)
            try:
                yield True
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _note_lock_timeout(self, tier: str) -> None:
        if self._lock_timeouts is not None:
            self._lock_timeouts.inc(tier=tier)

    def _quarantine(self, tier: str, key: str, path: str) -> None:
        """Move a corrupt entry aside (post-mortem) and count it; a shard
        that reaches ``shard_corruption_threshold`` goes aside whole."""
        destination = os.path.join(
            self.persist_dir, QUARANTINE_DIR,
            f"{tier}.{key}.{uuid.uuid4().hex[:8]}.json")
        try:
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(path, destination)
        except OSError:
            try:
                os.unlink(path)  # quarantine failed; at least drop it
            except OSError:
                pass
        shard = self.shard_of(key)
        with self._lock:
            self._stats[tier].corruptions += 1
            count = self._shard_corruptions.get(shard, 0) + 1
            tripped = count >= self._shard_corruption_threshold
            self._shard_corruptions[shard] = 0 if tripped else count
        if self._corruptions is not None:
            self._corruptions.inc(tier=tier)
        if tripped:
            self._quarantine_shard(shard)

    def _quarantine_shard(self, shard: int) -> None:
        """Move a whole damaged shard aside and start it fresh."""
        source = self._shard_dir(shard)
        destination = os.path.join(
            self.persist_dir, QUARANTINE_DIR,
            f"shard-{shard:02d}.{uuid.uuid4().hex[:8]}")
        try:
            os.makedirs(os.path.dirname(destination), exist_ok=True)
            os.replace(source, destination)
        except OSError:
            shutil.rmtree(source, ignore_errors=True)
        try:
            os.makedirs(source, exist_ok=True)
        except OSError:
            pass

    def _check_entry(self, tier: str, key: str, path: str,
                     raw: bytes) -> Tuple[str, Any]:
        """Classify one disk entry's bytes: ``("valid", payload)``,
        ``("quarantined", None)`` (corrupt: moved aside) or
        ``("stale_dropped", None)`` (another revision's or a foreign
        entry — not corruption: deleted so the directory does not
        accumulate unreadable files across revisions)."""
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = None
        if not isinstance(document, dict) or "payload" not in document:
            self._quarantine(tier, key, path)
            return "quarantined", None
        if (document.get("stamp") != self.stamp
                or document.get("tier") != tier
                or document.get("key") != key):
            try:
                os.unlink(path)
            except OSError:
                pass
            return "stale_dropped", None
        payload = document["payload"]
        if document.get("checksum") != payload_checksum(payload):
            self._quarantine(tier, key, path)
            return "quarantined", None
        return "valid", payload

    def _disk_read(self, tier: str, key: str) -> Any:
        if self.persist_dir is None:
            return MISS
        with self._shard_lock(self.shard_of(key), exclusive=False) as held:
            if not held:
                self._note_lock_timeout(tier)
                return MISS
            path = self._path(tier, key)
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
            except OSError:
                return MISS
            if self._faults is not None:
                raw = self._faults.corrupt(SITE_CACHE_READ, raw)
            status, payload = self._check_entry(tier, key, path, raw)
            return payload if status == "valid" else MISS

    def _disk_write(self, tier: str, key: str, payload: Any) -> None:
        if self.persist_dir is None:
            return
        with self._shard_lock(self.shard_of(key), exclusive=True) as held:
            if not held:
                self._note_lock_timeout(tier)
                return  # memory tier already updated; disk write skipped
            document = {"stamp": self.stamp, "tier": tier, "key": key,
                        "checksum": payload_checksum(payload),
                        "payload": payload}
            raw = json.dumps(document).encode("utf-8")
            if self._faults is not None:
                raw = self._faults.corrupt(SITE_CACHE_WRITE, raw)
            path = self._path(tier, key)
            directory = os.path.dirname(path)
            os.makedirs(directory, exist_ok=True)
            # Unique temp name per writer + atomic replace: a concurrent
            # reader sees either the old complete entry or the new
            # complete entry, never a torn file.
            tmp_path = os.path.join(
                directory, f".{key}.{uuid.uuid4().hex}.tmp")
            try:
                with open(tmp_path, "wb") as handle:
                    handle.write(raw)
                os.replace(tmp_path, path)
            except OSError:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def rebuild(self) -> Dict[str, int]:
        """Validate every on-disk entry after a restart.

        Walks all shards under an exclusive lock, quarantining entries
        that fail to parse or checksum and dropping entries stamped by
        another code revision. Valid entries stay on disk (they promote
        into memory lazily on first hit). Returns a report:
        ``{"scanned", "valid", "quarantined", "stale_dropped"}``.
        """
        report = {"scanned": 0, "valid": 0, "quarantined": 0,
                  "stale_dropped": 0}
        if self.persist_dir is None:
            return report
        for shard in range(self.n_shards):
            shard_dir = self._shard_dir(shard)
            if not os.path.isdir(shard_dir):
                continue
            with self._shard_lock(shard, exclusive=True) as held:
                if not held:
                    continue  # busy shard: another process owns it now
                for tier in TIERS:
                    tier_dir = os.path.join(shard_dir, tier)
                    if not os.path.isdir(tier_dir):
                        continue
                    for filename in sorted(os.listdir(tier_dir)):
                        if not filename.endswith(".json"):
                            continue
                        path = os.path.join(tier_dir, filename)
                        report["scanned"] += 1
                        try:
                            with open(path, "rb") as handle:
                                raw = handle.read()
                        except OSError:  # vanished: a concurrent writer
                            report["stale_dropped"] += 1
                            continue
                        status, _ = self._check_entry(
                            tier, filename[:-len(".json")], path, raw)
                        report[status] += 1
        return report

    # -- public API -------------------------------------------------------

    def get(self, tier: str, key: str,
            revive: Optional[Callable[[Any], Any]] = None) -> Any:
        """Look up ``key`` in ``tier``; :data:`MISS` when absent.

        Memory first, then disk. A disk hit's JSON payload is passed
        through ``revive`` (when given) to rebuild the live object,
        which is then promoted into the memory tier.
        """
        self._check_tier(tier)
        with self._lock:
            entries = self._tiers[tier]
            if key in entries:
                entries.move_to_end(key)
                self._stats[tier].hits += 1
                value = entries[key]
                self._record(tier, "hit")
                return value
        payload = self._disk_read(tier, key)
        if payload is MISS:
            with self._lock:
                self._stats[tier].misses += 1
            self._record(tier, "miss")
            return MISS
        value = revive(payload) if revive is not None else payload
        with self._lock:
            self._stats[tier].disk_hits += 1
            self._insert(tier, key, value,
                         nbytes=_entry_nbytes(value, payload))
        self._record(tier, "disk_hit")
        return value

    def put(self, tier: str, key: str, value: Any,
            payload: Any = None) -> None:
        """Store ``value`` in memory and, when ``payload`` is given and a
        persist directory is configured, its JSON form on disk."""
        self._check_tier(tier)
        nbytes = _entry_nbytes(value, payload)
        with self._lock:
            self._insert(tier, key, value, nbytes=nbytes)
        if payload is not None:
            self._disk_write(tier, key, payload)

    def _insert(self, tier: str, key: str, value: Any,
                nbytes: int = 0) -> None:
        entries = self._tiers[tier]
        entries[key] = value
        entries.move_to_end(key)
        self._sizes[tier][key] = int(nbytes)
        while len(entries) > self.max_entries:
            evicted, _ = entries.popitem(last=False)
            self._sizes[tier].pop(evicted, None)
            self._stats[tier].evictions += 1

    def clear_memory(self) -> None:
        """Drop every in-memory entry (disk entries survive)."""
        with self._lock:
            for entries in self._tiers.values():
                entries.clear()
            for sizes in self._sizes.values():
                sizes.clear()

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-tier hit/miss/eviction/corruption counts plus entry count
        and approximate resident bytes (see :func:`_entry_nbytes`)."""
        with self._lock:
            report = {}
            for tier in TIERS:
                data = self._stats[tier].as_dict()
                data["entries"] = len(self._tiers[tier])
                data["bytes"] = sum(self._sizes[tier].values())
                report[tier] = data
            return report
