"""Zero-dependency tracing: nested spans with wall/CPU/allocation cost.

The estimation engine's hot paths — chip-model build, lag histogram,
kernel evaluation, RG mixture, pairwise/FFT exact sums, the service
pipeline — carry named :func:`span` call sites. When no tracer is
active (the default), ``span()`` returns a shared no-op object and the
cost is one thread-local attribute read; this is what keeps tracing
*measurably free* when off (asserted in ``tests/obs/``). When a
:class:`Tracer` is activated (``with tracer: ...``), the same call
sites record real :class:`Span` objects — wall time via
``perf_counter``, CPU time via ``thread_time``, and (opt-in) peak
allocation via ``tracemalloc`` — nested into a tree.

Design rules:

* **Tracing never changes results.** Spans only observe clocks; the
  traced code path executes the identical arithmetic (bit-identity is
  asserted in ``tests/obs/test_trace_estimate.py``).
* **Activation is per-thread.** A tracer is current only for the thread
  that entered it, so concurrent service workers each trace their own
  job without cross-talk. Spans opened from other threads while a
  tracer is active in this one are simply not recorded.
* **Thread-safe collection.** One tracer may be entered by several
  threads in sequence (or its finished spans merged from worker
  processes); the span tree is guarded by a lock at the root.
* **Cross-process propagation.** :func:`repro.parallel.parallel_map`
  re-activates tracing inside pool workers and ships finished span
  dictionaries back to the parent, where they are merged (aggregated
  per name) under the calling span with ``remote=True`` — see
  :func:`merge_remote_spans`.

Span naming convention (see ``docs/OBSERVABILITY.md`` for the full
catalog): ``<layer>.<stage>`` — e.g. ``linear.kernel``, ``exact.fft``,
``sweep.points``, ``service.cache_lookup``. The root span is named after
the operation (``core/api.estimate``, ``core/api.estimate_sweep``,
``service.request``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TraceRegistry",
    "global_registry",
    "merge_remote_spans",
    "span",
    "stage_totals",
    "tracing_active",
]


class _Current(threading.local):
    """Per-thread activation state: the current tracer, if any."""

    tracer: Optional["Tracer"] = None


_CURRENT = _Current()


def tracing_active() -> bool:
    """True when a tracer is active in *this* thread."""
    return _CURRENT.tracer is not None


def current_tracer() -> Optional["Tracer"]:
    """The tracer active in this thread (None when tracing is off)."""
    return _CURRENT.tracer


class _NullSpan:
    """The shared do-nothing span returned while tracing is off.

    Kept to the absolute minimum: ``__enter__``/``__exit__`` return
    immediately and :meth:`annotate` discards its arguments. One
    instance serves the whole process.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs: Any):
    """Open a named span under the thread's active tracer.

    Usage: ``with span("linear.kernel"): ...``. Returns the shared
    no-op span when no tracer is active — the guard is a single
    thread-local read, so instrumented hot paths stay effectively free
    with tracing off.
    """
    tracer = _CURRENT.tracer
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


class Span:
    """One timed stage: wall/CPU duration, optional peak allocation,
    nested children.

    Spans are context managers created through :meth:`Tracer.span` (or
    the module-level :func:`span`); entering pushes the span onto the
    tracer's per-thread stack so inner spans nest under it.
    """

    __slots__ = ("name", "attrs", "children", "wall_s", "cpu_s",
                 "alloc_peak_bytes", "_tracer", "_wall0", "_cpu0",
                 "_mem0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = str(name)
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.children: List[Any] = []  # Span objects or merged dicts
        self.wall_s: Optional[float] = None
        self.cpu_s: Optional[float] = None
        self.alloc_peak_bytes: Optional[int] = None
        self._tracer = tracer
        self._wall0 = 0.0
        self._cpu0 = 0.0
        self._mem0: Optional[int] = None

    def annotate(self, **attrs: Any) -> None:
        """Attach diagnostic attributes (grid shape, point count, ...)."""
        self.attrs.update(attrs)

    def add_remote_children(self, spans: Iterable[Dict[str, Any]]) -> None:
        """Attach finished span dictionaries from worker processes.

        The dictionaries are marked ``remote`` so aggregation knows
        their wall time overlapped this span (parallel workers), and
        must not be subtracted from its self time.
        """
        for document in spans:
            document = dict(document)
            document["remote"] = True
            self.children.append(document)

    # -- context manager --------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        if self._tracer.memory:
            import tracemalloc

            if tracemalloc.is_tracing():
                self._mem0 = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
        self._cpu0 = time.thread_time()
        self._wall0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.wall_s = time.perf_counter() - self._wall0
        self.cpu_s = time.thread_time() - self._cpu0
        if self._mem0 is not None:
            import tracemalloc

            peak = tracemalloc.get_traced_memory()[1]
            self.alloc_peak_bytes = max(0, peak - self._mem0)
        self._tracer._pop(self)
        return False

    # -- export -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON representation (stable trace wire format)."""
        document: Dict[str, Any] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
        }
        if self.alloc_peak_bytes is not None:
            document["alloc_peak_bytes"] = int(self.alloc_peak_bytes)
        if self.attrs:
            document["attrs"] = {key: value
                                 for key, value in self.attrs.items()}
        if self.children:
            document["children"] = [
                child if isinstance(child, dict) else child.to_dict()
                for child in self.children]
        return document

    def __repr__(self) -> str:
        wall = "live" if self.wall_s is None else f"{self.wall_s:.6f}s"
        return f"Span({self.name!r}, {wall}, {len(self.children)} children)"


class _Stack(threading.local):
    """Per-thread open-span stack of one tracer."""

    def __init__(self) -> None:
        self.spans: List[Span] = []


class Tracer:
    """Collects a tree of spans for one traced operation.

    Parameters
    ----------
    name:
        Label for the trace (e.g. ``core/api.estimate``); becomes the
        ``name`` of the exported trace document.
    memory:
        Opt-in peak-allocation tracking via ``tracemalloc``. Starts
        tracing allocations on activation when not already started (and
        stops it again on exit in that case). Peak numbers are
        per-innermost-span: nested spans reset the peak counter, so a
        parent's peak reflects only its own allocations after the last
        child closed.

    Usage::

        tracer = Tracer("core/api.estimate")
        with tracer:                  # activates for this thread
            with tracer.span("stage"):
                ...
        document = tracer.export()    # plain-JSON trace tree

    Entering the tracer is reentrant-safe (it remembers and restores
    the previously active tracer), and the span tree may be built from
    several threads in sequence; concurrent root registration is locked.
    """

    def __init__(self, name: str = "trace", memory: bool = False) -> None:
        self.name = str(name)
        self.memory = bool(memory)
        self.roots: List[Span] = []
        self._lock = threading.Lock()
        self._stack = _Stack()
        self._previous: List[Optional[Tracer]] = []
        self._started_tracemalloc = False

    # -- activation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._previous.append(_CURRENT.tracer)
        _CURRENT.tracer = self
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._started_tracemalloc = True
        return self

    def __exit__(self, *exc_info) -> bool:
        _CURRENT.tracer = self._previous.pop() if self._previous else None
        if self._started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._started_tracemalloc = False
        return False

    # -- span plumbing ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def _push(self, span_: Span) -> None:
        stack = self._stack.spans
        if stack:
            stack[-1].children.append(span_)
        else:
            with self._lock:
                self.roots.append(span_)
        stack.append(span_)

    def _pop(self, span_: Span) -> None:
        stack = self._stack.spans
        if stack and stack[-1] is span_:
            stack.pop()
        elif span_ in stack:  # tolerate exits out of order
            stack.remove(span_)

    def current_span(self) -> Optional[Span]:
        """The innermost open span in this thread (None at the root)."""
        stack = self._stack.spans
        return stack[-1] if stack else None

    # -- export -----------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """The finished trace as a plain-JSON document.

        ``{"name", "spans": [...], "stages": {...}}`` — ``spans`` is the
        root span forest and ``stages`` the per-name aggregation of
        :func:`stage_totals` (the per-stage breakdown consumed by the
        benches, the CLI table, and the Prometheus bridge).
        """
        with self._lock:
            spans = [root.to_dict() for root in self.roots]
        document = {"name": self.name, "spans": spans}
        document["stages"] = stage_totals(document)
        return document

    def render(self) -> str:
        """Human-readable tree view of the finished trace."""
        from repro.obs.export import render_tree

        return render_tree(self.export())


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _walk(spans: Iterable[Dict[str, Any]], totals: Dict[str, Dict[str, Any]],
          remote: bool = False) -> None:
    for document in spans:
        children = document.get("children", ())
        wall = float(document.get("wall_s") or 0.0)
        cpu = float(document.get("cpu_s") or 0.0)
        is_remote = bool(document.get("remote", False)) or remote
        # Self time: the span's wall minus its *local* children — remote
        # (worker-process) children ran concurrently on other CPUs and
        # are not part of this span's own wall clock.
        local_child_wall = sum(
            float(child.get("wall_s") or 0.0) for child in children
            if not child.get("remote", False))
        self_s = max(0.0, wall - local_child_wall)
        entry = totals.setdefault(document["name"], {
            "count": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0,
            "remote": False})
        entry["count"] += int(document.get("count", 1))
        entry["wall_s"] += wall
        entry["self_s"] += float(document.get("self_s", self_s))
        entry["cpu_s"] += cpu
        entry["remote"] = entry["remote"] or is_remote
        peak = document.get("alloc_peak_bytes")
        if peak is not None:
            entry["alloc_peak_bytes"] = max(
                int(peak), int(entry.get("alloc_peak_bytes", 0)))
        _walk(children, totals, remote=is_remote)


def stage_totals(trace: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Per-stage aggregation of a trace document.

    Maps each distinct span name to ``{"count", "wall_s", "self_s",
    "cpu_s", "remote"[, "alloc_peak_bytes"]}``. ``self_s`` is the span's
    wall time minus its local children — summed over every *local*
    stage it reconstructs the root wall time exactly (every traced
    moment belongs to exactly one innermost span), which is the
    invariant the acceptance tests assert. Stages flagged ``remote``
    ran in worker processes: their wall time overlapped the parent and
    is reported for per-stage attribution, not for summation against
    the end-to-end wall clock.
    """
    totals: Dict[str, Dict[str, Any]] = {}
    _walk(trace.get("spans", ()), totals)
    return totals


def merge_remote_spans(
        span_lists: Iterable[Iterable[Dict[str, Any]]]) -> List[Dict[str, Any]]:
    """Aggregate finished worker span forests for re-attachment.

    Workers return one span forest each; attaching hundreds of them
    verbatim would bloat the trace, so spans are aggregated per name
    across workers (walls/cpus summed, counts accumulated, children
    merged recursively). The result is a compact forest of span
    dictionaries carrying ``count`` — suitable for
    :meth:`Span.add_remote_children`.
    """
    merged: Dict[str, Dict[str, Any]] = {}
    grouped_children: Dict[str, List[Iterable[Dict[str, Any]]]] = {}
    for spans in span_lists:
        for document in spans:
            name = document["name"]
            entry = merged.setdefault(name, {
                "name": name, "wall_s": 0.0, "cpu_s": 0.0, "count": 0})
            entry["wall_s"] += float(document.get("wall_s") or 0.0)
            entry["cpu_s"] += float(document.get("cpu_s") or 0.0)
            entry["count"] += int(document.get("count", 1))
            peak = document.get("alloc_peak_bytes")
            if peak is not None:
                entry["alloc_peak_bytes"] = max(
                    int(peak), int(entry.get("alloc_peak_bytes", 0)))
            children = document.get("children")
            if children:
                grouped_children.setdefault(name, []).append(children)
    for name, child_lists in grouped_children.items():
        merged[name]["children"] = merge_remote_spans(child_lists)
    return list(merged.values())


# ---------------------------------------------------------------------------
# Process-wide registry
# ---------------------------------------------------------------------------

class TraceRegistry:
    """Process-wide sink for finished traces.

    Components that trace continuously (the estimation service) record
    every finished trace here; the registry keeps the last
    ``max_traces`` documents for inspection plus cumulative per-stage
    totals that survive trace eviction. A metrics bridge
    (:func:`repro.obs.export.observe_stages`) feeds the same documents
    into a Prometheus histogram family instead.
    """

    def __init__(self, max_traces: int = 32) -> None:
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=int(max_traces))
        self._stage_totals: Dict[str, Dict[str, Any]] = {}

    def record(self, trace: Dict[str, Any]) -> None:
        stages = trace.get("stages") or stage_totals(trace)
        with self._lock:
            self._traces.append(trace)
            for name, entry in stages.items():
                total = self._stage_totals.setdefault(name, {
                    "count": 0, "wall_s": 0.0, "self_s": 0.0, "cpu_s": 0.0})
                total["count"] += int(entry.get("count", 1))
                total["wall_s"] += float(entry.get("wall_s", 0.0))
                total["self_s"] += float(entry.get("self_s", 0.0))
                total["cpu_s"] += float(entry.get("cpu_s", 0.0))

    def traces(self) -> List[Dict[str, Any]]:
        """The retained traces, oldest first."""
        with self._lock:
            return list(self._traces)

    def stages(self) -> Dict[str, Dict[str, Any]]:
        """Cumulative per-stage totals over every recorded trace."""
        with self._lock:
            return {name: dict(entry)
                    for name, entry in self._stage_totals.items()}

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._stage_totals.clear()


_GLOBAL_REGISTRY = TraceRegistry()


def global_registry() -> TraceRegistry:
    """The process-wide :class:`TraceRegistry` singleton."""
    return _GLOBAL_REGISTRY
