"""Span-based tracing of the tuning request lifecycle.

A trace is a tree of :class:`Span`\\ s: :func:`repro.autotune.autotune` opens
a ``request`` span, the search phase a ``search`` span, every candidate
evaluation a ``candidate`` span, every backend measurement a ``measure``
span, and the staged compiler's :class:`~repro.compiler.manager.PassManager`
hooks record one ``pass`` span per executed pass — so one traced request
shows exactly where its time went, down to "analysis ran once, tiling ran
once per candidate".

Collection is opt-in and process-global: :func:`start_trace` installs a
:class:`TraceCollector`; while none is installed, :func:`span` returns a
shared no-op context manager, so the instrumentation points cost one
attribute read and one ``is None`` test each (see the overhead guard in
``tests/test_telemetry.py``).

The span stack is per-thread.  Spans recorded in another process (the
parallel evaluator's pool workers) come back as dicts and are grafted under
the span open where they were awaited (:meth:`TraceCollector.graft`), so
pool-evaluated candidates still nest under the search that spawned them.

Completed trees export as nested JSON (:func:`save_trace` — the ``--trace
FILE`` format), JSONL (:func:`to_jsonl`), and Chrome ``trace_event`` JSON
(:func:`to_chrome_trace` — load in ``chrome://tracing`` or Perfetto), and
render as an indented tree with a hotspot table (:func:`render_tree`,
:func:`hotspots` — the ``python -m repro.autotune trace`` subcommand).
"""

from __future__ import annotations

import contextlib
import json
import sys
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "TraceCollector",
    "active_trace",
    "annotate",
    "capture_trace",
    "current_span",
    "hotspots",
    "load_trace",
    "record_span",
    "render_tree",
    "save_trace",
    "span",
    "start_trace",
    "stop_trace",
    "summarize_spans",
    "to_chrome_trace",
    "to_jsonl",
    "trace_pass_hook",
]


# eq=False keeps identity comparison: field-wise comparison of span trees
# would be both wrong and expensive.
@dataclass(eq=False)
class Span:
    """One timed operation: name, kind, wall time, attributes, children."""

    name: str
    kind: str = "span"
    start_s: float = 0.0
    end_s: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)
    #: small per-collector thread ordinal (0 = the thread that started tracing;
    #: each grafted worker process gets one of its own)
    tid: int = 0

    @property
    def duration_s(self) -> float:
        return (self.end_s if self.end_s is not None else self.start_s) - self.start_s

    @property
    def duration_ms(self) -> float:
        return 1e3 * self.duration_s

    def annotate(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
            "tid": self.tid,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Span":
        return cls(
            name=payload["name"],
            kind=payload.get("kind", "span"),
            start_s=payload.get("start_s", 0.0),
            end_s=payload.get("end_s"),
            attrs=dict(payload.get("attrs", {})),
            tid=payload.get("tid", 0),
            children=[cls.from_dict(child) for child in payload.get("children", [])],
        )


class _NullSpan:
    """The shared do-nothing span yielded while tracing is disabled."""

    __slots__ = ()
    name = ""
    kind = "null"
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    duration_s = 0.0
    duration_ms = 0.0

    def annotate(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()
#: reusable disabled-path context manager (nullcontext is stateless, so one
#: shared instance is safe under concurrent use)
_NULL_CM = contextlib.nullcontext(NULL_SPAN)


class TraceCollector:
    """Accumulates one process's span trees while installed via :func:`start_trace`."""

    def __init__(self) -> None:
        self.roots: List[Span] = []
        #: correlation id stamped onto request spans and history records so a
        #: trace file can be matched to the log/history entries it belongs to
        self.trace_id: str = uuid.uuid4().hex[:16]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_ids: Dict[Any, int] = {}

    # -- span stack --------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self, ident: Any = None) -> int:
        if ident is None:
            ident = threading.get_ident()
        with self._lock:
            if ident not in self._thread_ids:
                self._thread_ids[ident] = len(self._thread_ids)
            return self._thread_ids[ident]

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _attach(self, parent: Optional[Span], child: Span) -> None:
        with self._lock:
            (self.roots if parent is None else parent.children).append(child)

    @contextlib.contextmanager
    def span(self, name: str, kind: str = "span", **attrs: Any) -> Iterator[Span]:
        parent = self.current()
        item = Span(
            name=name,
            kind=kind,
            start_s=time.perf_counter(),
            attrs=dict(attrs),
            tid=self._tid(),
        )
        self._attach(parent, item)
        stack = self._stack()
        stack.append(item)
        try:
            yield item
        finally:
            item.end_s = time.perf_counter()
            if stack and stack[-1] is item:
                stack.pop()

    def record(
        self, name: str, kind: str, duration_s: float, **attrs: Any
    ) -> Span:
        """Attach an already-completed span (post-hoc timing, e.g. pass hooks)."""
        now = time.perf_counter()
        item = Span(
            name=name,
            kind=kind,
            start_s=now - duration_s,
            end_s=now,
            attrs=dict(attrs),
            tid=self._tid(),
        )
        self._attach(self.current(), item)
        return item

    def graft(self, payloads: Sequence[Mapping[str, Any]], source: Any) -> None:
        """Attach span trees another process shipped as dicts (``source``
        names it) under this thread's current span, on a thread ordinal of
        their own."""
        tid = self._tid(("process", source))
        parent = self.current()
        for payload in payloads:
            item = Span.from_dict(payload)
            for grafted, _depth in iter_spans([item]):
                grafted.tid = tid
            self._attach(parent, item)

    def to_dicts(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [root.to_dict() for root in self.roots]


# -- process-global collector ----------------------------------------------------------
_ACTIVE: Optional[TraceCollector] = None
_ACTIVE_LOCK = threading.Lock()


def start_trace() -> TraceCollector:
    """Install (and return) a fresh process-global collector.

    One collector per process: concurrent traced jobs in a thread-pool
    server would interleave into whichever collector is installed, so the
    tuning service traces through *process* workers, which own their
    collector exclusively.
    """
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = TraceCollector()
        return _ACTIVE


def stop_trace() -> Optional[TraceCollector]:
    """Uninstall and return the active collector (``None`` when not tracing)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        collector, _ACTIVE = _ACTIVE, None
        return collector


def active_trace() -> Optional[TraceCollector]:
    return _ACTIVE


@contextlib.contextmanager
def capture_trace() -> Iterator[TraceCollector]:
    """``with capture_trace() as collector:`` — scoped start/stop for tests."""
    global _ACTIVE
    collector = start_trace()
    try:
        yield collector
    finally:
        with _ACTIVE_LOCK:
            if _ACTIVE is collector:
                _ACTIVE = None


def span(name: str, kind: str = "span", **attrs: Any):
    """Open a child span of the current one (a shared no-op when not tracing)."""
    collector = _ACTIVE
    if collector is None:
        return _NULL_CM
    return collector.span(name, kind=kind, **attrs)


def current_span():
    """The innermost open span on this thread (``NULL_SPAN`` when not tracing)."""
    collector = _ACTIVE
    if collector is None:
        return NULL_SPAN
    return collector.current() or NULL_SPAN


def annotate(**attrs: Any) -> None:
    """Attach attributes to the innermost open span (no-op when not tracing)."""
    current_span().annotate(**attrs)


def record_span(name: str, kind: str, duration_s: float, **attrs: Any) -> None:
    """Record an already-timed operation as a completed child span."""
    collector = _ACTIVE
    if collector is not None:
        collector.record(name, kind, duration_s, **attrs)


def trace_pass_hook(stage: str, artifact: Any, elapsed_s: float) -> None:
    """A :class:`~repro.compiler.manager.PassManager` hook emitting pass spans.

    Attach with ``manager.add_hook(trace_pass_hook)`` (idempotent — the
    manager deduplicates hooks); each executed pass becomes one completed
    ``pass`` span under whatever span was open when it ran.
    """
    collector = _ACTIVE
    if collector is not None:
        collector.record(
            stage,
            "pass",
            elapsed_s,
            fingerprint=getattr(artifact, "short_fingerprint", None),
        )


# -- exports ---------------------------------------------------------------------------
def coerce_spans(roots: Sequence[Any]) -> List[Span]:
    """Accept span trees as :class:`Span` objects *or* their dict payloads.

    Job results ship span trees as plain dicts (the picklable/JSON form);
    every exporter below takes either representation.
    """
    return [
        Span.from_dict(root) if isinstance(root, Mapping) else root for root in roots
    ]


def iter_spans(
    roots: Sequence[Any], depth: int = 0
) -> Iterator[Tuple[Span, int]]:
    """Depth-first (span, depth) walk over span trees (Spans or dicts)."""
    for root in coerce_spans(roots):
        yield root, depth
        yield from iter_spans(root.children, depth + 1)


def save_trace(path: Any, roots: Sequence[Any], meta: Optional[Mapping[str, Any]] = None) -> None:
    """Write span trees as the canonical ``--trace FILE`` JSON document."""
    payload: Dict[str, Any] = {
        "version": 1,
        "spans": [root.to_dict() for root in coerce_spans(roots)],
    }
    if meta:
        payload["meta"] = dict(meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_trace(path: Any) -> List[Span]:
    """Read a trace file: the nested-JSON save format or a JSONL export.

    Tolerant of truncation: an empty file is an empty trace, unparseable or
    incomplete JSONL lines (a crashed writer's torn tail) are skipped with a
    warning on stderr, and a span whose parent is missing becomes a root —
    whatever survived the crash still renders.
    """

    def _warn(lineno: int, why: str) -> None:
        print(
            f"warning: {path}: skipping trace line {lineno}: {why}",
            file=sys.stderr,
        )

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stripped = text.strip()
    if not stripped:
        return []
    try:
        document = json.loads(stripped)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, Mapping) and "spans" in document:
        return [Span.from_dict(item) for item in document["spans"]]
    # JSONL: one flattened span per line with id/parent references
    spans: Dict[int, Span] = {}
    roots: List[Span] = []
    for lineno, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            _warn(lineno, f"not JSON ({error})")
            continue
        if not isinstance(record, Mapping) or "name" not in record:
            _warn(lineno, "not a span record")
            continue
        item = Span.from_dict(record)
        if "id" in record:
            spans[record["id"]] = item
        parent = record.get("parent")
        if parent is None:
            roots.append(item)
        elif parent in spans:
            spans[parent].children.append(item)
        else:
            _warn(lineno, f"parent span {parent} missing; treating as root")
            roots.append(item)
    return roots


def to_jsonl(roots: Sequence[Any]) -> str:
    """Flatten span trees to JSONL (one span per line, id/parent references)."""
    roots = coerce_spans(roots)
    lines: List[str] = []
    ids: Dict[int, int] = {}

    def walk(item: Span, parent_id: Optional[int]) -> None:
        span_id = len(ids)
        ids[id(item)] = span_id
        record = item.to_dict()
        record.pop("children")
        record.update(
            {"id": span_id, "parent": parent_id, "duration_ms": item.duration_ms}
        )
        lines.append(json.dumps(record, sort_keys=True))
        for child in item.children:
            walk(child, span_id)

    for root in roots:
        walk(root, None)
    return "\n".join(lines) + "\n"


def to_chrome_trace(roots: Sequence[Span]) -> Dict[str, Any]:
    """Span trees as Chrome ``trace_event`` JSON (complete ``"X"`` events).

    Open the saved JSON in ``chrome://tracing`` or https://ui.perfetto.dev.
    Timestamps are microseconds relative to the earliest span, so traces
    shipped from worker processes (whose ``perf_counter`` origin differs)
    still render on a sane axis.
    """
    spans = [item for item, _depth in iter_spans(roots)]
    origin = min((item.start_s for item in spans), default=0.0)
    events = [
        {
            "ph": "X",
            "name": item.name,
            "cat": item.kind,
            "ts": round(1e6 * (item.start_s - origin), 3),
            "dur": round(1e6 * item.duration_s, 3),
            "pid": 0,
            "tid": item.tid,
            "args": dict(item.attrs),
        }
        for item in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- rendering -------------------------------------------------------------------------
def _format_attrs(attrs: Mapping[str, Any], limit: int = 60) -> str:
    parts = []
    for key, value in attrs.items():
        if value is None:
            continue
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    rendered = " ".join(parts)
    return rendered if len(rendered) <= limit else rendered[: limit - 1] + "…"


def render_tree(roots: Sequence[Span], max_depth: Optional[int] = None) -> str:
    """The span tree as indented text with per-span wall time."""
    lines: List[str] = []
    for item, depth in iter_spans(roots):
        if max_depth is not None and depth > max_depth:
            continue
        label = f"{'  ' * depth}{item.name} [{item.kind}]"
        attrs = _format_attrs(item.attrs)
        suffix = f"  {attrs}" if attrs else ""
        lines.append(f"{label:<48s} {item.duration_ms:>10.3f} ms{suffix}")
    return "\n".join(lines)


def hotspots(roots: Sequence[Span], top: int = 10) -> List[Dict[str, Any]]:
    """Top-``top`` (kind, name) groups by *self* time (total minus children)."""
    totals: Dict[Tuple[str, str], Dict[str, float]] = {}
    for item, _depth in iter_spans(roots):
        child_time = sum(child.duration_s for child in item.children)
        entry = totals.setdefault(
            (item.kind, item.name), {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += item.duration_s
        entry["self_s"] += max(item.duration_s - child_time, 0.0)
    rows = [
        {
            "kind": kind,
            "name": name,
            "count": int(entry["count"]),
            "total_ms": 1e3 * entry["total_s"],
            "self_ms": 1e3 * entry["self_s"],
        }
        for (kind, name), entry in totals.items()
    ]
    rows.sort(key=lambda row: (-row["self_ms"], row["kind"], row["name"]))
    return rows[:top]


def render_hotspots(roots: Sequence[Span], top: int = 10) -> str:
    """The hotspot table as aligned text (the ``trace`` subcommand's footer)."""
    rows = hotspots(roots, top=top)
    lines = [
        f"{'name':<20s} {'kind':<10s} {'count':>6s} {'total_ms':>10s} {'self_ms':>10s}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<20s} {row['kind']:<10s} {row['count']:>6d} "
            f"{row['total_ms']:>10.3f} {row['self_ms']:>10.3f}"
        )
    return "\n".join(lines)


def summarize_spans(roots: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-kind span counts and total milliseconds (the /status job summary)."""
    summary: Dict[str, Dict[str, float]] = {}
    for item, _depth in iter_spans(roots):
        entry = summary.setdefault(item.kind, {"spans": 0, "total_ms": 0.0})
        entry["spans"] += 1
        entry["total_ms"] += item.duration_ms
    for entry in summary.values():
        entry["spans"] = int(entry["spans"])
        entry["total_ms"] = round(entry["total_ms"], 3)
    return summary
