"""In-memory span recorder for the end-to-end benchmark.

The harness measures the layers *from outside*: every call into a module's
public function is wrapped in a :meth:`Recorder.span`, kept in memory, and
written once at exit as the JSONL dialect
:func:`repro.telemetry.trace.load_trace` reads.  Nothing here computes self
time — the flushed file goes back through the program's own ``load_trace`` /
``hotspots`` / ``summarize_spans`` so the benchmark and the ``trace`` CLI can
never disagree about the arithmetic.

A disabled recorder (the untraced run) hands out one shared no-op context
manager, so the end-to-end numbers carry no recording cost.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional


class Recorder:
    """Flat list of span records with id/parent links and a request id."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._null = contextlib.nullcontext(None)

    def _new_record(
        self,
        name: str,
        kind: str,
        start_s: float,
        end_s: Optional[float],
        parent: Optional[int],
        request: Optional[int],
        tid: int,
        attrs: Dict[str, Any],
    ) -> Dict[str, Any]:
        with self._lock:
            record = {
                "id": len(self.records),
                "parent": parent,
                "name": name,
                "kind": kind,
                "start_s": start_s,
                "end_s": end_s,
                "tid": tid,
                "attrs": dict(attrs, request=request) if request is not None else attrs,
            }
            self.records.append(record)
        return record

    def span(self, name: str, kind: str = "bench", request: Optional[int] = None, **attrs: Any):
        """Time a block; nests under the span open on this thread."""
        if not self.enabled:
            return self._null
        return self._span(name, kind, request, attrs)

    @contextlib.contextmanager
    def _span(
        self, name: str, kind: str, request: Optional[int], attrs: Dict[str, Any]
    ) -> Iterator[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["attrs"].get("request")
        record = self._new_record(
            name,
            kind,
            time.perf_counter(),
            None,
            parent["id"] if parent else None,
            request,
            threading.get_ident() % 100000,
            attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record["end_s"] = time.perf_counter()
            stack.pop()

    def adopt(self, roots: List[Any], under_kind: str = "request") -> int:
        """Graft the program's own span trees under the harness spans.

        ``roots`` are :class:`repro.telemetry.trace.Span` trees collected by
        ``capture_trace()`` while harness spans of ``under_kind`` were open.
        Both clocks are ``time.perf_counter`` of this process, so a program
        root belongs to a harness span that contains it in time.  With two
        concurrent clients two spans may: the work behind one request is
        sequential, so the span whose adopted children do not overlap the
        newcomer wins, the later-started one on a tie.  Returns how many
        roots found a parent; the rest stay roots.
        """
        hosts = [r for r in self.records if r["kind"] == under_kind and r["end_s"] is not None]
        hosts.sort(key=lambda r: r["start_s"])
        busy_until: Dict[int, float] = {}
        adopted = 0
        for root in sorted(roots, key=lambda r: r.start_s):
            end_s = root.end_s if root.end_s is not None else root.start_s
            containing = [
                host
                for host in hosts
                if host["start_s"] <= root.start_s and end_s <= host["end_s"]
            ]
            free = [h for h in containing if busy_until.get(h["id"], 0.0) <= root.start_s]
            parent = (free or containing or [None])[-1]
            if parent is not None:
                adopted += 1
                busy_until[parent["id"]] = end_s
            self._adopt_tree(root, parent)
        return adopted

    def _adopt_tree(self, item: Any, parent: Optional[Dict[str, Any]]) -> None:
        record = self._new_record(
            item.name,
            item.kind,
            item.start_s,
            item.end_s if item.end_s is not None else item.start_s,
            parent["id"] if parent else None,
            parent["attrs"].get("request") if parent else None,
            item.tid,
            dict(item.attrs),
        )
        for child in item.children:
            self._adopt_tree(child, record)

    def to_jsonl(self) -> str:
        """One span per line, parents before children (ids grow with open order)."""
        lines = []
        for record in sorted(self.records, key=lambda r: r["id"]):
            end_s = record["end_s"] if record["end_s"] is not None else record["start_s"]
            lines.append(
                json.dumps(
                    dict(record, end_s=end_s, duration_ms=1e3 * (end_s - record["start_s"])),
                    sort_keys=True,
                    default=str,
                )
            )
        return "".join(line + "\n" for line in lines)

    def flush(self, path: Any) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
