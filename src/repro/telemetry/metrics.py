"""Process-wide metrics registry with Prometheus text exposition.

One :class:`MetricsRegistry` per process (:data:`METRICS`) absorbs the
instrumentation that used to live as scattered one-off counters: compiler
stage runs and end-to-end compiles (:mod:`repro.compiler.instrument` keeps
no tally of its own), tuning-cache hits/misses/
absorbs, per-``measurement.kind`` evaluation counts, and the tuning
service's HTTP and job counters.

Three instrument families, all label-aware and thread-safe:

* :class:`Counter` — monotonically increasing totals
  (``repro_stage_runs_total{stage="tiling"}``);
* :class:`Gauge` — last-written values (``repro_jobs_inflight``);
* :class:`Histogram` — bucketed observations with ``_bucket``/``_sum``/
  ``_count`` series (``repro_pass_seconds{stage="analysis"}``).

:meth:`MetricsRegistry.render` emits the Prometheus text exposition format
(``text/plain; version=0.0.4``) served by the tuning server's ``/metrics``
endpoint; :func:`parse_prometheus_text` is the matching scrape-format lint
used by tests and CI.

Worker processes cannot share the parent's registry, so the registry also
supports snapshot/delta shipping: a worker snapshots before a job, computes
:meth:`~MetricsRegistry.delta_since` after, and the server
:meth:`~MetricsRegistry.absorb`\\ s the (picklable) delta — counters and
histograms add, gauges are deliberately skipped (last-write-wins semantics
do not survive merging).
"""

from __future__ import annotations

import json
import math
import re
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "parse_prometheus_text",
]

#: default histogram buckets (seconds), spanning sub-ms passes to slow runs
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_number(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_pairs(
    label_names: Sequence[str], values: Tuple[str, ...]
) -> str:
    if not label_names:
        return ""
    rendered = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, values)
    )
    return "{" + rendered + "}"


class _Metric:
    """Shared machinery: label validation and the per-labelset sample map."""

    type_name = "untyped"

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r} on metric {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        # labelset (tuple of values in label_names order) -> sample state
        self._samples: Dict[Tuple[str, ...], Any] = {}
        if not self.label_names:
            self._samples[()] = self._zero()

    def _zero(self) -> Any:
        return 0.0

    def _labelset(self, labels: Mapping[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    # -- snapshot/absorb plumbing (numeric state only; see MetricsRegistry) --------
    def _state(self) -> Dict[str, Any]:
        with self._lock:
            return {
                json.dumps(list(key)): self._copy_sample(value)
                for key, value in self._samples.items()
            }

    def _copy_sample(self, value: Any) -> Any:
        return value

    def _describe(self) -> Dict[str, Any]:
        return {
            "type": self.type_name,
            "help": self.help,
            "labels": list(self.label_names),
        }


class Counter(_Metric):
    """A monotonically increasing total, optionally labelled."""

    type_name = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        key = self._labelset(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._labelset(labels)
        with self._lock:
            return float(self._samples.get(key, 0.0))

    def samples(self) -> Dict[Tuple[str, ...], float]:
        """Every labelset's total, keyed by label values in declaration order."""
        with self._lock:
            return dict(self._samples)

    def _render(self) -> List[str]:
        return [
            f"{self.name}{_label_pairs(self.label_names, key)} {_render_number(value)}"
            for key, value in sorted(self.samples().items())
        ]


class Gauge(_Metric):
    """A last-write-wins value (queue depths, in-flight jobs, limits)."""

    type_name = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = self._labelset(labels)
        with self._lock:
            self._samples[key] = float(value)

    def add(self, amount: float, **labels: Any) -> None:
        key = self._labelset(labels)
        with self._lock:
            self._samples[key] = self._samples.get(key, 0.0) + amount

    def _render(self) -> List[str]:
        with self._lock:
            items = sorted(self._samples.items())
        return [
            f"{self.name}{_label_pairs(self.label_names, key)} {_render_number(value)}"
            for key, value in items
        ]


class Histogram(_Metric):
    """Bucketed observations: cumulative ``_bucket`` series plus sum/count."""

    type_name = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        super().__init__(name, help, label_names)

    def _zero(self) -> Dict[str, Any]:
        return {"count": 0.0, "sum": 0.0, "buckets": [0.0] * len(self.buckets)}

    def _copy_sample(self, value: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "count": value["count"],
            "sum": value["sum"],
            "buckets": list(value["buckets"]),
        }

    def observe(self, value: float, **labels: Any) -> None:
        key = self._labelset(labels)
        with self._lock:
            state = self._samples.get(key)
            if state is None:
                state = self._samples[key] = self._zero()
            state["count"] += 1
            state["sum"] += value
            # per-bucket (non-cumulative) counts; _render accumulates into
            # the Prometheus cumulative-`le` form
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state["buckets"][index] += 1
                    break

    def count(self, **labels: Any) -> float:
        key = self._labelset(labels)
        with self._lock:
            state = self._samples.get(key)
            return float(state["count"]) if state else 0.0

    def _render(self) -> List[str]:
        with self._lock:
            items = sorted(
                (key, self._copy_sample(value)) for key, value in self._samples.items()
            )
        lines: List[str] = []
        bucket_labels = (*self.label_names, "le")
        for key, state in items:
            cumulative = 0.0
            for bound, in_bucket in zip(self.buckets, state["buckets"]):
                cumulative += in_bucket
                pairs = _label_pairs(bucket_labels, (*key, _render_number(bound)))
                lines.append(f"{self.name}_bucket{pairs} {_render_number(cumulative)}")
            pairs = _label_pairs(bucket_labels, (*key, "+Inf"))
            lines.append(f"{self.name}_bucket{pairs} {_render_number(state['count'])}")
            base = _label_pairs(self.label_names, key)
            lines.append(f"{self.name}_sum{base} {_render_number(state['sum'])}")
            lines.append(f"{self.name}_count{base} {_render_number(state['count'])}")
        return lines


class MetricsRegistry:
    """Name → metric map with get-or-create registration and text exposition.

    Registration is idempotent: :meth:`counter`/:meth:`gauge`/
    :meth:`histogram` return the existing instrument when name, type and
    label names match, and raise ``ValueError`` on any mismatch — two
    modules cannot silently disagree about a metric's shape.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- registration ------------------------------------------------------------------
    def _register(self, cls: type, name: str, help: str, labels: Sequence[str], **kwargs: Any) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(labels):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.type_name}{list(existing.label_names)}"
                    )
                return existing
            metric = cls(name, help, labels, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    # -- exposition --------------------------------------------------------------------
    def render(self) -> str:
        """The registry in Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        lines: List[str] = []
        for metric in metrics:
            if metric.help:
                lines.append(f"# HELP {metric.name} {metric.help}")
            lines.append(f"# TYPE {metric.name} {metric.type_name}")
            lines.extend(metric._render())
        return "\n".join(lines) + "\n"

    # -- cross-process shipping --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Picklable numeric state of every metric (the delta baseline)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric._state() for metric in metrics}

    def delta_since(self, baseline: Mapping[str, Mapping[str, Any]]) -> Dict[str, Any]:
        """What changed since ``baseline`` — counters and histograms only.

        The result is a picklable/JSON-able payload :meth:`absorb` applies to
        another process's registry.  Gauges are omitted: last-write-wins
        values cannot be merged additively.
        """
        delta: Dict[str, Any] = {}
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, Gauge):
                continue
            before = baseline.get(metric.name, {})
            changed: Dict[str, Any] = {}
            for key, state in metric._state().items():
                prev = before.get(key)
                if isinstance(metric, Histogram):
                    zero = metric._zero() if prev is None else prev
                    diff = {
                        "count": state["count"] - zero["count"],
                        "sum": state["sum"] - zero["sum"],
                        "buckets": [
                            now - then
                            for now, then in zip(state["buckets"], zero["buckets"])
                        ],
                    }
                    if diff["count"] or diff["sum"]:
                        changed[key] = diff
                else:
                    diff = state - (prev or 0.0)
                    if diff:
                        changed[key] = diff
            if changed:
                described = metric._describe()
                described["samples"] = changed
                if isinstance(metric, Histogram):
                    described["buckets"] = list(metric.buckets)
                delta[metric.name] = described
        return delta

    def absorb(self, delta: Mapping[str, Mapping[str, Any]]) -> None:
        """Add another process's :meth:`delta_since` payload to this registry.

        Metrics the delta names are created on demand (matching type, labels
        and buckets), so a server absorbs worker-side instruments it never
        imported itself.
        """
        for name, payload in delta.items():
            labels = tuple(payload.get("labels", ()))
            if payload["type"] == "histogram":
                metric: Any = self.histogram(
                    name,
                    payload.get("help", ""),
                    labels,
                    buckets=payload.get("buckets", DEFAULT_BUCKETS),
                )
                with metric._lock:
                    for key_json, diff in payload["samples"].items():
                        key = tuple(json.loads(key_json))
                        state = metric._samples.get(key)
                        if state is None:
                            state = metric._samples[key] = metric._zero()
                        state["count"] += diff["count"]
                        state["sum"] += diff["sum"]
                        for index, amount in enumerate(diff["buckets"]):
                            if index < len(state["buckets"]):
                                state["buckets"][index] += amount
            elif payload["type"] == "counter":
                metric = self.counter(name, payload.get("help", ""), labels)
                with metric._lock:
                    for key_json, diff in payload["samples"].items():
                        key = tuple(json.loads(key_json))
                        metric._samples[key] = metric._samples.get(key, 0.0) + diff
            # gauges never appear in deltas; ignore unknown types defensively


#: the process-wide registry every repro subsystem publishes into
METRICS = MetricsRegistry()


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[^\s]+)(?:\s+\d+)?$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def parse_prometheus_text(
    text: str,
) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse (and lint) Prometheus text exposition into nested samples.

    Returns ``{series_name: {((label, value), ...): sample_value}}`` —
    histogram ``_bucket``/``_sum``/``_count`` series appear under their full
    series names.  Raises ``ValueError`` on any malformed line, which is what
    makes it usable as the CI scrape-format lint.
    """
    samples: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    typed: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] in ("HELP", "TYPE"):
                if not _NAME_RE.match(parts[2]):
                    raise ValueError(f"line {lineno}: bad metric name in {raw!r}")
                if parts[1] == "TYPE":
                    if len(parts) != 4 or parts[3] not in (
                        "counter", "gauge", "histogram", "summary", "untyped",
                    ):
                        raise ValueError(f"line {lineno}: bad TYPE line {raw!r}")
                    typed[parts[2]] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample line {raw!r}")
        labels_text = match.group("labels") or ""
        labels: List[Tuple[str, str]] = []
        if labels_text:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(labels_text):
                labels.append((pair.group("name"), pair.group("value")))
                consumed = pair.end()
                if consumed < len(labels_text) and labels_text[consumed] == ",":
                    consumed += 1
            if consumed != len(labels_text):
                raise ValueError(f"line {lineno}: malformed labels in {raw!r}")
        value_text = match.group("value")
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: non-numeric sample value {value_text!r}"
            ) from None
        samples.setdefault(match.group("name"), {})[tuple(labels)] = value
    return samples
