"""Observability for the tuning stack: metrics, spans, events, history.

Four layers, all process-wide and zero-configuration:

* :mod:`repro.telemetry.metrics` — the :data:`METRICS` registry of counters,
  gauges and bucketed histograms (with labels) that every subsystem
  publishes into, rendered in Prometheus text exposition format by the
  tuning server's ``GET /metrics`` endpoint;
* :mod:`repro.telemetry.trace` — opt-in span trees over the request
  lifecycle (request → search → candidate → pass/measure), exportable as
  JSONL and Chrome ``trace_event`` JSON and rendered by
  ``python -m repro.autotune trace``;
* :mod:`repro.telemetry.events` — the structured lifecycle event log
  (``job.submit``, ``cache.put``, ``job.error``, ...) the service narrates
  through, human- or JSON-rendered (``serve --log-json``);
* :mod:`repro.telemetry.history` — the persistent per-request tuning
  history (one :class:`HistoryRecord` per completed request) behind the
  ``python -m repro.autotune history`` regression sentinel and the
  server's ``GET /dashboard``.

Metric reference (name → labels → meaning):

==================================  ==================  =============================================
``repro_compiles_total``            —                   end-to-end pipeline compiles
``repro_stage_runs_total``          ``stage``           compiler pass executions
``repro_pass_seconds``              ``stage``           per-pass wall time (histogram)
``repro_cache_hits_total``          —                   tuning-cache lookup hits
``repro_cache_misses_total``        —                   tuning-cache lookup misses
``repro_cache_puts_total``          —                   reports persisted by this process
``repro_measurements_total``        ``kind``            candidate costings per measurement kind
``repro_tuning_requests_total``     ``source``          ``autotune()`` calls (``cache`` | ``tuned``)
``repro_request_seconds``           —                   end-to-end ``autotune()`` wall time
``repro_http_requests_total``       ``method``,         tuning-server HTTP requests
                                    ``endpoint``
``repro_jobs_total``                ``outcome``         service submissions by outcome
``repro_job_seconds``               —                   per-job wall time (monotonic clock)
``repro_history_records_total``     ``source``          history records appended, by producer
==================================  ==================  =============================================
"""

from repro.telemetry.metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    METRICS,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.telemetry.trace import (
    Span,
    TraceCollector,
    active_trace,
    annotate,
    capture_trace,
    coerce_spans,
    current_span,
    hotspots,
    iter_spans,
    load_trace,
    record_span,
    render_hotspots,
    render_tree,
    save_trace,
    span,
    start_trace,
    stop_trace,
    summarize_spans,
    to_chrome_trace,
    to_jsonl,
    trace_pass_hook,
)
from repro.telemetry.events import (
    EVENTS,
    EventLog,
    configure as configure_events,
    emit,
    events_pass_hook,
)
from repro.telemetry.history import (
    HistoryRecord,
    HistoryStore,
    check_history,
    compare_windows,
    open_history,
    parse_threshold,
    rollup,
    spearman_rho,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENTS",
    "EventLog",
    "Gauge",
    "Histogram",
    "HistoryRecord",
    "HistoryStore",
    "METRICS",
    "MetricsRegistry",
    "Span",
    "TraceCollector",
    "active_trace",
    "annotate",
    "capture_trace",
    "check_history",
    "coerce_spans",
    "compare_windows",
    "configure_events",
    "current_span",
    "emit",
    "events_pass_hook",
    "hotspots",
    "iter_spans",
    "load_trace",
    "open_history",
    "parse_prometheus_text",
    "parse_threshold",
    "record_span",
    "rollup",
    "spearman_rho",
    "render_hotspots",
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
