"""The tuning *service*: the autotuner served as a long-lived multi-process server.

The paper's empirical loop only pays off when results are shared — the same
(kernel, machine, options) request should be compiled once, ever, across all
clients.  This package wraps :func:`repro.autotune.tune` in exactly that
contract:

* :mod:`repro.service.protocol` — the JSON wire format (:class:`TuneRequest`
  resolved against the kernel registry, :class:`JobRecord` job state);
* :mod:`repro.service.worker` — the picklable per-job entry point run on the
  worker pool;
* :mod:`repro.service.jobs` — :class:`~repro.service.jobs.JobTable`, the
  job lifecycle as a thread-free state machine: job records,
  fingerprint-keyed in-flight deduplication (N concurrent identical
  requests trigger exactly one tuning run), finished-job eviction, the
  service counters and the priority run queue, driven by submit / finish /
  fail / cancel-queued events;
* :mod:`repro.service.server` — :class:`TuningService` (the table's adapter:
  one lock, a ``ProcessPoolExecutor`` or thread pool, one shared
  file-locked :class:`TuningCache`, the history store) and
  :class:`TuningServer` (the JSON-over-HTTP surface: ``/tune``,
  ``/tune/batch``, ``/status/<job>`` with ``?wait=`` long-polling,
  ``/cache/stats``, ``/healthz``, ``/kernels``, ``/fleet``, ``/shutdown``),
  with graceful drain on SIGTERM;
* :mod:`repro.service.client` — blocking (:meth:`TuningClient.tune`) and
  asynchronous (:meth:`TuningClient.submit` → :class:`PendingTuning`) client
  that follows fleet redirects and optionally retries transient failures;
* :mod:`repro.service.cli` — ``python -m repro.service`` (serve / submit /
  status / stats / fleet / shutdown).

Several servers become a *fleet* via :mod:`repro.fleet`: a consistent-hash
ring assigns each tuning fingerprint exactly one home server (``serve
--peers ...``), so the home's in-flight dedup map is authoritative and
exactly-once tuning holds fleet-wide.
"""

from repro.service.client import PendingTuning, ServiceError, TuningClient
from repro.service.protocol import (
    JobRecord,
    ResolvedRequest,
    TuneRequest,
    format_stage_counts,
)
from repro.service.server import ServiceUnavailable, TuningServer, TuningService
from repro.service.worker import execute_request

__all__ = [
    "JobRecord",
    "PendingTuning",
    "ResolvedRequest",
    "ServiceError",
    "ServiceUnavailable",
    "TuneRequest",
    "TuningClient",
    "TuningServer",
    "TuningService",
    "execute_request",
    "format_stage_counts",
]
