"""Persistent compilation/tuning cache.

Tuning the same (program, machine, params, options, strategy, space) twice
must cost nothing the second time: the session layer fingerprints the request,
and this cache maps fingerprints to serialised tuning reports.  The
fingerprint hashes the *rendered* program text (the C-like printer output is
deterministic and captures loop structure, domains and accesses), the machine
spec fields, the bound parameters, the base mapping options and the
strategy/space signatures — anything that can change the answer changes the
key.

:class:`TuningCache` itself is a thin facade: hit/miss accounting and thread
safety live here, while persistence is delegated to a
:class:`repro.autotune.store.CacheStore` — in memory for ``path=None``,
otherwise the append log at the location the ``path`` spec names (a plain
``.json`` path, ``dir:DIR`` or ``log:FILE``; see :mod:`repro.autotune.store`,
which also imports caches written in the older formats).  Every put is one
locked append, so a crash mid-save never corrupts a warm cache.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.options import MappingOptions
from repro.ir.printer import program_to_c
from repro.ir.program import Program
from repro.machine.spec import GPUSpec
from repro.autotune.store import CACHE_VERSION, CacheStore, open_store
from repro.telemetry.metrics import METRICS

# Pre-registered (unlabelled counters always render, even at 0) so a fresh
# server's /metrics already exposes the cache series scrapers look for.
CACHE_HITS_TOTAL = METRICS.counter(
    "repro_cache_hits_total", "tuning-cache lookup hits"
)
CACHE_MISSES_TOTAL = METRICS.counter(
    "repro_cache_misses_total", "tuning-cache lookup misses"
)
CACHE_PUTS_TOTAL = METRICS.counter(
    "repro_cache_puts_total", "tuning reports persisted"
)

__all__ = [
    "CACHE_VERSION",
    "TuningCache",
    "canonical_json",
    "fingerprint",
]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON rendering (sorted keys, no whitespace drift)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def fingerprint(
    program: Program,
    spec: GPUSpec,
    param_values: Optional[Mapping[str, int]],
    options: MappingOptions,
    strategy_signature: Mapping[str, Any],
    space_signature: Mapping[str, Any],
    check_signature: Optional[Mapping[str, Any]] = None,
    backend_signature: Optional[Mapping[str, Any]] = None,
) -> str:
    """Stable key of one tuning request.

    ``check_signature`` carries the correctness-check request (enabled flag,
    spot-check program, input seed) — a report produced *without* spot-checks
    must not satisfy a request *with* them.  ``backend_signature`` carries
    the evaluation backend's identity (scheme plus its knobs) — model-priced
    and measured results must never collide under one key.  The default
    model backend contributes **nothing** to the payload, keeping its
    fingerprints byte-identical to the pre-backend era so existing warm
    caches stay warm.
    """
    binding = program.bound_params(param_values)
    payload = {
        "version": CACHE_VERSION,
        "program": program_to_c(program),
        "params": {k: binding[k] for k in sorted(binding)},
        "spec": asdict(spec),
        "options": options.to_dict(),
        "strategy": dict(strategy_signature),
        "space": dict(space_signature),
        "check": dict(check_signature or {}),
    }
    backend_payload = dict(backend_signature or {})
    if backend_payload and backend_payload != {"scheme": "model"}:
        payload["backend"] = backend_payload
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


class TuningCache:
    """Fingerprint → report-dict store over a :class:`CacheStore`.

    ``path=None`` keeps the cache in memory only (useful for tests and
    one-shot sessions); any other spec — a ``.json`` path, ``dir:DIR``,
    ``log:FILE``, or an already-open :class:`CacheStore` — persists every
    :meth:`put` immediately, and a fresh instance pointed at the same
    location starts warm.

    Thread-safe: an internal lock serialises the threads of one process
    sharing an instance (the tuning service's thread-executor mode), while
    the log's ``fcntl`` file locks serialise *processes* sharing the
    backing files.  An entry another process appended is visible here
    without a re-open: a lookup that misses the in-memory index replays the
    log's tail first.
    """

    def __init__(self, path: Union[CacheStore, str, Path, None] = None) -> None:
        self.store = open_store(path)
        self.hits = 0
        self.misses = 0
        self._mutex = threading.Lock()

    # -- identity ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """The persistence backend's short name (``memory`` or ``log``)."""
        return self.store.backend

    @property
    def path(self) -> Optional[Path]:
        """Filesystem anchor of the backend (file or directory), if any."""
        return self.store.path

    @property
    def uri(self) -> Optional[str]:
        """Spec string that re-opens this cache's store (``None`` = memory).

        This is what travels to worker processes: ``TuningCache(cache.uri)``
        reconstructs the same backend, whatever kind it is.
        """
        return self.store.uri

    # -- mapping interface ---------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored report for ``key``, counting the hit or miss."""
        with self._mutex:
            entry = self.store.get(key)
            if entry is None:
                self.misses += 1
                CACHE_MISSES_TOTAL.inc()
                return None
            self.hits += 1
            CACHE_HITS_TOTAL.inc()
            return entry

    def peek(self, key: str) -> Optional[Dict[str, Any]]:
        """:meth:`get` without touching the hit/miss counters.

        For probes that are not a request's authoritative lookup (monitoring,
        tests) so hit-rate statistics only count real lookups.
        """
        with self._mutex:
            return self.store.get(key)

    def put(self, key: str, value: Mapping[str, Any]) -> None:
        """Store a report and (when backed by a store) persist durably."""
        with self._mutex:
            self.store.put(key, dict(value))
        CACHE_PUTS_TOTAL.inc()

    def __contains__(self, key: str) -> bool:
        with self._mutex:
            return key in self.store

    def __len__(self) -> int:
        with self._mutex:
            return len(self.store)

    def clear(self) -> None:
        """Drop every entry (and the backing store's contents)."""
        with self._mutex:
            self.store.clear()

    def prune(self, max_entries: int) -> int:
        """Drop the oldest entries beyond ``max_entries``; returns the count dropped.

        "Oldest" is insertion order.  Pruned entries stay pruned under
        concurrent writers: a writer only ever appends its own puts, never a
        copy of what it loaded.
        """
        if max_entries < 0:
            raise ValueError(f"max_entries cannot be negative, got {max_entries}")
        with self._mutex:
            return self.store.prune(max_entries)

    def scan(self):
        """Every persisted (key, value) pair, oldest insertion first."""
        with self._mutex:
            return list(self.store.scan())

    def measurement_kind_counts(self) -> Dict[str, int]:
        """Entry counts per best-result ``measurement.kind`` provenance.

        Entries written before measurement provenance existed count as
        ``"model"`` (the only way a time could be obtained then).  An O(n)
        scan — meant for the ``cache-stats`` CLI and monitoring, not hot
        paths.
        """
        counts: Dict[str, int] = {}
        for _key, entry in self.scan():
            best = entry.get("best") or {}
            measurement = best.get("measurement") or {}
            kind = measurement.get("kind", "model")
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def stats(self) -> Dict[str, Any]:
        """Backend identity and gauges, plus this instance's hit/miss counters.

        The log replays its tail first, so ``entries`` counts every report
        this instance can serve — even ones a worker persisted through its
        own store instance moments ago.
        """
        with self._mutex:
            # under the mutex: AppendLogStore.stats() resyncs its index, and
            # every other store access in this class is mutex-serialised too
            base = self.store.stats()
            base["hits"] = self.hits
            base["misses"] = self.misses
        return base
