"""Persistent tuning history: one record per completed tuning request.

Metrics (:mod:`repro.telemetry.metrics`) answer "what is the fleet doing
*now*"; this module answers "what has it done *over time*".  Every completed
request — tuned or answered from cache, run inline by :func:`repro.autotune.
autotune` or shipped back from a service worker — appends one
:class:`HistoryRecord` to a :class:`HistoryStore`: an append-only JSONL file
written and read through :mod:`repro.utils.durable`, like the autotune
cache's append-log backend (exclusive sidecar lock, tail-newline termination
before append, corrupt lines skipped and counted, never fatal).

On top of the raw records sit the analysis helpers the ``python -m
repro.autotune history`` subcommands and the server's ``/dashboard`` render:

* :func:`rollup` — per-(kernel, variant, spec, backend) percentile summaries
  (``variant`` holds family parameters such as a distributed kernel's grid
  target, so kernel families never collapse into one group);
* :func:`compare_windows` — the last-N window of each group against all of
  its prior records;
* :func:`check_history` — the **regression sentinel**: flags any group whose
  current-window best winner time (or mean evaluation count) regressed
  beyond a threshold against the best prior window.  CI gates on its
  non-zero exit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.telemetry.metrics import METRICS
from repro.utils.durable import append_jsonl, file_lock, scan_jsonl

__all__ = [
    "HistoryRecord",
    "HistoryStore",
    "check_history",
    "compare_windows",
    "group_records",
    "open_history",
    "parse_threshold",
    "percentile",
    "rollup",
    "spearman_rho",
    "split_window",
]

HISTORY_RECORDS_TOTAL = METRICS.counter(
    "repro_history_records_total",
    "Tuning-history records appended, by producer.",
    labels=("source",),
)


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation (average ranks on ties).

    A degenerate (constant) sample has no ranking to correlate; we report 1.0
    when the inputs agree trivially and 0.0 otherwise.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length samples of at least 2 points")
    ranks = []
    for sample in (np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
        _, inverse, counts = np.unique(sample, return_inverse=True, return_counts=True)
        ranks.append((np.cumsum(counts) - (counts - 1) / 2.0)[inverse])  # ties share a mean rank
    x, y = (rank - rank.mean() for rank in ranks)
    if not x.any() or not y.any():
        return 1.0 if list(xs) == list(ys) else 0.0
    return float(np.clip((x @ y) / math.sqrt((x @ x) * (y @ y)), -1.0, 1.0))


@dataclass
class HistoryRecord:
    """Everything worth remembering about one completed tuning request."""

    kernel: str
    fingerprint: str
    spec_name: str = ""
    strategy: str = ""
    #: evaluation-backend URI the request ran under
    backend: str = "model:"
    cache_hit: bool = False
    winner_ms: float = 0.0
    #: provenance of the winner's time (``model`` / ``measured-py`` / ...)
    winner_kind: str = "model"
    baseline_ms: Optional[float] = None
    #: candidate evaluations this request performed (0 for a cache hit)
    evaluations: int = 0
    #: per-compiler-stage wall seconds accumulated by this request
    stage_seconds: Dict[str, float] = field(default_factory=dict)
    #: model-vs-measured Spearman rho over the re-measured survivors
    #: (present only when a hybrid/measured backend produced paired times)
    rho: Optional[float] = None
    #: end-to-end request wall time in seconds
    wall_s: float = 0.0
    #: id of the span trace collected for this request (matches the
    #: ``trace_id`` attribute on the request's root span), if traced
    trace_id: Optional[str] = None
    seed: int = 0
    #: producer: ``autotune`` | ``worker`` | ``server`` | ``bench``
    source: str = "autotune"
    #: service job id, when the request ran through the tuning server
    job_id: Optional[str] = None
    #: family parameters that are part of the *kernel identity* (e.g. a
    #: distributed kernel's grid target, ``"16x16:WSE-2 subgrid"``); empty
    #: for single-device kernels.  Part of :meth:`group_key`, so kernel
    #: families with different family parameters never collapse into one
    #: regression group.
    variant: str = ""
    ts: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        # ``ts`` leads every line; the rest follows in field declaration order
        payload = {"ts": self.ts, **vars(self)}
        payload["stage_seconds"] = dict(self.stage_seconds)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "HistoryRecord":
        return cls(
            kernel=str(payload["kernel"]),
            fingerprint=str(payload.get("fingerprint", "")),
            spec_name=str(payload.get("spec_name", "")),
            strategy=str(payload.get("strategy", "")),
            backend=str(payload.get("backend", "model:")),
            cache_hit=bool(payload.get("cache_hit", False)),
            winner_ms=float(payload.get("winner_ms", 0.0)),
            winner_kind=str(payload.get("winner_kind", "model")),
            baseline_ms=payload.get("baseline_ms"),
            evaluations=int(payload.get("evaluations", 0)),
            stage_seconds=dict(payload.get("stage_seconds", {})),
            rho=payload.get("rho"),
            wall_s=float(payload.get("wall_s", 0.0)),
            trace_id=payload.get("trace_id"),
            seed=int(payload.get("seed", 0)),
            source=str(payload.get("source", "autotune")),
            job_id=payload.get("job_id"),
            variant=str(payload.get("variant", "")),
            ts=float(payload.get("ts", 0.0)),
        )

    @classmethod
    def from_report(
        cls, report: Mapping[str, Any], fingerprint: str, grid: Any = None, **facts: Any
    ) -> "HistoryRecord":
        """The record of one request that was answered with ``report``.

        ``report`` is the stored (``TuningReport.to_dict``) form, so a server
        answering from its cache and the library tuning from scratch read
        the same fields the same way.  ``grid`` is the request's
        distributed-kernel grid target (``grid_p``, ``name``), if any — this
        is the one place ``variant`` is derived from it.  ``facts`` are the
        fields only the request knows (``cache_hit``, ``evaluations``,
        ``wall_s``, ``trace_id``, ``source``, ``job_id``, ...).
        """
        best = report.get("best") or {}
        return cls(
            kernel=str(report.get("kernel_name", "")),
            fingerprint=fingerprint,
            spec_name=str(report.get("spec_name", "")),
            strategy=str(report.get("strategy", "")),
            backend=str(report.get("backend", "model:")),
            winner_ms=float(best.get("time_ms", 0.0)),
            winner_kind=(best.get("measurement") or {}).get("kind", "model"),
            baseline_ms=(report.get("baseline") or {}).get("time_ms"),
            seed=int(report.get("seed", 0)),
            variant=f"{grid.grid_p}x{grid.grid_p}:{grid.name}" if grid is not None else "",
            **facts,
        )

    def group_key(self) -> Tuple[str, str, str, str]:
        """The rollup/windowing identity: kernel, variant, machine, backend.

        Deliberately *not* the full fingerprint: a tuning-space or strategy
        change still tunes the same problem, and the sentinel's whole job is
        to notice when such a change made the answer worse.  ``variant``
        *is* included: family parameters like a distributed kernel's grid
        target change what problem is being tuned, so two variants must
        never share one regression baseline.
        """
        return (self.kernel, self.variant, self.spec_name, self.backend)


class HistoryStore:
    """Append-only JSONL history (``path=None`` keeps records in memory).

    Durability comes from :mod:`repro.utils.durable`: every append happens
    under an exclusive sidecar lock and terminates a crash-truncated tail
    before writing; reads skip (and count) corrupt lines, a torn final line
    included, rather than treating them as fatal.
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._memory: List[HistoryRecord] = []
        self._corrupt_lines = 0

    @property
    def uri(self) -> Optional[str]:
        """Spec string that re-opens this store (``None`` = memory only)."""
        return None if self.path is None else str(self.path)

    def _lock_path(self) -> Path:
        assert self.path is not None
        return self.path.with_name(self.path.name + ".lock")

    def append(self, record: HistoryRecord) -> None:
        if self.path is None:
            self._memory.append(record)
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with file_lock(self._lock_path()):
                append_jsonl(self.path, [record.to_dict()])
        HISTORY_RECORDS_TOTAL.inc(source=record.source)

    def records(self) -> List[HistoryRecord]:
        """Every parseable record, oldest first (corrupt lines skipped)."""
        if self.path is None:
            return list(self._memory)
        try:
            raw = self.path.read_bytes()
        except OSError:
            return []
        # a whole-file read: the last line counts even if its writer crashed
        payloads, self._corrupt_lines, _ = scan_jsonl(raw + b"\n")
        records: List[HistoryRecord] = []
        for payload in payloads:
            try:
                records.append(HistoryRecord.from_dict(payload))
            except (ValueError, KeyError, TypeError):
                self._corrupt_lines += 1  # an object, but not a history record
        return records

    def __len__(self) -> int:
        return len(self.records())

    def stats(self) -> Dict[str, Any]:
        records = self.records()
        try:
            size = self.path.stat().st_size if self.path is not None else 0
        except OSError:
            size = 0
        return {
            "path": self.uri,
            "records": len(records),
            "bytes": size,
            "corrupt_lines": self._corrupt_lines,
            "groups": len(group_records(records)),
        }


def open_history(
    store: Union[HistoryStore, str, Path, None]
) -> Optional[HistoryStore]:
    """Coerce a history spec (store instance, path, or None) to a store."""
    if store is None or isinstance(store, HistoryStore):
        return store
    return HistoryStore(store)


# -- analysis ----------------------------------------------------------------------
def group_records(
    records: Sequence[HistoryRecord],
) -> Dict[Tuple[str, str, str, str], List[HistoryRecord]]:
    """Records bucketed by :meth:`HistoryRecord.group_key`, order preserved."""
    groups: Dict[Tuple[str, str, str, str], List[HistoryRecord]] = {}
    for record in records:
        groups.setdefault(record.group_key(), []).append(record)
    return groups


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def rollup(records: Sequence[HistoryRecord]) -> List[Dict[str, Any]]:
    """Per-group percentile summary rows, sorted by group key."""
    rows: List[Dict[str, Any]] = []
    for key, group in sorted(group_records(records).items()):
        times = [r.winner_ms for r in group]
        tuned = [r for r in group if not r.cache_hit]
        rhos = [r.rho for r in group if r.rho is not None]
        rows.append(
            {
                "kernel": key[0],
                "variant": key[1],
                "spec": key[2],
                "backend": key[3],
                "requests": len(group),
                "cache_hits": sum(1 for r in group if r.cache_hit),
                "best_ms": min(times),
                "p50_ms": percentile(times, 50),
                "p90_ms": percentile(times, 90),
                "mean_evaluations": (
                    sum(r.evaluations for r in tuned) / len(tuned) if tuned else 0.0
                ),
                "mean_rho": sum(rhos) / len(rhos) if rhos else None,
                "mean_wall_s": sum(r.wall_s for r in group) / len(group),
            }
        )
    return rows


def split_window(
    group: Sequence[HistoryRecord], window: int
) -> Tuple[List[HistoryRecord], List[HistoryRecord]]:
    """``(current, prior)``: the last ``window`` records vs everything before."""
    if window < 1:
        raise ValueError(f"window must be positive, got {window}")
    ordered = sorted(group, key=lambda r: r.ts)
    return ordered[-window:], ordered[:-window]


def compare_windows(
    records: Sequence[HistoryRecord], window: int = 1
) -> List[Dict[str, Any]]:
    """Per-group delta of the current window against all prior records.

    ``delta_pct`` is the current window's best winner time relative to the
    best prior time (positive = slower = regression); groups without prior
    records report ``None`` deltas (nothing to compare against yet).
    """
    rows: List[Dict[str, Any]] = []
    for key, group in sorted(group_records(records).items()):
        current, prior = split_window(group, window)
        current_best = min(r.winner_ms for r in current)
        current_tuned = [r for r in current if not r.cache_hit]
        prior_tuned = [r for r in prior if not r.cache_hit]
        row: Dict[str, Any] = {
            "kernel": key[0],
            "variant": key[1],
            "spec": key[2],
            "backend": key[3],
            "window": len(current),
            "prior": len(prior),
            "current_best_ms": current_best,
            "prior_best_ms": None,
            "delta_pct": None,
            "current_mean_evals": (
                sum(r.evaluations for r in current_tuned) / len(current_tuned)
                if current_tuned
                else None
            ),
            "prior_mean_evals": (
                sum(r.evaluations for r in prior_tuned) / len(prior_tuned)
                if prior_tuned
                else None
            ),
        }
        if prior:
            prior_best = min(r.winner_ms for r in prior)
            row["prior_best_ms"] = prior_best
            if prior_best > 0:
                row["delta_pct"] = 100.0 * (current_best - prior_best) / prior_best
        rows.append(row)
    return rows


def parse_threshold(text: Union[str, float]) -> float:
    """A regression threshold as a fraction: ``"5%"`` and ``0.05`` both work."""
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        value = float(text)
    else:
        stripped = str(text).strip()
        try:
            if stripped.endswith("%"):
                value = float(stripped[:-1]) / 100.0
            else:
                value = float(stripped)
        except ValueError:
            raise ValueError(
                f"threshold must be a fraction or percentage, got {text!r}"
            ) from None
    if value < 0:
        raise ValueError(f"threshold cannot be negative, got {text!r}")
    return value


def check_history(
    records: Sequence[HistoryRecord],
    window: int = 1,
    threshold: Union[str, float] = "10%",
) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """The regression sentinel: ``(failures, rows)`` over windowed history.

    A group fails when its current-window best winner time exceeds the best
    prior time by more than ``threshold``, or its current mean evaluation
    count exceeds the prior mean by the same margin (the search suddenly
    needing far more candidates for the same answer is a perf regression
    too).  Groups with no prior window are informational only.
    """
    limit = parse_threshold(threshold)
    rows = compare_windows(records, window=window)
    failures: List[Dict[str, Any]] = []
    for row in rows:
        reasons = []
        if row["delta_pct"] is not None and row["delta_pct"] > 100.0 * limit:
            reasons.append(
                f"winner time regressed {row['delta_pct']:.1f}% "
                f"({row['prior_best_ms']:.3f} -> {row['current_best_ms']:.3f} ms)"
            )
        current_evals, prior_evals = row["current_mean_evals"], row["prior_mean_evals"]
        if (
            current_evals is not None
            and prior_evals is not None
            and prior_evals > 0
            and current_evals > prior_evals * (1.0 + limit)
        ):
            growth = 100.0 * (current_evals - prior_evals) / prior_evals
            reasons.append(
                f"evaluation count grew {growth:.1f}% "
                f"({prior_evals:.1f} -> {current_evals:.1f})"
            )
        if reasons:
            failures.append({**row, "reasons": reasons})
    return failures, rows
