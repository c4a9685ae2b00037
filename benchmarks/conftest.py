"""Shared helpers for the figure-reproduction benchmarks.

Each ``bench_fig*`` module regenerates one figure of the paper's evaluation
(Section 6): it sweeps the same configurations, prints the series the figure
plots (modelled milliseconds instead of measured milliseconds — the
``repro.machine`` models stand in for the paper's testbed, see the README
introduction) and asserts the qualitative shape the paper
reports.  ``pytest-benchmark`` times the pricing function itself, which keeps
the harness honest about its own cost while the printed table carries the
reproduced result.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: single source of truth for every randomised benchmark input (problem-size
#: generation, array contents), so benchmark runs are reproducible
DEFAULT_SEED = 2008


def print_series(title: str, rows: Iterable[Dict[str, object]]) -> None:
    """Print one figure's data as an aligned table."""
    rows = list(rows)
    if not rows:
        return
    headers = list(rows[0].keys())
    widths = {h: max(len(str(h)), max(len(_fmt(r[h])) for r in rows)) for h in headers}
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(widths[h]) for h in headers))
    for row in rows:
        print("  ".join(_fmt(row[h]).ljust(widths[h]) for h in headers))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def telemetry_counters() -> Dict[str, float]:
    """Flatten the process-wide metrics registry for a benchmark JSON payload.

    Labelled samples render in Prometheus selector syntax
    (``repro_stage_runs_total{stage="tiling"}``) so the JSON stays greppable.
    """
    from repro.telemetry import METRICS, parse_prometheus_text

    flat: Dict[str, float] = {}
    for name, samples in parse_prometheus_text(METRICS.render()).items():
        for labels, value in samples.items():
            rendered = ",".join(f'{key}="{val}"' for key, val in labels)
            flat[f"{name}{{{rendered}}}" if rendered else name] = value
    return flat


def write_bench_json(path: str, section: str, payload: Dict[str, object]) -> None:
    """Merge one benchmark's results (plus telemetry counters) into ``path``.

    Each harness writes its own section, so several benches can share one
    ``BENCH_telemetry.json`` artifact in CI.
    """
    import json
    import os

    document: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except ValueError:
                document = {}
    document[section] = {"results": payload, "telemetry": telemetry_counters()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_bench_history(path: str, section: str, history_path: str) -> None:
    """Summarise a tuning-history store into ``path`` (``BENCH_history.json``).

    Reads the JSONL history the bench appended to and writes, per
    (kernel, variant, spec, backend) group, the winner-time trend (oldest → newest)
    plus the percentile rollup — the repo's machine-readable perf
    trajectory.  Same one-section-per-bench merge discipline as
    :func:`write_bench_json`.
    """
    import json
    import os

    from repro.telemetry.history import HistoryStore, group_records, rollup

    store = HistoryStore(history_path)
    records = store.records()
    trends: Dict[str, object] = {}
    for key, group in sorted(group_records(records).items()):
        ordered = sorted(group, key=lambda r: r.ts)
        label = "|".join(part for part in key if part)
        trends[label] = {
            "kernel": key[0],
            "variant": key[1],
            "spec": key[2],
            "backend": key[3],
            "winner_ms": [round(r.winner_ms, 6) for r in ordered],
            "evaluations": [r.evaluations for r in ordered],
            "rho": [r.rho for r in ordered],
            "best_ms": round(min(r.winner_ms for r in ordered), 6),
        }

    document: Dict[str, object] = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except ValueError:
                document = {}
    document[section] = {
        "records": len(records),
        "trends": trends,
        "rollup": rollup(records),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
