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

from typing import Dict, Iterable

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

