"""Stdlib-rendered HTML for the tuning server's ``GET /dashboard``.

One self-contained page, no JavaScript frameworks, no external assets: a
server header, the cache hit-rate, the recent-job table, and one row per
history group with a unicode sparkline of its winner-time trend (newest
right).  Everything user-controlled is pushed through :func:`html.escape`.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.telemetry.history import HistoryRecord, group_records

__all__ = ["render_dashboard", "sparkline"]

_SPARK_BARS = "▁▂▃▄▅▆▇█"

_STYLE = """
body { font-family: ui-monospace, Menlo, Consolas, monospace; margin: 2em;
       background: #101418; color: #d8dee4; }
h1, h2 { font-weight: 600; color: #e8eef4; }
table { border-collapse: collapse; margin: 0.8em 0 1.6em; }
th, td { border: 1px solid #2a3038; padding: 0.3em 0.8em; text-align: left; }
th { background: #1a2027; }
.spark { font-size: 1.1em; letter-spacing: 0.05em; color: #7fd0ff; }
.ok { color: #8fe388; } .error { color: #ff8f8f; } .muted { color: #8a939e; }
"""


def sparkline(values: Sequence[float]) -> str:
    """A unicode bar per value, scaled to the sample's min..max range."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_BARS[0] * len(values)
    scale = (len(_SPARK_BARS) - 1) / (hi - lo)
    return "".join(_SPARK_BARS[int(round((v - lo) * scale))] for v in values)


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> List[str]:
    """Table markup from pre-rendered (already escaped where needed) cells."""
    out = ["<table>", "<tr>" + "".join(f"<th>{h}</th>" for h in headers) + "</tr>"]
    for row in rows:
        out.append("<tr>" + "".join(f"<td>{cell}</td>" for cell in row) + "</tr>")
    out.append("</table>")
    return out


def _fmt_ms(value: Optional[float]) -> str:
    return "—" if value is None else f"{value:.3f}"


def render_dashboard(
    health: Mapping[str, Any],
    stats: Mapping[str, Any],
    jobs: Sequence[Mapping[str, Any]],
    records: Sequence[HistoryRecord],
    max_jobs: int = 50,
    trend_points: int = 24,
) -> str:
    """The full ``/dashboard`` page as an HTML string."""
    server = stats.get("server", {})
    hits = int(server.get("cache_hits", 0))
    submitted = int(server.get("submitted", 0))
    hit_rate = f"{100.0 * hits / submitted:.1f}%" if submitted else "n/a"
    status = str(health.get("status", "unknown"))
    status_class = "ok" if status == "ok" else "error"

    lines = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>repro tuning fleet</title>",
        f"<style>{_STYLE}</style>",
        "<meta http-equiv='refresh' content='5'>",
        "</head><body>",
        "<h1>repro tuning fleet</h1>",
        "<p>"
        f"status <span class='{status_class}'>{html.escape(status)}</span>"
        f" · executor {html.escape(str(health.get('executor', '?')))}"
        f"×{html.escape(str(health.get('workers', '?')))}"
        f" · cache {html.escape(str(health.get('cache_backend', '?')))}"
        f" · hit rate {hit_rate}"
        f" · {len(records)} history records"
        f" · rendered {time.strftime('%H:%M:%S')}"
        "</p>",
    ]

    fleet = health.get("fleet")
    if fleet:
        lines.append("<h2>Fleet</h2>")
        node = str(fleet.get("node", "?"))
        members = [str(m) for m in fleet.get("members", ())]
        member_cells = [
            f"<span class='ok'>{html.escape(m)} (this server)</span>"
            if m == node
            else html.escape(m)
            for m in members
        ]
        queue = stats.get("queue") or {}
        depth_text = "  ".join(
            f"{html.escape(str(label))}={int(depth)}"
            for label, depth in queue.items()
        )
        lines.append(
            "<p>"
            f"mode {html.escape(str(fleet.get('mode', '?')))}"
            f" · {len(members)} member(s)"
            f" · queued {depth_text or 'none'}"
            "</p>"
        )
        lines += _table(["ring member"], [[cell] for cell in member_cells])

    lines.append("<h2>Winner trends</h2>")
    if records:
        trend_rows = []
        for key, group in sorted(group_records(records).items()):
            ordered = sorted(group, key=lambda r: r.ts)
            times = [r.winner_ms for r in ordered][-trend_points:]
            rhos = [r.rho for r in ordered if r.rho is not None]
            trend_rows.append(
                [
                    html.escape(key[0]),
                    html.escape(key[1] or "—"),
                    html.escape(key[2]),
                    html.escape(key[3]),
                    str(len(ordered)),
                    _fmt_ms(min(times)),
                    _fmt_ms(times[-1]),
                    f"{sum(rhos) / len(rhos):.2f}" if rhos else "—",
                    f"<span class='spark'>{sparkline(times)}</span>",
                ]
            )
        lines += _table(
            ["kernel", "variant", "spec", "backend", "runs", "best ms", "last ms",
             "ρ̄", "trend (old → new)"],
            trend_rows,
        )
    else:
        lines.append("<p class='muted'>no history yet — submit a tuning request</p>")

    lines.append("<h2>Recent jobs</h2>")
    if jobs:
        job_rows = []
        for job in list(jobs)[-max_jobs:][::-1]:
            status = str(job.get("status", "?"))
            cls = {"done": "ok", "error": "error"}.get(status, "muted")
            duration = job.get("duration_s")
            job_rows.append(
                [
                    html.escape(str(job.get("job", "?"))),
                    html.escape(str(job.get("request", {}).get("kernel", "?"))),
                    f"<span class='{cls}'>{html.escape(status)}</span>",
                    "yes" if job.get("from_cache") else "no",
                    "—" if duration is None else f"{duration:.3f}",
                    html.escape(str(job.get("error") or "")),
                ]
            )
        lines += _table(
            ["job", "kernel", "status", "cached", "duration s", "error"], job_rows
        )
    else:
        lines.append("<p class='muted'>no jobs yet</p>")

    lines.append("</body></html>")
    return "\n".join(lines)
