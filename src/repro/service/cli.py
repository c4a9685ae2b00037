"""Command-line entry point: ``python -m repro.service``.

Run a tuning server (drains gracefully on SIGTERM/SIGINT)::

    python -m repro.service serve --port 8037 --workers 4 \\
        --cache /tmp/tuning-cache.json

Submit a request (``--wait`` blocks and prints the report) and shut down::

    python -m repro.service submit matmul --size m=256 n=256 k=256 \\
        --url http://127.0.0.1:8037 --wait
    python -m repro.service stats --url http://127.0.0.1:8037
    python -m repro.service shutdown --url http://127.0.0.1:8037

Watch a running fleet (curses-free; polls /healthz + /cache/stats +
/metrics)::

    python -m repro.service top --url http://127.0.0.1:8037 --interval 2

Run several servers as a fleet (a consistent-hash ring homes every tuning
fingerprint on exactly one member) and inspect the ring::

    python -m repro.service serve --port 8037 \\
        --peers http://127.0.0.1:8038
    python -m repro.service fleet --url http://127.0.0.1:8037
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from typing import Dict, Optional, Sequence

from repro.telemetry import iter_spans, parse_prometheus_text, save_trace
from repro.telemetry.events import LEVELS, configure as configure_events, emit
from repro.autotune.request import add_request_arguments, request_from_args
from repro.autotune.session import TuningReport
from repro.service.client import ServiceError, TuningClient
from repro.service.protocol import (
    PRIORITY_CLASSES,
    TuneRequest,
    format_stage_counts,
    ordered_cache_stats,
)
from repro.service.server import EXECUTORS, TuningServer

DEFAULT_URL = "http://127.0.0.1:8037"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Long-lived tuning server with a shared cache and "
        "in-flight request deduplication.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a tuning server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8037, help="0 picks a free port")
    serve.add_argument(
        "--workers", type=int, default=2, help="tuning worker pool size"
    )
    serve.add_argument(
        "--executor",
        default="process",
        choices=EXECUTORS,
        help="worker kind (process escapes the GIL; default: process)",
    )
    serve.add_argument(
        "--cache",
        default=".repro-service-cache.json",
        metavar="STORE",
        help="shared persistent cache: the append log at PATH.json, "
        "dir:DIR (DIR/cache.log) or log:FILE "
        "(default: .repro-service-cache.json)",
    )
    serve.add_argument(
        "--history",
        default=None,
        metavar="STORE",
        help="persistent tuning-history JSONL file (one HistoryRecord per "
        "completed request; default: in-memory only — /dashboard still "
        "works, but history is lost on restart)",
    )
    serve.add_argument(
        "--peers",
        nargs="*",
        default=[],
        metavar="URL",
        help="other fleet members' base URLs; with at least one peer the "
        "server joins a consistent-hash ring and 307-redirects each tuning "
        "fingerprint to its home member (clients must reach every member)",
    )
    serve.add_argument(
        "--advertise-url",
        default=None,
        metavar="URL",
        help="the base URL peers and clients should use to reach this server "
        "(default: http://HOST:PORT from --host/--port)",
    )
    serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit lifecycle events as one JSON object per line instead of "
        "human-readable text",
    )
    serve.add_argument(
        "--log-level",
        default="info",
        choices=sorted(LEVELS, key=LEVELS.get),
        help="event-log threshold (debug narrates every compiler stage and "
        "measurement; default: info)",
    )

    submit = commands.add_parser("submit", help="submit one tuning request")
    add_request_arguments(submit)
    submit.add_argument("--url", default=DEFAULT_URL)
    submit.add_argument(
        "--priority",
        default="normal",
        choices=PRIORITY_CLASSES,
        help="queue class behind the worker pool: high jumps the queue, "
        "low yields to everything else (default: normal)",
    )
    submit.add_argument(
        "--eval-workers", type=int, default=1,
        help="parallel evaluation fan-out inside the worker",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until the report is ready"
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0, help="--wait timeout in seconds"
    )
    submit.add_argument(
        "--trace", metavar="FILE", default=None,
        help="collect a span trace of the tuning run and save it to FILE "
        "(implies --wait; inspect with 'python -m repro.autotune trace FILE')",
    )

    status = commands.add_parser("status", help="query one job")
    status.add_argument("job", help="job id returned by submit")
    status.add_argument("--url", default=DEFAULT_URL)

    stats = commands.add_parser("stats", help="cache and server statistics")
    stats.add_argument("--url", default=DEFAULT_URL)

    shutdown = commands.add_parser("shutdown", help="drain and stop a server")
    shutdown.add_argument("--url", default=DEFAULT_URL)

    fleet = commands.add_parser(
        "fleet", help="show a server's ring membership and queue depths"
    )
    fleet.add_argument("--url", default=DEFAULT_URL)

    top = commands.add_parser(
        "top", help="curses-free live terminal view of a running server"
    )
    top.add_argument("--url", default=DEFAULT_URL)
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="number of refreshes before exiting (0 = until interrupted; "
        "1 prints a single snapshot without clearing the screen)",
    )

    return parser


def _serve(args: argparse.Namespace) -> int:
    # Route the process-wide event log (the library default is a quiet
    # warning threshold) to stdout for the server's lifetime: every
    # lifecycle edge the engine emits becomes a log line here.
    configure_events(
        json_mode=args.log_json, level=args.log_level, stream=sys.stdout
    )
    server = TuningServer(
        host=args.host,
        port=args.port,
        cache=args.cache,
        executor=args.executor,
        max_workers=args.workers,
        history=args.history,
        peers=args.peers,
        advertise_url=args.advertise_url,
    )

    def handle_signal(signum: int, _frame: Optional[object]) -> None:
        name = signal.Signals(signum).name
        emit("server.signal", msg=f"received {name}: draining in-flight jobs...")
        threading.Thread(target=server.stop, daemon=True).start()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)

    emit(
        "server.listening",
        msg=f"repro tuning server listening on {server.url} "
        f"(executor={args.executor}, workers={args.workers}, "
        f"cache={args.cache}, history={args.history or 'memory'}"
        + (f", fleet={1 + len(args.peers)} members" if args.peers else "")
        + ")",
    )
    server.serve_forever()
    emit("server.stopped", msg="server drained and stopped")
    return 0


def submitted_request(args: argparse.Namespace) -> TuneRequest:
    """The request ``submit``'s flags name — the one ``python -m
    repro.autotune`` tunes for the same request flags."""
    return request_from_args(
        args,
        eval_workers=args.eval_workers,
        trace=args.trace is not None,
        priority=args.priority,
    )


def _submit(args: argparse.Namespace) -> int:
    request = submitted_request(args)
    client = TuningClient(args.url)
    pending = client.submit(request)
    print(f"job: {pending.job_id}")
    print(f"fingerprint: {pending.fingerprint}")
    print(f"outcome: {pending.outcome}")
    if pending.outcome == "error":
        job = pending.status()
        print(f"error: {job.get('error') or 'submission failed'}", file=sys.stderr)
        return 1
    if not (args.wait or args.trace):
        return 0
    job = pending.job(timeout=args.timeout)
    if job["status"] == "error":
        print(f"error: {job['error']}", file=sys.stderr)
        return 1
    report = TuningReport.from_dict(job["report"], from_cache=bool(job["from_cache"]))
    print(report.summary())
    print(f"backend: {report.backend} (best measured as: {report.best.measurement_kind})")
    print(f"from-cache: {'true' if job['from_cache'] else 'false'}")
    print(f"compiles: {job['compiles']}")
    if job.get("stages"):
        print(f"stages: {format_stage_counts(job['stages'])}")
    if job.get("duration_s") is not None:
        print(f"duration: {job['duration_s']:.3f}s")
    if args.trace:
        spans = job.get("trace")
        if spans:
            save_trace(
                args.trace,
                spans,
                meta={"job": job["job"], "fingerprint": job["fingerprint"]},
            )
            print(f"trace: {len(list(iter_spans(spans)))} spans -> {args.trace}")
        else:
            # e.g. a warm cache hit answered at submission — no worker ran
            print("trace: no spans recorded (answered from cache?)", file=sys.stderr)
    return 0


def _status(args: argparse.Namespace) -> int:
    job = TuningClient(args.url).status(args.job)
    print(f"job: {job['job']}")
    print(f"status: {job['status']}")
    print(f"from-cache: {'true' if job['from_cache'] else 'false'}")
    if job["compiles"] is not None:
        print(f"compiles: {job['compiles']}")
    if job.get("stages"):
        print(f"stages: {format_stage_counts(job['stages'])}")
    if job.get("duration_s") is not None:
        print(f"duration: {job['duration_s']:.3f}s")
    if job.get("span_summary"):
        parts = " ".join(
            f"{kind}={entry['spans']}/{entry['total_ms']:.0f}ms"
            for kind, entry in sorted(job["span_summary"].items())
        )
        print(f"spans: {parts}")
    if job["error"]:
        print(f"error: {job['error']}")
    return 0


def _stats(args: argparse.Namespace) -> int:
    stats = TuningClient(args.url).cache_stats()
    print("cache:")
    # common fields first, then the backend's own gauges (dead_records,
    # compactions, corrupt_lines, ...) in a stable order
    for key, value in ordered_cache_stats(stats["cache"]):
        print(f"  {key}: {value}")
    for section in ("server", "jobs"):
        print(f"{section}:")
        for key, value in stats[section].items():
            print(f"  {key}: {value}")
    return 0


def _fleet(args: argparse.Namespace) -> int:
    payload = TuningClient(args.url).fleet()
    fleet = payload.get("fleet")
    if not fleet:
        print("fleet: not configured (single server)")
    else:
        print(f"node: {fleet['node']}")
        print(f"mode: {fleet['mode']}")
        print(f"members: {fleet['size']}")
        for member in fleet.get("members", ()):
            marker = "  * " if member == fleet["node"] else "    "
            print(f"{marker}{member}")
    queue = payload.get("queue") or {}
    if queue:
        depths = "  ".join(f"{label}={depth}" for label, depth in queue.items())
        print(f"queued: {depths}")
    return 0


def _shutdown(args: argparse.Namespace) -> int:
    response = TuningClient(args.url).shutdown()
    print(f"status: {response['status']}")
    return 0


def _metric_total(
    samples: Dict[str, Dict[tuple, float]], name: str, **labels: str
) -> float:
    """Sum a parsed metric's samples matching the given label subset."""
    wanted = set(labels.items())
    return sum(
        value
        for key, value in samples.get(name, {}).items()
        if wanted <= set(key)
    )


def _render_top(client: TuningClient) -> str:
    """One frame of the ``top`` view (health + jobs + cache + key metrics)."""
    health = client.healthz()
    stats = client.cache_stats()
    samples = parse_prometheus_text(client.metrics())
    jobs = health.get("jobs", {})
    cache = stats.get("cache", {})
    server = stats.get("server", {})
    lines = [
        f"repro tuning fleet @ {client.url}   {time.strftime('%H:%M:%S')}",
        f"status: {health.get('status', '?')}  "
        f"executor: {health.get('executor', '?')}x{health.get('workers', '?')}  "
        f"history: {health.get('history_path') or 'memory'}",
        "",
        "jobs      "
        + "  ".join(f"{state}={jobs.get(state, 0)}" for state in
                    ("queued", "running", "done", "error")),
        "outcomes  "
        + "  ".join(
            f"{outcome}={_metric_total(samples, 'repro_jobs_total', outcome=outcome):.0f}"
            for outcome in ("cached", "tuned", "error")
        ),
        f"requests  submitted={server.get('submitted', 0)}  "
        f"deduplicated={server.get('deduplicated', 0)}  "
        f"cache_hits={server.get('cache_hits', 0)}  "
        f"tuning_runs={server.get('tuning_runs', 0)}",
        f"cache     backend={cache.get('backend', '?')}  "
        f"entries={cache.get('entries', 0)}  bytes={cache.get('bytes', 0)}",
        f"history   records={_metric_total(samples, 'repro_history_records_total'):.0f}  "
        f"http_requests={_metric_total(samples, 'repro_http_requests_total'):.0f}",
    ]
    return "\n".join(lines)


def _top(args: argparse.Namespace) -> int:
    """Poll ``/healthz`` + ``/cache/stats`` + ``/metrics`` on a cadence."""
    client = TuningClient(args.url)
    iteration = 0
    single_shot = args.iterations == 1
    while True:
        frame = _render_top(client)
        if single_shot:
            print(frame, flush=True)
        else:
            # ANSI clear+home: a live view without curses
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
        iteration += 1
        if args.iterations and iteration >= args.iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "serve": _serve,
        "submit": _submit,
        "status": _status,
        "stats": _stats,
        "shutdown": _shutdown,
        "fleet": _fleet,
        "top": _top,
    }
    try:
        return handlers[args.command](args)
    except (ServiceError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
