"""Command-line entry point: ``python -m repro.autotune``.

Examples
--------
List the tunable kernels::

    python -m repro.autotune --list-kernels

Tune a 256³ matmul with 4 parallel evaluators and a persistent cache::

    python -m repro.autotune matmul --size m=256 n=256 k=256 \\
        --strategy pruned --workers 4 --cache .autotune-cache.json

A second identical invocation is served entirely from the cache.  ``--cache``
accepts any store URI — a plain ``.json`` path, ``dir:DIR`` or ``log:FILE``,
each naming where the cache's append log lives.  Inspect or bound that cache
with the maintenance subcommands::

    python -m repro.autotune cache-stats --cache .autotune-cache.json
    python -m repro.autotune cache-prune --cache dir:.autotune-cache --max-entries 64

Tune by *measuring* the emitted program instead of pricing the model — the
paper's empirical loop (see ``python -m repro.autotune backends``)::

    python -m repro.autotune matmul --size m=16 n=16 k=16 \\
        --backend 'hybrid:model>measure-py?top=4'

Inspect the staged compiler (per-stage timings, artifact fingerprints, and
the replay-from-stage reuse) for one kernel::

    python -m repro.autotune inspect-stages matmul --size m=256 n=256 k=256
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Dict, List, Optional, Sequence

from repro.compiler import CompilationSession, DEFAULT_PASSES, counting_compiles
from repro.kernels.registry import available_kernels, get_kernel
from repro.telemetry import trace
from repro.autotune.backends import (
    BackendUnavailable,
    available_backends,
    parse_backend_uri,
)
from repro.autotune.cache import TuningCache
from repro.autotune.store import ordered_cache_stats
from repro.autotune.search import EXECUTORS, STRATEGIES, ExecutorFallbackWarning
from repro.autotune.session import autotune
from repro.autotune.space import Configuration, SpaceOptions


def parse_sizes(pairs: Sequence[str]) -> Dict[str, int]:
    """Parse ``name=value`` problem-size pairs (shared with the service CLI)."""
    sizes: Dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"size must look like name=value, got {pair!r}")
        try:
            sizes[name.strip()] = int(value)
        except ValueError:
            raise ValueError(
                f"size value for {name!r} must be an integer, got {value!r}"
            ) from None
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune",
        description="Empirically autotune a kernel's mapping on the machine models.",
        epilog="maintenance subcommands (dispatched before tuning arguments): "
        "'backends' lists the URI-selectable evaluation backends; "
        "'inspect-stages KERNEL' shows the staged compiler's per-stage "
        "timings and artifact fingerprints; "
        "'cache-stats --cache STORE' prints cache statistics; "
        "'cache-prune --cache STORE --max-entries N' drops the oldest entries "
        "(STORE: PATH.json | dir:DIR | log:FILE); "
        "'trace FILE' renders a --trace capture; "
        "'history {list,show,compare,check} FILE' inspects a --history "
        "store and gates CI on perf regressions.",
    )
    parser.add_argument("kernel", nargs="?", help="registered kernel name")
    parser.add_argument(
        "--list-kernels", action="store_true", help="list tunable kernels and exit"
    )
    parser.add_argument(
        "--size",
        nargs="*",
        default=[],
        metavar="NAME=VALUE",
        help="problem-size overrides, e.g. --size m=256 n=256 k=256",
    )
    parser.add_argument(
        "--strategy",
        default="pruned",
        choices=sorted(STRATEGIES),
        help="search strategy (default: pruned)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="parallel evaluation workers"
    )
    parser.add_argument(
        "--executor",
        default="thread",
        choices=EXECUTORS,
        help="worker kind for parallel evaluation (process escapes the GIL)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="STORE",
        help="persistent cache store: PATH.json, dir:DIR, or log:FILE",
    )
    parser.add_argument(
        "--backend",
        default="model:",
        metavar="URI",
        help="evaluation backend: model: (default analytical pricing), "
        "measure-py:[warmup=..,repeat=..,trim=..] (execute the emitted Python, timed), "
        "measure-c:[cc=..] (compile + time the emitted C), or "
        "hybrid:model>measure-py?top=K (model prunes, measurement re-ranks); "
        "see the 'backends' subcommand",
    )
    parser.add_argument("--seed", type=int, default=0, help="search / input seed")
    parser.add_argument(
        "--check",
        action="store_true",
        help="spot-check each configuration through the interpreter "
        "(at the kernel's small verification size)",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="show this many best configurations"
    )
    parser.add_argument(
        "--allow-no-scratchpad",
        action="store_true",
        help="let the tuner also consider disabling scratchpad staging",
    )
    parser.add_argument(
        "--threads",
        type=int,
        nargs="*",
        default=None,
        help="thread-per-block counts to explore (default: 64 128 256)",
    )
    parser.add_argument(
        "--blocks",
        type=int,
        nargs="*",
        default=None,
        help="thread-block counts to explore (default: 16 32 64)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="record a span trace of this tuning run and save it to FILE "
        "(inspect with 'python -m repro.autotune trace FILE')",
    )
    parser.add_argument(
        "--history",
        metavar="STORE",
        default=None,
        help="append one HistoryRecord for this request to a JSONL history "
        "file (inspect with 'python -m repro.autotune history list STORE')",
    )
    parser.add_argument(
        "--reuse-artifacts",
        action="store_true",
        help="share config-invariant compiler artifacts (affine analysis) "
        "with other requests in this process for the same program, binding "
        "and spec",
    )
    return parser


def trace_main(argv: Sequence[str]) -> int:
    """``trace FILE``: render a saved trace as a tree plus a hotspot table."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune trace",
        description="Render a --trace capture: the span tree (request -> "
        "search -> candidate -> pass/measure) and a top-N self-time hotspot "
        "table.  Reads the canonical JSON save format or a JSONL export.",
    )
    parser.add_argument("file", metavar="FILE", help="trace file written by --trace")
    parser.add_argument(
        "--top", type=int, default=10, help="hotspot rows to show (default: 10)"
    )
    parser.add_argument(
        "--max-depth", type=int, default=None, help="clip the tree below this depth"
    )
    parser.add_argument(
        "--chrome",
        metavar="OUT",
        default=None,
        help="also export Chrome trace_event JSON (chrome://tracing, ui.perfetto.dev)",
    )
    parser.add_argument(
        "--jsonl",
        metavar="OUT",
        default=None,
        help="also export flattened JSONL (one span per line)",
    )
    args = parser.parse_args(argv)
    try:
        roots = trace.load_trace(args.file)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot read trace {args.file}: {error}", file=sys.stderr)
        return 2
    total_spans = sum(1 for _ in trace.iter_spans(roots))
    total_ms = sum(root.duration_ms for root in roots)
    print(f"trace {args.file}: {total_spans} spans, {total_ms:.3f} ms total")
    print(trace.render_tree(roots, max_depth=args.max_depth))
    print()
    print(f"hotspots (top {args.top} by self time):")
    print(trace.render_hotspots(roots, top=args.top))
    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(trace.to_chrome_trace(roots), handle)
        print(f"chrome trace -> {args.chrome}")
    if args.jsonl:
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            handle.write(trace.to_jsonl(roots))
        print(f"jsonl -> {args.jsonl}")
    return 0


def history_main(argv: Sequence[str]) -> int:
    """``history {list,show,compare,check} FILE``: the regression sentinel.

    ``list`` prints per-(kernel, variant, spec, backend) percentile rollups
    (``variant`` carries family parameters such as a distributed kernel's
    grid target, so kernel families stay distinct groups), ``show``
    the raw records, ``compare`` the current window of each group against
    its prior records, and ``check`` exits 1 when any group's winner time or
    evaluation count regressed beyond ``--threshold`` — the CI gate.
    """
    from repro.telemetry.history import (
        HistoryStore,
        check_history,
        compare_windows,
        parse_threshold,
        rollup,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune history",
        description="Inspect a persistent tuning history (JSONL of one "
        "HistoryRecord per completed request) and gate on regressions.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, description in (
        ("list", "per-(kernel, variant, spec, backend) percentile rollups"),
        ("show", "raw history records, oldest first"),
        ("compare", "current window of each group vs its prior records"),
        ("check", "exit 1 when the current window regressed (the CI gate)"),
    ):
        command = sub.add_parser(name, help=description)
        command.add_argument("file", metavar="FILE", help="history JSONL file")
        if name == "show":
            command.add_argument(
                "--last", type=int, default=20, help="records to show (default: 20)"
            )
        if name in ("compare", "check"):
            command.add_argument(
                "--window",
                type=int,
                default=1,
                help="records per group forming the current window (default: 1)",
            )
        if name == "check":
            command.add_argument(
                "--threshold",
                default="10%",
                help="tolerated regression, e.g. '5%%' or 0.05 (default: 10%%)",
            )
    args = parser.parse_args(argv)

    store = HistoryStore(args.file)
    records = store.records()
    if store._corrupt_lines:
        print(
            f"warning: skipped {store._corrupt_lines} corrupt history line(s)",
            file=sys.stderr,
        )
    if not records:
        print(f"history {args.file}: no records", file=sys.stderr)
        return 0 if args.subcommand in ("list", "show") else 2

    if args.subcommand == "list":
        print(f"history {args.file}: {len(records)} records")
        header = (
            f"{'kernel':<16} {'variant':<22} {'spec':<18} {'backend':<28} "
            f"{'runs':>4} {'hits':>4} "
            f"{'best_ms':>9} {'p50_ms':>9} {'p90_ms':>9} {'evals':>6} {'rho':>5}"
        )
        print(header)
        for row in rollup(records):
            rho = f"{row['mean_rho']:.2f}" if row["mean_rho"] is not None else "-"
            variant = row.get("variant") or "-"
            print(
                f"{row['kernel']:<16} {variant:<22} {row['spec']:<18} "
                f"{row['backend']:<28} "
                f"{row['requests']:>4} {row['cache_hits']:>4} "
                f"{row['best_ms']:>9.3f} {row['p50_ms']:>9.3f} {row['p90_ms']:>9.3f} "
                f"{row['mean_evaluations']:>6.1f} {rho:>5}"
            )
        return 0

    if args.subcommand == "show":
        for record in records[-args.last:]:
            rho = f" rho={record.rho:.2f}" if record.rho is not None else ""
            trace_id = f" trace={record.trace_id}" if record.trace_id else ""
            job = f" job={record.job_id}" if record.job_id else ""
            variant = f" ({record.variant})" if record.variant else ""
            print(
                f"{record.kernel}{variant} [{record.backend}] "
                f"{'hit ' if record.cache_hit else 'tune'} "
                f"winner={record.winner_ms:.3f}ms ({record.winner_kind}) "
                f"evals={record.evaluations} wall={record.wall_s:.3f}s "
                f"source={record.source}{rho}{trace_id}{job}"
            )
        return 0

    if args.subcommand == "compare":
        print(f"history {args.file}: window={args.window} over {len(records)} records")
        for row in compare_windows(records, window=args.window):
            if row["delta_pct"] is None:
                delta = "new (no prior window)"
            else:
                delta = (
                    f"{row['delta_pct']:+.1f}% "
                    f"({row['prior_best_ms']:.3f} -> {row['current_best_ms']:.3f} ms)"
                )
            variant = row.get("variant") or "-"
            print(
                f"{row['kernel']:<16} {variant:<22} {row['spec']:<18} "
                f"{row['backend']:<28} {delta}"
            )
        return 0

    # check: the CI gate
    try:
        parse_threshold(args.threshold)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    failures, rows = check_history(
        records, window=args.window, threshold=args.threshold
    )
    compared = sum(1 for row in rows if row["delta_pct"] is not None)
    if not failures:
        print(
            f"history check passed: {compared} group(s) compared, "
            f"{len(rows) - compared} new, threshold {args.threshold}"
        )
        return 0
    print(
        f"history check FAILED: {len(failures)} group(s) regressed beyond "
        f"{args.threshold}",
        file=sys.stderr,
    )
    for failure in failures:
        variant = f" ({failure['variant']})" if failure.get("variant") else ""
        for reason in failure["reasons"]:
            print(
                f"  {failure['kernel']}{variant} [{failure['backend']}]: {reason}",
                file=sys.stderr,
            )
    return 1


def _cache_tools_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.autotune {command}",
        description="Inspect or bound a persistent tuning cache.",
    )
    parser.add_argument(
        "--cache",
        required=True,
        metavar="STORE",
        help="cache store: PATH.json, dir:DIR, or log:FILE",
    )
    if command == "cache-prune":
        parser.add_argument(
            "--max-entries",
            type=int,
            required=True,
            help="keep at most this many (newest) entries",
        )
    return parser


def cache_stats_main(argv: Sequence[str]) -> int:
    args = _cache_tools_parser("cache-stats").parse_args(argv)
    try:
        cache = TuningCache(args.cache)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stats = cache.stats()
    # hit/miss counters are per-instance and would always read 0 here; the
    # live numbers come from a running session or the server's /cache/stats
    stats.pop("hits", None)
    stats.pop("misses", None)
    print(f"cache {args.cache}")
    for field, value in ordered_cache_stats(stats):
        print(f"  {field}: {value}")
    kinds = cache.measurement_kind_counts()
    rendered = " ".join(f"{kind}={kinds[kind]}" for kind in sorted(kinds)) or "none"
    print(f"  kinds: {rendered}")
    return 0


def backends_main(argv: Sequence[str]) -> int:
    """``backends``: list the registered evaluation backends and availability."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune backends",
        description="List the URI-selectable evaluation backends "
        "(how a candidate configuration gets a cost).",
    )
    parser.parse_args(argv)
    examples = {
        "model": "model:",
        "measure-py": "measure-py:warmup=1,repeat=5,trim=0.2",
        "measure-c": "measure-c:cc=gcc,repeat=5",
        "hybrid": "hybrid:model>measure-py?top=8",
    }
    for scheme in available_backends():
        # construct through the parser — the same path --backend takes — so
        # registered third-party backends with mandatory arguments degrade
        # to a listed-but-unexemplified row instead of a traceback.  Probe
        # availability from the *default* construction, not the example: the
        # example may pin e.g. cc=gcc while the default finds clang fine.
        example = examples.get(scheme, f"{scheme}:")
        backend = None
        for uri in (f"{scheme}:", example):
            try:
                backend = parse_backend_uri(uri)
                break
            except (ValueError, TypeError):
                continue
        if backend is None:
            print(f"{scheme:12s} (registered; no default construction)")
            continue
        reason = backend.availability()
        status = "available" if reason is None else f"unavailable: {reason}"
        print(f"{scheme:12s} {status}")
        print(f"{'':12s}   {backend.describe()}")
        print(f"{'':12s}   e.g. --backend '{example}'")
    return 0


def cache_prune_main(argv: Sequence[str]) -> int:
    args = _cache_tools_parser("cache-prune").parse_args(argv)
    if args.max_entries < 0:
        print("error: --max-entries cannot be negative", file=sys.stderr)
        return 2
    try:
        cache = TuningCache(args.cache)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    dropped = cache.prune(args.max_entries)
    print(f"pruned {dropped} entries; {len(cache)} remain in {args.cache}")
    return 0


def inspect_stages_main(argv: Sequence[str]) -> int:
    """``inspect-stages KERNEL``: per-stage timings and artifact fingerprints.

    Compiles the kernel once through a staged
    :class:`~repro.compiler.CompilationSession`, then replays the chosen
    mapping from the tiling stage — the table shows the config-invariant
    ``analysis`` stage executing once for both compilations while the
    config-dependent stages ran twice.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.autotune inspect-stages",
        description="Show per-stage timings and artifact fingerprints of the "
        "staged compiler for one kernel (one cold compile + one replay).",
    )
    parser.add_argument("kernel", help="registered kernel name")
    parser.add_argument(
        "--size",
        nargs="*",
        default=[],
        metavar="NAME=VALUE",
        help="problem-size overrides, e.g. --size m=256 n=256 k=256",
    )
    args = parser.parse_args(argv)
    try:
        kernel = get_kernel(args.kernel)
        sizes = parse_sizes(args.size)
        program = kernel.build(**sizes)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2

    # The lower-py terminal pass rides along so its timing shows in the
    # table (it runs once, during the base compile — replay stops at
    # mapping, mirroring what a tuning request does per candidate).
    session = CompilationSession(program, passes=(*DEFAULT_PASSES, "lower-py"))
    mapped = session.compile()
    config = Configuration.from_options(session.options, mapped.tile_sizes)
    session.replay(from_stage="tiling", config=config)

    geometry = mapped.geometry
    tiles = ",".join(f"{k}={v}" for k, v in sorted(mapped.tile_sizes.items()))
    print(
        f"kernel {args.kernel}: blocks={geometry.num_blocks} "
        f"threads={geometry.threads_per_block} tiles[{tiles}] "
        f"shared={geometry.shared_memory_per_block_bytes}B"
    )
    print(f"session {session.base_fingerprint[:12]} (program+params+spec identity)")
    print(f"{'stage':<12} {'kind':<10} {'runs':>4} {'total_ms':>9} {'mean_ms':>8}  fingerprint")
    for row in session.stage_report():
        kind = "config" if row["config_dependent"] else "invariant"
        print(
            f"{row['stage']:<12} {kind:<10} {row['runs']:>4} "
            f"{row['total_ms']:>9.2f} {row['mean_ms']:>8.2f}  {row['fingerprint']}"
        )
    report = {row["stage"]: row["runs"] for row in session.stage_report()}
    print(
        f"replay reused the frozen analysis artifact: analysis ran "
        f"{report.get('analysis', 0)}x for 2 end-to-end compilations "
        f"(tiling ran {report.get('tiling', 0)}x)"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "inspect-stages":
        return inspect_stages_main(argv[1:])
    if argv and argv[0] == "backends":
        return backends_main(argv[1:])
    if argv and argv[0] == "cache-stats":
        return cache_stats_main(argv[1:])
    if argv and argv[0] == "cache-prune":
        return cache_prune_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "history":
        return history_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_kernels:
        for name in available_kernels():
            kernel = get_kernel(name)
            sizes = ", ".join(f"{k}={v}" for k, v in kernel.default_sizes.items())
            family = "" if kernel.grid is None else f" [distributed: {kernel.grid.name}]"
            print(f"{name:16s} {kernel.description}  (defaults: {sizes}){family}")
        return 0
    if not args.kernel:
        parser.error("a kernel name is required (or --list-kernels)")

    try:
        kernel = get_kernel(args.kernel)
        sizes = parse_sizes(args.size)
        program = kernel.build(**sizes)
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2

    defaults = SpaceOptions()
    space_options = SpaceOptions(
        thread_counts=tuple(args.threads) if args.threads else defaults.thread_counts,
        block_counts=tuple(args.blocks) if args.blocks else defaults.block_counts,
        scratchpad_choices=(True, False) if args.allow_no_scratchpad else (True,),
    )
    try:
        cache = TuningCache(args.cache) if args.cache else None
        backend = parse_backend_uri(args.backend)  # typo → usage error early
        if kernel.grid is not None and not backend.supports_distributed:
            raise ValueError(
                f"backend {args.backend!r} cannot price distributed (PE-grid) "
                f"mappings; tune {args.kernel!r} under the model: backend"
            )
    except ValueError as error:  # e.g. an unknown store or backend scheme
        print(f"error: {error}", file=sys.stderr)
        return 2
    collector = trace.start_trace() if args.trace else None
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            with counting_compiles() as compiles:
                try:
                    report = autotune(
                        program,
                        strategy=args.strategy,
                        max_workers=args.workers,
                        executor=args.executor,
                        cache=cache,
                        seed=args.seed,
                        space_options=space_options,
                        check_correctness=args.check,
                        check_program=kernel.build_check() if args.check else None,
                        backend=args.backend,
                        history=args.history,
                        artifact_cache=True if args.reuse_artifacts else None,
                        grid=kernel.grid,
                    )
                except BackendUnavailable as error:
                    print(f"error: {error}", file=sys.stderr)
                    return 3
    finally:
        if collector is not None:
            trace.stop_trace()
    if collector is not None:
        trace.save_trace(
            args.trace, collector.roots, meta={"kernel": args.kernel, "seed": args.seed}
        )
        total = sum(1 for _ in trace.iter_spans(collector.roots))
        print(f"trace: {total} spans -> {args.trace}")
    for warning in caught:  # surface e.g. the process→thread pickle fallback
        print(f"warning: {warning.message}", file=sys.stderr)
    fell_back_to_threads = any(
        issubclass(w.category, ExecutorFallbackWarning) for w in caught
    )

    print(report.summary())
    # With the process executor, evaluation compiles happen in worker
    # processes and never touch this process's counter — flag that so a cold
    # run is not mistaken for a warm cache hit.
    suffix = ""
    if (
        args.executor == "process"
        and args.workers > 1
        and not report.from_cache
        and not fell_back_to_threads
    ):
        suffix = " (+ evaluation compiles in worker processes)"
    print(f"pipeline compiles this call: {compiles.count}{suffix}")
    if cache is not None:
        print(f"cache: {cache.stats()} at {cache.uri}")
    # Rank results of the winning provenance first: under a hybrid backend,
    # measured milliseconds and model milliseconds are not comparable, so a
    # model-priced survivor must not appear to outrank the measured winner.
    best_kind = report.best.measurement_kind
    ranked = sorted(
        (r for r in report.results if r.feasible),
        key=lambda r: (r.measurement_kind != best_kind, r.time_ms, r.configuration.key()),
    )
    print(f"top {min(args.top, len(ranked))} of {len(report.results)} evaluated:")
    for result in ranked[: args.top]:
        config = result.configuration
        tiles = ",".join(f"{k}={v}" for k, v in config.tile_sizes)
        checked = "" if result.correct is None else f" correct={result.correct}"
        kind = result.measurement_kind
        provenance = "" if kind == "model" else f" [{kind}]"
        extras = "".join(f" {k}={v}" for k, v in config.extras)
        print(
            f"  {result.time_ms:9.3f} ms  blocks={config.num_blocks:<4d} "
            f"threads={config.threads_per_block:<4d} tiles[{tiles}] "
            f"spm={'on' if config.use_scratchpad else 'off'}{extras}{checked}{provenance}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
