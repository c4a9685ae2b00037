"""One benchmark for the four request paths, with per-layer attribution.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds N]
                                  [--trace 0|1] [--out FILE]

With ``--workload`` and ``--trace`` both given (how the driver calls it) the
run happens in this process and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` for ``--trace 0``, its per-layer metrics for
``--trace 1``.  Leaving either out runs every combination — each in its own
subprocess, with private temp dirs — and ends with one aggregate line.

Before the JSON line every metric is printed as ``name value unit samples``.
``--out FILE`` appends one JSON line per run, the input of ``compare.py``; a
traced run also leaves its spans in ``FILE.<workload>.trace.jsonl``, which
``python -m repro.autotune trace`` loads.  Nothing else is written outside
the run's work directory under ``.e2e_work/`` (removed on exit).
"""

from __future__ import annotations

import time

_PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".e2e_work")

Row = Tuple[str, float, str, int]


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST, "r", encoding="utf-8") as handle:
        return json.load(handle)


def print_rows(title: str, rows: List[Row]) -> None:
    print(f"== {title} ==")
    for name, value, unit, samples in rows:
        print(f"{name} {value:.6g} {unit} {samples}")


def detail_rows(workload: Any, phase: Any, rows: List[Row], units: Dict[str, str]) -> List[Row]:
    """What the untraced run reports but does not gate: the issue's names for
    the generic metrics, per-family medians, tails, the workload's own counts."""
    from workloads import tail_percentile

    detail: List[Row] = [
        (f"{workload.aliases[metric]}  [= {metric}]", value, unit, samples)
        for metric, value, unit, samples in rows
        if metric in workload.aliases
    ]
    for klass in sorted(phase.samples):
        for family, median in phase.family_medians_ms(klass).items():
            detail.append(
                (f"{klass}.{family}.p50_ms", median, "ms", len(phase.samples[klass][family]))
            )
        pooled = phase.pooled(klass)
        q, tail = tail_percentile(pooled)
        if q > 50:
            detail.append((f"{klass}.p{q:.3g}_ms", 1e3 * tail, "ms", len(pooled)))
    attempted = max(1, phase.attempted)
    detail.append(("failed_share", len(phase.failures) / attempted, "ratio", attempted))
    detail += [
        (metric, value, units[metric], phase.attempted)
        for metric, value in sorted(phase.layer.items())
    ]
    return detail


def run_workload(manifest: Dict[str, Any], name: str, seed: int, seconds: float, traced: bool,
                 trace_out: Optional[str] = None) -> Dict[str, Any]:
    """One run of one workload in this process; returns the result object.

    ``trace_out`` keeps the traced run's span file (JSONL, loadable by
    ``python -m repro.autotune trace``) instead of dropping it with the work
    directory.
    """
    units = {entry["name"]: entry["unit"] for entry in manifest["per_layer"]}
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    # measure-c binaries must never land in (or be served from) ~/.cache
    os.environ["REPRO_COMPILE_CACHE"] = os.path.join(workdir, "compile-cache")
    try:
        sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
        import layers
        import workloads
        from repro.telemetry import trace
        from spans import Recorder

        import_s = time.perf_counter() - _PROCESS_STARTED
        recorder = Recorder(enabled=traced)
        scale = workloads.FULL
        if traced:
            # the traced run is for attribution, not timing: two cold rounds
            # (first vs later) or half the warm window are enough
            scale = dataclasses.replace(scale, min_rounds=2)
            seconds = 0.0 if name.startswith("cold-") else seconds / 2
        workload = workloads.WORKLOADS[name](seed, workdir, recorder, scale)
        try:
            with recorder.span("setup", kind="bench.setup"):
                setup_s = import_s + workload.setup()
            if traced:
                probes = layers.run_probes(recorder, workdir, scale.fillers + scale.warm_keys)
                with trace.capture_trace() as collector:
                    phase = workload.run(seconds)
                recorder.adopt(collector.roots, under_kind="bench.request")
            else:
                phase = workload.run(seconds)
        finally:
            workload.close()

        for message in phase.failures[:10]:
            print(f"FAILED: {message}")
        if traced:
            trace_path = trace_out or os.path.join(workdir, "trace.jsonl")
            recorder.flush(trace_path)
            roots = trace.load_trace(trace_path)
            values = {**probes, **layers.rollup(roots), **phase.layer}
            undeclared = sorted(set(values) - set(units))
            if undeclared:
                raise SystemExit(f"metrics missing from BENCHMARK.json: {undeclared}")
            rows = [(metric, values.get(metric, 0.0), unit, phase.attempted)
                    for metric, unit in units.items()]
            print_rows(f"{name} per-layer (seed {seed}, {len(recorder.records)} spans)", rows)
            for kind, entry in sorted(layers.kind_summary(roots).items()):
                print(f"span-kind {kind} {entry['total_ms']:.6g} ms {entry['spans']}")
        else:
            primary_ms, primary_n = workload.primary(phase)
            slow_ms, slow_n = workload.slow(phase)
            rows = [
                ("setup_s", setup_s, "s", scale.setup_repeats),
                ("request_p50_ms", primary_ms, "ms", primary_n),
                ("slow_path_p50_ms", slow_ms, "ms", slow_n),
                ("ops_per_s", phase.ops / phase.wall_s, "1/s", phase.ops),
                ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                 "MB", 1),
            ]
            print_rows(f"{name} end-to-end (seed {seed}, {phase.wall_s:.1f} s timed)", rows)
            print_rows(f"{name} detail (reported, not gated)",
                       detail_rows(workload, phase, rows, units))
        return {
            "correct": not phase.failures,
            "attempted": max(1, phase.attempted),
            "failed": len(phase.failures),
            "metrics": {metric: {"value": value, "unit": unit} for metric, value, unit, _n in rows},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only succeeds when no other run is using it
        except OSError:
            pass


def append_out(path: str, name: str, seed: int, seconds: float, traced: bool,
               result: Dict[str, Any]) -> None:
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), **result}
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def run_in_subprocesses(names: List[str], traces: List[int], args: argparse.Namespace) -> int:
    """Every (workload, trace) combination in its own interpreter."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for traced in traces:
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(traced),
            ]
            if args.out:
                command += ["--out", args.out]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
            lines = done.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                print(lines[-1])
                return done.returncode
            result = json.loads(lines[-1])
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                total["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    manifest = load_manifest()
    names = [entry["name"] for entry in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, one subprocess each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: the traced per-layer run; default: both")
    parser.add_argument("--out", help="append one JSON line per run to this file")
    args = parser.parse_args(argv)

    if args.workload is None or args.trace is None:
        selected = [args.workload] if args.workload else names
        return run_in_subprocesses(selected, [args.trace] if args.trace is not None else [0, 1],
                                   args)
    trace_out = f"{args.out}.{args.workload}.trace.jsonl" if args.out and args.trace else None
    result = run_workload(manifest, args.workload, args.seed, args.seconds, bool(args.trace),
                          trace_out)
    if args.out:
        append_out(args.out, args.workload, args.seed, args.seconds, bool(args.trace), result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
