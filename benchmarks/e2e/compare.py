"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.jsonl B.jsonl

``A`` and ``B`` are files written by ``run.py --out`` (one JSON line per run;
several seeds per workload).  For every workload × end-to-end metric the
medians of the two sets are compared with the metric's ``bound``:

``ok``          B's median is no worse than A's by more than the bound;
``regressed``   it is worse by more than the bound;
``unresolved``  the run-to-run spread (inter-quartile range ÷ median, as
                ``statistics.quantiles(values, n=4)`` gives it) of either set
                is wider than the bound, so the comparison cannot tell —
                unless every run of B reads better than every run of A.

Exits 1 when any row is ``regressed`` or a run reported a failed operation,
2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from run import load_manifest


def load_runs(path: str) -> Dict[str, Dict[str, List[float]]]:
    """``workload → metric → values`` of the untraced runs in ``path``."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            if record["failed"] or not record["correct"]:
                raise RuntimeError(
                    f"{path}: {record['workload']} seed {record['seed']} reported "
                    f"{record['failed']} failed of {record['attempted']} operations"
                )
            metrics = runs.setdefault(record["workload"], {})
            for name, entry in record["metrics"].items():
                metrics.setdefault(name, []).append(float(entry["value"]))
    return runs


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """``(ok|regressed|unresolved, worsening)`` — worsening as a share of A's median."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (median_b - median_a) / abs(median_a)
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("ok" if all_better else "unresolved"), worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare(
    runs_a: Dict[str, Dict[str, List[float]]],
    runs_b: Dict[str, Dict[str, List[float]]],
    manifest: Dict[str, Any],
) -> List[Dict[str, Any]]:
    rows = []
    for workload in (entry["name"] for entry in manifest["workloads"]):
        if workload not in runs_a or workload not in runs_b:
            continue
        for metric in manifest["end_to_end"]:
            a = runs_a[workload].get(metric["name"])
            b = runs_b[workload].get(metric["name"])
            if not a or not b:
                continue
            status, worsening = verdict(a, b, metric["better"], metric["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "median_a": statistics.median(a),
                    "median_b": statistics.median(b),
                    "spread_a": spread(a),
                    "spread_b": spread(b),
                    "worsening": worsening,
                    "status": status,
                    "runs": (len(a), len(b)),
                }
            )
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        rows = compare(load_runs(argv[0]), load_runs(argv[1]), load_manifest())
    except RuntimeError as error:  # a run with failed operations
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as error:
        print(f"error: unusable input: {error}", file=sys.stderr)
        return 2
    if not rows:
        print("error: the two files share no workload with end-to-end metrics", file=sys.stderr)
        return 2
    print(
        f"{'workload':<12s} {'metric':<18s} {'median A':>11s} {'median B':>11s} unit "
        f"{'worse by':>9s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s} runs    status"
    )
    for row in rows:
        print(
            f"{row['workload']:<12s} {row['metric']:<18s} {row['median_a']:>11.5g} "
            f"{row['median_b']:>11.5g} {row['unit']:<4s} {row['worsening']:>+9.1%} "
            f"{row['bound']:>6.0%} {row['spread_a']:>9.1%} {row['spread_b']:>9.1%} "
            f"{row['runs'][0]:>2d}/{row['runs'][1]:<2d}   {row['status']}"
        )
    return 1 if any(row["status"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
