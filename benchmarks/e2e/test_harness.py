"""Self-test of the end-to-end benchmark harness (collected by tier-1).

Covers what a later PR could silently break: the ``BENCHMARK.json`` schema,
the statistics helpers, the span self-time arithmetic through the program's
own ``load_trace``/``hotspots``, a ``jacobi1d``-only smoke of each workload,
and a perturbed expected output proving a mismatch is counted as a failure.
"""

from __future__ import annotations

import os
import re
import statistics
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

from repro.kernels import get_kernel  # noqa: E402
from repro.telemetry import trace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


@pytest.fixture(scope="module")
def manifest():
    return compare.load_manifest()


# -- BENCHMARK.json ------------------------------------------------------------------------
def test_manifest_schema(manifest):
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert manifest["command"][-1].startswith(manifest["paths"][0] + "/")
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[section]
    ]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in manifest["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in manifest["end_to_end"])


def test_manifest_matches_the_harness(manifest):
    assert [e["name"] for e in manifest["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {e["name"] for e in manifest["per_layer"]}
    # every per-layer metric belongs to a module of the program (or the harness)
    modules = {name.split(".")[0] for name in layer_names}
    assert modules <= {
        "kernels", "polyhedral", "tiling", "scratchpad", "machine", "compiler", "autotune",
        "codegen", "runtime", "distmodel", "telemetry", "service", "fleet", "harness",
    }
    # every alias a workload prints points at a declared end-to-end metric
    declared = {e["name"] for e in manifest["end_to_end"]}
    for factory in workloads.WORKLOADS.values():
        assert set(factory.aliases) <= declared
    assert set(layers.PASS_METRICS.values()) <= layer_names


# -- statistics helpers --------------------------------------------------------------------
def test_tail_percentile_needs_ten_samples_beyond_it():
    assert workloads.tail_percentile([1.0] * 5) == (50.0, 1.0)
    q, value = workloads.tail_percentile([float(i) for i in range(1, 101)])
    assert (q, value) == (90.0, 90.0)
    q, value = workloads.tail_percentile([float(i) for i in range(1, 2001)])
    assert (q, value) == (99.0, 1980.0)
    assert workloads.tail_percentile([float(i) for i in range(1, 41)], wanted=90.0)[0] == 75.0


def test_latency_metrics_are_built_from_family_medians():
    phase = workloads.Phase()
    for value in (0.001, 0.002, 0.003):
        phase.record("hit", "fast", value)
    for value in (0.1, 0.4, 0.9, 0.4, 0.4):
        phase.record("hit", "slow", value)
    assert phase.family_medians_ms("hit") == {"fast": 2.0, "slow": 400.0}
    value, count = phase.geomean_p50_ms("hit")
    assert count == 8
    assert value == pytest.approx(statistics.geometric_mean([2.0, 400.0]))
    assert phase.mix_p50_ms("hit") == (pytest.approx((3 * 2.0 + 5 * 400.0) / 8), 8)
    assert phase.geomean_p50_ms("absent") == phase.mix_p50_ms("absent") == (0.0, 0)


def test_balanced_stream_visits_every_item_once_per_round():
    import random

    stream = workloads.balanced_stream(random.Random(7), "abcd")
    rounds = [sorted(next(stream) for _ in range(4)) for _ in range(3)]
    assert rounds == [list("abcd")] * 3


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, steady, "lower", 0.1)[0] == "ok"
    assert compare.verdict(steady, [v * 1.2 for v in steady], "lower", 0.1)[0] == "regressed"
    assert compare.verdict(steady, [v * 0.8 for v in steady], "higher", 0.1)[0] == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"
    # every run of B better than every run of A: resolved despite the spread
    assert compare.verdict(noisy, [v / 10 for v in noisy], "lower", 0.1)[0] == "ok"


# -- spans ---------------------------------------------------------------------------------
def test_span_self_time_through_the_programs_own_hotspots(tmp_path):
    recorder = Recorder()
    with trace.capture_trace() as collector:
        with recorder.span("outer", kind="bench.request", request=0):
            time.sleep(0.02)
            with trace.span("inner", kind="pass"):
                time.sleep(0.03)
            with recorder.span("probe-child", kind="probe"):
                time.sleep(0.01)
    assert recorder.adopt(collector.roots, under_kind="bench.request") == 1
    path = tmp_path / "trace.jsonl"
    recorder.flush(path)
    roots = trace.load_trace(path)
    assert [root.name for root in roots] == ["outer"]
    assert sorted(child.name for child in roots[0].children) == ["inner", "probe-child"]
    assert all(child.attrs["request"] == 0 for child in roots[0].children)
    rows = {row["name"]: row for row in trace.hotspots(roots)}
    outer = rows["outer"]
    assert outer["self_ms"] == pytest.approx(
        outer["total_ms"] - rows["inner"]["total_ms"] - rows["probe-child"]["total_ms"]
    )
    assert 15 < outer["self_ms"] < outer["total_ms"]
    rolled = layers.rollup(roots)
    assert rolled["harness.self_time_coverage"] == pytest.approx(1.0)
    assert rolled["harness.unattributed_share"] == pytest.approx(
        outer["self_ms"] / outer["total_ms"]
    )


def test_disabled_recorder_records_nothing():
    recorder = Recorder(enabled=False)
    with recorder.span("request", kind="bench.request") as item:
        assert item is None
    assert recorder.records == [] and recorder.to_jsonl() == ""


# -- correctness checks --------------------------------------------------------------------
def test_perturbed_expected_output_is_a_counted_failure():
    kernel = get_kernel("jacobi1d")
    check = checks.WinnerOutputCheck(kernel, seed=3)
    report = workloads.autotune(kernel.build(size=256), space_options=workloads.WARM_SPACE)
    assert check.run(report.best.configuration) == []
    # the same winner against a reference that is off by one ulp-visible step
    perturbed = checks.WinnerOutputCheck(kernel, seed=3)
    for array in perturbed.expected.values():
        array += 1e-3
    failures = perturbed.run(report.best.configuration)
    assert failures and "differs from the interpreter" in failures[0]
    assert checks.check_cold_report(report, "measured-py")  # wrong provenance
    assert checks.check_hit(report, report.to_dict(), 0)  # not from_cache
    assert checks.check_exactly_once(3, 2) and not checks.check_exactly_once(2, 2)


# -- one smoke per workload ----------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_smoke(name, tmp_path, manifest):
    recorder = Recorder()
    workload = workloads.WORKLOADS[name](5, str(tmp_path), recorder, workloads.SMOKE)
    try:
        assert workload.setup() > 0
        with trace.capture_trace() as collector:
            phase = workload.run(0.3)
        recorder.adopt(collector.roots, under_kind="bench.request")
    finally:
        workload.close()
    assert phase.failures == []
    assert phase.attempted >= 2 and phase.ops >= 2 and phase.wall_s > 0
    primary, samples = workload.primary(phase)
    slow, _count = workload.slow(phase)
    assert primary > 0 and slow > 0 and samples >= 1
    declared = {entry["name"] for entry in manifest["per_layer"]}
    path = tmp_path / "trace.jsonl"
    recorder.flush(path)
    rolled = layers.rollup(trace.load_trace(path))
    assert set(phase.layer) | set(rolled) <= declared
    assert rolled["compiler.stage_runs.analysis"] >= 1
    assert 0.9 <= rolled["harness.self_time_coverage"] <= 1.1
    if name.startswith("cold-"):
        assert rolled["compiler.tiling_ms"] > 0
    else:
        assert rolled["compiler.tiling_ms"] == 0, "passes after analysis idle on a hit"
        assert phase.layer["autotune.compiles_on_hit"] == 0


def test_a_wrong_answer_raises_the_failed_count(tmp_path):
    workload = workloads.WarmMixed(5, str(tmp_path), Recorder(enabled=False), workloads.SMOKE)
    try:
        workload.setup()
        workload.keys[0].stored["seed"] = -1  # what set-up stored no longer matches
        phase = workload.run(0.2)
    finally:
        workload.close()
    assert phase.failures and "differs from the report stored at set-up" in phase.failures[0]
