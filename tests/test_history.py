"""Tests of ``repro.telemetry.history`` and ``repro.telemetry.events``.

Unit suites exercise the append-only store's crash-safety idiom (truncated
tails, corrupt lines), the windowed regression sentinel, and the event log's
two renderings on private instances; the integration suite runs real
``autotune()`` calls and asserts the wiring promises: one record per
completed request, cache hits recorded as hits, hybrid backends persisting
their model-vs-measured rho, and the record's trace id matching the span
tree the request produced.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.autotune import SpaceOptions, TuningCache, autotune
from repro.autotune.cli import history_main, main as autotune_main
from repro.kernels import build_matmul_program
from repro.telemetry import trace
from repro.telemetry.events import EventLog, events_pass_hook
from repro.telemetry.history import (
    HistoryRecord,
    HistoryStore,
    check_history,
    compare_windows,
    group_records,
    open_history,
    parse_threshold,
    percentile,
    rollup,
    spearman_rho,
    split_window,
)

SMALL_SPACE = SpaceOptions(
    thread_counts=(64,), block_counts=(16,), tile_candidates_per_geometry=2
)
WIDE_SPACE = SpaceOptions(
    thread_counts=(64, 128), block_counts=(16, 32), tile_candidates_per_geometry=2
)
HYBRID = "hybrid:model>measure-py?top=4"


def record(ts: float, winner_ms: float = 1.0, **overrides) -> HistoryRecord:
    payload = {
        "kernel": "matmul",
        "fingerprint": "f" * 8,
        "spec_name": "GPU",
        "backend": "model:",
        "winner_ms": winner_ms,
        "evaluations": 20,
        "ts": ts,
    }
    payload.update(overrides)
    return HistoryRecord(**payload)


# -- the store ---------------------------------------------------------------------
class TestHistoryStore:
    def test_round_trips_through_jsonl(self, tmp_path):
        store = HistoryStore(tmp_path / "history.jsonl")
        original = record(
            ts=100.0,
            winner_ms=0.125,
            cache_hit=False,
            stage_seconds={"tiling": 0.5},
            rho=0.75,
            trace_id="abc123",
            job_id="job-1",
            source="worker",
        )
        store.append(original)
        (loaded,) = HistoryStore(tmp_path / "history.jsonl").records()
        assert loaded == original

    def test_append_terminates_a_crash_truncated_tail(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append(record(ts=1.0))
        # crash mid-write: the final line has no newline and is half a record
        with open(path, "ab") as handle:
            handle.write(b'{"kernel": "mat')
        store.append(record(ts=2.0, winner_ms=2.0))
        records = store.records()
        assert [r.ts for r in records] == [1.0, 2.0]
        assert store._corrupt_lines == 1  # the truncated tail, skipped not fatal

    def test_corrupt_lines_are_skipped_and_counted(self, tmp_path):
        path = tmp_path / "history.jsonl"
        store = HistoryStore(path)
        store.append(record(ts=1.0))
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
            handle.write(b'{"no_kernel_field": true}\n')
        store.append(record(ts=2.0))
        assert [r.ts for r in store.records()] == [1.0, 2.0]
        assert store._corrupt_lines == 2
        assert store.stats()["corrupt_lines"] == 2

    def test_memory_store_and_stats(self):
        store = HistoryStore()
        assert store.uri is None
        store.append(record(ts=1.0))
        store.append(record(ts=2.0, kernel="jacobi1d"))
        assert len(store) == 2
        stats = store.stats()
        assert stats["records"] == 2 and stats["groups"] == 2
        assert stats["path"] is None

    def test_open_history_coercions(self, tmp_path):
        assert open_history(None) is None
        store = HistoryStore()
        assert open_history(store) is store
        opened = open_history(tmp_path / "h.jsonl")
        assert isinstance(opened, HistoryStore)
        assert opened.uri == str(tmp_path / "h.jsonl")

    def test_empty_store_is_falsy_but_still_a_store(self, tmp_path):
        """Regression guard for the ``open_history(x) or HistoryStore()``
        trap: an empty file-backed store is falsy (``__len__`` == 0), so
        callers must test ``is None``, never truthiness."""
        store = HistoryStore(tmp_path / "h.jsonl")
        assert not store  # empty -> falsy
        assert open_history(store) is store  # ...and must not be replaced


# -- analysis ----------------------------------------------------------------------
class TestAnalysis:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 90) == 4.0
        assert percentile([7.0], 50) == 7.0
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)

    def test_rollup_groups_and_summarizes(self):
        records = [
            record(ts=1.0, winner_ms=1.0, evaluations=10),
            record(ts=2.0, winner_ms=3.0, evaluations=20),
            record(ts=3.0, winner_ms=2.0, cache_hit=True, evaluations=0),
            record(ts=4.0, kernel="jacobi1d", winner_ms=5.0, rho=0.5),
        ]
        rows = rollup(records)
        assert [row["kernel"] for row in rows] == ["jacobi1d", "matmul"]
        matmul = rows[1]
        assert matmul["requests"] == 3 and matmul["cache_hits"] == 1
        assert matmul["best_ms"] == 1.0
        # cache hits do not dilute the mean evaluation count
        assert matmul["mean_evaluations"] == pytest.approx(15.0)
        assert matmul["mean_rho"] is None
        assert rows[0]["mean_rho"] == pytest.approx(0.5)

    def test_split_and_compare_windows(self):
        group = [record(ts=float(i), winner_ms=10.0 - i) for i in range(5)]
        current, prior = split_window(group, 2)
        assert [r.ts for r in current] == [3.0, 4.0]
        assert len(prior) == 3
        with pytest.raises(ValueError, match="positive"):
            split_window(group, 0)

        (row,) = compare_windows(group, window=2)
        assert row["current_best_ms"] == 6.0  # the improvement is a negative delta
        assert row["prior_best_ms"] == 8.0
        assert row["delta_pct"] == pytest.approx(-25.0)

    def test_compare_reports_new_groups_without_prior(self):
        (row,) = compare_windows([record(ts=1.0)], window=1)
        assert row["prior"] == 0
        assert row["delta_pct"] is None and row["prior_best_ms"] is None

    def test_parse_threshold(self):
        assert parse_threshold("5%") == pytest.approx(0.05)
        assert parse_threshold("0.2") == pytest.approx(0.2)
        assert parse_threshold(0.1) == pytest.approx(0.1)
        with pytest.raises(ValueError, match="threshold"):
            parse_threshold("fast")
        with pytest.raises(ValueError, match="negative"):
            parse_threshold("-5%")

    def test_check_flags_a_synthetic_2x_winner_regression(self):
        """The acceptance scenario: a 2x slower winner fails the gate that the
        pre-regression window passed."""
        steady = [record(ts=float(i), winner_ms=1.0) for i in range(3)]
        failures, rows = check_history(steady, window=1, threshold="5%")
        assert failures == [] and len(rows) == 1

        regressed = steady + [record(ts=10.0, winner_ms=2.0)]
        failures, _ = check_history(regressed, window=1, threshold="5%")
        (failure,) = failures
        assert failure["delta_pct"] == pytest.approx(100.0)
        assert any("winner time regressed" in reason for reason in failure["reasons"])

    def test_check_flags_evaluation_count_growth(self):
        records = [
            record(ts=1.0, evaluations=10),
            record(ts=2.0, winner_ms=1.0, evaluations=40),
        ]
        failures, _ = check_history(records, window=1, threshold="10%")
        (failure,) = failures
        assert any("evaluation count grew" in reason for reason in failure["reasons"])

    def test_check_tolerates_regressions_within_threshold(self):
        records = [record(ts=1.0, winner_ms=1.0), record(ts=2.0, winner_ms=1.04)]
        failures, rows = check_history(records, window=1, threshold="5%")
        assert failures == []
        assert rows[0]["delta_pct"] == pytest.approx(4.0)

    def test_spearman_helper_matches_known_values(self):
        assert spearman_rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert spearman_rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)
        assert spearman_rho([1, 1, 2], [1, 1, 2]) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="at least 2"):
            spearman_rho([1.0], [2.0])

    def test_spearman_constant_samples(self):
        assert spearman_rho([2.0, 2.0, 2.0], [2.0, 2.0, 2.0]) == 1.0
        assert spearman_rho([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0
        assert spearman_rho([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=12).flatmap(
            lambda n: st.tuples(
                *[st.lists(st.sampled_from([0.0, 1.0, 1.5, 2.0, 7.25, -3.0]), min_size=n, max_size=n)] * 2
            )
        )
    )
    def test_spearman_matches_scipy(self, samples):
        """Average ranks on ties, as ``scipy.stats.spearmanr`` (a test-only dependency)."""
        from scipy import stats

        xs, ys = samples
        if len(set(xs)) > 1 and len(set(ys)) > 1:
            assert spearman_rho(xs, ys) == pytest.approx(stats.spearmanr(xs, ys).statistic, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=2,
            max_size=40,
            unique_by=(lambda pair: pair[0], lambda pair: pair[1]),
        )
    )
    def test_spearman_matches_scipy_without_ties(self, pairs):
        from scipy import stats

        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        assert spearman_rho(xs, ys) == pytest.approx(stats.spearmanr(xs, ys).statistic, abs=1e-12)

    def test_spearman_needs_no_numpy(self):
        import repro.telemetry.history as history_module

        assert "numpy" not in history_module.__dict__ and "np" not in history_module.__dict__


# -- autotune integration ----------------------------------------------------------
class TestAutotuneHistory:
    def test_cold_and_warm_requests_append_records(self, tmp_path):
        history = tmp_path / "history.jsonl"
        cache = TuningCache(tmp_path / "cache.json")
        program = build_matmul_program(16, 16, 16)
        cold = autotune(
            program, space_options=SMALL_SPACE, cache=cache, history=history, seed=3
        )
        warm = autotune(
            program, space_options=SMALL_SPACE, cache=cache, history=history, seed=3
        )
        assert warm.from_cache

        tuned, hit = HistoryStore(history).records()
        assert tuned.kernel == "matmul" and not tuned.cache_hit
        assert tuned.fingerprint == cold.fingerprint
        assert tuned.winner_ms == pytest.approx(cold.best.time_ms)
        assert tuned.evaluations == len(cold.results) > 0
        assert tuned.baseline_ms == pytest.approx(cold.baseline.time_ms)
        assert tuned.wall_s > 0
        assert "analysis" in tuned.stage_seconds  # per-stage seconds persisted
        assert tuned.source == "autotune"
        assert tuned.rho is None  # model backend: no measured pairs

        assert hit.cache_hit and hit.evaluations == 0
        assert hit.winner_ms == pytest.approx(cold.best.time_ms)
        assert hit.group_key() == tuned.group_key()

    def test_report_carries_the_record_even_without_a_store(self):
        report = autotune(
            build_matmul_program(16, 16, 16), space_options=SMALL_SPACE, seed=5
        )
        record = getattr(report, "history_record", None)
        assert record is not None
        assert record.fingerprint == report.fingerprint

    def test_hybrid_backend_persists_rho(self, tmp_path):
        store = HistoryStore()
        autotune(
            build_matmul_program(16, 16, 16),
            space_options=WIDE_SPACE,
            backend=HYBRID,
            history=store,
            seed=7,
        )
        (tuned,) = store.records()
        assert tuned.backend.startswith("hybrid:")
        assert tuned.winner_kind == "measured-py"
        assert tuned.rho is not None and -1.0 <= tuned.rho <= 1.0

    def test_traced_request_records_the_collector_trace_id(self):
        store = HistoryStore()
        with trace.capture_trace() as collector:
            autotune(
                build_matmul_program(16, 16, 16),
                space_options=SMALL_SPACE,
                history=store,
                seed=9,
            )
        (tuned,) = store.records()
        assert tuned.trace_id == collector.trace_id
        (root,) = collector.roots
        assert root.attrs["trace_id"] == tuned.trace_id

    def test_untraced_request_has_no_trace_id(self):
        store = HistoryStore()
        autotune(
            build_matmul_program(16, 16, 16),
            space_options=SMALL_SPACE,
            history=store,
            seed=11,
        )
        (tuned,) = store.records()
        assert tuned.trace_id is None


# -- the history CLI (the CI gate) -------------------------------------------------
class TestHistoryCLI:
    def write(self, path, records):
        store = HistoryStore(path)
        for item in records:
            store.append(item)
        return str(path)

    def test_list_and_show_render(self, tmp_path, capsys):
        path = self.write(
            tmp_path / "h.jsonl",
            [record(ts=1.0, rho=0.5, trace_id="t1", job_id="j1"), record(ts=2.0)],
        )
        assert history_main(["list", path]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out and "2 records" in out
        assert history_main(["show", path, "--last", "1"]) == 0
        out = capsys.readouterr().out
        assert "winner=" in out and "trace=" not in out  # only the last record

    def test_compare_and_check_exit_codes(self, tmp_path, capsys):
        steady = self.write(
            tmp_path / "ok.jsonl",
            [record(ts=float(i), winner_ms=1.0) for i in range(3)],
        )
        assert history_main(["compare", steady]) == 0
        assert "window=1" in capsys.readouterr().out
        assert history_main(["check", steady, "--threshold", "5%"]) == 0
        assert "history check passed" in capsys.readouterr().out

        regressed = self.write(tmp_path / "bad.jsonl", [record(ts=10.0, winner_ms=2.0)])
        # same file, new record: the 2x regression flips the gate
        HistoryStore(steady).append(record(ts=10.0, winner_ms=2.0))
        assert history_main(["check", steady, "--threshold", "5%"]) == 1
        captured = capsys.readouterr()
        assert "history check FAILED" in captured.err
        assert "winner time regressed" in captured.err
        # a lone group with no prior window is informational, not a failure
        assert history_main(["check", regressed]) == 0

    def test_empty_store_exit_codes(self, tmp_path, capsys):
        missing = str(tmp_path / "none.jsonl")
        assert history_main(["list", missing]) == 0
        assert history_main(["show", missing]) == 0
        assert history_main(["check", missing]) == 2
        assert history_main(["compare", missing]) == 2
        assert "no records" in capsys.readouterr().err

    def test_bad_threshold_is_a_usage_error(self, tmp_path, capsys):
        path = self.write(tmp_path / "h.jsonl", [record(ts=1.0)])
        assert history_main(["check", path, "--threshold", "fast"]) == 2
        assert "threshold" in capsys.readouterr().err

    def test_corrupt_lines_warn_but_do_not_crash(self, tmp_path, capsys):
        path = tmp_path / "h.jsonl"
        self.write(path, [record(ts=1.0)])
        with open(path, "ab") as handle:
            handle.write(b"garbage\n")
        assert history_main(["list", str(path)]) == 0
        assert "corrupt history line" in capsys.readouterr().err

    def test_main_dispatches_the_history_subcommand(self, tmp_path, capsys):
        path = self.write(tmp_path / "h.jsonl", [record(ts=1.0)])
        assert autotune_main(["history", "list", path]) == 0
        assert "matmul" in capsys.readouterr().out


# -- the event log -----------------------------------------------------------------
class TestEventLog:
    def test_json_mode_emits_parseable_sorted_lines(self):
        stream = io.StringIO()
        log = EventLog(json_mode=True, level="info", stream=stream)
        log.emit("job.submit", job="j1", fingerprint="abc")
        (line,) = stream.getvalue().splitlines()
        payload = json.loads(line)
        assert payload["event"] == "job.submit"
        assert payload["job"] == "j1" and payload["level"] == "info"
        # the grep contract: default separators, sorted keys
        assert '"event": "job.submit"' in line

    def test_human_mode_puts_msg_before_fields(self):
        stream = io.StringIO()
        log = EventLog(level="info", stream=stream)
        log.emit("server.listening", msg="listening on http://x:1", port=1)
        line = stream.getvalue()
        assert "INFO server.listening listening on http://x:1 port=1" in line

    def test_level_threshold_filters(self):
        stream = io.StringIO()
        log = EventLog(level="warning", stream=stream)
        assert not log.enabled("debug") and not log.enabled("info")
        assert log.enabled("error")
        log.emit("job.start", level="info", job="j1")
        log.emit("job.error", level="error", job="j1")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and "job.error" in lines[0]

    def test_configure_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog().configure(level="loud")

    def test_unserializable_fields_degrade_instead_of_crashing(self):
        stream = io.StringIO()
        log = EventLog(json_mode=True, level="info", stream=stream)
        log.emit("cache.put", payload={1, 2})  # a set: json.dumps default=str
        assert json.loads(stream.getvalue())["event"] == "cache.put"

    def test_broken_stream_is_swallowed(self):
        closed = io.StringIO()
        closed.close()
        log = EventLog(level="info", stream=closed)
        log.emit("job.done", job="j1")  # must not raise

    def test_events_pass_hook_narrates_at_debug(self):
        stream = io.StringIO()
        log = EventLog(level="debug", stream=stream)
        from repro.telemetry import events

        original = events.EVENTS
        events.EVENTS = log
        try:
            events_pass_hook("tiling", artifact=None, elapsed_s=0.25)
        finally:
            events.EVENTS = original
        assert "stage.complete" in stream.getvalue()
        assert "stage=tiling" in stream.getvalue()
