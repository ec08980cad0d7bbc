"""bench-report: history loading, trajectory rows, gate verdicts."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs.benchreport import (
    DEFAULT_GATES,
    Gate,
    build_rows,
    flatten_numbers,
    host_metadata,
    interleaved_rounds,
    load_history,
    main,
    round_ratios,
)

# A BENCH_ingest payload comfortably above every ingest floor.
GOOD_INGEST = {
    "cpu_count": 4,
    "read": {"compiled_rows_per_second": 120_000.0,
             "compiled_over_legacy": 2.0,
             "columnar_rows_per_second": 650_000.0,
             "columnar_over_compiled": 5.0},
    "engine": {"1": {"speedup_vs_serial": 1.5,
                     "rows_per_second": 90_000.0}},
    "serial_legacy": {"rows_per_second": 60_000.0},
}

# A BENCH_e2e payload comfortably inside the wall-clock ceiling.
GOOD_E2E = {
    "pipeline": {"1": {"total_seconds": 2.0, "generate_seconds": 1.0,
                       "ingest_seconds": 0.7, "analyze_seconds": 0.3}},
}


def _write(path, data, mtime=None):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data))
    if mtime is not None:
        os.utime(path, (mtime, mtime))


class TestHostMetadata:
    def test_base_keys_always_present(self):
        meta = host_metadata()
        assert set(meta) == {"cpu_count", "python_version", "platform"}
        assert meta["cpu_count"] == os.cpu_count()

    def test_jobs_keys_only_when_given(self):
        meta = host_metadata(requested_jobs=4, effective_jobs=2)
        assert meta["requested_jobs"] == 4
        assert meta["effective_jobs"] == 2


class TestInterleavedRounds:
    def test_rounds_alternate_sides(self):
        calls = []
        first, second = interleaved_rounds(
            lambda: calls.append("a"), lambda: calls.append("b"),
            rounds=3, min_seconds=0.0)
        assert calls == ["a", "b"] * 3
        assert len(first) == len(second) == 3

    def test_round_repeats_until_min_seconds(self):
        calls = []
        first, _ = interleaved_rounds(lambda: calls.append(1), lambda: None,
                                      rounds=1, min_seconds=0.02)
        assert len(calls) > 1
        # A sample is seconds per call, not per round.
        assert first[0] < 0.02

    def test_round_ratios_and_quartiles(self):
        summary = round_ratios([2.0, 4.0, 6.0, 8.0, 10.0], [1.0] * 5)
        assert summary["round_ratios"] == [2.0, 4.0, 6.0, 8.0, 10.0]
        assert summary["ratio_quartiles"] == [4.0, 6.0, 8.0]


class TestFlattenNumbers:
    def test_nested_paths_and_bool_exclusion(self):
        flat = flatten_numbers({"a": {"b": 1, "ok": True}, "c": 2.5,
                                "name": "x"})
        assert flat == {"a.b": 1.0, "c": 2.5}


class TestLoadHistory:
    def test_orders_by_mtime_and_skips_junk(self, tmp_path, capsys):
        _write(tmp_path / "old" / "BENCH_ingest.json",
               {"read": {"compiled_rows_per_second": 50_000}}, mtime=1000)
        _write(tmp_path / "BENCH_ingest.json", GOOD_INGEST, mtime=2000)
        (tmp_path / "BENCH_analyze.json").write_text("{not json")
        (tmp_path / "BENCH_unknown_kind.txt").write_text("ignored")
        runs = load_history([str(tmp_path)])
        history = runs["BENCH_ingest"]
        assert [run.numbers["read.compiled_rows_per_second"]
                for run in history] == [50_000.0, 120_000.0]
        assert "BENCH_analyze" not in runs
        assert "skipping" in capsys.readouterr().err

    def test_overlapping_directories_deduplicated(self, tmp_path):
        _write(tmp_path / "sub" / "BENCH_ingest.json", GOOD_INGEST)
        runs = load_history([str(tmp_path), str(tmp_path / "sub")])
        assert len(runs["BENCH_ingest"]) == 1


class TestGateVerdicts:
    def test_default_gates_pass_on_healthy_numbers(self, tmp_path):
        _write(tmp_path / "BENCH_ingest.json", GOOD_INGEST)
        rows = build_rows(load_history([str(tmp_path)]))
        gated = [row for row in rows if row.floor is not None]
        assert len(gated) == 5  # the five ingest floors
        assert all(row.status == "ok" for row in gated)
        assert all(row.margin_pct > 0 for row in gated)

    def test_floor_violation_reproduces_bench_verdict(self, tmp_path):
        bad = json.loads(json.dumps(GOOD_INGEST))
        bad["read"]["compiled_over_legacy"] = 1.1  # bench asserts >= 1.2
        _write(tmp_path / "BENCH_ingest.json", bad)
        rows = build_rows(load_history([str(tmp_path)]))
        by_metric = {row.metric: row for row in rows}
        row = by_metric["read.compiled_over_legacy"]
        assert row.status == "FLOOR"
        assert row.failed

    def test_regression_past_tolerance_flagged(self, tmp_path):
        _write(tmp_path / "old" / "BENCH_ingest.json", GOOD_INGEST,
               mtime=1000)
        slower = json.loads(json.dumps(GOOD_INGEST))
        slower["read"]["compiled_rows_per_second"] = 90_000.0  # -25%
        _write(tmp_path / "BENCH_ingest.json", slower, mtime=2000)
        rows = build_rows(load_history([str(tmp_path)]), tolerance=10.0)
        row = {r.metric: r for r in rows}["read.compiled_rows_per_second"]
        assert row.status == "REGRESSED"  # above floor but dropping fast

    def test_regression_within_tolerance_is_ok(self, tmp_path):
        _write(tmp_path / "old" / "BENCH_ingest.json", GOOD_INGEST,
               mtime=1000)
        slower = json.loads(json.dumps(GOOD_INGEST))
        slower["read"]["compiled_rows_per_second"] = 115_000.0  # ~-4%
        _write(tmp_path / "BENCH_ingest.json", slower, mtime=2000)
        rows = build_rows(load_history([str(tmp_path)]), tolerance=10.0)
        row = {r.metric: r for r in rows}["read.compiled_rows_per_second"]
        assert row.status == "ok"

    def test_ungated_metrics_never_fail(self, tmp_path):
        _write(tmp_path / "old" / "BENCH_ingest.json", GOOD_INGEST,
               mtime=1000)
        slower = json.loads(json.dumps(GOOD_INGEST))
        slower["serial_legacy"]["rows_per_second"] = 10_000.0  # -83%
        _write(tmp_path / "BENCH_ingest.json", slower, mtime=2000)
        rows = build_rows(load_history([str(tmp_path)]))
        row = {r.metric: r for r in rows}["serial_legacy.rows_per_second"]
        assert row.floor is None
        assert row.status == "ok"

    def test_every_default_gate_metric_exists_in_some_kind(self):
        kinds = {gate.bench for gate in DEFAULT_GATES}
        assert kinds <= {"BENCH_ingest", "BENCH_analyze", "BENCH_generate",
                         "BENCH_resilience", "BENCH_e2e"}
        assert all(isinstance(gate, Gate) for gate in DEFAULT_GATES)

    def test_gate_requires_exactly_one_bound(self):
        with pytest.raises(ValueError):
            Gate("BENCH_ingest", "read.x")
        with pytest.raises(ValueError):
            Gate("BENCH_ingest", "read.x", floor=1.0, ceiling=2.0)


class TestCeilingGates:
    def test_healthy_e2e_passes_under_ceiling(self, tmp_path):
        _write(tmp_path / "BENCH_e2e.json", GOOD_E2E)
        rows = build_rows(load_history([str(tmp_path)]))
        gated = [row for row in rows if row.ceiling is not None]
        assert len(gated) == 1
        row = gated[0]
        assert row.metric == "pipeline.1.total_seconds"
        assert row.status == "ok"
        assert row.margin_pct > 0
        assert not row.failed

    def test_ceiling_violation_fails(self, tmp_path):
        slow = json.loads(json.dumps(GOOD_E2E))
        slow["pipeline"]["1"]["total_seconds"] = 12.0  # ceiling is 10.0
        _write(tmp_path / "BENCH_e2e.json", slow)
        rows = build_rows(load_history([str(tmp_path)]))
        row = {r.metric: r for r in rows}["pipeline.1.total_seconds"]
        assert row.status == "CEILING"
        assert row.failed

    def test_ceiling_metric_growing_past_tolerance_regresses(self,
                                                             tmp_path):
        _write(tmp_path / "old" / "BENCH_e2e.json", GOOD_E2E, mtime=1000)
        slower = json.loads(json.dumps(GOOD_E2E))
        slower["pipeline"]["1"]["total_seconds"] = 3.0  # +50%, under cap
        _write(tmp_path / "BENCH_e2e.json", slower, mtime=2000)
        rows = build_rows(load_history([str(tmp_path)]), tolerance=10.0)
        row = {r.metric: r for r in rows}["pipeline.1.total_seconds"]
        assert row.status == "REGRESSED"  # latency grows toward the cap

    def test_check_exits_1_on_ceiling_violation(self, tmp_path, capsys):
        slow = json.loads(json.dumps(GOOD_E2E))
        slow["pipeline"]["1"]["total_seconds"] = 12.0
        _write(tmp_path / "BENCH_e2e.json", slow)
        assert main(["--dir", str(tmp_path), "--check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL BENCH_e2e pipeline.1.total_seconds" in out
        assert "ceiling" in out


class TestMain:
    def test_no_files_exits_2(self, tmp_path, capsys):
        assert main(["--dir", str(tmp_path)]) == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_healthy_history_exits_0_and_prints_table(self, tmp_path,
                                                      capsys):
        _write(tmp_path / "BENCH_ingest.json", GOOD_INGEST)
        assert main(["--dir", str(tmp_path), "--check"]) == 0
        out = capsys.readouterr().out
        assert "Benchmark trajectory" in out
        assert "read.compiled_rows_per_second" in out
        assert "BENCH_ingest: 1 run" in out

    def test_check_exits_1_on_floor_violation(self, tmp_path, capsys):
        bad = json.loads(json.dumps(GOOD_INGEST))
        bad["engine"]["1"]["speedup_vs_serial"] = 1.0  # floor is 1.1
        _write(tmp_path / "BENCH_ingest.json", bad)
        assert main(["--dir", str(tmp_path), "--check"]) == 1
        assert "FAIL BENCH_ingest engine.1.speedup_vs_serial" \
            in capsys.readouterr().out

    def test_without_check_failures_still_exit_0(self, tmp_path):
        bad = json.loads(json.dumps(GOOD_INGEST))
        bad["engine"]["1"]["speedup_vs_serial"] = 1.0
        _write(tmp_path / "BENCH_ingest.json", bad)
        assert main(["--dir", str(tmp_path)]) == 0

    def test_json_output_written(self, tmp_path):
        _write(tmp_path / "BENCH_ingest.json", GOOD_INGEST)
        out = tmp_path / "report.json"
        assert main(["--dir", str(tmp_path), "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        metrics = {row["metric"] for row in payload}
        assert "read.compiled_rows_per_second" in metrics
        assert all(row["status"] == "ok" for row in payload)
