"""CLI resilience flags: --fault-plan, --quarantine-out, --checkpoint-dir,
--resume — the acceptance surface for the chaos CI job."""

from __future__ import annotations

import json
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.experiments.cli import main
from repro.faults import NO_FAULTS, active_plan
from repro.obs import instruments
from repro.parallel import split_zeek_log

#: The acceptance scenario: 5% row corruption, 10% scan timeouts.
CHAOS_PLAN = "zeek_corrupt_rate=0.05,scan_timeout_rate=0.10"


@pytest.fixture(scope="module")
def logs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("zeek-logs")
    dataset = cached_campus_dataset(seed="cli-resil", scale="small")
    ssl_path, x509_path = dataset.write_zeek_logs(str(directory))
    return ssl_path, x509_path


class TestFaultPlanFlag:
    def test_chaos_run_exits_zero_with_degradation_summary(
            self, logs_dir, tmp_path, capsys):
        ssl_path, x509_path = logs_dir
        quarantine_path = tmp_path / "quarantine.jsonl"
        report_path = tmp_path / "report.json"
        status = main(["--ssl-log", ssl_path, "--x509-log", x509_path,
                       "--fault-plan", CHAOS_PLAN,
                       "--quarantine-out", str(quarantine_path),
                       "--run-report", str(report_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "Chain categories" in out
        assert "degraded:" in out
        assert "quarantined" in out

        # Every dropped row is on disk with its reason and raw bytes.
        records = [json.loads(line) for line in
                   quarantine_path.read_text().splitlines()]
        assert records
        assert all(r["reason"] and r["raw"] and r["line"] > 0
                   for r in records)
        assert {r["source"] for r in records} <= {ssl_path, x509_path}

        # The RunReport carries the resilience counters.
        resilience = json.loads(report_path.read_text())["resilience"]
        assert resilience["faults_injected"] > 0
        assert resilience["quarantined_records"] == len(records)

    def test_plan_cleared_after_run(self, logs_dir, capsys):
        ssl_path, x509_path = logs_dir
        main(["--ssl-log", ssl_path, "--x509-log", x509_path,
              "--fault-plan", "zeek_corrupt_rate=0.01"])
        capsys.readouterr()
        assert active_plan() is NO_FAULTS

    def test_bad_fault_plan_exits_2(self, capsys):
        status = main(["--fault-plan", "zeek_corrupt_rate=lots"])
        captured = capsys.readouterr()
        assert status == 2
        assert "bad fault plan" in captured.err
        assert "Traceback" not in captured.err

    def test_unknown_fault_plan_key_exits_2(self, capsys):
        status = main(["--fault-plan", "bogus_rate=0.1"])
        captured = capsys.readouterr()
        assert status == 2
        assert "bogus_rate" in captured.err

    def test_quarantine_out_alone_enables_tolerant_reads(
            self, logs_dir, tmp_path, capsys):
        # No fault plan — a genuinely damaged file: one truncated row
        # appended to an otherwise valid ssl.log.
        ssl_path, x509_path = logs_dir
        damaged = tmp_path / "damaged-ssl.log"
        damaged.write_text(open(ssl_path).read() + "truncated-row\n")
        quarantine_path = tmp_path / "q.jsonl"
        status = main(["--ssl-log", str(damaged), "--x509-log", x509_path,
                       "--quarantine-out", str(quarantine_path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "degraded: 1 record quarantined" in out
        record = json.loads(quarantine_path.read_text())
        assert record["reason"] == "column-count"
        assert record["raw"] == "truncated-row"


class TestStrictModeLocation:
    def test_malformed_log_error_names_file_and_line(self, tmp_path,
                                                     capsys):
        bad = tmp_path / "bad.log"
        bad.write_text("#fields\ta\tb\n#types\tstring\tstring\nonly-one\n")
        status = main(["--ssl-log", str(bad), "--x509-log", str(bad)])
        captured = capsys.readouterr()
        assert status == 2
        assert "malformed Zeek log" in captured.err
        assert f"{bad}:3:" in captured.err


class TestCheckpointResume:
    def test_resume_requires_checkpoint_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--resume"])
        assert excinfo.value.code == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resumed_run_output_is_identical(self, logs_dir, tmp_path,
                                             capsys):
        ssl_path, x509_path = logs_dir
        ckpt = tmp_path / "ckpt"
        base_args = ["--ssl-log", ssl_path, "--x509-log", x509_path,
                     "--checkpoint-dir", str(ckpt)]
        assert main(base_args) == 0
        cold_out = capsys.readouterr().out
        assert sorted(p.name for p in ckpt.iterdir()) == [
            "stage-categorize.ckpt", "stage-dga.ckpt",
            "stage-hybrid.ckpt", "stage-interception.ckpt"]

        assert main(base_args + ["--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert resumed_out == cold_out

    def test_chaos_run_resumes_identically(self, logs_dir, tmp_path,
                                           capsys):
        # Same logs + same fault plan on both runs: corruption draws are
        # line-number-keyed, so the resumed run sees identical input and
        # serves every stage from the checkpoint.
        ssl_path, x509_path = logs_dir
        ckpt = tmp_path / "chaos-ckpt"
        args = ["--ssl-log", ssl_path, "--x509-log", x509_path,
                "--fault-plan", CHAOS_PLAN, "--checkpoint-dir", str(ckpt)]
        assert main(args) == 0
        first_out = capsys.readouterr().out
        assert main(args + ["--resume"]) == 0
        second_out = capsys.readouterr().out
        assert second_out == first_out
        assert "recomputing" not in second_out

    def test_checkpoints_resume_across_jobs(self, logs_dir, tmp_path,
                                            capsys):
        # Stage names do not depend on --jobs: a checkpoint written by a
        # default run serves every stage of a --jobs 2 resume.
        ssl_path, x509_path = logs_dir
        shard_dir = tmp_path / "shards"
        split_zeek_log(ssl_path, str(shard_dir), 2)
        shutil.copy(x509_path, shard_dir / "x509.log")
        args = ["--shard-dir", str(shard_dir),
                "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main(args) == 0
        cold_out = capsys.readouterr().out
        assert main(args + ["--jobs", "2", "--resume"]) == 0
        assert capsys.readouterr().out == cold_out
        for stage in ("interception", "categorize", "hybrid", "dga"):
            assert instruments.CHECKPOINT_STAGES.value(
                stage=stage, result="loaded") == 1, stage
