"""Supervised dispatch: crash/hang recovery, retries, journals, fallback.

Unit-level coverage of :func:`repro.parallel.supervisor.run_supervised`
against tiny arithmetic tasks — the engine-level byte-identity chaos
tests live in ``test_supervisor_recovery.py``.  The start method is
fork, so module-level task functions pickle into pool workers directly.
"""

from __future__ import annotations

import pytest

from repro.faults import FaultPlan
from repro.parallel.supervisor import (HANG_SECONDS_VAR, SupervisorConfig,
                                       heartbeat, resolve_config,
                                       run_supervised)
from repro.resilience import Quarantine, RunJournal


def square(task):
    return task * task


def odd_explodes(task):
    if task % 2:
        raise ValueError(f"bad:{task}")
    return task


def never_called(task):
    raise AssertionError(f"task {task} should have been replayed")


def fingerprint_of(task):
    return f"fp-{task}"


CRASH_ALL = FaultPlan(seed="sup-crash", worker_crash_rate=1.0)


class TestInline:
    def test_results_in_task_order(self):
        run = run_supervised("t", [1, 2, 3], square, jobs=1)
        assert run.results == [1, 4, 9]
        assert not run.degraded
        assert run.summary_lines() == []

    def test_zero_tasks(self):
        run = run_supervised("t", [], square, jobs=4)
        assert run.results == []
        assert not run.degraded

    def test_heartbeat_is_noop_in_driver(self):
        heartbeat("t:0000")  # no deadline run active: must not raise


class TestPool:
    def test_results_in_task_order(self):
        run = run_supervised("t", list(range(6)), square, jobs=2)
        assert run.results == [0, 1, 4, 9, 16, 25]
        assert not run.degraded

    def test_lowest_indexed_task_error_wins(self):
        # Ordinary task exceptions are not infrastructure: no retry, and
        # the error a serial loop would have hit first is the one raised.
        with pytest.raises(ValueError, match="bad:1"):
            run_supervised("t", [0, 1, 2, 3], odd_explodes, jobs=2)


class TestCrashRecovery:
    def test_poison_tasks_recovered_in_driver(self):
        quarantine = Quarantine()
        config = SupervisorConfig(plan=CRASH_ALL, max_task_retries=1,
                                  quarantine=quarantine)
        run = run_supervised("t", [2, 3], square, jobs=2, config=config)
        assert run.results == [4, 9]
        assert run.degraded
        assert run.fallbacks == 2
        assert sorted(run.quarantined) == ["t:0000", "t:0001"]
        assert run.pool_rebuilds >= 1
        kinds = {incident.incident for incident in run.incidents}
        assert "worker_crash" in kinds
        assert "serial_fallback" in kinds
        assert len(quarantine) == 2
        assert all(r.reason == "poison_task" for r in quarantine)
        assert any("recovered in-driver" in line
                   for line in run.summary_lines())

    def test_serial_fallback_disabled_drops_with_none(self):
        config = SupervisorConfig(plan=CRASH_ALL, max_task_retries=0,
                                  serial_fallback=False)
        run = run_supervised("t", [2], square, jobs=2, config=config)
        assert run.results == [None]
        assert run.quarantined == ["t:0000"]
        assert run.fallbacks == 0
        assert any("dropped" in line for line in run.summary_lines())

    def test_partial_crash_rate_always_recovers_correct_results(self):
        plan = FaultPlan(seed="sup-partial", worker_crash_rate=0.4)
        for _ in range(2):
            config = SupervisorConfig(plan=plan, max_task_retries=3)
            run = run_supervised("t", list(range(6)), square, jobs=2,
                                 config=config)
            assert run.results == [t * t for t in range(6)]

    def test_incident_report_shape(self):
        config = SupervisorConfig(plan=CRASH_ALL, max_task_retries=0)
        run = run_supervised("t", [5], square, jobs=2, config=config)
        report = run.report()
        assert report["kind"] == "t"
        assert report["tasks"] == 1
        assert report["quarantined"] == ["t:0000"]
        assert report["fallbacks"] == 1
        assert any(entry["incident"] == "worker_crash"
                   for entry in report["incidents"])


class TestHangRecovery:
    def test_hung_worker_detected_and_recovered(self, monkeypatch):
        # The injected hang sleeps far past the deadline; kill_pool reaps
        # the sleeping worker when the watchdog fires.
        monkeypatch.setenv(HANG_SECONDS_VAR, "30")
        plan = FaultPlan(seed="sup-hang", worker_hang_rate=1.0)
        config = SupervisorConfig(plan=plan, max_task_retries=0,
                                  task_timeout=0.3, poll_interval=0.05)
        run = run_supervised("t", [4], square, jobs=2, config=config)
        assert run.results == [16]
        assert any(incident.incident == "worker_hang"
                   for incident in run.incidents)
        assert run.pool_rebuilds >= 1
        assert run.fallbacks == 1

    def test_deadline_leaves_healthy_tasks_alone(self):
        config = SupervisorConfig(task_timeout=30.0, poll_interval=0.05)
        run = run_supervised("t", [1, 2, 3], square, jobs=2, config=config)
        assert run.results == [1, 4, 9]
        assert not run.degraded


class TestJournal:
    def test_resume_replays_completed_tasks(self, tmp_path):
        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal)
            first = run_supervised("t", [1, 2, 3], square, jobs=1,
                                   config=config,
                                   fingerprint_fn=fingerprint_of)
        assert first.results == [1, 4, 9]
        assert first.journal_replayed == 0

        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal, resume=True)
            second = run_supervised("t", [1, 2, 3], never_called, jobs=1,
                                    config=config,
                                    fingerprint_fn=fingerprint_of)
        assert second.results == [1, 4, 9]
        assert second.journal_replayed == 3

    def test_without_resume_journal_is_write_only(self, tmp_path):
        with RunJournal(str(tmp_path / "j")) as journal:
            run_supervised("t", [2], square, jobs=1,
                           config=SupervisorConfig(journal=journal),
                           fingerprint_fn=fingerprint_of)
        with RunJournal(str(tmp_path / "j")) as journal:
            run = run_supervised("t", [2], square, jobs=1,
                                 config=SupervisorConfig(journal=journal),
                                 fingerprint_fn=fingerprint_of)
        assert run.journal_replayed == 0
        assert run.results == [4]

    def test_stale_fingerprint_recomputes(self, tmp_path):
        with RunJournal(str(tmp_path / "j")) as journal:
            run_supervised("t", [3], square, jobs=1,
                           config=SupervisorConfig(journal=journal),
                           fingerprint_fn=fingerprint_of)
        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal, resume=True)
            run = run_supervised("t", [3], square, jobs=1, config=config,
                                 fingerprint_fn=lambda task: "changed")
        assert run.journal_replayed == 0
        assert run.results == [9]

    def test_validate_fn_vetoes_replay(self, tmp_path):
        with RunJournal(str(tmp_path / "j")) as journal:
            run_supervised("t", [3], square, jobs=1,
                           config=SupervisorConfig(journal=journal),
                           fingerprint_fn=fingerprint_of)
        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal, resume=True)
            run = run_supervised("t", [3], square, jobs=1, config=config,
                                 fingerprint_fn=fingerprint_of,
                                 validate_fn=lambda task, payload: False)
        assert run.journal_replayed == 0
        assert run.results == [9]

    def test_partial_journal_resumes_remaining_tasks(self, tmp_path):
        # Simulate a driver killed after two of four tasks: only those
        # two are journaled, and the resume recomputes just the rest.
        with RunJournal(str(tmp_path / "j")) as journal:
            for i in (0, 1):
                journal.record("t", f"t:{i:04d}", fingerprint_of(i), i * i)
        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal, resume=True)
            run = run_supervised("t", [0, 1, 2, 3], square, jobs=1,
                                 config=config,
                                 fingerprint_fn=fingerprint_of)
        assert run.journal_replayed == 2
        assert run.results == [0, 1, 4, 9]


class TestOnComplete:
    """``on_complete`` sees every recorded result once, in the driver,
    and never an errored or dropped task."""

    @staticmethod
    def _collect(*args, **kwargs):
        seen = []
        run = run_supervised(*args, on_complete=lambda i, payload:
                             seen.append((i, payload)), **kwargs)
        return run, seen

    def test_inline_runs_call_back_in_task_order(self):
        run, seen = self._collect("t", [1, 2, 3], square, jobs=1)
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_pool_completions_each_called_back_once(self):
        run, seen = self._collect("t", list(range(6)), square, jobs=2)
        assert sorted(seen) == list(enumerate(run.results))

    def test_journal_replays_come_first(self, tmp_path):
        with RunJournal(str(tmp_path / "j")) as journal:
            for i in (1, 3):
                journal.record("t", f"t:{i:04d}", fingerprint_of(i), i * i)
        with RunJournal(str(tmp_path / "j")) as journal:
            config = SupervisorConfig(journal=journal, resume=True)
            run, seen = self._collect("t", [0, 1, 2, 3], square, jobs=2,
                                      config=config,
                                      fingerprint_fn=fingerprint_of)
        assert seen[:2] == [(1, 1), (3, 9)]
        assert sorted(seen) == list(enumerate(run.results))

    def test_serial_fallbacks_called_back_and_drops_not(self):
        config = SupervisorConfig(plan=CRASH_ALL, max_task_retries=0)
        _, seen = self._collect("t", [2, 3], square, jobs=2, config=config)
        assert sorted(seen) == [(0, 4), (1, 9)]
        config = SupervisorConfig(plan=CRASH_ALL, max_task_retries=0,
                                  serial_fallback=False)
        run, seen = self._collect("t", [2], square, jobs=2, config=config)
        assert run.results == [None] and seen == []

    def test_errored_tasks_never_called_back(self):
        seen = []
        with pytest.raises(ValueError, match="bad:1"):
            run_supervised("t", [0, 1, 2, 3], odd_explodes, jobs=2,
                           on_complete=lambda i, payload:
                           seen.append(i))
        assert sorted(seen) == [0, 2]


class TestResolveConfig:
    def test_defaults_fill_without_mutating_caller(self):
        plan = FaultPlan(seed="r", worker_crash_rate=0.5)
        quarantine = Quarantine()
        caller = SupervisorConfig(max_task_retries=7)
        config = resolve_config(caller, plan=plan, quarantine=quarantine)
        assert config is not caller
        assert config.max_task_retries == 7
        assert config.plan is plan
        assert config.quarantine is quarantine
        assert caller.plan is None and caller.quarantine is None

    def test_zero_rate_plan_not_installed(self):
        config = resolve_config(None, plan=FaultPlan(seed="r"))
        assert config.plan is None
