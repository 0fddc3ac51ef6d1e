"""Tests for the in-process job queue: submit/status/result/cancel/retry."""

import threading
import time

import pytest

from repro.exceptions import ServiceError
from repro.service import JobQueue
from repro.store import ResultStore
from repro.suite import figure2_scenario
from repro.suite.results import SpecOutcome, SuiteResult, merge_engine_stats
from repro.suite.sweep import Scenario, Sweep

KNOBS = dict(shots=60, repetitions=1, seed=99, trajectories=12)


def tiny_scenario():
    return figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])


def make_outcome(key, index=0):
    return SpecOutcome(
        key=key,
        spec={"family": "ghz", "params": {"num_qubits": 3}},
        device="IonQ-11Q",
        mitigation="raw",
        index=index,
        status="skipped",
        reason="test",
    )


class TestJobQueueEndToEnd:
    def test_submit_runs_a_real_scenario(self):
        with JobQueue(workers=1) as jobs:
            job_id = jobs.submit(tiny_scenario(), **KNOBS)
            result = jobs.result(job_id, timeout=120)
            assert len(result.runs()) == 2
            status = jobs.status(job_id)
            assert status["status"] == "done"
            assert status["executed"] == 2
            assert status["attempts"] == 1

    def test_store_is_shared_across_jobs(self):
        with ResultStore() as store, JobQueue(store=store, workers=1) as jobs:
            first = jobs.result(jobs.submit(tiny_scenario(), **KNOBS), timeout=120)
            second = jobs.result(jobs.submit(tiny_scenario(), **KNOBS), timeout=120)
            assert second.scores() == first.scores()
            assert store.stats()["hits"] == len(second.runs())

    def test_streaming_outcomes(self):
        with JobQueue(workers=1) as jobs:
            job_id = jobs.submit(tiny_scenario(), **KNOBS)
            payloads = list(jobs.iter_outcomes(job_id, timeout=120))
            assert len(payloads) == 2
            assert all(payload["status"] == "ok" for payload in payloads)


class TestJobQueueSemantics:
    def test_submit_validates_scenario(self):
        with JobQueue(workers=1) as jobs:
            with pytest.raises(ServiceError, match="takes a Scenario"):
                jobs.submit("figure2")

    def test_unknown_job_id(self):
        with JobQueue(workers=1) as jobs:
            with pytest.raises(ServiceError, match="unknown job id"):
                jobs.status("job-999")

    def test_failed_job_retries_then_fails(self):
        attempts = []

        def flaky_runner(scenario, partial=None, on_outcome=None, **knobs):
            attempts.append(1)
            raise RuntimeError("boom")

        with JobQueue(workers=1, max_attempts=3, runner=flaky_runner) as jobs:
            job_id = jobs.submit(tiny_scenario())
            with pytest.raises(ServiceError, match="failed"):
                jobs.result(job_id, timeout=30)
            status = jobs.status(job_id)
            assert status["attempts"] == 3
            assert "RuntimeError: boom" in status["error"]
            assert jobs.stats()["retries"] == 2
        assert len(attempts) == 3

    def test_unknown_device_fails_on_the_first_attempt(self):
        """A library error fails every attempt the same way: no retry."""
        with JobQueue(workers=1, max_attempts=2) as jobs:
            job_id = jobs.submit(tiny_scenario(), devices=["Nope-1Q"], **KNOBS)
            with pytest.raises(ServiceError, match="failed"):
                jobs.result(job_id, timeout=60)
            status = jobs.status(job_id)
            assert status["attempts"] == 1
            assert "DeviceError" in status["error"]
            assert jobs.stats()["retries"] == 0

    def test_retry_resumes_partial_results(self):
        calls = []

        def crash_once_runner(scenario, partial=None, on_outcome=None, **knobs):
            calls.append(partial)
            outcome = make_outcome("unit-1")
            if outcome.key not in partial:
                partial.add(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)
            if len(calls) == 1:
                raise RuntimeError("crash after first unit")
            second = make_outcome("unit-2", index=1)
            partial.add(second)
            if on_outcome is not None:
                on_outcome(second)
            return partial

        with JobQueue(workers=1, max_attempts=2, runner=crash_once_runner) as jobs:
            job_id = jobs.submit(tiny_scenario())
            result = jobs.result(job_id, timeout=30)
            # Both attempts received the same accumulating SuiteResult.
            assert calls[0] is calls[1]
            assert len(result) == 2
            assert jobs.status(job_id)["attempts"] == 2

    def test_cancel_queued_job(self):
        release = threading.Event()

        def blocking_runner(scenario, partial=None, on_outcome=None, **knobs):
            release.wait(timeout=30)
            return partial

        with JobQueue(workers=1, runner=blocking_runner) as jobs:
            blocker = jobs.submit(tiny_scenario())
            queued = jobs.submit(tiny_scenario())
            assert jobs.cancel(queued) is True
            assert jobs.status(queued)["status"] == "cancelled"
            release.set()
            jobs.result(blocker, timeout=30)
            # Cancelling a finished job is a no-op returning False.
            assert jobs.cancel(blocker) is False

    def test_cancel_running_job_stops_at_outcome_boundary(self):
        started = threading.Event()
        proceed = threading.Event()

        def slow_runner(scenario, partial=None, on_outcome=None, **knobs):
            for index in range(10):
                outcome = make_outcome(f"unit-{index}", index=index)
                partial.add(outcome)
                if on_outcome is not None:
                    on_outcome(outcome)  # raises JobCancelled once requested
                started.set()
                proceed.wait(timeout=30)
            return partial

        with JobQueue(workers=1, runner=slow_runner) as jobs:
            job_id = jobs.submit(tiny_scenario())
            assert started.wait(timeout=30)
            assert jobs.cancel(job_id) is True
            proceed.set()
            deadline = time.monotonic() + 30
            while jobs.status(job_id)["status"] == "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            status = jobs.status(job_id)
            assert status["status"] == "cancelled"
            assert status["outcomes"] < 10

    def test_result_timeout(self):
        def blocking_runner(scenario, partial=None, on_outcome=None, **knobs):
            time.sleep(5)
            return partial

        with JobQueue(workers=1, runner=blocking_runner) as jobs:
            job_id = jobs.submit(tiny_scenario())
            with pytest.raises(ServiceError, match="timed out"):
                jobs.result(job_id, timeout=0.2)

    def test_closed_queue_rejects_submissions(self):
        jobs = JobQueue(workers=1)
        jobs.close()
        with pytest.raises(ServiceError, match="closed"):
            jobs.submit(tiny_scenario())

    def test_constructor_validation(self):
        with pytest.raises(ServiceError):
            JobQueue(workers=0)
        with pytest.raises(ServiceError):
            JobQueue(max_attempts=0)

    def test_a_stream_timeout_ends_the_stream_or_raises(self):
        emitted, release = threading.Event(), threading.Event()

        def runner(scenario, partial=None, on_outcome=None, **knobs):
            on_outcome(make_outcome("unit-0"))
            emitted.set()
            release.wait(timeout=30)
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            try:
                job_id = jobs.submit(tiny_scenario())
                assert emitted.wait(timeout=30)
                payloads = list(jobs.iter_outcomes(job_id, timeout=0.3, end=True))
                with pytest.raises(ServiceError, match="timed out streaming"):
                    list(jobs.iter_outcomes(job_id, timeout=0.3))
            finally:
                release.set()
        assert [payload.get("key") for payload in payloads] == ["unit-0", None]
        assert payloads[-1] == {"event": "end", "status": "timeout", "outcomes": 1}


def _integer_counters(engine_stats):
    return {
        key: {name: value for name, value in stats.items() if isinstance(value, int)}
        for key, stats in engine_stats.items()
    }


class TestEngineStatsFolding:
    def test_matches_a_full_re_merge_of_every_job(self):
        """Done, failed, cancelled, retried and running jobs: the running total
        folded at each terminal state equals re-merging every job's stats."""
        attempts = {}
        cancel_ready = threading.Event()
        release = threading.Event()

        def runner(scenario, partial=None, on_outcome=None, mode="done", engine="a", **knobs):
            attempts[mode] = attempts.get(mode, 0) + 1
            partial.note_engine_stats("scheduler", {"leases": 1, "seconds": 0.25})
            partial.note_engine_stats(
                f"engine-{engine}", {"hits": 3, "misses": 1, "entries": len(mode), "seconds": 0.5}
            )
            if mode == "fail" or (mode == "retried" and attempts[mode] == 1):
                raise RuntimeError("boom")
            if mode == "cancel":
                cancel_ready.set()
                release.wait(timeout=30)
                on_outcome(make_outcome("unit-1"))  # raises JobCancelled
            if mode == "running":
                release.wait(timeout=30)
            return partial

        with JobQueue(workers=1, max_attempts=2, runner=runner) as jobs:
            done = jobs.submit(tiny_scenario(), mode="done", engine="a")
            failed = jobs.submit(tiny_scenario(), mode="fail", engine="b")
            retried = jobs.submit(tiny_scenario(), mode="retried", engine="a")
            cancelled = jobs.submit(tiny_scenario(), mode="cancel", engine="c")
            assert cancel_ready.wait(timeout=30)
            jobs.cancel(cancelled)
            never_ran = jobs.submit(tiny_scenario(), mode="done", engine="d")
            jobs.cancel(never_ran)
            running = jobs.submit(tiny_scenario(), mode="running", engine="a")
            release.set()
            jobs.result(done, timeout=30)
            jobs.result(retried, timeout=30)
            for job_id in (failed, cancelled):
                with pytest.raises(ServiceError):
                    jobs.result(job_id, timeout=30)
            assert jobs.status(never_ran)["status"] == "cancelled"
            jobs.result(running, timeout=30)
            assert attempts == {"done": 1, "fail": 2, "retried": 2, "cancel": 1, "running": 1}

            full = {}
            for job in jobs._jobs.values():
                if job.result is not None:
                    for engine_key, stats in job.result.engine_stats.items():
                        merge_engine_stats(full.setdefault(engine_key, {}), stats)
            folded = jobs.engine_stats()
            assert folded.keys() == full.keys() == {
                "scheduler", "engine-a", "engine-b", "engine-c"
            }
            assert _integer_counters(folded) == _integer_counters(full)
            assert folded["scheduler"]["leases"] == 7  # every attempt that ran
            # Folding happens once per job, not once per call.
            assert _integer_counters(jobs.engine_stats()) == _integer_counters(full)

    def test_running_jobs_are_merged_per_call(self):
        noted = threading.Event()
        release = threading.Event()

        def runner(scenario, partial=None, on_outcome=None, **knobs):
            partial.note_engine_stats("engine", {"hits": 2})
            noted.set()
            release.wait(timeout=30)
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            first = jobs.submit(tiny_scenario())
            assert noted.wait(timeout=30)
            assert jobs.engine_stats() == {"engine": {"hits": 2}}
            release.set()
            jobs.result(first, timeout=30)
            assert jobs.engine_stats() == {"engine": {"hits": 2}}


class TestWorkerStatsFolding:
    def test_worker_pids_fold_into_one_entry(self):
        """Process jobs name new ``worker-pid-<n>`` keys every time; once a job
        finishes they fold into ``workers``, so the keys stop growing."""
        pids = iter(range(1000, 2000))

        def runner(scenario, partial=None, on_outcome=None, **knobs):
            partial.note_engine_stats("scheduler", {"leases": 2})
            for _ in range(2):
                partial.note_engine_stats(
                    f"worker-pid-{next(pids)}", {"executions": 3, "seconds": 0.5, "entries": 4}
                )
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            keys = []
            for _ in range(5):
                jobs.result(jobs.submit(tiny_scenario()), timeout=30)
                keys.append(sorted(jobs.engine_stats()))
            assert keys == [["scheduler", "workers"]] * 5
            assert jobs.engine_stats() == {
                "scheduler": {"leases": 10},
                "workers": {"executions": 30, "seconds": 5.0, "entries": 4},
            }

    def test_live_jobs_keep_their_pid_entries(self):
        noted = threading.Event()
        release = threading.Event()

        def runner(scenario, partial=None, on_outcome=None, **knobs):
            partial.note_engine_stats("worker-pid-7", {"executions": 1})
            noted.set()
            release.wait(timeout=30)
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            job_id = jobs.submit(tiny_scenario())
            assert noted.wait(timeout=30)
            assert jobs.engine_stats() == {"worker-pid-7": {"executions": 1}}
            release.set()
            jobs.result(job_id, timeout=30)
            assert jobs.engine_stats() == {"workers": {"executions": 1}}


def _instant(scenario, partial=None, on_outcome=None, **knobs):
    return partial


class TestRetention:
    def test_keeps_the_newest_finished_records(self):
        with JobQueue(workers=1, runner=_instant) as jobs:
            for _ in range(105):
                jobs.result(jobs.submit(tiny_scenario()), timeout=30)
            assert len(jobs._jobs) == len(jobs.jobs()) == 100
            stats = jobs.stats()
            assert stats["done"] == stats["jobs"] == 105
            for call in (jobs.status, jobs.result, jobs.cancel, jobs.iter_outcomes):
                with pytest.raises(ServiceError, match="unknown job id"):
                    call("job-5")
            assert jobs.status("job-6")["status"] == "done"
            assert [job["id"] for job in jobs.jobs()][0] == "job-6"

    def test_running_jobs_are_never_dropped(self):
        started = threading.Event()
        release = threading.Event()

        def runner(scenario, partial=None, on_outcome=None, hold=False, **knobs):
            if hold:
                started.set()
                release.wait(timeout=30)
            return partial

        with JobQueue(workers=2, runner=runner) as jobs:
            held = jobs.submit(tiny_scenario(), hold=True)
            assert started.wait(timeout=30)
            for _ in range(150):
                jobs.result(jobs.submit(tiny_scenario()), timeout=30)
            assert jobs.status(held)["status"] == "running"
            assert len(jobs._jobs) == 101
            release.set()
            jobs.result(held, timeout=30)
            assert len(jobs._jobs) == 100
            assert jobs.status(held)["status"] == "done"
            stats = jobs.stats()
            assert stats["done"] == stats["jobs"] == 151

    def test_an_open_stream_keeps_its_record(self):
        def runner(scenario, partial=None, on_outcome=None, outcomes=0, **knobs):
            for index in range(outcomes):
                on_outcome(make_outcome(f"unit-{index}", index))
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            streamed = jobs.submit(tiny_scenario(), outcomes=2)
            jobs.result(streamed, timeout=30)
            stream = jobs.iter_outcomes(streamed, timeout=30, end=True)
            for _ in range(100):
                jobs.result(jobs.submit(tiny_scenario()), timeout=30)
            with pytest.raises(ServiceError):
                jobs.status(streamed)
            payloads = list(stream)
            assert [payload.get("key") for payload in payloads[:2]] == ["unit-0", "unit-1"]
            assert payloads[2] == {"event": "end", "status": "done", "outcomes": 2}


def _walk_statuses(jobs):
    """Jobs per status by walking every record, as ``stats()`` once did."""
    counts = dict.fromkeys(("queued", "running", "done", "failed", "cancelled"), 0)
    for job in jobs._jobs.values():
        counts[job.status] += 1
    return counts


class _Unwalkable(dict):
    """A job table whose records cannot be walked, only looked up."""

    def values(self):
        raise AssertionError("stats() walked every job")

    items = __iter__ = values


class TestStatusCounts:
    def test_equal_a_full_walk_at_every_stage(self):
        """Done, failed, retried, cancelled-running, cancelled-queued and
        running jobs: the per-status counts kept at each transition equal a
        walk over every record, while jobs wait and run and after they end."""
        cancel_ready = threading.Event()
        running_ready = threading.Event()
        release = threading.Event()
        attempts = {}

        def runner(scenario, partial=None, on_outcome=None, mode="done", **knobs):
            attempts[mode] = attempts.get(mode, 0) + 1
            if mode == "fail" or (mode == "retried" and attempts[mode] == 1):
                raise RuntimeError("boom")
            if mode == "cancel":
                cancel_ready.set()
                release.wait(timeout=30)
                on_outcome(make_outcome("unit-1"))  # raises JobCancelled
            if mode == "running":
                running_ready.set()
                release.wait(timeout=30)
            return partial

        def check(jobs):
            # Called only while the one worker is parked in the runner or idle.
            stats = jobs.stats()
            walked = _walk_statuses(jobs)
            assert {status: stats[status] for status in walked} == walked
            assert stats["jobs"] == len(jobs._jobs)

        with JobQueue(workers=1, max_attempts=2, runner=runner) as jobs:
            done = jobs.submit(tiny_scenario(), mode="done")
            failed = jobs.submit(tiny_scenario(), mode="fail")
            retried = jobs.submit(tiny_scenario(), mode="retried")
            cancelled = jobs.submit(tiny_scenario(), mode="cancel")
            assert cancel_ready.wait(timeout=30)
            check(jobs)  # done; failed and retried queued again; cancelled running
            assert jobs.stats()["running"] == 1
            jobs.cancel(cancelled)
            never_ran = jobs.submit(tiny_scenario(), mode="done")
            jobs.cancel(never_ran)
            running = jobs.submit(tiny_scenario(), mode="running")
            check(jobs)
            release.set()
            assert running_ready.wait(timeout=30)
            jobs.result(done, timeout=30)
            jobs.result(retried, timeout=30)
            for job_id in (failed, cancelled):
                with pytest.raises(ServiceError):
                    jobs.result(job_id, timeout=30)
            jobs.result(running, timeout=30)
            check(jobs)
            assert attempts == {"done": 1, "fail": 2, "retried": 2, "cancel": 1, "running": 1}
            stats = jobs.stats()
            assert (stats["done"], stats["failed"], stats["cancelled"]) == (3, 1, 2)
            assert (stats["queued"], stats["running"], stats["retries"]) == (0, 0, 2)

    def test_walk_only_the_unfinished_jobs(self):
        def runner(scenario, partial=None, on_outcome=None, **knobs):
            return partial

        with JobQueue(workers=1, runner=runner) as jobs:
            for job_id in [jobs.submit(tiny_scenario()) for _ in range(50)]:
                jobs.result(job_id, timeout=30)
            expected = jobs.stats()
            jobs._jobs = _Unwalkable(jobs._jobs)
            assert jobs.stats() == expected
            assert expected["done"] == expected["jobs"] == 50
