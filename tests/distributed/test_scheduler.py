"""Tests for the leased work queue: lease order, retries, containment.

These tests drive :class:`WorkQueue` directly and :func:`run_leases` with
stub executors, so every retry path is exercised deterministically without
real worker processes.
"""

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.distributed import WorkQueue, run_leases
from repro.distributed.plan import LeaseResult, ShardPlan, ShardTask, UnitPlan
from repro.exceptions import DistributedError, SimulationError
from repro.suite.sweep import EngineConfig

ENGINE = EngineConfig(device="IonQ-11Q")


def make_task(task_id: str, unit_keys) -> ShardTask:
    units = tuple(
        UnitPlan(key=key, spec=(("family", "ghz"), ("params", (("num_qubits", 2),))), index=i)
        for i, key in enumerate(unit_keys)
    )
    return ShardTask(task_id=task_id, scenario="s", engine=ENGINE, mitigation="raw", units=units)


def make_result(lease, worker="w1") -> LeaseResult:
    return LeaseResult(
        lease_id=lease.lease_id,
        task_id=lease.task.task_id,
        worker=worker,
        outcomes=[{"key": key, "status": "ok"} for key in lease.task.unit_keys()],
        engine_stats={"executions": len(lease.task.units), "entries": 3},
        seconds=0.1,
    )


class TestWorkQueue:
    def test_leases_tasks_in_order_then_drains(self):
        queue = WorkQueue([make_task("a", ["u1"]), make_task("b", ["u2"])])
        first, second = queue.next_lease(), queue.next_lease()
        assert (first.task.task_id, second.task.task_id) == ("a", "b")
        assert queue.next_lease() is None
        assert not queue.done
        queue.complete(first)
        queue.complete(second)
        assert queue.done

    def test_failed_lease_requeues_until_attempts_exhausted(self):
        queue = WorkQueue([make_task("a", ["u1"])], max_attempts=2)
        lease = queue.next_lease()
        queue.fail(lease, RuntimeError("crash"))
        retry = queue.next_lease()
        assert retry.task.task_id == "a"
        assert retry.attempt == 2
        with pytest.raises(DistributedError, match="failed after 2 attempts"):
            queue.fail(retry, RuntimeError("crash again"))

    def test_progress_counters(self):
        queue = WorkQueue([make_task("a", ["u1", "u2"]), make_task("b", ["u3"])])
        lease = queue.next_lease()
        queue.complete(lease)
        progress = queue.progress()
        assert progress["tasks"] == 2 and progress["tasks_done"] == 1
        assert progress["units"] == 3 and progress["units_done"] == 2
        assert progress["leases_issued"] == 1

    def test_rejects_zero_attempts(self):
        with pytest.raises(DistributedError):
            WorkQueue([], max_attempts=0)


class StubExecutor:
    """Synchronous in-process executor with scriptable failures."""

    def __init__(self, capacity=2, fail_first_for=(), error=None):
        self.capacity = capacity
        self.rebuilds = 0
        self.seen = []
        self._remaining_failures = dict(fail_first_for)
        self._error = error

    def submit(self, lease) -> Future:
        self.seen.append((lease.task.task_id, lease.attempt))
        future: Future = Future()
        failures = self._remaining_failures.get(lease.task.task_id, 0)
        if failures > 0:
            self._remaining_failures[lease.task.task_id] = failures - 1
            future.set_exception(self._error or BrokenProcessPool("worker died"))
        else:
            future.set_result(make_result(lease))
        return future


class TestRunLeases:
    def test_runs_every_task_and_aggregates_worker_stats(self):
        plan = ShardPlan("s", (make_task("a", ["u1", "u2"]), make_task("b", ["u3"])))
        recorded = []
        stats = run_leases(
            plan, StubExecutor(), lambda lease, fresh: recorded.extend(fresh)
        )
        assert sorted(o["key"] for o in recorded) == ["u1", "u2", "u3"]
        worker = stats["workers"]["w1"]
        assert worker["executions"] == 3  # counters sum across leases
        assert worker["entries"] == 3  # gauges take the max
        assert worker["leases"] == 2
        assert stats["scheduler"]["tasks_done"] == 2

    def test_crashed_lease_is_retried_and_result_complete(self):
        plan = ShardPlan("s", (make_task("a", ["u1"]), make_task("b", ["u2"])))
        executor = StubExecutor(fail_first_for={"a": 1})
        recorded = []
        stats = run_leases(
            plan, executor, lambda lease, fresh: recorded.extend(fresh), max_attempts=3
        )
        assert sorted(o["key"] for o in recorded) == ["u1", "u2"]
        assert stats["scheduler"]["retries"] == 1
        assert ("a", 2) in executor.seen

    def test_exhausted_attempts_raise(self):
        plan = ShardPlan("s", (make_task("a", ["u1"]),))
        with pytest.raises(DistributedError, match="failed after 2 attempts"):
            run_leases(
                plan,
                StubExecutor(fail_first_for={"a": 99}),
                lambda lease, fresh: None,
                max_attempts=2,
            )

    def test_library_error_is_raised_as_is_after_one_lease(self):
        plan = ShardPlan("s", (make_task("a", ["u1"]),))
        executor = StubExecutor(fail_first_for={"a": 99}, error=SimulationError("bad knob"))
        with pytest.raises(SimulationError, match="^bad knob$"):
            run_leases(plan, executor, lambda lease, fresh: None, max_attempts=3)
        assert executor.seen == [("a", 1)]

    def test_empty_plan_finishes_immediately(self):
        stats = run_leases(ShardPlan("s", ()), StubExecutor(), lambda lease, fresh: None)
        assert stats["scheduler"]["tasks"] == 0
        assert stats["workers"] == {}
