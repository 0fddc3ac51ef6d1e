"""Leased-task work queue and the loop that drives it.

:class:`WorkQueue` owns the bookkeeping of a :class:`~repro.distributed.plan.ShardPlan`
execution: which tasks are pending, how many attempts each task has consumed
and how many are done.  A task has at most one lease in flight and is leased
again only after that lease failed, so every task completes exactly once and
its outcomes reach the caller exactly once.

:func:`run_leases` is the scheduler loop the suite runner drives: it keeps
the executor saturated up to its capacity, blocks until a lease finishes,
re-queues failed leases (the executor contains the pool damage, see
:class:`~repro.distributed.executor.ProcessShardExecutor`), and streams each
completed lease's outcomes to the caller the moment they arrive.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import DistributedError
from ..suite.results import merge_engine_stats
from ..telemetry import get_metrics, get_tracer
from .plan import Lease, LeaseResult, ShardPlan

__all__ = ["WorkQueue", "run_leases"]


class WorkQueue:
    """Lease bookkeeping for one plan execution (single-scheduler-thread).

    Args:
        tasks: The plan's tasks, leased in order.
        max_attempts: Total leases per task before a hard failure is raised.
    """

    def __init__(self, tasks, max_attempts: int = 3) -> None:
        if max_attempts < 1:
            raise DistributedError("max_attempts must be at least 1")
        #: (task, attempt number its next lease gets), in lease order.
        self._pending = deque((task, 1) for task in tasks)
        self.max_attempts = int(max_attempts)
        # Counters surfaced in scheduler stats.
        self.tasks = len(self._pending)
        self.units = sum(len(task.units) for task, _ in self._pending)
        self.tasks_done = 0
        self.units_done = 0
        self.leases_issued = 0
        self.retries = 0

    @property
    def done(self) -> bool:
        return self.tasks_done == self.tasks

    def progress(self) -> Dict[str, int]:
        """Task/unit completion and lease traffic."""
        return {
            "tasks": self.tasks,
            "tasks_done": self.tasks_done,
            "units": self.units,
            "units_done": self.units_done,
            "leases_issued": self.leases_issued,
            "retries": self.retries,
        }

    def next_lease(self) -> Optional[Lease]:
        """Issue a lease for the next pending task (``None`` when drained)."""
        if not self._pending:
            return None
        task, attempt = self._pending.popleft()
        self.leases_issued += 1
        return Lease(lease_id=self.leases_issued, task=task, attempt=attempt)

    def complete(self, lease: Lease) -> None:
        """Record a finished lease."""
        self.tasks_done += 1
        self.units_done += len(lease.task.units)

    def fail(self, lease: Lease, error: BaseException) -> None:
        """Re-queue the task of a lease that raised.

        Raises:
            DistributedError: when the task has consumed every attempt.
        """
        task = lease.task
        if lease.attempt >= self.max_attempts:
            raise DistributedError(
                f"task {task.task_id!r} ({len(task.units)} units on "
                f"{task.engine.key()}) failed after {lease.attempt} attempts: {error}"
            ) from error
        self._pending.append((task, lease.attempt + 1))
        self.retries += 1


def run_leases(
    plan: ShardPlan,
    executor,
    on_outcomes: Callable[[Lease, List[Dict[str, Any]]], None],
    max_attempts: int = 3,
) -> Dict[str, Any]:
    """Drive every task of ``plan`` through ``executor`` until completion.

    Args:
        executor: Anything with ``submit(lease) -> Future[LeaseResult]``,
            ``capacity`` and (optionally) crash containment on submit.
        on_outcomes: Called once per completed lease with its outcome
            payloads, in worker order — the suite runner records them and
            persists its partial result here.
        max_attempts: Leases per task before the sweep fails.

    Returns:
        Scheduler statistics: per-worker engine-stat deltas plus lease
        traffic counters.
    """
    queue = WorkQueue(plan.tasks, max_attempts=max_attempts)
    inflight: Dict["Future", Lease] = {}
    worker_stats: Dict[str, Dict[str, float]] = {}
    tracer = get_tracer()
    metrics = get_metrics()

    with tracer.span("scheduler.run_leases", scenario=plan.scenario, tasks=len(plan.tasks)):
        while not queue.done:
            while len(inflight) < max(1, int(executor.capacity)):
                lease = queue.next_lease()
                if lease is None:
                    break
                inflight[executor.submit(lease)] = lease
            finished, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in finished:
                lease = inflight.pop(future)
                try:
                    result: LeaseResult = future.result()
                except DistributedError:
                    raise
                except Exception as error:  # noqa: BLE001 - worker isolation boundary
                    # A worker that died abruptly fails every in-flight future
                    # of the poisoned pool with BrokenProcessPool; the executor
                    # rebuilds its pool on the next submit, here we re-queue.
                    queue.fail(lease, error)
                    continue
                queue.complete(lease)
                merge_engine_stats(
                    worker_stats.setdefault(result.worker, {}),
                    {**result.engine_stats, "seconds": result.seconds, "leases": 1},
                )
                # Fold the worker's telemetry into this process.
                lease_span = tracer.emit(
                    "scheduler.lease",
                    result.seconds,
                    worker=result.worker,
                    task=result.task_id,
                    attempt=lease.attempt,
                )
                if result.spans:
                    tracer.adopt(result.spans, parent=lease_span)
                if result.metrics:
                    metrics.merge_snapshot(result.metrics)
                on_outcomes(lease, result.outcomes)

    stats = queue.progress()
    stats["pool_rebuilds"] = getattr(executor, "rebuilds", 0)
    return {"workers": worker_stats, "scheduler": stats}
