"""In-process job queue executing scenarios on worker threads.

:class:`JobQueue` is the asynchronous half of the benchmark service: clients
submit a declarative :class:`~repro.suite.sweep.Scenario` plus execution
knobs and get back a job id; worker threads drain the queue through
:func:`~repro.suite.runner.run_scenario` (read-through against the shared
:class:`~repro.store.ResultStore` when one is attached), streaming every
:class:`~repro.suite.results.SpecOutcome` into the job record the moment it
lands, so observers — the NDJSON endpoint of :mod:`repro.service.http` in
particular — can follow a running sweep live.

Semantics:

* **submit / status / result / cancel** — the full client surface.  Queued
  jobs cancel immediately; running jobs are interrupted at the next outcome
  boundary (the lease in flight finishes first).
* **Retry** — a job whose run raises is re-queued up to
  ``max_attempts`` total attempts before it is marked failed; partial
  results from a failed attempt are kept and resumed (completed units are
  not re-executed, and with a store attached not even re-simulated).  A
  :class:`~repro.exceptions.ReproError` other than
  :class:`~repro.exceptions.DistributedError` (an unknown device, a bad
  option) would fail every attempt the same way, so it fails the job at
  once (:func:`~repro.exceptions.is_deterministic`, the rule the lease
  scheduler applies to each lease).
* **Retention** — queued and running jobs and the newest
  :data:`KEPT_FINISHED_JOBS` finished ones are kept; a dropped id answers
  like an unknown one, but a stream already open keeps its record.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from ..exceptions import ServiceError, is_deterministic
from ..suite.results import SpecOutcome, SuiteResult, merge_engine_stats
from ..suite.runner import run_scenario
from ..suite.sweep import Scenario
from ..telemetry import LiveSet, get_metrics, get_tracer

__all__ = ["JobQueue", "JobRecord", "JobCancelled"]

_RETRIES = get_metrics().counter(
    "repro_service_job_retries_total",
    "Jobs re-queued after a failed attempt.",
).labels()
_JOB_SECONDS = get_metrics().histogram(
    "repro_service_job_seconds",
    "Wall-clock job duration from first start to terminal state.",
    ("status",),
)

#: Every job status a record can hold (the gauge reports all of them, zeroes
#: included, so dashboards get stable series).
_STATUSES = ("queued", "running", "done", "failed", "cancelled")
_TERMINAL = ("done", "failed", "cancelled")

#: Finished (done, failed or cancelled) job records a queue keeps.
KEPT_FINISHED_JOBS = 100

_LIVE = LiveSet()
_JOBS = get_metrics().gauge(
    "repro_service_jobs",
    "Jobs of the live job queues of this process, by job status.",
    ("status",),
)
for _status in _STATUSES:
    _JOBS.set_callback(
        lambda status=_status: _LIVE.total(lambda queue: queue.stats()[status]),
        status=_status,
    )


class JobCancelled(Exception):
    """Internal control-flow signal aborting a running job's sweep."""


@dataclass
class JobRecord:
    """Book-keeping of one submitted scenario."""

    id: str
    scenario: Scenario
    knobs: Dict[str, Any]
    status: str = "queued"  # queued | running | done | failed | cancelled
    error: str = ""
    attempts: int = 0
    created_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[SuiteResult] = None
    #: Streamed outcome payloads, in arrival order (grows while running).
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    cancel_requested: bool = False
    #: Trace id of the job's ``job.run`` span ("" while queued or when
    #: tracing is disabled) — keys ``GET /jobs/<id>/trace``.
    trace_id: str = ""

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly status view served by ``GET /jobs/<id>``."""
        executed = sum(1 for o in self.outcomes if o.get("status") == "ok")
        data = {
            "id": self.id,
            "scenario": self.scenario.name,
            "status": self.status,
            "attempts": self.attempts,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "outcomes": len(self.outcomes),
            "executed": executed,
            "skipped": len(self.outcomes) - executed,
        }
        if self.error:
            data["error"] = self.error
        if self.trace_id:
            data["trace_id"] = self.trace_id
        return data


class JobQueue:
    """Worker-thread pool executing submitted scenarios.

    Args:
        store: Shared :class:`~repro.store.ResultStore` every job reads
            through and writes back to (``None`` = no persistence).
        workers: Worker-thread count (jobs run concurrently up to this).
        max_attempts: Total attempts per job before it is marked failed
            (a deterministic library error gets one).
        runner: The scenario runner (injectable for tests); must accept the
            keyword arguments :func:`~repro.suite.runner.run_scenario` does.
    """

    def __init__(
        self,
        store=None,
        workers: int = 2,
        max_attempts: int = 2,
        runner: Callable[..., SuiteResult] = run_scenario,
    ) -> None:
        if workers < 1:
            raise ServiceError("JobQueue needs at least one worker")
        if max_attempts < 1:
            raise ServiceError("max_attempts must be at least 1")
        self.store = store
        self.max_attempts = int(max_attempts)
        self._runner = runner
        self._jobs: Dict[str, JobRecord] = {}
        #: The jobs not yet in a terminal state.
        self._active: Dict[str, JobRecord] = {}
        #: Ids of the finished jobs still in ``_jobs``, oldest first.
        self._kept: "deque[str]" = deque()
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self._ids = itertools.count(1)
        self._closed = False
        self._retries = 0
        #: Jobs per terminal status, counted once when they get there (see
        #: :meth:`_by_status`).
        self._finished = dict.fromkeys(_TERMINAL, 0)
        #: Engine statistics of every job in a terminal state, folded in once
        #: when it got there (see :meth:`engine_stats`).
        self._finished_engine_stats: Dict[str, Dict[str, float]] = {}
        self._workers = [
            threading.Thread(target=self._worker, name=f"repro-job-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()
        _LIVE.add(self)

    def _finish(self, job: JobRecord, status: str) -> None:
        """Move ``job`` to a terminal ``status`` (caller holds the lock)."""
        job.status = status
        job.finished_at = time.time()
        del self._active[job.id]
        self._finished[status] += 1
        self._kept.append(job.id)
        if len(self._kept) > KEPT_FINISHED_JOBS:
            del self._jobs[self._kept.popleft()]
        if job.result is not None:
            for engine_key, stats in job.result.engine_stats.items():
                if engine_key.startswith("worker-pid-"):
                    engine_key = "workers"
                merge_engine_stats(self._finished_engine_stats.setdefault(engine_key, {}), stats)
        self._changed.notify_all()

    def _by_status(self) -> Dict[str, int]:
        """Jobs per status, every status included (caller holds the lock).

        Terminal statuses come from the counts :meth:`_finish` keeps, so this
        walks only the jobs still queued or running and costs the same
        however many finished.
        """
        counts = dict.fromkeys(_STATUSES, 0)
        counts.update(self._finished)
        for job in self._active.values():
            counts[job.status] += 1
        return counts

    # ------------------------------------------------------------------
    # client surface
    # ------------------------------------------------------------------
    def submit(self, scenario: Scenario, **knobs: Any) -> str:
        """Enqueue a scenario; returns its job id immediately.

        ``knobs`` are forwarded to the runner (``shots``, ``repetitions``,
        ``seed``, ``trajectories``, ``max_workers``, ``devices``, ...).
        """
        if not isinstance(scenario, Scenario):
            raise ServiceError(f"submit() takes a Scenario, got {type(scenario).__name__}")
        with self._lock:
            if self._closed:
                raise ServiceError("job queue is closed")
            job_id = f"job-{next(self._ids)}"
            job = JobRecord(id=job_id, scenario=scenario, knobs=dict(knobs))
            self._jobs[job_id] = self._active[job_id] = job
        self._queue.put(job_id)
        return job_id

    def _job(self, job_id: str) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """Status snapshot of one job."""
        with self._lock:
            return self._job(job_id).snapshot()

    def result(self, job_id: str, timeout: Optional[float] = None) -> SuiteResult:
        """Block until the job finishes and return its :class:`SuiteResult`.

        Raises:
            ServiceError: on unknown ids, failed/cancelled jobs, or timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            job = self._job(job_id)
            while True:
                if job.status == "done":
                    assert job.result is not None
                    return job.result
                if job.status in ("failed", "cancelled"):
                    raise ServiceError(f"job {job_id} {job.status}: {job.error}".rstrip(": "))
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise ServiceError(f"timed out waiting for job {job_id}")
                self._changed.wait(timeout=remaining if remaining is not None else 1.0)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; returns True unless the job already finished.

        A queued job is cancelled immediately; a running one stops at its
        next outcome boundary and keeps the partial result gathered so far.
        """
        with self._changed:
            job = self._job(job_id)
            if job.status in _TERMINAL:
                return False
            job.cancel_requested = True
            if job.status == "queued":
                self._finish(job, "cancelled")
            return True

    def iter_outcomes(
        self, job_id: str, timeout: Optional[float] = None, end: bool = False
    ) -> Iterator[Dict[str, Any]]:
        """Yield the job's outcome payloads as they arrive, until it finishes.

        The record is looked up at the call (an unknown id raises
        :class:`~repro.exceptions.ServiceError` at once), and the stream keeps
        it to the end.  The iterator ends when the job reaches a terminal
        state and every recorded outcome has been yielded, with ``end`` after
        one ``{"event": "end", "status", "outcomes"}`` object.  A timeout
        (seconds, across the whole iteration) ends it too: with ``end``, the
        end object's ``status`` is ``"timeout"``; without, it raises
        ``ServiceError``.
        """
        with self._lock:
            job = self._job(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout

        def follow() -> Iterator[Dict[str, Any]]:
            position = 0
            while True:
                with self._changed:
                    timed_out = False
                    while position >= len(job.outcomes) and job.status not in _TERMINAL:
                        remaining = None if deadline is None else deadline - time.monotonic()
                        timed_out = remaining is not None and remaining <= 0
                        if timed_out:
                            break
                        self._changed.wait(timeout=remaining if remaining is not None else 1.0)
                    batch = job.outcomes[position:]
                    position += len(batch)
                    status = "timeout" if timed_out else job.status
                if timed_out and not end:
                    raise ServiceError(f"timed out streaming job {job_id}")
                if not batch:  # terminal or timed out, and every outcome yielded
                    if end:
                        yield {"event": "end", "status": status, "outcomes": position}
                    return
                yield from batch

        return follow()

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshots of every kept job (see :data:`KEPT_FINISHED_JOBS`), oldest first."""
        with self._lock:
            return [job.snapshot() for job in self._jobs.values()]

    def stats(self) -> Dict[str, int]:
        """Queue-level counters (every job ever submitted, by state; retries; workers)."""
        with self._lock:
            counts = self._by_status()
            return {
                "jobs": sum(counts.values()),
                **counts,
                "retries": self._retries,
                "workers": len(self._workers),
            }

    def engine_stats(self) -> Dict[str, Dict[str, float]]:
        """Engine/worker statistics aggregated across every job.

        Keys are the suite results' ``engine_stats`` keys — an engine
        configuration key per configuration the parent built engines for
        (thread-path leases and store lookups), a ``worker-pid-<n>`` entry
        per worker process on the process-executor path, and one
        ``"scheduler"`` entry on every path — merged by
        :func:`~repro.suite.results.merge_engine_stats` (counters sum, gauges
        take the maximum), so the service's ``GET /stats`` shows per-engine
        cache traffic and lease counts across the queue's lifetime.  A job's
        statistics fold into a running total once, when it finishes, its
        ``worker-pid-<n>`` entries into one ``"workers"`` entry, so a call
        merges only the live jobs, and keys and cost do not grow with history.
        """
        with self._lock:
            merged = {key: dict(stats) for key, stats in self._finished_engine_stats.items()}
            pending = [job.result for job in self._active.values() if job.result is not None]
        for result in pending:
            for engine_key, stats in result.engine_stats.items():
                merge_engine_stats(merged.setdefault(engine_key, {}), stats)
        return merged

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs and shut the workers down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        if wait:
            for thread in self._workers:
                thread.join(timeout=30.0)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._changed:
                job = self._jobs.get(job_id)
                if job is None or job.status == "cancelled":  # cancelled while queued
                    continue
                job.status = "running"
                job.started_at = job.started_at or time.time()
                job.attempts += 1
                # The accumulating result doubles as the resume point: a
                # retried attempt passes it back as ``partial`` so units
                # recorded before a crash are never re-executed.
                if job.result is None:
                    job.result = SuiteResult(scenario=job.scenario.name)
                partial = job.result
            try:
                with get_tracer().span(
                    "job.run",
                    job=job.id,
                    scenario=job.scenario.name,
                    attempt=job.attempts,
                ) as span:
                    if span.recording:
                        with self._changed:
                            job.trace_id = span.trace_id
                    result = self._run(job, partial)
            except JobCancelled:
                with self._changed:
                    self._finish(job, "cancelled")
                self._observe_terminal(job)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                retry = False
                with self._changed:
                    job.error = f"{type(error).__name__}: {error}"
                    if (
                        job.attempts < self.max_attempts
                        and not job.cancel_requested
                        and not is_deterministic(error)
                    ):
                        job.status = "queued"
                        self._retries += 1
                        _RETRIES.add(1.0)
                        retry = True
                    else:
                        job.error += "\n" + traceback.format_exc(limit=5)
                        self._finish(job, "failed")
                    self._changed.notify_all()
                if retry:
                    self._queue.put(job_id)
                else:
                    self._observe_terminal(job)
            else:
                with self._changed:
                    job.result = result
                    job.error = ""
                    self._finish(job, "done")
                self._observe_terminal(job)

    def _observe_terminal(self, job: JobRecord) -> None:
        """Record the job's total duration under its terminal status."""
        if job.started_at is None or job.finished_at is None:
            return
        _JOB_SECONDS.observe(max(0.0, job.finished_at - job.started_at), status=job.status)

    def _run(self, job: JobRecord, partial: Optional[SuiteResult]) -> SuiteResult:
        def on_outcome(outcome: SpecOutcome) -> None:
            with self._changed:
                job.outcomes.append(outcome.as_dict())
                self._changed.notify_all()
                if job.cancel_requested:
                    raise JobCancelled(job.id)

        knobs = dict(job.knobs)
        knobs.setdefault("store", self.store)
        return self._runner(job.scenario, partial=partial, on_outcome=on_outcome, **knobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (
            f"JobQueue(workers={stats['workers']}, jobs={stats['jobs']}, "
            f"queued={stats['queued']}, running={stats['running']})"
        )
