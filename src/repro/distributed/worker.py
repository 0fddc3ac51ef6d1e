"""Lease execution: the one loop that runs a leased task's units.

:func:`run_lease` runs a lease's units, one
:meth:`~repro.execution.ExecutionEngine.run` per unit inside an
``engine.benchmark`` span, and returns one serialized
:class:`~repro.suite.results.SpecOutcome` per unit (a run or a skip).
Every executor runs units through it: the in-process executor of the
thread path on the parent's engines, and :func:`execute_lease` inside a
pool process.

Each pool process is initialised once via :func:`initialize_worker` (spawn
safe: it receives only plain values and rebuilds everything from registries)
and then serves :func:`execute_lease` calls through one per-process
:class:`~repro.distributed.executor.InProcessExecutor`, whose engines (one
per engine configuration) keep their transpile and calibration caches warm
across every lease landing on the same configuration.  Workers never open
the result store: the parent looks results up and writes them back.

Determinism: every unit runs with the same per-unit seeds whichever
executor runs it, so scores are bit-identical regardless of which worker a
unit lands on or how often its lease was re-issued.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from typing import Any, Dict, List, Optional

from ..exceptions import BackendCapacityError, DeviceError, MitigationError
from ..mitigation import resolve_mitigator
from ..suite.results import SpecOutcome
from ..suite.spec import BenchmarkSpec
from ..telemetry import configure_tracing, diff_snapshots, get_metrics, get_tracer
from .plan import Lease, LeaseResult

__all__ = ["initialize_worker", "execute_lease", "run_lease", "worker_id"]

#: This process's in-process executor (built on first use).  Its engines are
#: deliberately kept for the process lifetime — their warm caches are the
#: point of leasing multiple shards to one worker.
_LOCAL = None

#: Test-only crash hook: when set to a path and the file does not exist yet,
#: the worker creates the file and SIGKILLs itself mid-lease (after its
#: first unit), simulating an abrupt worker death exactly once.
_CRASH_MARKER: Optional[str] = None


def worker_id() -> str:
    """Stable identity of this worker process (keys per-worker stats)."""
    return f"pid-{os.getpid()}"


def initialize_worker(crash_marker: Optional[str] = None, trace: bool = False) -> None:
    """Process-pool initializer: set up per-process state from plain config.

    Importing :mod:`repro.benchmarks` here (not at module import) keeps the
    registration side effects inside the worker even under the ``spawn``
    start method, where the child inherits nothing from the parent.

    Args:
        trace: Whether the parent's tracer was enabled at pool creation —
            worker spans are only worth recording when someone upstream will
            adopt them.  The worker id becomes the span-id prefix so merged
            traces never collide, and any spans inherited through a ``fork``
            start are discarded (they belong to the parent's buffer).

    A ``fork`` child also drops the executor it may inherit from a parent
    that ran :func:`execute_lease` itself: that executor's engine pool
    threads do not exist in the child, so work submitted to them would
    never run.
    """
    global _CRASH_MARKER, _LOCAL
    import repro.benchmarks  # noqa: F401 - registers the benchmark families

    _LOCAL = None
    tracer = configure_tracing(enabled=trace, id_prefix=f"{worker_id()}-")
    tracer.clear()
    tracer.reset_context()  # a fork child inherits the parent's open spans
    _CRASH_MARKER = crash_marker


def _local():
    global _LOCAL
    if _LOCAL is None:
        from .executor import InProcessExecutor

        _LOCAL = InProcessExecutor()  # max_workers=1: processes are the parallelism axis
    return _LOCAL


def _maybe_crash(completed_units: int, total_units: int) -> None:
    """Die abruptly mid-lease, once, when the test crash hook is armed."""
    if _CRASH_MARKER is None or os.path.exists(_CRASH_MARKER):
        return
    # Crash mid-shard: after the first unit when there are more to go,
    # immediately for single-unit tasks.
    if completed_units >= 1 or total_units == 1:
        with open(_CRASH_MARKER, "w") as handle:
            handle.write(worker_id())
        os.kill(os.getpid(), signal.SIGKILL)


def run_lease(engine, lease: Lease, registry=None, mitigation=None) -> List[Dict[str, Any]]:
    """Run a lease's units on ``engine``; one outcome payload per unit.

    Exactly one outcome (run or skip) per unit, in task order.  A benchmark
    that does not fit the device or the backend, or that the technique
    cannot apply to, becomes a skip outcome.  Technique mismatches and
    backend capacity limits also warn, so a sparse sweep is explainable;
    plain oversized-circuit skips are the expected "X" entries of Fig. 2.

    Args:
        registry: Benchmark registry the specs build from (default: global).
        mitigation: A Mitigator instance standing in for the task's
            technique name (in-process leases only).

    Raises:
        MitigationError: for an unknown technique name, before any unit runs.
    """
    task = lease.task
    mitigator = resolve_mitigator(task.mitigation if mitigation is None else mitigation)
    tracer = get_tracer()
    outcomes: List[Dict[str, Any]] = []
    with tracer.span(
        "worker.lease",
        task=task.task_id,
        scenario=task.scenario,
        worker=worker_id(),
        attempt=lease.attempt,
        units=len(task.units),
    ):
        benchmarks = [
            BenchmarkSpec.from_dict(unit.spec_dict()).build(registry) for unit in task.units
        ]
        for unit, benchmark in zip(task.units, benchmarks):
            run = error = None
            with tracer.span(
                "engine.benchmark", benchmark=str(benchmark), device=engine.device.name
            ) as span:
                try:
                    run = engine.run(
                        benchmark,
                        shots=task.shots,
                        repetitions=task.repetitions,
                        seed=task.seed,
                        mitigation=mitigator,
                    )
                except (DeviceError, MitigationError) as skip:
                    error = skip
                    if isinstance(skip, (MitigationError, BackendCapacityError)):
                        warnings.warn(f"skipping {benchmark}: {skip}", stacklevel=2)
                span.set_attribute("status", "skipped" if error is not None else "executed")
            outcomes.append(
                SpecOutcome.of(
                    unit.key, unit.spec_dict(), engine.device.name, task.mitigation, unit.index,
                    run=run, error=error,
                ).as_dict()
            )
            _maybe_crash(len(outcomes), len(task.units))
    return outcomes


def execute_lease(lease: Lease) -> LeaseResult:
    """Pool-process entry point: run one lease and ship its telemetry.

    Telemetry rides back on the :class:`LeaseResult`: the lease's finished
    spans (drained, so the next lease starts clean) and the counter and
    histogram delta of the metrics registry across the lease — the scheduler
    adopts/merges both into the parent process.
    """
    task = lease.task
    started = time.perf_counter()
    engine = _local().engine(task.engine, task.backend_override, task.trajectories)
    stats_before = engine.stats()
    tracer = get_tracer()
    metrics = get_metrics()
    metrics_before = metrics.totals()
    tracer.clear()  # ship only this lease's spans, whatever ran before

    outcomes = run_lease(engine, lease)

    # Engines persist across leases, so report the stats *delta* — the
    # scheduler sums deltas per worker and the totals stay correct however
    # leases were distributed.
    stats_after = engine.stats()
    delta = {
        key: stats_after[key] - stats_before.get(key, 0)
        if not key.endswith("entries")
        else stats_after[key]
        for key in stats_after
    }
    return LeaseResult(
        lease_id=lease.lease_id,
        task_id=task.task_id,
        worker=f"worker-{worker_id()}",
        outcomes=outcomes,
        engine_stats=delta,
        seconds=time.perf_counter() - started,
        spans=[span.as_dict() for span in tracer.drain()],
        metrics=diff_snapshots(metrics.totals(), metrics_before),
    )
