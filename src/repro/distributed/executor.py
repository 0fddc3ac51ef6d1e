"""Shard executors: where a leased task actually runs.

:class:`InProcessExecutor` is the thread path of ``run_scenario``: it runs
each lease synchronously in the calling process, on engines it keeps per
engine configuration (each with ``max_workers`` threads), so it can use
what cannot cross a process boundary — a backend instance, the caller's
benchmark registry, Mitigator instances.

:class:`ProcessShardExecutor` is the GIL-breaking path — a
``concurrent.futures.ProcessPoolExecutor`` whose workers are initialised
spawn-safely from plain configuration (see
:func:`~repro.distributed.worker.initialize_worker`) and reused across
leases so their transpile caches stay warm.  A worker that dies abruptly
poisons a ``ProcessPoolExecutor`` permanently (every in-flight future gets
``BrokenProcessPool``), so the executor *contains* the crash by rebuilding
the pool on demand: the scheduler re-leases the interrupted tasks onto the
fresh pool and the sweep continues.

Custom executors only need :meth:`submit` / :meth:`close` / ``capacity``
and may run leases anywhere — a thread pool (useful in tests), an ssh
fan-out, a batch queue.  They receive picklable :class:`~repro.distributed.plan.Lease`
values and must return :class:`~repro.distributed.plan.LeaseResult`.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

from ..devices import get_device
from ..exceptions import DistributedError
from ..execution import ExecutionEngine
from ..suite.sweep import EngineConfig
from ..telemetry import get_tracer
from .plan import Lease, LeaseResult
from .worker import execute_lease, initialize_worker, run_lease

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["InProcessExecutor", "ProcessShardExecutor", "default_start_method"]


class InProcessExecutor:
    """Runs each lease synchronously in this process (capacity 1).

    Args:
        max_workers: Worker-pool size of each engine.
        backend: Backend instance (or name) every engine uses in place of
            the tasks' backend.
        registry: Benchmark registry the specs build from (default: global).
        mitigators: Mitigator instances, matched to tasks by technique name.

    :meth:`submit` returns an already completed future.  An exception
    propagates from it unchanged, so the scheduler never retries an
    in-process failure.  Lease results carry no spans, metric deltas or
    engine-stat deltas: all three are already in this process, and
    :attr:`engines` stay readable after :meth:`close`.
    """

    capacity = 1

    def __init__(
        self,
        max_workers: int = 1,
        backend=None,
        registry=None,
        mitigators: Iterable = (),
    ) -> None:
        self.max_workers = int(max_workers)
        self.backend = backend
        self.registry = registry
        self.mitigators = {mitigator.name: mitigator for mitigator in mitigators}
        #: (engine key, backend override, trajectories) -> engine.
        self.engines: Dict[Tuple[str, Optional[str], Optional[int]], ExecutionEngine] = {}

    def engine(
        self,
        config: EngineConfig,
        backend: Optional[str] = None,
        trajectories: Optional[int] = None,
    ) -> ExecutionEngine:
        """The engine for one configuration (built on first use, then kept)."""
        key = (config.key(), backend, trajectories)
        engine = self.engines.get(key)
        if engine is None:
            engine = self.engines[key] = ExecutionEngine(
                get_device(config.device),
                backend=self.backend if self.backend is not None else backend or config.backend,
                max_workers=self.max_workers,
                optimization_level=config.optimization_level,
                placement=config.placement,
                trajectories=trajectories,
            )
        return engine

    def submit(self, lease: Lease) -> "Future":
        """Run ``lease`` now; returns its completed future."""
        task = lease.task
        started = time.perf_counter()
        engine = self.engine(task.engine, task.backend_override, task.trajectories)
        outcomes = run_lease(engine, lease, self.registry, self.mitigators.get(task.mitigation))
        future: Future = Future()
        future.set_result(
            LeaseResult(
                lease_id=lease.lease_id,
                task_id=task.task_id,
                worker=task.engine.key(),
                outcomes=outcomes,
                seconds=time.perf_counter() - started,
            )
        )
        return future

    def close(self) -> None:
        """Shut every engine's worker pool down (idempotent)."""
        for engine in self.engines.values():
            engine.close()


def default_start_method() -> str:
    """``"fork"`` where available (cheap worker start — no re-import of
    numpy/scipy), ``"spawn"`` elsewhere.  Worker initialisation is spawn-safe
    either way; the choice is purely a startup-latency optimisation."""
    import multiprocessing  # the process path only: thread sweeps never load it

    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return "spawn"


class ProcessShardExecutor:
    """Executes leases on a pool of worker processes.

    Args:
        processes: Worker-process count (the parallelism of the sweep).
        mp_context: Multiprocessing start method (``"fork"`` / ``"spawn"`` /
            ``"forkserver"``); default picks :func:`default_start_method`.
        crash_marker: Test-only hook forwarded to worker init — see
            :func:`~repro.distributed.worker.initialize_worker`.

    The pool is created lazily on first :meth:`submit` and rebuilt
    transparently after a worker crash; :attr:`rebuilds` counts how often
    that happened.  Use as a context manager (or call :meth:`close`) so the
    worker processes are shut down deterministically.
    """

    def __init__(
        self,
        processes: int = 2,
        mp_context: Optional[str] = None,
        crash_marker: Optional[str] = None,
    ) -> None:
        if processes < 1:
            raise DistributedError("ProcessShardExecutor needs at least 1 process")
        self.processes = int(processes)
        self.mp_context = mp_context if mp_context is not None else default_start_method()
        self.crash_marker = crash_marker
        self.rebuilds = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """How many leases the scheduler should keep in flight."""
        return self.processes

    def _make_pool(self) -> ProcessPoolExecutor:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # Tracing state is sampled at pool creation: workers only record
        # spans when the parent tracer is enabled (someone will adopt them).
        return ProcessPoolExecutor(
            max_workers=self.processes,
            mp_context=multiprocessing.get_context(self.mp_context),
            initializer=initialize_worker,
            initargs=(self.crash_marker, get_tracer().enabled),
        )

    def submit(self, lease: Lease) -> "Future":
        """Schedule one lease; returns a future resolving to a LeaseResult."""
        if self._closed:
            raise DistributedError("executor is closed")
        if self._pool is None:
            self._pool = self._make_pool()
        from concurrent.futures.process import BrokenProcessPool  # loaded with the pool

        try:
            return self._pool.submit(execute_lease, lease)
        except BrokenProcessPool:
            # A previously crashed worker poisoned the pool between result
            # collection and this submit; rebuild and retry once.
            self.recover()
            assert self._pool is not None
            return self._pool.submit(execute_lease, lease)

    def recover(self) -> None:
        """Replace a crash-poisoned pool with a fresh one (crash containment)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        self.rebuilds += 1
        if not self._closed:
            self._pool = self._make_pool()

    def close(self) -> None:
        """Shut the worker processes down (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else ("idle" if self._pool is None else "running")
        return (
            f"ProcessShardExecutor(processes={self.processes}, "
            f"mp_context={self.mp_context!r}, rebuilds={self.rebuilds}, {state})"
        )
