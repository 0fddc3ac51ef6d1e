"""Scenario execution through the leased-task scheduler.

:func:`run_scenario` is the one way into a sweep: ``repro run``, the
service's job queue and the figure drivers all call it, and it resolves
every name the sweep uses (:func:`check_names`) before anything else.  Every
executor runs the same pipeline: the parent looks pending units up in the
result store, plans the rest into leased tasks
(:func:`~repro.distributed.plan_scenario`), drives them through
:func:`~repro.distributed.run_leases` on the chosen executor — in-process on
per-configuration engines (``"thread"``) or on a worker-process pool
(``"process"``) — and records every
:class:`~repro.suite.results.SpecOutcome` into a
:class:`~repro.suite.results.SuiteResult` in one place, which is also the
only place the store is read and written.

Resumability: pass a previously persisted :class:`SuiteResult` as
``partial`` and every already-recorded unit is skipped — a crashed or
interrupted sweep continues where it stopped.  Determinism: per-unit seeds
are fixed functions of the batch seed exactly as in
:meth:`ExecutionEngine.run`, so scores are independent of the leased
execution order and identical to a hand-written per-benchmark loop.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Union

from ..devices import get_device
from ..exceptions import DistributedError
from ..execution import Backend, resolve_backend
from ..mitigation import resolve_mitigator
from ..telemetry import get_tracer
from .registry import BenchmarkRegistry, get_registry
from .results import SpecOutcome, SuiteResult
from .sweep import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..store import ResultStore

__all__ = ["check_names", "run_scenario"]


def _check_process_boundary(scenario: Scenario, backend: Union[Backend, str, None]) -> None:
    """Leases of a process pool (or a caller's executor) may cross a process
    boundary, which instances cannot: reject them before anything is planned."""
    if backend is not None and not isinstance(backend, str):
        raise DistributedError(
            "backend instances cannot cross the process boundary; pass the "
            "backend by name (workers construct their own)"
        )
    if not all(isinstance(mitigation, str) for mitigation in scenario.mitigations):
        raise DistributedError(
            "scenarios holding Mitigator instances cannot be executed on a "
            "process pool; use technique names (they resolve inside each "
            "worker)"
        )


def check_names(
    scenario: Scenario,
    devices: Optional[Sequence[str]],
    registry: BenchmarkRegistry,
    backend: Union[Backend, str, None],
    trajectories: Optional[int],
) -> None:
    """Resolve every name a sweep looks up with the resolvers its engines
    use, so a sweep no lease could run fails here, the same way on every
    executor: each device of the engine axes, each sweep's family, each
    technique, and the backend override name (else each scenario backend
    name) built with ``trajectories``.  A backend instance is not checked.

    Raises:
        ReproError: the resolver's error for the first name it rejects.
    """
    for config in scenario.engine_configs(devices):
        get_device(config.device)
    for sweep in scenario.sweeps:
        registry.family(sweep.family)
    for technique in scenario.mitigations:
        resolve_mitigator(technique)
    if backend is None or isinstance(backend, str):
        for name in scenario.backends if backend is None else (backend,):
            resolve_backend(name, trajectories=trajectories)


def run_scenario(
    scenario: Scenario,
    shots: int = 1000,
    repetitions: int = 3,
    seed: Optional[int] = 1234,
    devices: Optional[Sequence[str]] = None,
    trajectories: Optional[int] = None,
    max_workers: int = 1,
    backend: Union[Backend, str, None] = None,
    registry: Optional[BenchmarkRegistry] = None,
    partial: Optional[SuiteResult] = None,
    on_outcome: Optional[Callable[[SpecOutcome], None]] = None,
    store: Optional["ResultStore"] = None,
    executor: Any = "thread",
    processes: int = 2,
) -> SuiteResult:
    """Execute a scenario lease by lease and stream the aggregated results.

    Every device, family, technique and backend name and the trajectory
    count are resolved first (:func:`check_names`).  The plan splits into ~4
    leased tasks per unit of executor capacity (a task never spans two
    (engine configuration, technique) groups).  A lease lost with its worker
    is leased again, up to 3 leases per task; a library error raised inside
    a lease is raised at once, unwrapped, on every executor
    (:func:`~repro.exceptions.is_deterministic`).

    Args:
        scenario: The declarative sweep × execution-axis definition.
        shots / repetitions / seed: Execution knobs passed to
            :meth:`ExecutionEngine.run` for every unit (the same seed per
            unit keeps scores independent of execution order).
        devices: Override the scenario's device axis without rebuilding it.
        trajectories: Trajectory count for name-constructed backends.
        max_workers: Worker-pool size of each engine the thread path builds.
        backend: Backend *override* applied to every engine — needed when
            the caller holds a backend instance, which cannot live inside a
            (serializable) scenario.  When ``None`` each engine uses its
            configuration's backend name.
        registry: Benchmark registry used to build specs on the thread path
            (default: global).
        partial: A previously returned / persisted :class:`SuiteResult`;
            units already recorded there are not re-executed (resume).
        on_outcome: Streaming observer called with every
            :class:`SpecOutcome` the moment it is recorded (store hits
            first, then each lease's outcomes as the lease completes).
        store: A content-addressed :class:`~repro.store.ResultStore`.  Before
            planning, every pending unit is looked up under its content key
            (spec × pipeline × noise × mitigation × knobs); a stored unit is
            answered from disk with zero compilations and zero backend
            executions and never leased.  Every executed unit's
            :class:`~repro.execution.results.BenchmarkRun` and
            :class:`SpecOutcome` are written back (skips write an outcome
            row only; they are re-derived rather than cached).
        executor: Execution strategy: ``"thread"`` (default — an
            :class:`~repro.distributed.InProcessExecutor` running each lease
            on per-configuration engines with ``max_workers`` threads),
            ``"process"`` (a :class:`~repro.distributed.ProcessShardExecutor`
            worker-process pool — breaks the GIL ceiling for the numpy-heavy
            simulate/transpile hot path), or any executor instance with
            ``submit(lease)``/``capacity`` (advanced: custom pools; the
            caller owns its lifecycle).  Scores are bit-identical across all
            strategies at a fixed seed.
        processes: Worker-process count for ``executor="process"``.

    Returns:
        The :class:`SuiteResult` (the ``partial`` instance when resuming).

    Raises:
        DistributedError: for an unknown executor name, or for a backend or
            Mitigator instance with any executor but ``"thread"``.
        ReproError: from :func:`check_names`, before any store lookup or
            lease.
    """
    if isinstance(executor, str) and executor not in ("thread", "process"):
        raise DistributedError(
            f"unknown executor {executor!r}; use 'thread', 'process' or an executor instance"
        )
    if executor != "thread":
        _check_process_boundary(scenario, backend)
    registry = registry if registry is not None else get_registry()
    check_names(scenario, devices, registry, backend, trajectories)
    result = partial if partial is not None else SuiteResult(scenario=scenario.name)
    # Pin the scenario and every score-affecting knob on the result: a
    # persisted partial resumed under different settings must fail loudly
    # instead of presenting stale scores as the new configuration's output
    # (max_workers is excluded — scores are worker-count deterministic).
    result.bind_config(
        scenario.name,
        {
            "shots": shots,
            "repetitions": repetitions,
            "seed": seed,
            "trajectories": trajectories,
            "backend_override": getattr(backend, "name", backend),
        },
    )
    # Looked up at call time, so wrappers installed on the package apply.
    from ..distributed import InProcessExecutor, ProcessShardExecutor, plan_scenario, run_leases

    # The parent's engines, one per configuration: they compute content
    # keys, and the thread path runs its leases on them.
    local = InProcessExecutor(
        max_workers=max_workers,
        backend=backend,
        registry=registry,
        mitigators=[m for m in scenario.mitigations if not isinstance(m, str)],
    )
    backend_name = backend if isinstance(backend, str) else None
    content_keys: Dict[str, str] = {}

    def record(outcome: SpecOutcome, executed: bool) -> None:
        result.add(outcome)
        if store is not None:
            key = content_keys[outcome.key]
            if executed and outcome.run is not None:
                store.put_run(key, outcome.run)
            # Outcome rows (runs *and* skips) make whole scenarios queryable
            # (`repro query`, GET /results).
            store.put_outcome(key, outcome, scenario=scenario.name)
        if on_outcome is not None:
            on_outcome(outcome)

    def on_outcomes(lease, payloads) -> None:
        for payload in payloads:
            record(SpecOutcome.from_dict(payload), executed=True)

    tracer = get_tracer()
    executor_label = executor if isinstance(executor, str) else type(executor).__name__
    with tracer.span("suite.run_scenario", scenario=scenario.name, executor=executor_label):
        if executor == "thread":
            pool = local
        elif executor == "process":
            pool = ProcessShardExecutor(processes=processes)
        else:
            pool = executor
        try:
            completed = set(result.completed_keys())
            if store is not None:
                for unit in scenario.expand(devices):
                    unit_key = unit.key()
                    if unit_key in completed:
                        continue
                    engine = local.engine(unit.engine, backend_name, trajectories)
                    key = content_keys[unit_key] = engine.content_key(
                        unit.spec.key(), shots, repetitions, seed, mitigation=unit.mitigation
                    )
                    run = store.get_run(key)
                    engine.count_store_lookup(run is not None)
                    if run is not None:
                        record(
                            SpecOutcome.of(
                                unit_key, unit.spec.as_dict(), engine.device.name,
                                unit.mitigation_label, unit.index, run=run,
                            ),
                            executed=False,
                        )
                        completed.add(unit_key)

            plan = plan_scenario(
                scenario,
                devices,
                completed=frozenset(completed),
                shots=shots,
                repetitions=repetitions,
                seed=seed,
                trajectories=trajectories,
                backend_override=backend_name,
                processes=max(1, int(getattr(pool, "capacity", processes))),
            )
            stats = run_leases(plan, pool, on_outcomes)
        finally:
            if executor == "process":
                pool.close()
            local.close()

    for (engine_key, _, _), engine in local.engines.items():
        result.note_engine_stats(engine_key, engine.stats())
    for worker, worker_stats in sorted(stats["workers"].items()):
        result.note_engine_stats(worker, worker_stats)
    result.note_engine_stats("scheduler", stats["scheduler"])
    return result
