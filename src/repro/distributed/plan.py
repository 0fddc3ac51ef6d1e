"""Picklable work-unit plans: every sweep runs as leased tasks.

A :class:`ShardPlan` serializes the pending remainder of a
:class:`~repro.suite.sweep.Scenario` into :class:`ShardTask` values — plain
frozen dataclasses of strings, ints and spec dicts — that can cross a
``spawn``-context process boundary.  Each task carries one engine
configuration, one mitigation technique *name* and a chunk of run units, so
a worker can rebuild everything it needs (device, backend, mitigator,
benchmark instances) from registries on its own side of the boundary.

The scheduler hands tasks to workers wrapped in :class:`Lease` records
(task + attempt); workers answer with :class:`LeaseResult`
records carrying serialized :class:`~repro.suite.results.SpecOutcome`
payloads plus the worker's engine-stats delta for that lease.  Everything in
this module is data — no locks, no open handles, no closures — which is
what the pickle round-trip tests in ``tests/distributed`` pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..suite.sweep import EngineConfig, Scenario

__all__ = ["UnitPlan", "ShardTask", "ShardPlan", "Lease", "LeaseResult", "plan_scenario"]

#: Target number of tasks per worker process.  Chunking each shard group
#: into a few tasks per worker (instead of one monolithic task) lets the
#: scheduler balance uneven unit costs and bounds the work lost when a
#: lease has to be re-issued after a crash.
TASKS_PER_WORKER = 4


@dataclass(frozen=True)
class UnitPlan:
    """One pending run unit: the picklable projection of a ``RunUnit``.

    Attributes:
        key: The unit's stable scenario identity (``spec|engine|mitigation``).
        spec: The benchmark spec as its JSON dict (family + params).
        index: Position in the scenario's canonical expansion order.
    """

    key: str
    spec: Tuple[Tuple[str, Any], ...]
    index: int

    def spec_dict(self) -> Dict[str, Any]:
        return {"family": dict(self.spec)["family"], "params": dict(dict(self.spec)["params"])}


def _freeze_spec(spec: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Spec dict -> hashable pairs (params nested as sorted pairs)."""
    return (
        ("family", spec["family"]),
        ("params", tuple(sorted(spec.get("params", {}).items()))),
    )


@dataclass(frozen=True)
class ShardTask:
    """One leasable unit of work: a chunk of one shard group.

    Every field is process-boundary safe: the engine configuration and
    mitigation are *names* and the execution knobs are scalars.

    Attributes:
        task_id: Stable identity within the plan (keys lease bookkeeping).
        scenario: Owning scenario name (stamped into store rows).
        engine: The engine configuration the units share.
        mitigation: Mitigation technique name (``"raw"`` = unmitigated).
        units: The chunk's pending units, in canonical order.
        shots / repetitions / seed / trajectories: Execution knobs, identical
            to the single-process path so scores are bit-identical.
        backend_override: Backend *name* overriding the engine config's
            backend (instances cannot cross the process boundary).
    """

    task_id: str
    scenario: str
    engine: EngineConfig
    mitigation: str
    units: Tuple[UnitPlan, ...]
    shots: int = 1000
    repetitions: int = 3
    seed: Optional[int] = 1234
    trajectories: Optional[int] = None
    backend_override: Optional[str] = None

    def unit_keys(self) -> Tuple[str, ...]:
        return tuple(unit.key for unit in self.units)


@dataclass(frozen=True)
class ShardPlan:
    """The full pending work of one scenario execution, as leasable tasks."""

    scenario: str
    tasks: Tuple[ShardTask, ...]

    @property
    def unit_count(self) -> int:
        return sum(len(task.units) for task in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class Lease:
    """One issuance of a task to a worker.

    A task is leased again only after its previous lease failed (a crash or
    a retryable error); ``attempt`` counts the task's leases so far.
    """

    lease_id: int
    task: ShardTask
    attempt: int = 1


@dataclass
class LeaseResult:
    """What a worker returns for one completed lease.

    Attributes:
        lease_id / task_id: Identity echo for scheduler bookkeeping.
        worker: The ``engine_stats`` key the lease's statistics fold into:
            ``"worker-pid-<os pid>"`` for a pool process, the engine
            configuration's key for an in-process lease.
        outcomes: One :meth:`SpecOutcome.as_dict` payload per unit, in task
            order (runs and skips alike).
        engine_stats: The worker engine's :meth:`ExecutionEngine.stats`
            *delta* attributable to this lease (engines are reused across
            leases, so cumulative counters are diffed on the worker side).
            Empty for in-process leases: the parent reads its own engines.
        seconds: Worker-side wall time of the lease.
        spans: The worker tracer's finished spans for this lease, as plain
            dicts (:meth:`~repro.telemetry.Span.as_dict`); the scheduler
            adopts them under its own lease span so a multi-process sweep
            merges into one coherent trace.  Empty when tracing is disabled
            and for in-process leases, whose spans are already recorded.
        metrics: :func:`~repro.telemetry.diff_snapshots` of the worker's
            metrics registry across the lease (counters and histograms; no
            gauges); the scheduler folds it into the parent registry.  Empty
            for in-process leases.
    """

    lease_id: int
    task_id: str
    worker: str
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    engine_stats: Dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0
    spans: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)


def _chunk(units: Sequence[UnitPlan], size: int) -> List[Tuple[UnitPlan, ...]]:
    return [tuple(units[start : start + size]) for start in range(0, len(units), size)]


def plan_scenario(
    scenario: Scenario,
    devices: Optional[Sequence[str]] = None,
    completed: FrozenSet[str] = frozenset(),
    shots: int = 1000,
    repetitions: int = 3,
    seed: Optional[int] = 1234,
    trajectories: Optional[int] = None,
    backend_override: Optional[str] = None,
    processes: int = 1,
) -> ShardPlan:
    """Expand a scenario into the leasable remainder of its work.

    Args:
        completed: Unit keys already recorded (resumed partials and store
            hits) — excluded from the plan entirely, so they never run.
        processes: The executor's capacity; the plan is split into
            roughly :data:`TASKS_PER_WORKER` tasks per worker for load
            balancing.  A task never spans two shard groups, so it holds at
            most one (engine, technique) batch.

    Tasks carry technique *labels*; a Mitigator instance in the scenario is
    planned under its name, for an executor that holds the instance.
    """
    groups: List[Tuple[EngineConfig, str, List[UnitPlan]]] = []
    for shard in scenario.shards(devices):
        for _, units in shard.groups:
            pending = [
                UnitPlan(key=unit.key(), spec=_freeze_spec(unit.spec.as_dict()), index=unit.index)
                for unit in units
                if unit.key() not in completed
            ]
            if pending:
                groups.append((shard.engine, units[0].mitigation_label, pending))

    # Aim for TASKS_PER_WORKER tasks per worker across the whole plan, but
    # never split below one unit per task.
    total = sum(len(pending) for _, _, pending in groups)
    target_tasks = max(1, int(processes) * TASKS_PER_WORKER)
    size = max(1, math.ceil(total / target_tasks))

    tasks: List[ShardTask] = []
    for engine, mitigation, pending in groups:
        for chunk in _chunk(pending, size):
            tasks.append(
                ShardTask(
                    task_id=f"task-{len(tasks)}",
                    scenario=scenario.name,
                    engine=engine,
                    mitigation=mitigation,
                    units=chunk,
                    shots=shots,
                    repetitions=repetitions,
                    seed=seed,
                    trajectories=trajectories,
                    backend_override=backend_override,
                )
            )
    return ShardPlan(scenario=scenario.name, tasks=tuple(tasks))
