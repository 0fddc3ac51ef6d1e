"""Leased sweep execution, in-process or on a worker-process pool.

The suite runner stays the single entry point — every ``run_scenario``
call plans the scenario's pending units into picklable :class:`ShardTask`
chunks, drives them through an executor via the leased :class:`WorkQueue`
scheduler (an :class:`InProcessExecutor` for ``executor="thread"``, a
:class:`ProcessShardExecutor` for ``executor="process", processes=N``), and
merges the streamed outcomes back into the usual
:class:`~repro.suite.results.SuiteResult`.  See ``docs/distributed.md``.
"""

from .executor import InProcessExecutor, ProcessShardExecutor, default_start_method
from .plan import (
    Lease,
    LeaseResult,
    ShardPlan,
    ShardTask,
    UnitPlan,
    plan_scenario,
)
from .scheduler import WorkQueue, run_leases

__all__ = [
    "InProcessExecutor",
    "Lease",
    "LeaseResult",
    "ProcessShardExecutor",
    "ShardPlan",
    "ShardTask",
    "UnitPlan",
    "WorkQueue",
    "default_start_method",
    "plan_scenario",
    "run_leases",
]
