"""Crash containment: a SIGKILLed worker mid-shard must not change results.

The executor's ``crash_marker`` hook arms the workers to SIGKILL themselves
mid-lease exactly once (the first worker to finish a unit writes the marker
file and dies).  The scheduler must observe the poisoned pool, rebuild it,
re-lease the interrupted tasks and finish with a result bit-identical to an
uninterrupted run.
"""

import pytest

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.distributed import ProcessShardExecutor
from repro.suite import Scenario, Sweep, run_scenario

SCENARIO = Scenario(
    name="crash",
    sweeps=(Sweep.of("ghz", num_qubits=(2, 3, 4, 5)),),
    devices=("IonQ-11Q",),
)
KNOBS = dict(shots=40, repetitions=1, seed=21, trajectories=5)


class TestWorkerCrashContainment:
    def test_sigkilled_worker_is_contained_and_result_identical(self, tmp_path):
        baseline = run_scenario(SCENARIO, **KNOBS)
        marker = tmp_path / "crash-once"
        with ProcessShardExecutor(processes=2, crash_marker=str(marker)) as executor:
            crashed = run_scenario(SCENARIO, executor=executor, **KNOBS)
        assert marker.exists(), "the crash hook never fired"
        assert crashed.scores() == baseline.scores()
        scheduler = crashed.engine_stats["scheduler"]
        assert scheduler["retries"] >= 1
        assert scheduler["pool_rebuilds"] >= 1
        assert scheduler["tasks_done"] == scheduler["tasks"]

    def test_crash_with_store_keeps_store_consistent(self, tmp_path):
        from repro.store import ResultStore

        marker = tmp_path / "crash-once-store"
        path = tmp_path / "results.sqlite"
        baseline = run_scenario(SCENARIO, **KNOBS)
        with ResultStore(path) as store:
            with ProcessShardExecutor(processes=2, crash_marker=str(marker)) as executor:
                crashed = run_scenario(SCENARIO, executor=executor, store=store, **KNOBS)
            assert crashed.scores() == baseline.scores()
            assert len(store.query(kind="run", limit=100)) == len(baseline.runs())


class TestExecutorLifecycle:
    def test_close_is_idempotent_and_submit_after_close_raises(self):
        from repro.distributed.plan import Lease, ShardTask, UnitPlan
        from repro.exceptions import DistributedError
        from repro.suite.sweep import EngineConfig

        executor = ProcessShardExecutor(processes=1)
        executor.close()
        executor.close()
        task = ShardTask(
            task_id="t", scenario="s", engine=EngineConfig(device="IonQ-11Q"),
            mitigation="raw", units=(UnitPlan("k", (("family", "ghz"), ("params", ())), 0),),
        )
        with pytest.raises(DistributedError, match="closed"):
            executor.submit(Lease(lease_id=1, task=task))

    def test_rejects_zero_processes(self):
        from repro.exceptions import DistributedError

        with pytest.raises(DistributedError):
            ProcessShardExecutor(processes=0)

    def test_recover_counts_rebuilds(self):
        executor = ProcessShardExecutor(processes=1)
        try:
            executor.recover()
            assert executor.rebuilds == 1
        finally:
            executor.close()
