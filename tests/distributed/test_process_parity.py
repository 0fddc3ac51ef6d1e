"""Thread-vs-process score parity and store integration of the process path."""

import pytest

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.distributed import ProcessShardExecutor
from repro.exceptions import BenchmarkError, DistributedError
from repro.execution import StatevectorBackend
from repro.store import ResultStore
from repro.suite import Scenario, Sweep, run_scenario
from repro.suite.results import SuiteResult

SCENARIO = Scenario(
    name="parity",
    sweeps=(Sweep.of("ghz", num_qubits=(2, 3, 4)),),
    devices=("IonQ-11Q", "IBM-Casablanca-7Q"),
    mitigations=("raw", "readout"),
)
KNOBS = dict(shots=40, repetitions=1, seed=11, trajectories=5)


def store_hits(result):
    return sum(stats.get("store_hits", 0) for stats in result.engine_stats.values())


@pytest.fixture(scope="module")
def thread_result():
    return run_scenario(SCENARIO, **KNOBS)


@pytest.fixture(scope="module")
def process_result():
    return run_scenario(SCENARIO, executor="process", processes=2, **KNOBS)


class TestProcessParity:
    def test_scores_bit_identical_to_thread_path(self, thread_result, process_result):
        assert process_result.scores() == thread_result.scores()

    def test_outcome_payloads_identical(self, thread_result, process_result):
        thread_units = {o.key: o.unit_payload() for o in thread_result.outcomes()}
        process_units = {o.key: o.unit_payload() for o in process_result.outcomes()}
        assert process_units == thread_units

    def test_config_binding_matches(self, thread_result, process_result):
        assert process_result.config == thread_result.config

    def test_process_result_reports_worker_and_scheduler_stats(
        self, thread_result, process_result
    ):
        keys = process_result.engine_stats
        workers = [k for k in keys if k.startswith("worker-pid-")]
        assert workers, keys
        # Backend dispatches (runs + calibration jobs) must add up to the
        # thread path's total regardless of how leases were distributed.
        thread_total = sum(
            stats.get("executions", 0) for stats in thread_result.engine_stats.values()
        )
        assert sum(keys[w].get("executions", 0) for w in workers) == thread_total
        assert keys["scheduler"]["tasks_done"] == keys["scheduler"]["tasks"]

    def test_merge_of_thread_and_process_results_is_conflict_free(
        self, thread_result, process_result
    ):
        merged = SuiteResult(scenario=SCENARIO.name)
        merged.merge(thread_result)
        merged.merge(process_result)  # identical unit payloads: benign
        assert len(merged) == len(thread_result)


class TestProcessStoreIntegration:
    def test_warm_store_answers_without_shipping_to_workers(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            warm = run_scenario(SCENARIO, store=store, **KNOBS)
            result = run_scenario(
                SCENARIO, store=store, executor="process", processes=2, **KNOBS
            )
            assert result.scores() == warm.scores()
            assert store_hits(result) == len(warm.outcomes()) - len(warm.skipped())
            # Skips are re-derived by workers; executed units never shipped.
            assert not any(k.startswith("worker-") and v.get("executions")
                           for k, v in result.engine_stats.items())

    def test_parent_writes_runs_back_to_a_file_store(self, tmp_path):
        path = tmp_path / "cold.sqlite"
        with ResultStore(path) as store:
            result = run_scenario(
                SCENARIO, store=store, executor="process", processes=2, **KNOBS
            )
            rows = store.query(kind="run", limit=100)
            assert len(rows) == len(result.runs())
            # Every unit was looked up exactly once, by the parent.
            misses = sum(s.get("store_misses", 0) for s in result.engine_stats.values())
            assert misses == len(result.outcomes())
            assert not any(v.get("store_misses") for k, v in result.engine_stats.items()
                           if k.startswith("worker-"))

    def test_memory_store_stays_parent_side_but_ends_warm(self):
        with ResultStore(":memory:") as store:
            first = run_scenario(
                SCENARIO, store=store, executor="process", processes=2, **KNOBS
            )
            again = run_scenario(
                SCENARIO, store=store, executor="process", processes=2, **KNOBS
            )
            assert again.scores() == first.scores()
            assert store_hits(again) == len(first.runs())


class TestProcessPathValidation:
    def test_backend_instances_are_rejected(self):
        with pytest.raises(DistributedError, match="backend instances"):
            run_scenario(
                SCENARIO, executor="process", backend=StatevectorBackend(), **KNOBS
            )

    def test_unknown_executor_string_is_rejected(self):
        with pytest.raises(DistributedError, match="unknown executor"):
            run_scenario(SCENARIO, executor="carrier-pigeon", **KNOBS)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_library_error_inside_a_lease_is_raised_unwrapped(self, executor):
        scenario = Scenario(
            name="one-qubit-ghz",
            sweeps=(Sweep.of("ghz", num_qubits=(1,)),),
            devices=("IonQ-11Q",),
        )
        with pytest.raises(BenchmarkError, match="^the GHZ benchmark needs at least two qubits$"):
            run_scenario(scenario, executor=executor, processes=1, **KNOBS)

    def test_resume_partial_skips_completed_units(self, thread_result):
        resumed = run_scenario(
            SCENARIO, executor="process", processes=2, partial=thread_result, **KNOBS
        )
        assert resumed is thread_result
        # Nothing was pending: no worker entries were added.
        assert not any(k.startswith("worker-") for k in resumed.engine_stats)

    def test_custom_executor_instance_is_used_and_not_closed(self):
        with ProcessShardExecutor(processes=2) as executor:
            result = run_scenario(SCENARIO, executor=executor, **KNOBS)
            assert result.scores()
            # run_scenario must not close a caller-owned executor.
            lease_probe = run_scenario(SCENARIO, executor=executor, seed=12, **{
                k: v for k, v in KNOBS.items() if k != "seed"
            })
            assert lease_probe.scores()
