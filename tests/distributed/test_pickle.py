"""Pickle round-trips for everything that crosses the process boundary.

The ``spawn`` start method pickles worker arguments with no inherited state,
so every object shipped to a worker — tasks, leases, scenarios — and every
config a worker rebuilds from — noise models, mitigation specs — must
survive ``pickle`` exactly.
"""

import pickle

import pytest

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.devices import get_device
from repro.distributed import plan_scenario
from repro.mitigation import resolve_mitigator
from repro.suite import Scenario, Sweep
from repro.suite.sweep import EngineConfig

SCENARIO = Scenario(
    name="pickle-test",
    sweeps=(Sweep.of("ghz", num_qubits=(2, 3)),),
    devices=("IonQ-11Q", "IBM-Casablanca-7Q"),
    mitigations=("raw", "readout"),
)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestPickleRoundTrips:
    def test_scenario_roundtrips_and_expands_identically(self):
        restored = roundtrip(SCENARIO)
        assert restored == SCENARIO
        assert [u.key() for u in restored.expand()] == [u.key() for u in SCENARIO.expand()]

    def test_engine_config_roundtrips(self):
        config = EngineConfig(device="IonQ-11Q", backend="statevector", optimization_level=2)
        assert roundtrip(config) == config
        assert roundtrip(config).key() == config.key()

    @pytest.mark.parametrize("device", ["IonQ-11Q", "IBM-Casablanca-7Q", "AQT-4Q"])
    def test_noise_model_roundtrips_with_fingerprint(self, device):
        model = get_device(device).noise_model()
        restored = roundtrip(model)
        assert restored.fingerprint() == model.fingerprint()

    @pytest.mark.parametrize("name", ["readout", "full_readout", "zne", "dd", "dd_xx"])
    def test_resolved_mitigators_roundtrip(self, name):
        mitigator = resolve_mitigator(name)
        restored = roundtrip(mitigator)
        assert restored.name == mitigator.name
        assert type(restored) is type(mitigator)

    def test_plan_lease_and_result_roundtrip(self):
        plan = plan_scenario(SCENARIO, shots=77, seed=3, processes=1)
        restored = roundtrip(plan)
        assert restored == plan
        assert [t.unit_keys() for t in restored.tasks] == [t.unit_keys() for t in plan.tasks]

        from repro.distributed.plan import Lease, LeaseResult

        lease = Lease(lease_id=5, task=plan.tasks[0], attempt=2)
        assert roundtrip(lease) == lease
        result = LeaseResult(
            lease_id=5, task_id="task-0", worker="pid-1",
            outcomes=[{"key": "k", "status": "ok"}], engine_stats={"hits": 1}, seconds=0.5,
        )
        assert roundtrip(result).outcomes == result.outcomes

    def test_task_units_rebuild_their_specs(self):
        plan = plan_scenario(SCENARIO)
        unit = roundtrip(plan.tasks[0]).units[0]
        from repro.suite.spec import BenchmarkSpec

        benchmark = BenchmarkSpec.from_dict(unit.spec_dict()).build()
        assert benchmark.circuit().num_qubits >= 2


class TestSpawnSafety:
    def test_lease_executes_under_spawn_start_method(self, tmp_path):
        """One real spawn worker: nothing may depend on forked parent state."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.distributed.plan import Lease
        from repro.distributed.worker import execute_lease, initialize_worker

        plan = plan_scenario(
            SCENARIO, devices=["IonQ-11Q"], shots=40, repetitions=1,
            trajectories=5, processes=4,
        )
        lease = Lease(lease_id=1, task=plan.tasks[0])
        with ProcessPoolExecutor(
            max_workers=1,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=initialize_worker,
        ) as pool:
            result = pool.submit(execute_lease, lease).result(timeout=300)
        assert [o["key"] for o in result.outcomes] == list(lease.task.unit_keys())
        assert result.outcomes[0]["status"] == "ok"
        assert result.worker.startswith("worker-pid-")
