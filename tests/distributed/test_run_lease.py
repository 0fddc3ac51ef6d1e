"""``run_lease``: the one unit loop every executor runs a lease through.

One ``ExecutionEngine.run`` per unit and exactly one outcome per unit, in
task order: oversized and backend-capacity benchmarks and technique
mismatches become skip outcomes (the last two with a warning), and an
unknown technique raises before any unit runs.
"""

import warnings

import pytest

from repro.devices import get_device
from repro.distributed import Lease, ShardTask, UnitPlan
from repro.distributed.worker import run_lease
from repro.exceptions import MitigationError
from repro.execution import DensityMatrixBackend, ExecutionEngine
from repro.suite.sweep import EngineConfig


def lease_for(device, units, mitigation="raw"):
    """A one-task lease over ``(family, params)`` units on ``device``."""
    plans = tuple(
        UnitPlan(
            key=f"unit-{index}",
            spec=(("family", family), ("params", tuple(sorted(params.items())))),
            index=index,
        )
        for index, (family, params) in enumerate(units)
    )
    task = ShardTask(
        task_id="task-0", scenario="lease-test", engine=EngineConfig(device, "density_matrix"),
        mitigation=mitigation, units=plans, shots=64, repetitions=1, seed=1,
    )
    return Lease(lease_id=1, task=task)


def ghz(*sizes):
    return [("ghz", {"num_qubits": n}) for n in sizes]


def test_oversized_benchmark_is_a_silent_skip_outcome():
    lease = lease_for("AQT-4Q", ghz(3, 5, 4))
    with ExecutionEngine(get_device("AQT-4Q"), backend="statevector") as engine:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the expected "X" of Fig. 2 does not warn
            outcomes = run_lease(engine, lease)
    assert [o["status"] for o in outcomes] == ["ok", "skipped", "ok"]
    assert [o["key"] for o in outcomes] == ["unit-0", "unit-1", "unit-2"]
    assert "needs 5 qubits, device has 4" in outcomes[1]["reason"]


def test_backend_capacity_skip_outcome_warns():
    device = "IBM-Toronto-27Q"
    backend = DensityMatrixBackend(max_qubits=4)
    with ExecutionEngine(get_device(device), backend=backend) as engine:
        with pytest.warns(UserWarning, match="backend limit of 4 qubits"):
            outcomes = run_lease(engine, lease_for(device, ghz(3, 6)))
    assert [o["status"] for o in outcomes] == ["ok", "skipped"]
    assert outcomes[0]["run"]["typical"]["num_qubits"] == 3


def test_unknown_technique_raises_before_any_unit_runs(ibm_device):
    lease = lease_for(ibm_device.name, ghz(3), mitigation="readuot")
    with ExecutionEngine(ibm_device, backend="density_matrix") as engine:
        with pytest.raises(MitigationError, match="unknown mitigation"):
            run_lease(engine, lease)
        stats = engine.stats()
    assert stats["misses"] == 0
    assert stats["executions"] == 0


def test_zne_on_bit_code_is_skipped_with_a_warning(ibm_device):
    units = ghz(3) + [("bit_code", {"num_data_qubits": 3, "num_rounds": 2})]
    lease = lease_for(ibm_device.name, units, mitigation="zne")
    with ExecutionEngine(ibm_device, backend="density_matrix") as engine:
        with pytest.warns(UserWarning, match="cannot fold"):
            outcomes = run_lease(engine, lease)
    assert [o["status"] for o in outcomes] == ["ok", "skipped"]
    assert outcomes[0]["run"]["family"] == "ghz"


def test_technique_reaches_every_unit(ibm_device):
    lease = lease_for(ibm_device.name, ghz(3, 4), mitigation="readout")
    with ExecutionEngine(ibm_device, backend="density_matrix") as engine:
        outcomes = run_lease(engine, lease)
        stats = engine.stats()
    assert [o["mitigation"] for o in outcomes] == ["readout", "readout"]
    assert [o["run"]["mitigation"] for o in outcomes] == ["readout", "readout"]
    assert stats["calibration_misses"] == 2  # one per qubit set

