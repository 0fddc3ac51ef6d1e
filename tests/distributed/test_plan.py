"""Tests for the picklable shard-plan model and scenario planning."""

import pytest

import repro.benchmarks  # noqa: F401 - registers benchmark families
from repro.distributed import plan_scenario
from repro.distributed.plan import TASKS_PER_WORKER
from repro.exceptions import DistributedError
from repro.mitigation import ReadoutMitigator
from repro.suite import Scenario, Sweep, run_scenario

SCENARIO = Scenario(
    name="plan-test",
    sweeps=(Sweep.of("ghz", num_qubits=(2, 3, 4, 5, 6, 7)),),
    devices=("IonQ-11Q",),
)


class TestPlanScenario:
    def test_plan_covers_every_pending_unit_exactly_once(self):
        plan = plan_scenario(SCENARIO, processes=2)
        keys = [key for task in plan.tasks for key in task.unit_keys()]
        expected = [unit.key() for unit in SCENARIO.expand()]
        assert sorted(keys) == sorted(expected)
        assert len(keys) == len(set(keys))
        assert plan.unit_count == len(expected)

    def test_completed_units_never_ship(self):
        expected = [unit.key() for unit in SCENARIO.expand()]
        completed = frozenset(expected[:4])
        plan = plan_scenario(SCENARIO, completed=completed)
        keys = {key for task in plan.tasks for key in task.unit_keys()}
        assert keys == set(expected[4:])

    def test_fully_completed_scenario_plans_empty(self):
        completed = frozenset(unit.key() for unit in SCENARIO.expand())
        plan = plan_scenario(SCENARIO, completed=completed)
        assert len(plan) == 0
        assert plan.unit_count == 0

    def test_auto_chunking_targets_tasks_per_worker(self):
        # 6 units over 2 workers: ceil(6 / (2*TASKS_PER_WORKER)) = 1 unit/task.
        plan = plan_scenario(SCENARIO, processes=2)
        assert len(plan) == min(6, 2 * TASKS_PER_WORKER)
        assert all(len(task.units) >= 1 for task in plan.tasks)

    def test_explicit_chunk_size(self):
        plan = plan_scenario(SCENARIO, chunk_size=4)
        assert [len(task.units) for task in plan.tasks] == [4, 2]
        with pytest.raises(DistributedError):
            plan_scenario(SCENARIO, chunk_size=0)

    def test_task_ids_are_unique_and_stable(self):
        first = plan_scenario(SCENARIO, chunk_size=2)
        second = plan_scenario(SCENARIO, chunk_size=2)
        ids = [task.task_id for task in first.tasks]
        assert len(ids) == len(set(ids))
        assert ids == [task.task_id for task in second.tasks]

    def test_units_carry_spec_dict_and_canonical_index(self):
        plan = plan_scenario(SCENARIO, chunk_size=100)
        unit = plan.tasks[0].units[0]
        assert unit.spec_dict() == {"family": "ghz", "params": {"num_qubits": 2}}
        indices = [u.index for task in plan.tasks for u in task.units]
        assert indices == sorted(indices)

    def test_execution_knobs_are_stamped_on_every_task(self):
        plan = plan_scenario(
            SCENARIO, shots=123, repetitions=2, seed=9, trajectories=7,
            backend_override="statevector",
        )
        for task in plan.tasks:
            assert (task.shots, task.repetitions, task.seed) == (123, 2, 9)
            assert task.trajectories == 7
            assert task.backend_override == "statevector"
            assert task.scenario == "plan-test"

    def test_mitigator_instances_are_rejected(self):
        scenario = Scenario(
            name="bad",
            sweeps=(Sweep.of("ghz", num_qubits=(2,)),),
            devices=("IonQ-11Q",),
            mitigations=(ReadoutMitigator(),),
        )
        # The planner labels an instance by name (the in-process executor
        # holds the instance); the process boundary rejects it up front.
        assert [task.mitigation for task in plan_scenario(scenario).tasks] == ["readout"]
        with pytest.raises(DistributedError, match="Mitigator instances"):
            run_scenario(scenario, executor="process", shots=10, repetitions=1)

    def test_mitigation_names_produce_one_group_per_technique(self):
        scenario = Scenario(
            name="mit",
            sweeps=(Sweep.of("ghz", num_qubits=(2, 3)),),
            devices=("IonQ-11Q",),
            mitigations=("raw", "readout"),
        )
        plan = plan_scenario(scenario, chunk_size=100)
        assert sorted(task.mitigation for task in plan.tasks) == ["raw", "readout"]
