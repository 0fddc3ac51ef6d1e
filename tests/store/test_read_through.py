"""Read-through integration: the store answers repeat scenarios from disk.

The acceptance contract of the store subsystem: running the same figure-2
scenario twice against one store yields byte-identical scores with **zero**
backend executions on the second pass, observable through the engine's
store/execution counters.
"""

import pytest

from repro.execution import ExecutionEngine
from repro.devices import get_device
from repro.store import ResultStore
from repro.suite import figure2_scenario, mitigated_scenario
from repro.suite.runner import run_scenario

KNOBS = dict(shots=60, repetitions=1, seed=99, trajectories=12)
DEVICES = ["IBM-Casablanca-7Q", "IonQ-11Q"]


@pytest.fixture()
def store():
    with ResultStore() as store:
        yield store


def merged_stats(result):
    totals = {}
    for stats in result.engine_stats.values():
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


class TestScenarioReadThrough:
    def test_second_pass_is_fully_cached(self, store):
        scenario = figure2_scenario(small=True, devices=DEVICES, families=["ghz", "bit_code"])
        first = run_scenario(scenario, store=store, **KNOBS)
        second = run_scenario(scenario, store=store, **KNOBS)

        assert second.scores() == first.scores()
        # Byte-identical outcome payloads, not merely equal score floats.
        first_payloads = [outcome.as_dict() for outcome in first.outcomes()]
        second_payloads = [outcome.as_dict() for outcome in second.outcomes()]
        assert second_payloads == first_payloads

        cold = merged_stats(first)
        warm = merged_stats(second)
        executed = len(first.runs())
        assert executed > 0
        assert cold["store_hits"] == 0
        assert cold["store_misses"] == executed
        assert cold["executions"] == executed
        # Second pass: every unit answered from the store, nothing simulated
        # and nothing compiled.
        assert warm["store_hits"] == executed
        assert warm["store_misses"] == 0
        assert warm["executions"] == 0
        assert warm["misses"] == 0  # transpile cache untouched

    def test_mitigated_scenario_keys_per_technique(self, store):
        scenario = mitigated_scenario(
            techniques=("raw", "readout"), small=True,
            devices=["IonQ-11Q"], families=["ghz"],
        )
        first = run_scenario(scenario, store=store, **KNOBS)
        second = run_scenario(scenario, store=store, **KNOBS)
        assert second.scores() == first.scores()
        assert merged_stats(second)["executions"] == 0
        # Raw and mitigated scores live under distinct content keys.
        raw = {key for key in first.scores() if key.endswith("|raw")}
        mitigated = {key for key in first.scores() if key.endswith("|readout")}
        assert raw and mitigated

    def test_changed_knob_misses(self, store):
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        run_scenario(scenario, store=store, **KNOBS)
        changed = dict(KNOBS, seed=100)
        second = run_scenario(scenario, store=store, **changed)
        stats = merged_stats(second)
        assert stats["store_hits"] == 0
        assert stats["executions"] == len(second.runs())

    def test_outcome_rows_queryable(self, store):
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        run_scenario(scenario, store=store, **KNOBS)
        rows = store.query(kind="outcome", scenario="figure2", family="ghz")
        assert len(rows) == 2
        assert {row["device"] for row in rows} == {"IonQ-11Q"}

    def test_store_off_by_default(self):
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        result = run_scenario(scenario, **KNOBS)
        stats = merged_stats(result)
        assert stats["store_hits"] == 0
        assert stats["store_misses"] == 0


class TestEngineContentKey:
    def test_content_key_is_stable_across_engines(self, store):
        from repro.benchmarks import GHZBenchmark

        device = get_device("IonQ-11Q")
        benchmark = GHZBenchmark(3)
        with ExecutionEngine(device, trajectories=12) as one:
            key_one = one.content_key(benchmark, 60, 1, 99)
        with ExecutionEngine(device, trajectories=12) as two:
            key_two = two.content_key(benchmark, 60, 1, 99)
        assert key_one == key_two
