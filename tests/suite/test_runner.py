"""Tests for sharded scenario execution, streaming results and resumability."""

import pytest

import repro.distributed as distributed
from repro.benchmarks import GHZBenchmark, figure2_benchmarks
from repro.devices import get_device
from repro.distributed import ProcessShardExecutor
from repro.exceptions import (
    DeviceError,
    DistributedError,
    MitigationError,
    SimulationError,
    UnknownBenchmarkError,
)
from repro.execution import ExecutionEngine
from repro.mitigation import ReadoutMitigator
from repro.store import ResultStore
from repro.suite import (
    BenchmarkRegistry,
    Scenario,
    Sweep,
    figure2_scenario,
    get_registry,
    mitigated_scenario,
)
from repro.suite.results import SuiteResult
from repro.suite.runner import run_scenario

DEVICES = ["IBM-Casablanca-7Q", "IonQ-11Q"]
KNOBS = dict(shots=60, repetitions=1, seed=99, trajectories=12)


@pytest.fixture(scope="module")
def small_result():
    scenario = figure2_scenario(
        small=True, devices=DEVICES, families=["ghz", "bit_code", "vanilla_qaoa"]
    )
    return run_scenario(scenario, **KNOBS)


class TestRunScenario:
    def test_runs_in_scenario_order(self, small_result):
        labels = [(run.benchmark, run.device) for run in small_result.runs()]
        assert labels == [
            ("ghz[3q]", "IBM-Casablanca-7Q"),
            ("ghz[3q]", "IonQ-11Q"),
            ("ghz[5q]", "IBM-Casablanca-7Q"),
            ("ghz[5q]", "IonQ-11Q"),
            ("bit_code[3d,2r]", "IBM-Casablanca-7Q"),
            ("bit_code[3d,2r]", "IonQ-11Q"),
            ("vanilla_qaoa[4q]", "IBM-Casablanca-7Q"),
            ("vanilla_qaoa[4q]", "IonQ-11Q"),
        ]

    def test_scores_identical_to_direct_engine_loop(self, small_result):
        """The Scenario API must not change scores at a fixed seed (the
        acceptance criterion guarding the figure2/mitigated rewrite)."""
        expected = {}
        for family in ["ghz", "bit_code", "vanilla_qaoa"]:
            for benchmark in figure2_benchmarks(small=True)[family]:
                for name in DEVICES:
                    with ExecutionEngine(get_device(name), trajectories=12) as engine:
                        run = engine.run(benchmark, shots=60, repetitions=1, seed=99)
                    expected[(run.benchmark, run.device)] = run.scores
        for run in small_result.runs():
            assert run.scores == expected[(run.benchmark, run.device)]

    def test_per_run_timing_and_engine_stats(self, small_result):
        assert all(outcome.seconds > 0 for outcome in small_result.outcomes())
        assert small_result.total_seconds() > 0
        engines = {k: v for k, v in small_result.engine_stats.items() if k != "scheduler"}
        for stats in engines.values():
            assert stats["misses"] > 0
        assert set(engines) == {
            "IBM-Casablanca-7Q/default/O1/noise_aware",
            "IonQ-11Q/default/O1/noise_aware",
        }

    def test_feature_vectors_per_spec(self, small_result):
        vectors = small_result.feature_vectors()
        assert "ghz(num_qubits=3)" in vectors
        assert vectors["ghz(num_qubits=3)"]["critical_depth"] == pytest.approx(1.0)

    def test_streaming_observer_sees_every_outcome(self):
        seen = []
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        result = run_scenario(scenario, on_outcome=seen.append, **KNOBS)
        assert [outcome.key for outcome in seen] == [
            outcome.key for outcome in result.outcomes()
        ]
        assert len(seen) == 2

    def test_oversized_benchmarks_recorded_as_skips(self):
        scenario = figure2_scenario(small=True, devices=["AQT-4Q"], families=["ghz"])
        result = run_scenario(scenario, **KNOBS)
        skipped = result.skipped()
        assert [s.spec["params"]["num_qubits"] for s in skipped] == [5]
        assert "does not fit" in skipped[0].reason
        assert len(result.runs()) == 1


class TestResume:
    def test_round_trip_and_resume_skips_completed(self, small_result, tmp_path):
        path = tmp_path / "partial.json"
        small_result.to_json(path)
        reloaded = SuiteResult.from_json(path)
        assert reloaded.scores() == small_result.scores()
        assert reloaded.completed_keys() == small_result.completed_keys()

        scenario = figure2_scenario(
            small=True, devices=DEVICES, families=["ghz", "bit_code", "vanilla_qaoa"]
        )
        calls = []
        original = ExecutionEngine.run

        def counting_run(self, benchmark, **kwargs):
            calls.append(str(benchmark))
            return original(self, benchmark, **kwargs)

        ExecutionEngine.run = counting_run
        try:
            resumed = run_scenario(scenario, partial=reloaded, **KNOBS)
        finally:
            ExecutionEngine.run = original
        assert calls == []
        assert resumed is reloaded

    def test_partial_resume_executes_only_missing_units(self):
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        full = run_scenario(scenario, **KNOBS)
        partial = SuiteResult.from_json(full.to_json())
        dropped = [o for o in partial.outcomes() if "num_qubits=5" in o.key]
        assert len(dropped) == 1
        partial._outcomes.pop(dropped[0].key)

        calls = []
        original = ExecutionEngine.run

        def counting_run(self, benchmark, **kwargs):
            calls.append(str(benchmark))
            return original(self, benchmark, **kwargs)

        ExecutionEngine.run = counting_run
        try:
            resumed = run_scenario(scenario, partial=partial, **KNOBS)
        finally:
            ExecutionEngine.run = original
        assert calls == ["ghz[5q]"]
        assert resumed.scores() == full.scores()

    def test_resume_with_different_knobs_rejected(self, small_result):
        from repro.exceptions import AnalysisError

        scenario = figure2_scenario(
            small=True, devices=DEVICES, families=["ghz", "bit_code", "vanilla_qaoa"]
        )
        partial = SuiteResult.from_json(small_result.to_json())
        bad = dict(KNOBS)
        bad["shots"] = 999
        with pytest.raises(AnalysisError, match="different knobs"):
            run_scenario(scenario, partial=partial, **bad)

    def test_resume_with_different_scenario_rejected(self, small_result):
        from repro.exceptions import AnalysisError

        partial = SuiteResult.from_json(small_result.to_json())
        other = mitigated_scenario(devices=["IonQ-11Q"], families=["ghz"])
        with pytest.raises(AnalysisError, match="cannot resume"):
            run_scenario(other, partial=partial, **KNOBS)

    def test_resumed_shard_stats_merge(self):
        scenario = figure2_scenario(small=True, devices=["IonQ-11Q"], families=["ghz"])
        full = run_scenario(scenario, **KNOBS)
        partial = SuiteResult.from_json(full.to_json())
        dropped = [o for o in partial.outcomes() if "num_qubits=5" in o.key][0]
        partial._outcomes.pop(dropped.key)
        resumed = run_scenario(scenario, partial=partial, **KNOBS)
        merged = resumed.engine_stats["IonQ-11Q/default/O1/noise_aware"]
        # full run compiled 2 distinct circuits, resumed tail compiled 1
        assert merged["misses"] == 3


class TestMitigatedScenario:
    def test_unknown_technique_raises_before_execution(self):
        scenario = mitigated_scenario(
            techniques=("raw", "not_a_technique"), devices=["IonQ-11Q"], families=["ghz"]
        )
        with pytest.raises(MitigationError):
            run_scenario(scenario, **KNOBS)

    def test_technique_axis_produces_one_run_each(self):
        scenario = mitigated_scenario(
            techniques=("raw", "readout"),
            small=True,
            devices=["IBM-Casablanca-7Q"],
            families=["ghz"],
        )
        result = run_scenario(scenario, shots=40, repetitions=1, seed=7, trajectories=10)
        by_technique = {}
        for run in result.runs():
            by_technique.setdefault(run.mitigation or "raw", []).append(run.benchmark)
        assert by_technique == {
            "raw": ["ghz[3q]", "ghz[5q]"],
            "readout": ["ghz[3q]", "ghz[5q]"],
        }

    def test_mismatched_technique_skipped_loudly_exactly_once(self):
        scenario = mitigated_scenario(
            techniques=("zne",), small=True, devices=["IonQ-11Q"], families=["bit_code"]
        )
        with pytest.warns(UserWarning, match="skipping") as captured:
            result = run_scenario(scenario, **KNOBS)
        assert result.runs() == []
        assert len(result.skipped()) == 1
        skip_warnings = [w for w in captured if "skipping" in str(w.message)]
        assert len(skip_warnings) == 1  # engine defers to the runner's hook


GHZ_ON_IONQ = dict(small=True, devices=["IonQ-11Q"], families=["ghz"])


class TestNameCheck:
    """A name no lease could run raises its resolver's error before any store
    lookup, plan or pool process, the same way on both executors."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize(
        "scenario, knobs, error, message",
        [
            (figure2_scenario(small=True, devices=["NoSuchDevice"], families=["ghz"]),
             KNOBS, DeviceError, "unknown device"),
            (Scenario.from_dict({
                "name": "bad-family",
                "sweeps": [{"family": "no_such_family", "grid": {"num_qubits": [3]}}],
                "devices": ["IonQ-11Q"],
            }), KNOBS, UnknownBenchmarkError, "unknown benchmark family"),
            (mitigated_scenario(techniques=("raw", "readuot"), **GHZ_ON_IONQ),
             KNOBS, MitigationError, "unknown mitigation"),
            (figure2_scenario(backend="no_such_backend", **GHZ_ON_IONQ),
             KNOBS, SimulationError, "unknown backend"),
            (figure2_scenario(**GHZ_ON_IONQ), dict(KNOBS, trajectories=0),
             SimulationError, "trajectories must be"),
        ],
        ids=["device", "family", "technique", "backend", "trajectories"],
    )
    def test_raises_before_any_lookup_plan_or_pool(
        self, monkeypatch, executor, scenario, knobs, error, message
    ):
        planned, pools = [], []
        monkeypatch.setattr(distributed, "plan_scenario", lambda *a, **k: planned.append(a))
        monkeypatch.setattr(ProcessShardExecutor, "_make_pool", lambda self: pools.append(self))
        with pytest.raises(error, match=message):
            run_scenario(scenario, executor=executor, **knobs)
        with ResultStore(":memory:") as store:
            with pytest.raises(error, match=message):
                run_scenario(scenario, executor=executor, store=store, **knobs)
            stats = store.stats()
        assert (planned, pools, stats["hits"], stats["misses"]) == ([], [], 0, 0)


class TestScenarioComposition:
    def test_multi_axis_scenario(self):
        scenario = Scenario(
            name="ablation",
            sweeps=(Sweep.of("ghz", num_qubits=(3,)),),
            devices=("IBM-Casablanca-7Q",),
            optimization_levels=(0, 1),
            placements=("trivial", "noise_aware"),
        )
        result = run_scenario(scenario, **KNOBS)
        runs = result.runs()
        assert len(runs) == 4
        assert {(run.placement, run.pipeline != "") for run in runs} == {
            ("trivial", True),
            ("noise_aware", True),
        }
        assert len([k for k in result.engine_stats if k != "scheduler"]) == 4


class TestInProcessExecution:
    """What only the in-process executor of the thread path can carry."""

    def test_registry_builds_every_spec_and_default_stays_untouched(self):
        registry = BenchmarkRegistry()
        registry.register("private_ghz")(GHZBenchmark)
        default_instances = get_registry().stats()["instances"]
        scenario = Scenario(
            name="private",
            sweeps=(Sweep.of("private_ghz", num_qubits=(3, 5)),),
            devices=tuple(DEVICES),
        )
        result = run_scenario(scenario, registry=registry, **KNOBS)
        assert len(result.runs()) == 4
        assert registry.stats()["instances"] == 2
        assert "private_ghz" not in get_registry()
        assert get_registry().stats()["instances"] == default_instances

    @staticmethod
    def _readout_scenario(technique):
        return Scenario(
            name="instances",
            sweeps=(Sweep.of("ghz", num_qubits=(3,)),),
            devices=("IBM-Casablanca-7Q",),
            mitigations=("raw", technique),
        )

    def test_mitigator_instances_score_like_their_names(self):
        by_name = run_scenario(self._readout_scenario("readout"), **KNOBS)
        by_instance = run_scenario(self._readout_scenario(ReadoutMitigator()), **KNOBS)
        assert by_instance.scores() == by_name.scores()
        assert [o.unit_payload() for o in by_instance.outcomes()] == [
            o.unit_payload() for o in by_name.outcomes()
        ]
        # A non-default instance is the one that runs, not its name.
        custom = ReadoutMitigator(calibration_shots=123)
        by_custom = run_scenario(self._readout_scenario(custom), **KNOBS)
        with ExecutionEngine(get_device("IBM-Casablanca-7Q"), trajectories=12) as engine:
            direct = engine.run(
                GHZBenchmark(3), shots=60, repetitions=1, seed=99, mitigation=custom
            )
        assert by_custom.runs()[1].scores == direct.scores
        assert by_custom.runs()[1].scores != by_name.runs()[1].scores

    def test_mitigator_instances_rejected_by_process_executor_before_planning(
        self, monkeypatch
    ):
        planned = []
        monkeypatch.setattr(distributed, "plan_scenario", lambda *a, **k: planned.append(a))
        with pytest.raises(DistributedError, match="Mitigator instances"):
            run_scenario(
                self._readout_scenario(ReadoutMitigator()), executor="process", **KNOBS
            )
        assert planned == []

    def test_in_process_errors_propagate_without_retry(self):
        attempts = []

        class Exploding(GHZBenchmark):
            def __init__(self, num_qubits):
                attempts.append(num_qubits)
                raise ValueError("cannot build")

        registry = BenchmarkRegistry()
        registry.register("exploding")(Exploding)
        scenario = Scenario(
            name="exploding",
            sweeps=(Sweep.of("exploding", num_qubits=(3,)),),
            devices=("IonQ-11Q",),
        )
        with pytest.raises(ValueError, match="cannot build"):
            run_scenario(scenario, registry=registry, **KNOBS)
        assert attempts == [3]
