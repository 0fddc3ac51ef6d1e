"""Engine tests: failing executions, centralised fit checks, transpile-count
guarantees, named versus instance backends and backend selection from the
Fig. 2 driver."""

import pytest

from repro.benchmarks import GHZBenchmark, figure2_benchmarks
from repro.circuits import Circuit
from repro.devices import get_device
from repro.exceptions import DeviceError
from repro.execution import (
    ExecutionEngine,
    StatevectorBackend,
    TrajectoryBackend,
    TranspileCache,
)
from repro.execution import cache as cache_module
from repro.experiments import reproduce_figure2

DEVICE = "IBM-Casablanca-7Q"


@pytest.fixture
def transpile_spy(monkeypatch):
    """Counts every transpile() invocation the execution layer performs."""
    calls = {"n": 0}
    real = cache_module.transpile

    def spy(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_module, "transpile", spy)
    return calls


class _FailingBackend:
    name = "failing"
    noisy = False

    def run_batch(self, circuits, shots, *, noise_model=None, seed=None):
        raise RuntimeError("boom")


class TestFailures:
    def test_failed_circuit_raises_from_run_circuits(self):
        with ExecutionEngine(get_device(DEVICE), backend=_FailingBackend()) as engine:
            with pytest.raises(RuntimeError, match="boom"):
                engine.run_circuits([GHZBenchmark(3).circuits()[0]], shots=10)
            assert engine.stats()["executions"] == 1


class TestOversizedCheck:
    def test_error_message_names_both_qubit_counts(self):
        with ExecutionEngine(get_device("AQT-4Q")) as engine:
            with pytest.raises(DeviceError, match=r"needs 5 qubits, device has 4"):
                engine.run(GHZBenchmark(5), shots=10)

    def test_run_circuits_checks_every_circuit(self):
        oversized = Circuit(5).h(0).measure_all()
        with ExecutionEngine(get_device("AQT-4Q")) as engine:
            with pytest.raises(DeviceError, match="5-qubit circuit"):
                engine.run_circuits([GHZBenchmark(3).circuits()[0], oversized], shots=10)
            assert engine.stats()["executions"] == 0

    def test_backend_width_limit_raises_backend_capacity_error(self):
        """A compiled circuit wider than the backend's limit is a DeviceError
        subclass, so sweep drivers skip it like any other too-large instance
        instead of crashing mid-sweep on SimulationError."""
        from repro.exceptions import BackendCapacityError
        from repro.execution import DensityMatrixBackend

        device = get_device("IBM-Toronto-27Q")
        backend = DensityMatrixBackend(max_qubits=4)
        with ExecutionEngine(device, backend=backend) as engine:
            with pytest.raises(BackendCapacityError, match="backend limit of 4 qubits"):
                engine.run(GHZBenchmark(6), shots=10, repetitions=1)
            assert engine.stats()["executions"] == 0

    def test_figure2_warns_on_backend_capacity_skips(self):
        from repro.execution import DensityMatrixBackend

        with pytest.warns(UserWarning, match="backend limit of 4 qubits"):
            runs = reproduce_figure2(
                devices=["IBM-Toronto-27Q"],
                small=True,
                shots=20,
                repetitions=1,
                families=["ghz"],
                backend=DensityMatrixBackend(max_qubits=4),
            )
        # ghz[3q] fits the 4-qubit backend budget; ghz[5q] was skipped loudly.
        assert [run.typical["num_qubits"] for run in runs] == [3]


class TestTranspileCounts:
    def test_no_double_transpile_across_repetitions(self, transpile_spy):
        """Regression for the seed-era bug: circuits[0] was compiled once for
        metadata and again inside every repetition."""
        benchmark = GHZBenchmark(3)
        with ExecutionEngine(get_device(DEVICE), backend=StatevectorBackend()) as engine:
            engine.run(benchmark, shots=20, repetitions=3, seed=1234)
        assert transpile_spy["n"] == len(benchmark.circuits())

    def test_small_figure2_suite_transpiles_at_least_2x_less_than_seed_path(
        self, transpile_spy
    ):
        """Acceptance criterion: cached engine vs the seed-era transpile count
        (1 metadata compile + repetitions * circuits per benchmark)."""
        device = get_device("IonQ-11Q")
        repetitions = 3
        instance_map = figure2_benchmarks(small=True)
        with ExecutionEngine(device, backend="statevector", max_workers=2) as engine:
            for instances in instance_map.values():
                for benchmark in instances:
                    if benchmark.num_qubits() <= device.num_qubits:
                        engine.run(benchmark, shots=10, repetitions=repetitions, seed=1)
        engine_calls = transpile_spy["n"]

        seed_path_calls = 0
        for instances in instance_map.values():
            for benchmark in instances:
                circuits = benchmark.circuits()
                if max(c.num_qubits for c in circuits) > device.num_qubits:
                    continue
                seed_path_calls += 1 + repetitions * len(circuits)

        assert engine_calls > 0
        assert 2 * engine_calls <= seed_path_calls

    def test_shared_cache_across_engines(self, transpile_spy):
        device = get_device(DEVICE)
        cache = TranspileCache()
        for backend in ("statevector", "trajectory"):
            with ExecutionEngine(device, backend=backend, cache=cache) as engine:
                engine.run(GHZBenchmark(3), shots=10, repetitions=1, seed=0)
        assert transpile_spy["n"] == 1
        assert cache.stats()["hits"] >= 1


class TestBackendForms:
    def test_backend_instance_matches_named_backend(self):
        device = get_device(DEVICE)
        circuits = GHZBenchmark(3).circuits()
        with ExecutionEngine(device, backend=StatevectorBackend()) as engine:
            instance = engine.run_circuits(circuits, shots=80, seed=4)
        with ExecutionEngine(device, backend="statevector") as engine:
            named = engine.run_circuits(circuits, shots=80, seed=4)
        assert [dict(a) for a in instance] == [dict(b) for b in named]

    def test_ideal_backend_honours_trajectories_for_collapse_circuits(self):
        """Regression: an ideal backend's trajectories must reach the
        simulator — mid-circuit measurement/reset circuits are simulated
        per-trajectory even without noise."""
        from repro.benchmarks import BitCodeBenchmark
        from repro.simulation import StatevectorSimulator
        from repro.transpiler import transpile

        device = get_device(DEVICE)
        circuits = BitCodeBenchmark(3, 2).circuits()
        with ExecutionEngine(device, backend=StatevectorBackend(trajectories=8)) as engine:
            observed = engine.run_circuits(circuits, shots=40, seed=5)
        expected = []
        for index, circuit in enumerate(circuits):
            compact, _physical = transpile(circuit, device).compact()
            simulator = StatevectorSimulator(
                noise_model=None, seed=5 + 7919 * index, trajectories=8
            )
            expected.append(simulator.run(compact, shots=40))
        assert [dict(a) for a in observed] == [dict(b) for b in expected]

    def test_engine_forwards_trajectories_to_named_backends(self):
        device = get_device(DEVICE)
        with ExecutionEngine(device, backend="trajectory", trajectories=7) as engine:
            assert engine.backend.trajectories == 7
        with ExecutionEngine(device, backend="statevector", trajectories=7) as engine:
            assert engine.backend.trajectories == 7
        with ExecutionEngine(device, trajectories=9) as engine:  # default backend
            assert engine.backend.trajectories == 9

    def test_trajectory_instance_run_matches_named_backend(self):
        device = get_device(DEVICE)
        with ExecutionEngine(device, backend=TrajectoryBackend(trajectories=10)) as engine:
            instance = engine.run(GHZBenchmark(3), shots=60, repetitions=2, seed=3)
        with ExecutionEngine(device, backend="trajectory", trajectories=10) as engine:
            named = engine.run(GHZBenchmark(3), shots=60, repetitions=2, seed=3)
        assert instance.scores == named.scores
        assert instance.record() == named.record()


class TestFigure2BackendSelection:
    @pytest.mark.parametrize("backend", ["statevector", "trajectory", "density_matrix"])
    def test_all_three_backends_selectable(self, backend):
        runs = reproduce_figure2(
            devices=[DEVICE],
            small=True,
            shots=30,
            repetitions=1,
            trajectories=5,
            families=["ghz"],
            backend=backend,
            max_workers=2,
        )
        assert runs
        assert all(run.backend == backend for run in runs)
        assert all(0.0 <= run.mean_score <= 1.0 for run in runs)

    def test_ideal_backend_scores_above_noisy(self):
        kwargs = dict(
            devices=[DEVICE], small=True, shots=120, repetitions=1,
            families=["ghz"], seed=11,
        )
        ideal = reproduce_figure2(backend="statevector", **kwargs)
        noisy = reproduce_figure2(backend="trajectory", trajectories=20, **kwargs)
        assert min(run.mean_score for run in ideal) > 0.9
        mean = lambda runs: sum(r.mean_score for r in runs) / len(runs)
        assert mean(ideal) > mean(noisy)


class TestPlacementPlumbing:
    """placement= is selectable end-to-end: per engine and from the drivers."""

    def test_engine_default_placement(self):
        device = get_device(DEVICE)
        with ExecutionEngine(device, backend="statevector", placement="trivial") as engine:
            run = engine.run(GHZBenchmark(3), shots=40, repetitions=1, seed=5)
            assert run.placement == "trivial"
            entries = engine.prepare(GHZBenchmark(3).circuits())
            assert entries[0].transpiled.initial_layout == {0: 0, 1: 1, 2: 2}

    def test_figure2_driver_forwards_placement(self):
        runs = reproduce_figure2(
            devices=[DEVICE],
            families=["ghz"],
            shots=40,
            repetitions=1,
            backend="statevector",
            placement="trivial",
        )
        assert runs and all(run.placement == "trivial" for run in runs)


class TestParallelPrepare:
    def test_parallel_prepare_matches_serial(self, transpile_spy):
        device = get_device(DEVICE)
        circuits = [GHZBenchmark(n).circuits()[0] for n in (3, 4, 5, 6)]
        with ExecutionEngine(device, backend="statevector", max_workers=1) as serial:
            serial_entries = serial.prepare(circuits)
        serial_calls = transpile_spy["n"]

        with ExecutionEngine(device, backend="statevector", max_workers=4) as pooled:
            pooled_entries = pooled.prepare(circuits)
        assert transpile_spy["n"] == 2 * serial_calls  # same count, per engine

        for a, b in zip(serial_entries, pooled_entries):
            assert cache_module.circuit_fingerprint(a.compact) == (
                cache_module.circuit_fingerprint(b.compact)
            )
            assert a.transpiled.initial_layout == b.transpiled.initial_layout

    def test_parallel_prepare_compiles_duplicates_once(self, transpile_spy):
        device = get_device(DEVICE)
        circuit = GHZBenchmark(4).circuits()[0]
        with ExecutionEngine(device, backend="statevector", max_workers=4) as engine:
            entries = engine.prepare([circuit] * 8)
        assert transpile_spy["n"] == 1
        assert all(entry is entries[0] for entry in entries)

    def test_parallel_prepare_results_stay_deterministic(self):
        device = get_device(DEVICE)
        circuits = [GHZBenchmark(n).circuits()[0] for n in (3, 4, 5)]
        with ExecutionEngine(device, backend="statevector", max_workers=1) as serial:
            expected = serial.run_circuits(circuits, shots=60, seed=9)
        with ExecutionEngine(device, backend="statevector", max_workers=4) as pooled:
            observed = pooled.run_circuits(circuits, shots=60, seed=9)
        assert [dict(c) for c in observed] == [dict(c) for c in expected]


class TestTracing:
    def test_pool_compiles_join_the_callers_trace(self):
        from repro.benchmarks import MerminBellBenchmark
        from repro.telemetry import configure_tracing, get_tracer

        tracer = get_tracer()
        previous = tracer.enabled
        configure_tracing(enabled=True)
        tracer.clear()
        try:
            with ExecutionEngine(
                get_device("IonQ-11Q"), backend="trajectory", max_workers=2, trajectories=5
            ) as engine:
                engine.run(MerminBellBenchmark(3), shots=40, repetitions=1, seed=1)
            spans = tracer.finished()
        finally:
            tracer.clear()
            tracer.enabled = previous
        assert sum(span.name == "transpiler.pass" for span in spans) > 1
        assert len({span.trace_id for span in spans}) == 1
