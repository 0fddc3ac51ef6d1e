"""Backend protocol tests: resolution, determinism and cross-backend parity."""

import pytest

from repro.benchmarks import GHZBenchmark, HamiltonianSimulationBenchmark, VanillaQAOABenchmark
from repro.circuits import Circuit
from repro.devices import get_device
from repro.exceptions import SimulationError
from repro.execution import (
    Backend,
    DensityMatrixBackend,
    ExecutionEngine,
    StatevectorBackend,
    TrajectoryBackend,
    resolve_backend,
)
from repro.simulation import DensityMatrixSimulator, StatevectorSimulator

DEVICE = "IBM-Casablanca-7Q"


class TestResolveBackend:
    def test_names_and_aliases(self):
        assert isinstance(resolve_backend("statevector"), StatevectorBackend)
        assert isinstance(resolve_backend("ideal"), StatevectorBackend)
        assert isinstance(resolve_backend("trajectory"), TrajectoryBackend)
        assert isinstance(resolve_backend("noisy"), TrajectoryBackend)
        assert isinstance(resolve_backend("density_matrix"), DensityMatrixBackend)
        assert isinstance(resolve_backend("dm"), DensityMatrixBackend)

    def test_default_is_noisy_trajectory(self):
        backend = resolve_backend(None, trajectories=17)
        assert isinstance(backend, TrajectoryBackend)
        assert backend.trajectories == 17

    def test_instance_passthrough(self):
        backend = TrajectoryBackend(trajectories=5)
        assert resolve_backend(backend) is backend

    def test_unknown_name_rejected(self):
        with pytest.raises(SimulationError):
            resolve_backend("quantum-annealer")

    def test_protocol_is_runtime_checkable(self):
        assert isinstance(StatevectorBackend(), Backend)
        assert isinstance(DensityMatrixBackend(), Backend)


@pytest.mark.parametrize("count", [0, -1])
class TestCountsBelowOne:
    BELL = Circuit(2, 2).h(0).cx(0, 1).measure_all()

    @pytest.mark.parametrize(
        "run",
        [
            lambda circuit, shots: StatevectorSimulator(seed=1).run(circuit, shots=shots),
            lambda circuit, shots: DensityMatrixSimulator(seed=1).run(circuit, shots=shots),
            lambda circuit, shots: StatevectorBackend().run_batch([circuit], shots, seed=1),
            lambda circuit, shots: TrajectoryBackend().run_batch([circuit], shots, seed=1),
            lambda circuit, shots: DensityMatrixBackend().run_batch([circuit], shots, seed=1),
        ],
        ids=["statevector", "density_matrix", "statevector_backend", "trajectory_backend",
             "density_matrix_backend"],
    )
    def test_shots_rejected(self, count, run):
        with pytest.raises(SimulationError, match="shots must be positive"):
            run(self.BELL, count)

    @pytest.mark.parametrize("make", [StatevectorSimulator, StatevectorBackend, TrajectoryBackend])
    def test_trajectories_rejected(self, count, make):
        with pytest.raises(SimulationError, match="trajectories"):
            make(trajectories=count)


class TestSeedSemantics:
    def test_same_seed_same_counts(self):
        circuit = GHZBenchmark(3).circuits()[0]
        backend = StatevectorBackend()
        first = backend.run_batch([circuit], 200, seed=5)
        second = backend.run_batch([circuit], 200, seed=5)
        assert [dict(c) for c in first] == [dict(c) for c in second]

    def test_batch_split_is_equivalent_to_serial(self):
        """Per-circuit seeds depend only on batch seed and position."""
        circuits = [GHZBenchmark(n).circuits()[0] for n in (3, 4, 5)]
        backend = StatevectorBackend()
        whole = backend.run_batch(circuits, 150, seed=9)
        split = [
            backend.run_batch([circuit], 150, seed=9 + 7919 * index)[0]
            for index, circuit in enumerate(circuits)
        ]
        assert [dict(c) for c in whole] == [dict(c) for c in split]


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize(
        "backend_factory",
        [StatevectorBackend, lambda: TrajectoryBackend(trajectories=10)],
        ids=["statevector", "trajectory"],
    )
    def test_counts_identical_for_1_and_4_workers(self, backend_factory):
        device = get_device(DEVICE)
        circuits = [GHZBenchmark(n).circuits()[0] for n in (3, 4, 5)]
        results = {}
        for workers in (1, 4):
            with ExecutionEngine(device, backend=backend_factory(), max_workers=workers) as engine:
                results[workers] = engine.run_circuits(circuits, shots=120, seed=42)
        assert [dict(a) for a in results[1]] == [dict(b) for b in results[4]]

    def test_benchmark_scores_identical_for_1_and_4_workers(self):
        device = get_device(DEVICE)
        scores = {}
        for workers in (1, 4):
            with ExecutionEngine(device, backend="statevector", max_workers=workers) as engine:
                scores[workers] = engine.run(
                    GHZBenchmark(4), shots=150, repetitions=3, seed=2022
                ).scores
        assert scores[1] == scores[4]


class TestBackendParity:
    """Exact density-matrix and high-trajectory Monte-Carlo must agree."""

    @pytest.mark.parametrize(
        "bench",
        [
            GHZBenchmark(3),
            VanillaQAOABenchmark(4, seed=0),
            HamiltonianSimulationBenchmark(4, steps=1),
        ],
        ids=["ghz3", "qaoa4", "hamsim4"],
    )
    def test_trajectory_converges_to_density_matrix(self, bench):
        device = get_device(DEVICE)
        shots = 600
        with ExecutionEngine(device, backend=DensityMatrixBackend()) as engine:
            exact = engine.run(bench, shots=shots, repetitions=1, seed=99).mean_score
        # trajectories=None spreads one trajectory per shot: unbiased Monte-Carlo.
        with ExecutionEngine(device, backend=TrajectoryBackend(trajectories=None)) as engine:
            sampled = engine.run(bench, shots=shots, repetitions=1, seed=99).mean_score
        assert sampled == pytest.approx(exact, abs=0.08)
