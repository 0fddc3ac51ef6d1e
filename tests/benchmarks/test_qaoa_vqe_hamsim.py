"""Tests for the QAOA, VQE and Hamiltonian-simulation benchmarks."""

import numpy as np
import pytest

import repro.benchmarks.qaoa as qaoa_module
import repro.benchmarks.vqe as vqe_module
from repro.benchmarks import (
    HamiltonianSimulationBenchmark,
    VQEBenchmark,
    VanillaQAOABenchmark,
    ZZSwapQAOABenchmark,
)
from repro.exceptions import BenchmarkError
from repro.simulation import Counts, StatevectorSimulator, final_statevector
from repro.suite import Scenario, Sweep, run_scenario
from repro.suite.registry import BenchmarkRegistry, get_registry
from repro.telemetry import configure_tracing, get_tracer
from repro.utils import equivalent_up_to_global_phase


class TestVanillaQAOA:
    def test_parameter_validation(self):
        with pytest.raises(BenchmarkError):
            VanillaQAOABenchmark(1)
        with pytest.raises(BenchmarkError):
            VanillaQAOABenchmark(20)

    def test_ansatz_structure(self):
        benchmark = VanillaQAOABenchmark(5)
        circuit = benchmark.ansatz(0.4, 0.2)
        ops = circuit.count_ops()
        assert ops["h"] == 5
        assert ops["rzz"] == 10  # complete graph on 5 vertices
        assert ops["rx"] == 5
        assert ops["measure"] == 5

    def test_optimal_parameters_beat_random_guess(self):
        benchmark = VanillaQAOABenchmark(4, seed=1)
        optimal_energy = benchmark.ideal_energy()
        random_energy = benchmark._ansatz_energy(0.05, 0.05)
        assert optimal_energy <= random_energy + 1e-9
        # Optimisation should find genuinely negative energy for the SK model.
        assert optimal_energy < 0

    def test_ideal_execution_scores_high(self):
        benchmark = VanillaQAOABenchmark(4, seed=0)
        counts = StatevectorSimulator(seed=0).run(benchmark.circuits()[0], shots=4000)
        assert benchmark.score([counts]) > 0.9

    def test_wrong_counts_length_rejected(self):
        with pytest.raises(BenchmarkError):
            VanillaQAOABenchmark(4).score([])

    def test_score_bounded_for_garbage_counts(self):
        benchmark = VanillaQAOABenchmark(4, seed=2)
        garbage = Counts({"0000": 10, "1111": 10})
        assert 0.0 <= benchmark.score([garbage]) <= 1.0


class TestZZSwapQAOA:
    def test_swap_network_covers_all_pairs(self):
        benchmark = ZZSwapQAOABenchmark(5, seed=0)
        circuit = benchmark.ansatz(0.3, 0.1, measure=False)
        assert circuit.count_ops()["zzswap"] == 10

    def test_swap_network_only_uses_neighbouring_positions(self):
        benchmark = ZZSwapQAOABenchmark(6, seed=0)
        circuit = benchmark.ansatz(0.3, 0.1, measure=False)
        for instruction in circuit:
            if instruction.name == "zzswap":
                a, b = instruction.qubits
                assert abs(a - b) == 1

    def test_equivalent_energy_to_vanilla_at_same_parameters(self):
        """The SWAP network implements the same p=1 QAOA state (up to relabelling)."""
        vanilla = VanillaQAOABenchmark(4, seed=5)
        zzswap = ZZSwapQAOABenchmark(4, seed=5)
        assert vanilla.model.weights == zzswap.model.weights
        gamma, beta = 0.37, 0.21
        assert vanilla._ansatz_energy(gamma, beta) == pytest.approx(
            zzswap._ansatz_energy(gamma, beta), abs=1e-9
        )

    def test_ideal_execution_scores_high(self):
        benchmark = ZZSwapQAOABenchmark(4, seed=0)
        counts = StatevectorSimulator(seed=1).run(benchmark.circuits()[0], shots=4000)
        assert benchmark.score([counts]) > 0.9

    def test_feature_vector_has_lower_communication_than_vanilla(self):
        vanilla = VanillaQAOABenchmark(6, seed=0).features()
        zzswap = ZZSwapQAOABenchmark(6, seed=0).features()
        # The SWAP network only touches neighbouring positions.
        assert zzswap.program_communication < vanilla.program_communication


class TestVQE:
    def test_parameter_validation(self):
        with pytest.raises(BenchmarkError):
            VQEBenchmark(1)
        with pytest.raises(BenchmarkError):
            VQEBenchmark(4, num_layers=0)

    def test_parameter_count(self):
        assert VQEBenchmark(4, 1).num_parameters == 16
        assert VQEBenchmark(4, 2).num_parameters == 24

    def test_wrong_parameter_length_rejected(self):
        benchmark = VQEBenchmark(4, 1)
        with pytest.raises(BenchmarkError):
            benchmark.ansatz([0.1, 0.2])

    def test_two_measurement_circuits(self):
        benchmark = VQEBenchmark(3, 1, seed=0)
        circuits = benchmark.circuits()
        assert len(circuits) == 2
        # The X-basis circuit has an extra layer of Hadamards.
        assert circuits[1].count_ops()["h"] == 3

    def test_optimised_energy_approaches_ground_state(self):
        benchmark = VQEBenchmark(3, 1, seed=0)
        ideal = benchmark.ideal_energy()
        exact = benchmark.exact_ground_energy()
        assert ideal >= exact - 1e-6
        assert ideal <= 0.7 * exact  # captures most of the correlation energy

    def test_ideal_execution_scores_high(self):
        benchmark = VQEBenchmark(3, 1, seed=0)
        simulator = StatevectorSimulator(seed=0)
        counts = [simulator.run(circuit, shots=4000) for circuit in benchmark.circuits()]
        assert benchmark.score(counts) > 0.9

    def test_wrong_counts_length_rejected(self):
        with pytest.raises(BenchmarkError):
            VQEBenchmark(3, 1).score([Counts({"000": 1})])


class TestHamiltonianSimulation:
    def test_parameter_validation(self):
        with pytest.raises(BenchmarkError):
            HamiltonianSimulationBenchmark(1)
        with pytest.raises(BenchmarkError):
            HamiltonianSimulationBenchmark(4, steps=0)

    def test_circuit_scales_with_steps(self):
        one = HamiltonianSimulationBenchmark(4, steps=1).circuits()[0]
        three = HamiltonianSimulationBenchmark(4, steps=3).circuits()[0]
        assert three.count_ops()["rzz"] == 3 * one.count_ops()["rzz"]

    def test_ideal_magnetisation_decays_with_time(self):
        short = HamiltonianSimulationBenchmark(4, steps=1).ideal_magnetisation()
        long = HamiltonianSimulationBenchmark(4, steps=3).ideal_magnetisation()
        assert short > long
        assert 0.0 < long < 1.0

    def test_measured_magnetisation_of_deterministic_counts(self):
        benchmark = HamiltonianSimulationBenchmark(4, steps=1)
        assert benchmark.measured_magnetisation(Counts({"0000": 10})) == pytest.approx(1.0)
        assert benchmark.measured_magnetisation(Counts({"1111": 10})) == pytest.approx(-1.0)

    def test_ideal_execution_scores_high(self):
        benchmark = HamiltonianSimulationBenchmark(4, steps=2)
        counts = StatevectorSimulator(seed=0).run(benchmark.circuits()[0], shots=4000)
        assert benchmark.score([counts]) > 0.95

    def test_score_bounded(self):
        benchmark = HamiltonianSimulationBenchmark(3, steps=1)
        assert 0.0 <= benchmark.score([Counts({"111": 5})]) <= 1.0


def _fresh_registry() -> BenchmarkRegistry:
    """Every family, no memoised instances: earlier tests cannot pre-build a spec."""
    registry = BenchmarkRegistry()
    default = get_registry()
    for family in default.families():
        registry.register(family)(default.family(family))
    return registry


class TestOptimizeSpan:
    @pytest.mark.parametrize(
        "module, sweep, restarts",
        [
            (vqe_module, Sweep.of("vqe", num_qubits=(4,), num_layers=(1,)), 2),
            (qaoa_module, Sweep.of("vanilla_qaoa", num_qubits=(4,)), 3),
        ],
        ids=["vqe", "vanilla_qaoa"],
    )
    def test_one_spec_sweep_traces_the_optimisation(self, monkeypatch, module, sweep, restarts):
        optimizer = module.minimize_nelder_mead
        evaluations = []

        def recording(*args, **kwargs):
            result = optimizer(*args, **kwargs)
            evaluations.append(result.evaluations)
            return result

        monkeypatch.setattr(module, "minimize_nelder_mead", recording)
        tracer = get_tracer()
        previous = tracer.enabled
        configure_tracing(enabled=True)
        tracer.clear()
        try:
            scenario = Scenario(name="optimize", sweeps=(sweep,), devices=("IonQ-11Q",))
            run_scenario(
                scenario,
                shots=40,
                repetitions=1,
                seed=3,
                trajectories=5,
                registry=_fresh_registry(),
            )
            spans = [span for span in tracer.finished() if span.name == "benchmark.optimize"]
        finally:
            tracer.clear()
            tracer.enabled = previous
        assert len(spans) == 1
        assert spans[0].attributes["restarts"] == restarts == len(evaluations)
        assert spans[0].attributes["evaluations"] == sum(evaluations) > 0
        assert spans[0].attributes["benchmark"].startswith(sweep.family)
