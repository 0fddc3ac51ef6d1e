"""Tests for the exact density-matrix simulator (reference implementation)."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.exceptions import SimulationError
from repro.simulation import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    final_statevector,
)
from repro.simulation.density_matrix import apply_kraus_to_density_matrix
from repro.simulation.noise import depolarizing_channel


class TestKrausApplication:
    def test_unitary_application_matches_statevector(self):
        circuit = Circuit(2).h(0).cx(0, 1)
        state = final_statevector(circuit)
        expected = np.outer(state, state.conj())
        simulator = DensityMatrixSimulator()
        rho = simulator.final_density_matrix(circuit)
        assert np.allclose(rho, expected, atol=1e-10)

    def test_trace_preserved_by_channels(self):
        rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        channel = depolarizing_channel(0.3)
        out = apply_kraus_to_density_matrix(rho, channel.kraus_operators, [1], 2)
        assert np.isclose(np.trace(out).real, 1.0)


class TestIdealSampling:
    def test_bell_state_counts(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        counts = DensityMatrixSimulator(seed=0).run(circuit, shots=400)
        assert set(counts).issubset({"00", "11"})
        assert abs(counts.get("00", 0) - 200) < 60

    def test_reset_supported(self):
        circuit = Circuit(1, 1).x(0).reset(0).measure(0, 0)
        counts = DensityMatrixSimulator(seed=1).run(circuit, shots=100)
        assert counts == {"0": 100}

    def test_qubit_limit_enforced(self):
        circuit = Circuit(12, 12).h(0).measure_all()
        message = r"^DensityMatrixSimulator limited to 10 qubits \(requested 12\)$"
        with pytest.raises(SimulationError, match=message):
            DensityMatrixSimulator(max_qubits=10).run(circuit, shots=10)
        with pytest.raises(SimulationError, match=message):
            DensityMatrixSimulator(max_qubits=10).final_density_matrix(circuit)

    def test_repeated_measurement_of_same_qubit_rejected(self):
        circuit = Circuit(1, 2).measure(0, 0).measure(0, 1)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator().run(circuit, shots=10)


class TestAgreementWithTrajectories:
    def test_noisy_distribution_agrees_with_monte_carlo(self):
        """The trajectory simulator must agree with the exact channel evolution."""
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        model = NoiseModel.uniform(2, error_1q=0.02, error_2q=0.1, readout_error=0.05)

        exact_counts = DensityMatrixSimulator(noise_model=model, seed=0).run(circuit, shots=6000)
        sampled_counts = StatevectorSimulator(noise_model=model, seed=1).run(circuit, shots=6000)

        exact = {k: v / 6000 for k, v in exact_counts.items()}
        sampled = {k: v / 6000 for k, v in sampled_counts.items()}
        for key in set(exact) | set(sampled):
            assert abs(exact.get(key, 0.0) - sampled.get(key, 0.0)) < 0.04

    def test_readout_confusion_matches_expectation(self):
        circuit = Circuit(1, 1).measure(0, 0)
        model = NoiseModel.uniform(1, error_1q=0.0, error_2q=0.0, readout_error=0.2)
        counts = DensityMatrixSimulator(noise_model=model, seed=2).run(circuit, shots=5000)
        assert abs(counts.get("1", 0) / 5000 - 0.2) < 0.03
