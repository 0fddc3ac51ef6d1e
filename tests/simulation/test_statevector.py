"""Tests for the statevector simulator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, gate_matrix, random_clifford_circuit
from repro.exceptions import SimulationError
from repro.simulation import (
    StatevectorSimulator,
    apply_unitary,
    circuit_unitary,
    final_statevector,
    probabilities_from_statevector,
    sample_statevector,
)
from repro.simulation.kernels import (
    apply_kernel,
    kernel_for_operation,
    operation_matrix,
    qubit_axis,
)


class TestApplyUnitary:
    def test_x_on_qubit_zero(self):
        state = np.array([1, 0, 0, 0], dtype=complex)
        result = apply_unitary(state, gate_matrix("x"), [0], 2)
        # Little endian: qubit 0 is the least significant bit -> index 1.
        assert np.allclose(result, [0, 1, 0, 0])

    def test_x_on_qubit_one(self):
        state = np.array([1, 0, 0, 0], dtype=complex)
        result = apply_unitary(state, gate_matrix("x"), [1], 2)
        assert np.allclose(result, [0, 0, 1, 0])

    def test_cx_control_order(self):
        # Prepare |q0=1, q1=0> = index 1, then CX(0 -> 1) should give |11> = index 3.
        state = np.zeros(4, dtype=complex)
        state[1] = 1.0
        result = apply_unitary(state, gate_matrix("cx"), [0, 1], 2)
        assert np.allclose(result, [0, 0, 0, 1])

    def test_cx_does_nothing_when_control_clear(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0  # q1 = 1, q0 = 0; control is q0
        result = apply_unitary(state, gate_matrix("cx"), [0, 1], 2)
        assert np.allclose(result, state)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            apply_unitary(np.zeros(4, dtype=complex), gate_matrix("x"), [0, 1], 2)

    def test_norm_preserved(self):
        rng = np.random.default_rng(0)
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        result = apply_unitary(state, gate_matrix("cx"), [2, 0], 3)
        assert np.isclose(np.linalg.norm(result), 1.0)


class TestFinalStatevector:
    def test_ghz_state(self, ghz3):
        state = final_statevector(ghz3)
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = 1 / np.sqrt(2)
        assert np.allclose(state, expected)

    def test_terminal_measurements_ignored(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        state = final_statevector(circuit)
        assert np.isclose(abs(state[0]) ** 2 + abs(state[3]) ** 2, 1.0)

    def test_mid_circuit_measurement_rejected(self):
        circuit = Circuit(1, 1).h(0).measure(0, 0).x(0)
        with pytest.raises(SimulationError):
            final_statevector(circuit)

    def test_reset_rejected(self):
        circuit = Circuit(1).h(0).reset(0)
        with pytest.raises(SimulationError):
            final_statevector(circuit)

    def test_initial_state_override(self):
        circuit = Circuit(1).x(0)
        initial = np.array([0, 1], dtype=complex)
        state = final_statevector(circuit, initial_state=initial)
        assert np.allclose(state, [1, 0])

    def test_circuit_unitary_matches_statevector(self, ghz3):
        unitary = circuit_unitary(ghz3)
        state = final_statevector(ghz3)
        assert np.allclose(unitary[:, 0], state)

    def test_parameterised_rows_skip_kernel_caches_and_match_strict_kernels(self):
        def ansatz(theta):
            circuit = Circuit(3).h(0).rx(theta, 1).cx(0, 1).rzz(2 * theta, 1, 2)
            return circuit.rz(0.0, 2).ry(-theta, 0).x(2)  # rz(0.0): an exact diagonal

        final_statevector(ansatz(0.25))  # caches the fixed rows (h, cx, x)
        caches = (kernel_for_operation, operation_matrix)
        before = [(cache.cache_info().currsize, cache.cache_info().misses) for cache in caches]
        state = final_statevector(ansatz(0.7123))
        after = [(cache.cache_info().currsize, cache.cache_info().misses) for cache in caches]
        assert after == before

        psi = np.zeros(8, dtype=complex)
        psi[0] = 1.0
        psi = psi.reshape(2, 2, 2)
        for _row, opcode, qubits, params, _clbit in ansatz(0.7123).packed().iter_rows():
            axes = [qubit_axis(q, 3) for q in qubits]
            psi = apply_kernel(psi, kernel_for_operation(opcode, params), axes, strict=True)
        # Exact equality: the uncached contraction reproduces strict kernels.
        assert np.array_equal(state, psi.reshape(-1))


class TestSampling:
    def test_probabilities_normalised(self):
        state = np.array([1, 1j], dtype=complex) / np.sqrt(2)
        probabilities = probabilities_from_statevector(state)
        assert np.allclose(probabilities, [0.5, 0.5])

    def test_zero_state_rejected(self):
        with pytest.raises(SimulationError):
            probabilities_from_statevector(np.zeros(2, dtype=complex))

    def test_sample_statevector_deterministic_state(self):
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0  # q1 = 1, q0 = 0
        counts = sample_statevector(state, 100, rng=np.random.default_rng(0))
        assert counts == {"01": 100}

    def test_sample_total_shots(self):
        state = np.ones(4, dtype=complex) / 2.0
        counts = sample_statevector(state, 256, rng=np.random.default_rng(1))
        assert sum(counts.values()) == 256


class TestStatevectorSimulator:
    def test_requires_measurement(self, simulator):
        with pytest.raises(SimulationError):
            simulator.run(Circuit(1).h(0))

    def test_requires_positive_shots(self, simulator, ghz3):
        with pytest.raises(SimulationError):
            simulator.run(ghz3.copy().measure_all(), shots=0)

    def test_ghz_counts_are_balanced(self, simulator):
        circuit = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2).measure_all()
        counts = simulator.run(circuit, shots=4000)
        assert set(counts) == {"000", "111"}
        assert abs(counts["000"] - 2000) < 250

    def test_partial_measurement(self, simulator):
        circuit = Circuit(2, 1).x(1).measure(1, 0)
        counts = simulator.run(circuit, shots=50)
        assert counts == {"1": 50}

    def test_mid_circuit_measurement_and_feedforward_free_reset(self):
        # Measure |+> then reset: the reset qubit must always read 0 afterwards.
        simulator = StatevectorSimulator(seed=11)
        circuit = Circuit(1, 2).h(0).measure(0, 0).reset(0).measure(0, 1)
        counts = simulator.run(circuit, shots=200)
        assert all(key[1] == "0" for key in counts)
        first_bits = {key[0] for key in counts}
        assert first_bits == {"0", "1"}

    def test_reset_after_x(self):
        simulator = StatevectorSimulator(seed=3)
        circuit = Circuit(1, 1).x(0).reset(0).measure(0, 0)
        counts = simulator.run(circuit, shots=100)
        assert counts == {"0": 100}

    def test_deterministic_bell_measurement_correlation(self):
        simulator = StatevectorSimulator(seed=5)
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        counts = simulator.run(circuit, shots=500)
        assert set(counts).issubset({"00", "11"})

    def test_mid_circuit_measurement_collapse(self):
        # Measuring q0 of a Bell pair mid-circuit must classically correlate with q1.
        simulator = StatevectorSimulator(seed=9)
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).x(0).measure(1, 1)
        counts = simulator.run(circuit, shots=300)
        assert all(key[0] == key[1] for key in counts)

    def test_trajectory_splitting_preserves_shot_total(self):
        simulator = StatevectorSimulator(seed=2, trajectories=7)
        circuit = Circuit(2, 2).h(0).cx(0, 1).reset(0).measure_all()
        counts = simulator.run(circuit, shots=123)
        assert sum(counts.values()) == 123

    def test_statevector_accessor(self, simulator, ghz3):
        state = simulator.statevector(ghz3)
        assert np.isclose(np.linalg.norm(state), 1.0)


class TestSimulatorPropertyBased:
    @given(num_qubits=st.integers(2, 4), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_random_circuit_counts_total(self, num_qubits, seed):
        circuit = random_clifford_circuit(num_qubits, 15, rng=seed)
        circuit.measure_all()
        counts = StatevectorSimulator(seed=seed).run(circuit, shots=64)
        assert sum(counts.values()) == 64
        assert all(len(key) == num_qubits for key in counts)

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_unitarity_of_random_clifford(self, seed):
        circuit = random_clifford_circuit(3, 12, rng=seed)
        unitary = circuit_unitary(circuit)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(8), atol=1e-8)
