"""Tests for the exact density-matrix simulator (reference implementation)."""

import numpy as np
import pytest
from oracle import apply_kraus_reference

from repro.circuits import Circuit
from repro.exceptions import SimulationError
from repro.simulation import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    final_statevector,
)
from repro.simulation.noise import depolarizing_channel

MID_CIRCUIT_MESSAGE = (
    r"^DensityMatrixSimulator supports measurement only as the last operation on its qubit$"
)


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
        out = apply_kraus_reference(rho, channel.kraus_operators, [1], 2)
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
        with pytest.raises(SimulationError, match=MID_CIRCUIT_MESSAGE):
            DensityMatrixSimulator().run(circuit, shots=10)

    def test_gate_after_measurement_rejected(self):
        circuit = Circuit(2, 2).h(0).measure(0, 0).cx(0, 1).measure(1, 1)
        with pytest.raises(SimulationError, match=MID_CIRCUIT_MESSAGE):
            DensityMatrixSimulator().run(circuit, shots=10)
        with pytest.raises(SimulationError, match=MID_CIRCUIT_MESSAGE):
            DensityMatrixSimulator().final_density_matrix(circuit)

    def test_terminal_measurements_dephase_the_final_density_matrix(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        rho = DensityMatrixSimulator().final_density_matrix(circuit)
        assert np.allclose(rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
        # Only the populations survive: every coherence is exactly zero.
        assert not (rho - np.diag(np.diag(rho))).any()


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


# ---------------------------------------------------------------------------
# parity with the independent row walk kept in tests/oracle.py
# ---------------------------------------------------------------------------
_ONE_QUBIT_GATES = ("h", "x", "s", "t", "sx")


def _random_measured_circuit(seed: int, interleaved: bool) -> Circuit:
    """2-5 qubits of h/x/s/t/sx, random rz, cx and reset, every qubit measured.

    With ``interleaved`` some qubits are measured part-way through while
    later gates act on the others; no row touches a measured qubit again,
    so every measurement stays terminal.
    """
    rng = np.random.default_rng(seed)
    num_qubits = int(rng.integers(2, 6))
    circuit = Circuit(num_qubits, num_qubits)
    live = list(range(num_qubits))
    num_ops = int(rng.integers(6, 20))
    early = int(rng.integers(1, num_qubits)) if interleaved else 0
    measure_at = sorted(rng.choice(num_ops, size=early, replace=False).tolist())
    for position in range(num_ops):
        while measure_at and measure_at[0] == position and len(live) > 1:
            measure_at.pop(0)
            qubit = int(rng.choice(live))
            live.remove(qubit)
            circuit.measure(qubit, qubit)
        kind = int(rng.integers(0, 10))
        if kind < 5:
            getattr(circuit, _ONE_QUBIT_GATES[int(rng.integers(0, 5))])(int(rng.choice(live)))
        elif kind < 7:
            circuit.rz(float(rng.uniform(-np.pi, np.pi)), int(rng.choice(live)))
        elif kind < 9 and len(live) > 1:
            control, target = rng.choice(live, size=2, replace=False).tolist()
            circuit.cx(control, target)
        else:
            circuit.reset(int(rng.choice(live)))
    for qubit in live:
        circuit.measure(qubit, qubit)
    return circuit


class TestPlanParityWithRowWalk:
    """The simulator evolves the trajectory plan; the oracle walks rows on its own.

    Both fuse the same runs except across a terminal measurement, where
    the walk splits a run and the plan does not. Under a device noise model
    every gate ends its own run, so the bytes agree; without noise, a
    circuit whose measurements all come last has nothing to split.
    """

    SEEDS = range(150)

    @pytest.fixture(scope="class")
    def casablanca(self):
        from repro.devices import get_device

        return get_device("IBM-Casablanca-7Q")

    def _distributions(self, circuit, model):
        from oracle import density_matrix_walk_distribution

        probabilities, measured = DensityMatrixSimulator(model)._output_distribution(circuit)
        expected, expected_measured = density_matrix_walk_distribution(circuit, model)
        assert list(measured) == expected_measured
        return probabilities, expected

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise_free", "device_noise"])
    def test_measurement_last_circuits_match_bytes(self, casablanca, noisy):
        for seed in self.SEEDS:
            circuit = _random_measured_circuit(seed, interleaved=False)
            model = casablanca.noise_model(range(circuit.num_qubits)) if noisy else None
            probabilities, expected = self._distributions(circuit, model)
            assert np.array_equal(probabilities, expected), seed

    def test_interleaved_circuits_under_device_noise_match_bytes(self, casablanca):
        for seed in self.SEEDS:
            circuit = _random_measured_circuit(seed, interleaved=True)
            model = casablanca.noise_model(range(circuit.num_qubits))
            probabilities, expected = self._distributions(circuit, model)
            assert np.array_equal(probabilities, expected), seed

    def test_noise_free_interleaved_circuits_match_within_an_ulp(self):
        for seed in self.SEEDS:
            circuit = _random_measured_circuit(seed, interleaved=True)
            probabilities, expected = self._distributions(circuit, None)
            assert np.abs(probabilities - expected).max() <= 1e-15, seed
