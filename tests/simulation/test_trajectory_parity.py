"""Statistical parity of batched Monte-Carlo trajectories vs the exact
density-matrix reference, plus unitary-mixture channel machinery."""

import numpy as np
import pytest
from oracle import apply_kraus_reference

from repro.benchmarks import GHZBenchmark, VanillaQAOABenchmark
from repro.simulation import (
    DensityMatrixSimulator,
    NoiseModel,
    StatevectorSimulator,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)


def _tvd(counts, exact_probabilities):
    """Total variation distance between sampled counts and an exact distribution."""
    shots = sum(counts.values())
    keys = set(counts) | set(exact_probabilities)
    return 0.5 * sum(
        abs(counts.get(k, 0) / shots - exact_probabilities.get(k, 0.0)) for k in keys
    )


def _exact_distribution(circuit, model, seed=0):
    simulator = DensityMatrixSimulator(noise_model=model, seed=seed)
    probabilities, measured = simulator._output_distribution(circuit)
    exact = {}
    for index, p in enumerate(probabilities):
        if p <= 0:
            continue
        bits = ["0"] * circuit.num_clbits
        for qubit, clbit in measured:
            bits[clbit] = "1" if (index >> qubit) & 1 else "0"
        key = "".join(bits)
        exact[key] = exact.get(key, 0.0) + float(p)
    return exact


class TestUnitaryMixture:
    def test_depolarizing_is_unitary_mixture(self):
        mixture = depolarizing_channel(0.3).unitary_mixture()
        assert mixture is not None
        probabilities, unitaries = mixture
        assert np.isclose(probabilities.sum(), 1.0)
        assert np.isclose(probabilities[0], 0.7)
        for unitary in unitaries:
            assert np.allclose(unitary @ unitary.conj().T, np.eye(2), atol=1e-12)

    def test_two_qubit_depolarizing_is_unitary_mixture(self):
        mixture = two_qubit_depolarizing_channel(0.1).unitary_mixture()
        assert mixture is not None
        assert len(mixture[1]) == 16

    def test_bit_flip_is_unitary_mixture(self):
        assert bit_flip_channel(0.2).unitary_mixture() is not None

    def test_amplitude_damping_is_not(self):
        assert amplitude_damping_channel(0.2).unitary_mixture() is None

    def test_thermal_relaxation_is_not(self):
        assert thermal_relaxation_channel(50.0, 40.0, 1.0).unitary_mixture() is None

    @pytest.mark.parametrize("probability", [0.001, 0.02, 0.1, 0.3])
    def test_identity_branch_is_detected_despite_rounding(self, probability):
        """K0/sqrt(weight) can land 1 ulp off exact identity; the no-error
        branch must still be flagged so the batched path skips it."""
        from repro.simulation.statevector import _channel_step

        for channel in (
            depolarizing_channel(probability),
            two_qubit_depolarizing_channel(probability),
        ):
            step = _channel_step(channel, tuple(range(channel.num_qubits)))
            assert step.prepared.cdf is not None
            assert step.prepared.identity[0]

    def test_mixture_is_cached(self):
        channel = depolarizing_channel(0.11)
        assert channel.unitary_mixture() is channel.unitary_mixture()

    def test_channel_factories_are_cached(self):
        assert depolarizing_channel(0.01) is depolarizing_channel(0.01)


class TestTrajectoryDensityMatrixParity:
    """Fixed-seed TVD thresholds: batched trajectories vs exact evolution."""

    SHOTS = 4000
    THRESHOLD = 0.05  # ~3 sigma for 4000 shots over these distributions

    @pytest.mark.parametrize(
        "circuit,model",
        [
            (
                GHZBenchmark(3).circuits()[0],
                NoiseModel.uniform(3, error_1q=0.02, error_2q=0.05, readout_error=0.03),
            ),
            (
                GHZBenchmark(4).circuits()[0],
                NoiseModel.uniform(4, error_1q=0.01, error_2q=0.08, readout_error=0.02),
            ),
            (
                VanillaQAOABenchmark(4, seed=0).circuits()[0],
                NoiseModel.uniform(4, error_1q=0.02, error_2q=0.05, readout_error=0.03),
            ),
        ],
        ids=["ghz3-depolarizing", "ghz4-depolarizing", "qaoa4-depolarizing"],
    )
    def test_depolarizing_parity(self, circuit, model):
        exact = _exact_distribution(circuit, model)
        counts = StatevectorSimulator(noise_model=model, seed=1234).run(
            circuit, shots=self.SHOTS
        )
        assert _tvd(counts, exact) < self.THRESHOLD

    def test_relaxation_parity(self):
        """Thermal relaxation exercises the general (non-mixture) Kraus path."""
        circuit = GHZBenchmark(3).circuits()[0]
        model = NoiseModel(3, t1=40.0, t2=30.0, gate_time_1q=0.3, gate_time_2q=2.0)
        exact = _exact_distribution(circuit, model)
        counts = StatevectorSimulator(noise_model=model, seed=77).run(
            circuit, shots=self.SHOTS
        )
        assert _tvd(counts, exact) < self.THRESHOLD

    def test_spread_trajectories_parity(self):
        """Spreading shots over fewer trajectories stays unbiased."""
        circuit = GHZBenchmark(3).circuits()[0]
        model = NoiseModel.uniform(3, error_1q=0.02, error_2q=0.05, readout_error=0.03)
        exact = _exact_distribution(circuit, model)
        counts = StatevectorSimulator(noise_model=model, seed=5, trajectories=500).run(
            circuit, shots=self.SHOTS
        )
        # Fewer trajectories -> more correlation between shots; loosen slightly.
        assert _tvd(counts, exact) < 2 * self.THRESHOLD


class TestDepolarizingShortcut:
    """The closed-form depolarizing application must equal the Kraus sum."""

    @pytest.mark.parametrize("probability", [0.0, 0.01, 0.3, 1.0])
    def test_single_qubit_matches_kraus_sum(self, probability):
        from repro.simulation.density_matrix import _apply_depolarizing, _depolarizing_weights

        channel = depolarizing_channel(probability)
        weights = _depolarizing_weights(channel)
        assert weights is not None
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        expected = apply_kraus_reference(rho, channel.kraus_operators, [1], 3)
        tensor = rho.reshape((2,) * 6)
        fast = _apply_depolarizing(tensor, [1], 3, *weights).reshape(8, 8)
        assert np.allclose(fast, expected, atol=1e-12)

    def test_two_qubit_matches_kraus_sum(self):
        from repro.simulation.density_matrix import _apply_depolarizing, _depolarizing_weights

        channel = two_qubit_depolarizing_channel(0.08)
        weights = _depolarizing_weights(channel)
        assert weights is not None
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        expected = apply_kraus_reference(rho, channel.kraus_operators, [2, 0], 3)
        tensor = rho.reshape((2,) * 6)
        fast = _apply_depolarizing(tensor, [2, 0], 3, *weights).reshape(8, 8)
        assert np.allclose(fast, expected, atol=1e-12)

    def test_non_depolarizing_channels_fall_back(self):
        from repro.simulation.density_matrix import _depolarizing_weights

        assert _depolarizing_weights(amplitude_damping_channel(0.1)) is None
        assert _depolarizing_weights(bit_flip_channel(0.1)) is None

    def test_biased_pauli_channel_with_depolarizing_name_falls_back(self):
        """A non-uniform Pauli mixture merely *named* depolarizing must not
        take the uniform closed-form path."""
        from repro.simulation import KrausChannel
        from repro.simulation.density_matrix import _depolarizing_weights

        identity = np.eye(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.diag([1, -1]).astype(complex)
        biased = KrausChannel(
            (
                np.sqrt(0.9) * identity,
                np.sqrt(0.07) * x,
                np.sqrt(0.02) * y,
                np.sqrt(0.01) * z,
            ),
            name="depolarizing",
        )
        assert _depolarizing_weights(biased) is None

    def test_pauli_phase_variants_still_match(self):
        """Uniform mixtures over phase-twisted Paulis keep the shortcut."""
        from repro.simulation import KrausChannel
        from repro.simulation.density_matrix import _depolarizing_weights

        p = 0.3
        identity = np.eye(2)
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        z = np.diag([1, -1]).astype(complex)
        twisted = KrausChannel(
            (
                np.sqrt(1 - p) * identity,
                -np.sqrt(p / 3) * x,  # P rho P is phase-insensitive
                1j * np.sqrt(p / 3) * y,
                np.sqrt(p / 3) * z,
            ),
            name="depolarizing",
        )
        weights = _depolarizing_weights(twisted)
        assert weights is not None
        assert weights[1] == pytest.approx(4 * p / 3)


class TestBatchedDeterminismAndChunking:
    def test_same_seed_same_counts(self):
        circuit = VanillaQAOABenchmark(4, seed=0).circuits()[0]
        model = NoiseModel.uniform(4, error_1q=0.01, error_2q=0.05, readout_error=0.02)
        first = StatevectorSimulator(noise_model=model, seed=9).run(circuit, shots=777)
        second = StatevectorSimulator(noise_model=model, seed=9).run(circuit, shots=777)
        assert dict(first) == dict(second)

    def test_chunked_run_preserves_shot_total_and_statistics(self):
        circuit = GHZBenchmark(3).circuits()[0]
        model = NoiseModel.uniform(3, error_1q=0.02, error_2q=0.05, readout_error=0.03)
        simulator = StatevectorSimulator(noise_model=model, seed=3, max_batch_elements=64)
        counts = simulator.run(circuit, shots=2000)
        assert sum(counts.values()) == 2000
        exact = _exact_distribution(circuit, model)
        assert _tvd(counts, exact) < 0.06

    def test_mid_circuit_measurement_noiseless_collapse(self):
        from repro.circuits import Circuit

        circuit = Circuit(2, 2).h(0).cx(0, 1).measure(0, 0).x(0).measure(1, 1)
        counts = StatevectorSimulator(seed=9).run(circuit, shots=500)
        assert all(key[0] == key[1] for key in counts)

    def test_measurement_free_noisy_circuit_counts_all_zero_register(self):
        """A noisy circuit with no measurements reports the classical register."""
        from repro.circuits import Circuit

        circuit = Circuit(1, 1).h(0)
        model = NoiseModel.uniform(1, error_1q=0.01)
        counts = StatevectorSimulator(noise_model=model, seed=0).run(circuit, shots=25)
        assert dict(counts) == {"0": 25}

    def test_terminal_measurement_map_keeps_last_mapping(self):
        """A qubit measured into two classical bits back to back: both written,
        qubit bit sampled once (the documented last-mapping-wins contract
        applies to the qubit -> sampled-bit map)."""
        from repro.circuits import Circuit

        circuit = Circuit(1, 2).x(0).measure(0, 0).measure(0, 1)
        counts = StatevectorSimulator(seed=2).run(circuit, shots=50)
        assert sum(counts.values()) == 50
        for key in counts:
            assert key[1] == "1"  # terminal mapping (clbit 1) always written
