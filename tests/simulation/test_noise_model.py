"""Tests for calibration-derived noise models."""

import pytest

from repro.circuits import Circuit
from repro.exceptions import NoiseModelError
from repro.simulation import NoiseModel, StatevectorSimulator


class TestConstruction:
    def test_invalid_sizes_rejected(self):
        with pytest.raises(NoiseModelError):
            NoiseModel(0)

    def test_per_qubit_lengths_checked(self):
        with pytest.raises(NoiseModelError):
            NoiseModel(3, t1=[10.0, 20.0])

    def test_error_ranges_checked(self):
        with pytest.raises(NoiseModelError):
            NoiseModel(2, error_1q=1.5)

    def test_t2_clamped_to_twice_t1(self):
        model = NoiseModel(1, t1=10.0, t2=100.0)
        assert model.t2[0] == pytest.approx(20.0)


class TestChannelSelection:
    def test_ideal_model_produces_no_channels(self):
        model = NoiseModel.ideal(2)
        assert model.channels_for_gate((0, 1)) == []
        assert model.measurement_channels(0) == []
        assert model.reset_channels(0) == []

    def test_single_qubit_gate_channels(self):
        model = NoiseModel(2, error_1q=0.01, error_2q=0.0, t1=100, t2=100)
        channels = model.channels_for_gate((0,))
        names = [channel.name for channel, _qubits in channels]
        assert "depolarizing" in names
        assert any("thermal" in name for name in names)

    def test_two_qubit_gate_channels(self):
        model = NoiseModel.uniform(3, error_2q=0.02)
        channels = model.channels_for_gate((0, 2))
        assert channels[0][0].name == "depolarizing2"
        assert channels[0][1] == (0, 2)

    def test_per_pair_two_qubit_error(self):
        model = NoiseModel(3, t1=1e9, t2=1e9, error_2q={(0, 1): 0.05, (1, 2): 0.01})
        assert model.two_qubit_error(1, 0) == pytest.approx(0.05)
        assert model.two_qubit_error(2, 1) == pytest.approx(0.01)

    def test_measurement_channels_touch_other_qubits(self):
        model = NoiseModel(3, t1=50.0, t2=50.0, readout_time=5.0)
        channels = model.measurement_channels(1)
        touched = {qubits[0] for _channel, qubits in channels}
        assert touched == {0, 2}

    def test_measurement_idle_can_be_disabled(self):
        model = NoiseModel(3, t1=50.0, t2=50.0, idle_during_readout=False)
        assert model.measurement_channels(1) == []

    def test_reset_error_channel(self):
        model = NoiseModel(1, t1=1e9, t2=1e9, reset_error=0.1, idle_during_readout=False)
        channels = model.reset_channels(0)
        assert len(channels) == 1
        assert channels[0][0].name == "bit_flip"


class TestEndToEndNoise:
    def test_noisy_ghz_loses_fidelity(self):
        circuit = Circuit(3, 3).h(0).cx(0, 1).cx(1, 2).measure_all()
        noisy = StatevectorSimulator(NoiseModel.uniform(3, error_2q=0.2, readout_error=0.1), seed=1)
        counts = noisy.run(circuit, shots=500)
        ideal_mass = (counts.get("000", 0) + counts.get("111", 0)) / 500
        assert ideal_mass < 0.95

    def test_ideal_model_behaves_like_no_noise(self):
        circuit = Circuit(2, 2).h(0).cx(0, 1).measure_all()
        simulator = StatevectorSimulator(NoiseModel.ideal(2), seed=2, trajectories=10)
        counts = simulator.run(circuit, shots=200)
        assert set(counts).issubset({"00", "11"})

    def test_readout_error_alone_flips_outcomes(self):
        circuit = Circuit(1, 1).measure(0, 0)
        model = NoiseModel.uniform(1, error_1q=0.0, error_2q=0.0, readout_error=0.25)
        counts = StatevectorSimulator(model, seed=3).run(circuit, shots=1000)
        assert 150 < counts.get("1", 0) < 350
