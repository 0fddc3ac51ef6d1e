"""Tests for the Kraus noise channels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle import apply_kraus_reference

from repro.exceptions import NoiseModelError
from repro.simulation import (
    KrausChannel,
    amplitude_damping_channel,
    bit_flip_channel,
    depolarizing_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
    two_qubit_depolarizing_channel,
)


ALL_SINGLE_QUBIT_CHANNELS = [
    depolarizing_channel(0.05),
    bit_flip_channel(0.1),
    phase_flip_channel(0.2),
    amplitude_damping_channel(0.3),
    phase_damping_channel(0.15),
    thermal_relaxation_channel(100.0, 80.0, 5.0),
]


class TestChannelConstruction:
    def test_empty_channel_rejected(self):
        with pytest.raises(NoiseModelError):
            KrausChannel(())

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(NoiseModelError):
            KrausChannel((np.eye(2), np.eye(4)))

    def test_invalid_probability_rejected(self):
        with pytest.raises(NoiseModelError):
            depolarizing_channel(1.5)
        with pytest.raises(NoiseModelError):
            bit_flip_channel(-0.1)

    def test_num_qubits(self):
        assert depolarizing_channel(0.1).num_qubits == 1
        assert two_qubit_depolarizing_channel(0.1).num_qubits == 2


class TestTracePreservation:
    @pytest.mark.parametrize("channel", ALL_SINGLE_QUBIT_CHANNELS)
    def test_single_qubit_channels_are_cptp(self, channel):
        assert channel.is_trace_preserving()

    def test_two_qubit_depolarizing_is_cptp(self):
        assert two_qubit_depolarizing_channel(0.07).is_trace_preserving()

    def test_composition_is_cptp(self):
        composed = amplitude_damping_channel(0.2).compose(phase_damping_channel(0.3))
        assert composed.is_trace_preserving()

    def test_composition_dimension_mismatch_rejected(self):
        with pytest.raises(NoiseModelError):
            depolarizing_channel(0.1).compose(two_qubit_depolarizing_channel(0.1))


class TestChannelPhysics:
    def test_zero_probability_is_identity(self):
        channel = depolarizing_channel(0.0)
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert np.allclose(out, rho)

    def test_full_amplitude_damping_sends_one_to_zero(self):
        channel = amplitude_damping_channel(1.0)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert np.allclose(out, np.diag([1.0, 0.0]))

    def test_phase_damping_kills_coherence(self):
        channel = phase_damping_channel(1.0)
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert np.isclose(out[0, 1], 0.0)
        assert np.isclose(out[0, 0], 0.5)

    def test_bit_flip_moves_population(self):
        channel = bit_flip_channel(0.25)
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert np.isclose(out[1, 1].real, 0.25)

    def test_thermal_relaxation_decay_matches_t1(self):
        t1, duration = 50.0, 10.0
        channel = thermal_relaxation_channel(t1, 2 * t1, duration)
        rho = np.diag([0.0, 1.0]).astype(complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert out[1, 1].real == pytest.approx(math.exp(-duration / t1), abs=1e-9)

    def test_thermal_relaxation_coherence_matches_t2(self):
        t1, t2, duration = 80.0, 60.0, 7.0
        channel = thermal_relaxation_channel(t1, t2, duration)
        rho = np.full((2, 2), 0.5, dtype=complex)
        out = apply_kraus_reference(rho, channel.kraus_operators, [0], 1)
        assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-duration / t2), rel=1e-6)

    def test_thermal_relaxation_invalid_t2_rejected(self):
        with pytest.raises(NoiseModelError):
            thermal_relaxation_channel(50.0, 150.0, 1.0)

    def test_thermal_relaxation_negative_duration_rejected(self):
        with pytest.raises(NoiseModelError):
            thermal_relaxation_channel(50.0, 50.0, -1.0)


class TestChannelPropertyBased:
    @given(probability=st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_depolarizing_always_cptp(self, probability):
        assert depolarizing_channel(probability).is_trace_preserving()

    @given(
        t1=st.floats(1.0, 1000.0),
        ratio=st.floats(0.1, 2.0),
        duration=st.floats(0.0, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_thermal_relaxation_always_cptp(self, t1, ratio, duration):
        channel = thermal_relaxation_channel(t1, t1 * ratio, duration)
        assert channel.is_trace_preserving()
