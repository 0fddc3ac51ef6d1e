"""Readout-error mitigation: calibration estimation and counts correction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.circuits import Circuit
from repro.exceptions import MitigationError
from repro.mitigation import (
    ReadoutMitigator,
    confusion_matrices_from_counts,
    project_to_simplex,
    readout_calibration_circuits,
)
from repro.mitigation.readout import DENSE_QUBIT_CUTOFF
from repro.simulation import Counts, NoiseModel, QuasiDistribution, StatevectorSimulator
from repro.telemetry import get_metrics

#: Readout-only noise: per-qubit flip probabilities, no gate noise.
PER_QUBIT_ERRORS = [0.03, 0.08, 0.05, 0.12]


def readout_only_model(errors):
    return NoiseModel(
        len(errors), t1=1e9, t2=1e9, readout_error=list(errors), idle_during_readout=False
    )


def ghz_circuit(n):
    circuit = Circuit(n, name=f"ghz_{n}")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    return circuit.measure_all()


def run_calibration(mitigator, model, num_qubits, shots=20000, seed=11):
    circuits = mitigator.calibration_circuits(num_qubits)
    counts = [
        StatevectorSimulator(noise_model=model, seed=seed + i, trajectories=1).run(c, shots=shots)
        for i, c in enumerate(circuits)
    ]
    return mitigator.calibration_from_counts(counts, num_qubits)


class TestCalibrationCircuits:
    def test_tensored_is_two_circuits(self):
        zeros, ones = readout_calibration_circuits(4, "tensored")
        assert zeros.count_ops() == {"measure": 4}
        assert ones.count_ops() == {"x": 4, "measure": 4}

    def test_full_enumerates_basis_states(self):
        circuits = readout_calibration_circuits(3, "full")
        assert len(circuits) == 8
        x_counts = sorted(c.count_ops().get("x", 0) for c in circuits)
        assert x_counts == [0, 1, 1, 1, 2, 2, 2, 3]

    def test_full_rejects_wide_registers(self):
        with pytest.raises(MitigationError):
            readout_calibration_circuits(11, "full")

    def test_unknown_method_rejected(self):
        with pytest.raises(MitigationError):
            readout_calibration_circuits(2, "magic")


class TestTensoredEstimation:
    def test_recovers_per_qubit_flip_probabilities(self):
        """Tensored calibration on a noisy simulator recovers the per-qubit
        readout_error sequence within statistical tolerance."""
        model = readout_only_model(PER_QUBIT_ERRORS)
        mitigator = ReadoutMitigator(method="tensored", calibration_shots=20000)
        calibration = run_calibration(mitigator, model, len(PER_QUBIT_ERRORS))
        rates = calibration.error_rates()
        assert rates.shape == (4, 2)
        # Binomial std at 20000 shots is < 0.003; allow 3 sigma plus margin.
        for qubit, expected in enumerate(PER_QUBIT_ERRORS):
            assert rates[qubit, 0] == pytest.approx(expected, abs=0.01)
            assert rates[qubit, 1] == pytest.approx(expected, abs=0.01)

    def test_exact_counts_give_exact_matrices(self):
        counts0 = Counts({"00": 90, "10": 10})  # qubit 0 flips 10% of the time
        counts1 = Counts({"11": 80, "01": 20})
        matrices = confusion_matrices_from_counts([counts0, counts1], 2, "tensored")
        assert matrices[0, 1, 0] == pytest.approx(0.1)
        assert matrices[0, 0, 1] == pytest.approx(0.2)
        assert matrices[1, 1, 0] == pytest.approx(0.0)
        assert matrices[1, 0, 1] == pytest.approx(0.0)
        # Columns are probability distributions.
        assert np.allclose(matrices.sum(axis=1), 1.0)

    def test_wrong_cardinality_rejected(self):
        with pytest.raises(MitigationError):
            confusion_matrices_from_counts([Counts({"0": 1})], 1, "tensored")


class TestCorrection:
    def test_exact_confusion_inverts_exactly(self):
        """With the true confusion matrix, correction undoes the noise map."""
        # True distribution: 50/50 over 00 and 11; one qubit with 10% error.
        mitigator = ReadoutMitigator(method="tensored", correction="inverse")
        matrices = np.array([[[0.9, 0.1], [0.1, 0.9]], [[1.0, 0.0], [0.0, 1.0]]])
        calibration = mitigator.calibration_from_counts(
            [Counts({"00": 9000, "10": 1000}), Counts({"11": 9000, "01": 1000})], 2
        )
        # Apply the same noise analytically to the GHZ distribution.
        noisy = Counts({"00": 4500, "10": 500, "11": 4500, "01": 500})
        quasi = mitigator.mitigate([noisy], calibration=calibration)
        assert quasi["00"] == pytest.approx(0.5, abs=1e-9)
        assert quasi["11"] == pytest.approx(0.5, abs=1e-9)
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mitigated_ghz_beats_raw_on_hellinger(self):
        model = readout_only_model(PER_QUBIT_ERRORS)
        mitigator = ReadoutMitigator(method="tensored", calibration_shots=20000)
        calibration = run_calibration(mitigator, model, 4)
        circuit = ghz_circuit(4)
        raw = StatevectorSimulator(noise_model=model, seed=5, trajectories=1).run(
            circuit, shots=8000
        )
        quasi = mitigator.mitigate([raw], circuit=circuit, calibration=calibration)
        ideal = {"0000": 0.5, "1111": 0.5}
        assert hellinger_fidelity(quasi, ideal) > hellinger_fidelity(raw, ideal)
        assert hellinger_fidelity(quasi, ideal) > 0.95

    def test_full_method_mitigates(self):
        errors = [0.05, 0.1, 0.02]
        model = readout_only_model(errors)
        mitigator = ReadoutMitigator(method="full", calibration_shots=8000)
        calibration = run_calibration(mitigator, model, 3, shots=8000, seed=100)
        circuit = ghz_circuit(3)
        raw = StatevectorSimulator(noise_model=model, seed=42, trajectories=1).run(
            circuit, shots=8000
        )
        quasi = mitigator.mitigate([raw], circuit=circuit, calibration=calibration)
        ideal = {"000": 0.5, "111": 0.5}
        assert hellinger_fidelity(quasi, ideal) > hellinger_fidelity(raw, ideal)

    def test_inverse_correction_is_quasi(self):
        """Raw inversion preserves total weight exactly and may go negative."""
        mitigator = ReadoutMitigator(method="tensored", correction="inverse")
        calibration = mitigator.calibration_from_counts(
            [Counts({"00": 900, "10": 60, "01": 40}), Counts({"11": 880, "01": 70, "10": 50})], 2
        )
        raw = Counts({"00": 480, "11": 430, "01": 50, "10": 40})
        quasi = mitigator.mitigate([raw], calibration=calibration)
        assert isinstance(quasi, QuasiDistribution)
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_least_squares_correction_is_a_distribution(self):
        mitigator = ReadoutMitigator(method="tensored", correction="least_squares")
        calibration = mitigator.calibration_from_counts(
            [Counts({"00": 900, "10": 60, "01": 40}), Counts({"11": 880, "01": 70, "10": 50})], 2
        )
        raw = Counts({"00": 480, "11": 430, "01": 50, "10": 40})
        quasi = mitigator.mitigate([raw], calibration=calibration)
        assert all(value >= 0 for value in quasi.values())
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-9)
        assert quasi.negativity() == 0.0

    def test_wide_register_subspace_path(self):
        """Registers beyond the dense cutoff are corrected on the observed support."""
        n = 14
        errors = [0.05] * n
        mitigator = ReadoutMitigator(method="tensored", correction="inverse")
        calibration = mitigator.calibration_from_counts(
            [
                Counts({"0" * n: 9500, "1" + "0" * (n - 1): 500}),
                Counts({"1" * n: 9500, "0" + "1" * (n - 1): 500}),
            ],
            n,
        )
        raw = Counts({"0" * n: 450, "1" * n: 470, "1" + "0" * (n - 1): 40, "0" + "1" * (n - 1): 40})
        quasi = mitigator.mitigate([raw], calibration=calibration)
        ideal = {"0" * n: 0.5, "1" * n: 0.5}
        assert hellinger_fidelity(quasi, ideal) > hellinger_fidelity(raw, ideal)

    def test_only_registers_past_the_dense_cutoff_count_a_width_fallback(self):
        def widths():
            (row,) = [
                row
                for row in get_metrics().snapshot()["repro_fallbacks_total"]["series"]
                if row["labels"] == {"site": "readout.tensored", "reason": "width"}
            ]
            return row["value"]

        mitigator = ReadoutMitigator(method="tensored")
        for n, fallbacks in ((DENSE_QUBIT_CUTOFF, 0), (DENSE_QUBIT_CUTOFF + 1, 1)):
            calibration = mitigator.calibration_from_counts(
                [Counts({"0" * n: 95, "1" + "0" * (n - 1): 5}), Counts({"1" * n: 100})], n
            )
            before = widths()
            mitigator.mitigate([Counts({"0" * n: 60, "1" * n: 40})], calibration=calibration)
            assert widths() - before == fallbacks

    def test_qubit_to_clbit_permutation_respected(self):
        """A circuit measuring qubit q into clbit != q uses qubit q's matrix."""
        # Qubit 0 is noisy, qubit 1 clean; the circuit crosses the mapping.
        mitigator = ReadoutMitigator(method="tensored", correction="inverse")
        calibration = mitigator.calibration_from_counts(
            [Counts({"00": 900, "10": 100}), Counts({"11": 900, "01": 100})], 2
        )
        circuit = Circuit(2).x(0).measure(0, 1).measure(1, 0)
        # Qubit 0 is |1>, reported in clbit 1; noise flips it 10% of the time.
        raw = Counts({"01": 900, "00": 100})
        quasi = mitigator.mitigate([raw], circuit=circuit, calibration=calibration)
        assert quasi.get("01", 0.0) == pytest.approx(1.0, abs=1e-9)


class TestSimplexProjection:
    def test_distribution_is_fixed_point(self):
        values = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(values), values)

    def test_negative_weight_removed(self):
        projected = project_to_simplex(np.array([1.04, -0.04]))
        assert projected[1] == 0.0
        assert projected.sum() == pytest.approx(1.0)
        assert (projected >= 0).all()

    def test_sums_to_one(self, rng):
        for _ in range(20):
            values = rng.normal(size=8)
            projected = project_to_simplex(values)
            assert projected.sum() == pytest.approx(1.0)
            assert (projected >= -1e-12).all()


class TestValidation:
    def test_unknown_options_rejected(self):
        with pytest.raises(MitigationError):
            ReadoutMitigator(method="partial")
        with pytest.raises(MitigationError):
            ReadoutMitigator(correction="bayesian")
        with pytest.raises(MitigationError):
            ReadoutMitigator(calibration_shots=0)

    def test_mitigate_requires_calibration(self):
        with pytest.raises(MitigationError):
            ReadoutMitigator().mitigate([Counts({"0": 1})], calibration=None)
