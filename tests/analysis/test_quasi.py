"""Quasi-probability support in the shared normalisation and distance helpers."""

from __future__ import annotations

import pytest

from repro.analysis import hellinger_fidelity, total_variation_distance
from repro.exceptions import AnalysisError, SimulationError
from repro.paulis import PauliString
from repro.simulation import Counts, QuasiDistribution, normalized_probabilities


class TestNormalizedProbabilities:
    def test_counts_normalise(self):
        assert normalized_probabilities({"0": 3, "1": 1}) == {"0": 0.75, "1": 0.25}

    def test_negative_weights_clipped_and_renormalised(self):
        result = normalized_probabilities({"00": 0.8, "11": 0.3, "01": -0.1})
        assert "01" not in result
        assert sum(result.values()) == pytest.approx(1.0)
        assert result["00"] == pytest.approx(0.8 / 1.1)

    def test_unclipped_mode_keeps_negatives(self):
        result = normalized_probabilities({"0": 1.5, "1": -0.5}, clip_negative=False)
        assert result["1"] == pytest.approx(-0.5)
        assert sum(result.values()) == pytest.approx(1.0)

    def test_empty_and_nonpositive_rejected(self):
        with pytest.raises(SimulationError):
            normalized_probabilities({})
        with pytest.raises(SimulationError):
            normalized_probabilities({"0": -1.0})

    def test_counts_probabilities_uses_shared_path(self):
        counts = Counts({"01": 30, "10": 10})
        assert counts.probabilities() == {"01": 0.75, "10": 0.25}


class TestQuasiDistribution:
    def test_negativity_and_probabilities(self):
        quasi = QuasiDistribution({"00": 1.02, "11": 0.03, "01": -0.05})
        assert quasi.negativity() == pytest.approx(0.05)
        probabilities = quasi.probabilities()
        assert "01" not in probabilities
        assert sum(probabilities.values()) == pytest.approx(1.0)

    def test_num_bits_inferred(self):
        assert QuasiDistribution({"010": 1.0}).num_bits == 3

    def test_shots_defaults_to_clipped_total(self):
        quasi = QuasiDistribution({"0": 0.9, "1": -0.1})
        assert quasi.shots == pytest.approx(0.9)
        assert QuasiDistribution({"0": 1.0}, shots=500.0).shots == 500.0

    def test_expectation_parity_uses_raw_weights(self):
        quasi = QuasiDistribution({"0": 1.1, "1": -0.1})
        assert PauliString.from_label("Z").expectation_from_counts(quasi) == pytest.approx(1.2)


class TestDistancesOnQuasi:
    def test_hellinger_accepts_quasi(self):
        quasi = QuasiDistribution({"00": 0.52, "11": 0.50, "01": -0.02})
        assert hellinger_fidelity(quasi, {"00": 0.5, "11": 0.5}) == pytest.approx(1.0, abs=1e-3)

    def test_tvd_accepts_quasi(self):
        quasi = QuasiDistribution({"0": 0.75, "1": 0.27, "00": -0.02})
        counts = Counts({"0": 75, "1": 25})
        assert total_variation_distance(quasi, counts) < 0.02

    def test_tvd_rejects_unusable_quasi(self):
        with pytest.raises(AnalysisError):
            total_variation_distance({"0": -1.0}, {"0": 1})

    def test_hellinger_symmetric_mixed_inputs(self):
        quasi = QuasiDistribution({"0": 0.6, "1": 0.4})
        counts = Counts({"0": 3, "1": 7})
        assert hellinger_fidelity(quasi, counts) == pytest.approx(
            hellinger_fidelity(counts, quasi)
        )
