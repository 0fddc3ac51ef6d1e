"""Zero-noise extrapolation: folding transforms and extrapolators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import hellinger_fidelity
from repro.circuits import Circuit
from repro.exceptions import MitigationError
from repro.mitigation import (
    ExponentialExtrapolator,
    LinearExtrapolator,
    RichardsonExtrapolator,
    ZNEMitigator,
    fold_global,
    fold_two_qubit_gates,
    resolve_extrapolator,
)
from repro.simulation import Counts, NoiseModel, StatevectorSimulator
from repro.telemetry import get_metrics


def fallbacks(site, reason=None):
    """``repro_fallbacks_total`` of one site, for one reason or all of them."""
    return sum(
        row["value"]
        for row in get_metrics().snapshot().get("repro_fallbacks_total", {}).get("series", [])
        if row["labels"]["site"] == site and reason in (None, row["labels"]["reason"])
    )


def ghz_circuit(n, measure=True):
    circuit = Circuit(n, name=f"ghz_{n}")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    if measure:
        circuit.measure_all()
    return circuit


class TestGlobalFolding:
    def test_odd_integer_scales_are_exact(self):
        circuit = ghz_circuit(3)
        for scale in (1, 3, 5):
            folded, achieved = fold_global(circuit, scale)
            assert achieved == pytest.approx(scale)
            assert folded.num_gates(include_measurements=False) == 3 * scale
            assert folded.num_measurements() == 3

    def test_partial_fold_hits_nearest_achievable_scale(self):
        circuit = ghz_circuit(3)
        folded, achieved = fold_global(circuit, 2.0)
        # 3 body gates: achievable scales near 2 are 1+2r/3 for r in 0..3.
        assert achieved in (1 + 2 / 3, 1 + 4 / 3)
        assert folded.num_gates(include_measurements=False) == round(3 * achieved)

    def test_folding_preserves_the_unitary(self, unitary_equivalent):
        circuit = ghz_circuit(3, measure=False)
        for scale in (3.0, 2.4, 5.0):
            folded, _ = fold_global(circuit, scale)
            unitary_equivalent(folded, circuit)

    def test_interleaved_terminal_measurements_hoisted(self):
        """Terminal measurements before trailing gates on other qubits fold fine."""
        circuit = Circuit(2).h(0).measure(0, 0).x(1).measure(1, 1)
        folded, achieved = fold_global(circuit, 3)
        assert achieved == pytest.approx(3.0)
        assert folded.num_gates(include_measurements=False) == 6
        assert folded.num_measurements() == 2

    def test_mid_circuit_measurement_rejected(self):
        circuit = Circuit(2).h(0).measure(0, 0).x(0).measure(0, 1)
        with pytest.raises(MitigationError):
            fold_global(circuit, 3)
        with pytest.raises(MitigationError):
            fold_global(Circuit(1).h(0).reset(0).measure(0, 0), 3)

    def test_scale_below_one_rejected(self):
        with pytest.raises(MitigationError):
            fold_global(ghz_circuit(2), 0.5)


class TestLocalFolding:
    def test_only_two_qubit_gates_fold(self):
        circuit = ghz_circuit(4)
        folded, achieved = fold_two_qubit_gates(circuit, 3)
        assert achieved == pytest.approx(3.0)
        assert folded.num_two_qubit_gates() == 9
        assert folded.count_ops()["h"] == 1  # single-qubit gates untouched

    def test_folding_preserves_the_unitary(self, unitary_equivalent):
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.4, 1, 2).cx(0, 2)
        folded, _ = fold_two_qubit_gates(circuit, 3)
        unitary_equivalent(folded, circuit)

    def test_partial_local_fold(self):
        circuit = ghz_circuit(3)  # two cx gates
        folded, achieved = fold_two_qubit_gates(circuit, 2.0)
        assert achieved == pytest.approx(2.0)  # one of two gates folded once
        assert folded.num_two_qubit_gates() == 4


class TestExtrapolators:
    def test_linear_exact_on_a_line(self):
        scales = [1.0, 2.0, 3.0]
        values = [0.9 - 0.1 * s for s in scales]
        assert LinearExtrapolator().extrapolate(scales, values) == pytest.approx(0.9)

    def test_richardson_exact_on_a_polynomial(self):
        scales = [1.0, 2.0, 3.0]
        values = [1.0 - 0.2 * s + 0.05 * s**2 for s in scales]
        assert RichardsonExtrapolator().extrapolate(scales, values) == pytest.approx(1.0)

    def test_exponential_exact_on_a_decay(self):
        scales = [1.0, 2.0, 3.0, 4.0]
        values = [0.5 + 0.4 * np.exp(-0.7 * s) for s in scales]
        result = ExponentialExtrapolator().extrapolate(scales, values)
        assert result == pytest.approx(0.9, abs=1e-6)

    def test_exponential_falls_back_to_linear_with_two_points(self):
        scales = [1.0, 3.0]
        values = [0.8, 0.6]
        assert ExponentialExtrapolator().extrapolate(scales, values) == pytest.approx(0.9)

    def test_each_exponential_fallback_is_counted_with_its_reason(self):
        def counted(reason, scales, values):
            before = fallbacks("zne.exponential", reason)
            estimate = ExponentialExtrapolator().extrapolate(scales, values)
            assert fallbacks("zne.exponential", reason) - before == 1
            return estimate

        assert counted("too_few_scales", [1.0, 3.0], [0.8, 0.6]) == pytest.approx(0.9)
        assert counted("flat_values", [1.0, 2.0, 3.0], [0.7, 0.7, 0.7]) == pytest.approx(0.7)
        # curve_fit refuses non-finite data with a ValueError
        nan = counted("ValueError", [1.0, 2.0, 3.0], [0.9, float("nan"), 0.5])
        assert np.isnan(nan)

    def test_a_converged_fit_counts_no_fallback(self):
        before = fallbacks("zne.exponential")
        scales = [1.0, 2.0, 3.0, 4.0]
        ExponentialExtrapolator().extrapolate(scales, [0.5 + 0.4 * np.exp(-s) for s in scales])
        assert fallbacks("zne.exponential") == before

    def test_resolve(self):
        assert resolve_extrapolator(None).name == "linear"
        assert resolve_extrapolator("richardson").name == "richardson"
        assert resolve_extrapolator("exp").name == "exponential"
        with pytest.raises(MitigationError):
            resolve_extrapolator("quadratic-ish")


class TestZNEMitigator:
    def test_transform_emits_one_variant_per_scale(self):
        mitigator = ZNEMitigator(scale_factors=(1, 3, 5))
        variants = mitigator.transform(ghz_circuit(3))
        assert len(variants) == 3
        gate_counts = [v.num_gates(include_measurements=False) for v in variants]
        assert gate_counts == [3, 9, 15]

    def test_extrapolated_weights_sum_to_one(self):
        mitigator = ZNEMitigator(scale_factors=(1, 3))
        counts = [
            Counts({"00": 800, "11": 150, "01": 50}),
            Counts({"00": 600, "11": 250, "01": 150}),
        ]
        quasi = mitigator.mitigate(counts)
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-9)
        # Linear extrapolation sharpens toward the dominant outcome.
        assert quasi["00"] > 0.8

    def test_achieved_scales_enter_the_fit(self):
        circuit = ghz_circuit(3)
        mitigator = ZNEMitigator(scale_factors=(1.0, 2.0))
        achieved = mitigator.achieved_scales(circuit)
        assert achieved[0] == pytest.approx(1.0)
        assert achieved[1] != pytest.approx(2.0)  # 3 gates cannot realise 2.0 exactly

    def test_zne_improves_ghz_under_depolarizing_noise(self):
        """The seeded noisy testbed: ZNE beats raw on Hellinger fidelity."""
        model = NoiseModel.uniform(4, error_1q=0.002, error_2q=0.02, readout_error=0.0)
        circuit = ghz_circuit(4)
        mitigator = ZNEMitigator(scale_factors=(1, 3, 5), extrapolator="linear")
        counts = [
            StatevectorSimulator(noise_model=model, seed=3, trajectories=1).run(v, shots=8000)
            for v in mitigator.transform(circuit)
        ]
        quasi = mitigator.mitigate(counts, circuit=circuit)
        ideal = {"0000": 0.5, "1111": 0.5}
        assert hellinger_fidelity(quasi, ideal) > hellinger_fidelity(counts[0], ideal)

    def test_counts_cardinality_checked(self):
        mitigator = ZNEMitigator(scale_factors=(1, 3))
        with pytest.raises(MitigationError):
            mitigator.mitigate([Counts({"0": 1})])

    def test_collapsed_achieved_scales_rejected(self):
        """A circuit with no foldable units cannot realise distinct noise levels."""
        circuit = Circuit(1).h(0).measure(0, 0)
        mitigator = ZNEMitigator(scale_factors=(1.0, 1.2, 1.4), folding="local")
        # transform() fails fast, before the engine executes any variant...
        with pytest.raises(MitigationError):
            mitigator.transform(circuit)
        # ...and mitigate() guards direct callers the same way.
        counts = [Counts({"0": 500, "1": 500}) for _ in range(3)]
        with pytest.raises(MitigationError):
            mitigator.mitigate(counts, circuit=circuit)

    def test_duplicate_achieved_scales_merged_for_richardson(self):
        """Coinciding achieved scales average instead of dividing by zero."""
        circuit = ghz_circuit(2)  # 2 body gates quantise the partial folds
        mitigator = ZNEMitigator(scale_factors=(1.0, 2.9, 3.0), extrapolator="richardson")
        achieved = mitigator.achieved_scales(circuit)
        assert achieved[1] == achieved[2]  # both land on 3.0
        counts = [
            Counts({"00": 800, "11": 200}),
            Counts({"00": 640, "11": 360}),
            Counts({"00": 660, "11": 340}),
        ]
        quasi = mitigator.mitigate(counts, circuit=circuit)
        assert np.isfinite(list(quasi.values())).all()
        assert sum(quasi.values()) == pytest.approx(1.0, abs=1e-9)

    def test_achieved_scales_match_fold_outputs(self):
        """The closed form agrees with what the folding transforms realise."""
        circuit = ghz_circuit(3)
        for folding, fold in (("global", fold_global), ("local", fold_two_qubit_gates)):
            mitigator = ZNEMitigator(scale_factors=(1.0, 2.0, 3.4), folding=folding)
            expected = [fold(circuit, s)[1] for s in mitigator.scale_factors]
            assert mitigator.achieved_scales(circuit) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(MitigationError):
            ZNEMitigator(scale_factors=(1,))
        with pytest.raises(MitigationError):
            ZNEMitigator(scale_factors=(0.5, 2))
        with pytest.raises(MitigationError):
            ZNEMitigator(folding="spiral")
