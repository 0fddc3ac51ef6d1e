"""Dynamical decoupling: idle-window insertion and pipeline registration."""

from __future__ import annotations

import pytest

from repro.circuits import Circuit
from repro.exceptions import MitigationError
from repro.mitigation import DynamicalDecoupling, DynamicalDecouplingMitigator
from repro.simulation import Counts
from repro.transpiler import preset_pipeline
from repro.transpiler.passes import PropertySet


def decouple(sequence, circuit, properties=None):
    """Run the DD pass on ``circuit``'s pack and unpack the result."""
    properties = PropertySet() if properties is None else properties
    return DynamicalDecoupling(sequence).run(circuit.packed(), properties).unpack()


def idle_window_circuit():
    """Qubit 1 idles for 6 moments between its two operations."""
    circuit = Circuit(2)
    circuit.h(0).h(1)
    for _ in range(6):
        circuit.t(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


class TestDynamicalDecouplingPass:
    def test_inserts_sequence_into_idle_window(self):
        circuit = idle_window_circuit()
        properties = PropertySet()
        decoupled = decouple("xy4", circuit, properties)
        ops = decoupled.count_ops()
        assert ops["x"] == 2 and ops["y"] == 2
        assert properties["metrics"]["dd_pulses"] == 4

    def test_xx_sequence(self):
        circuit = idle_window_circuit()
        decoupled = decouple("xx", circuit)
        ops = decoupled.count_ops()
        assert ops["x"] == 2 and "y" not in ops

    def test_unitary_preserved_up_to_phase(self, unitary_equivalent):
        circuit = Circuit(2).h(0).h(1)
        for _ in range(6):
            circuit.t(0)
        circuit.cx(0, 1)
        decoupled = decouple("xy4", circuit)
        unitary_equivalent(decoupled, circuit)
        decoupled_xx = decouple("xx", circuit)
        unitary_equivalent(decoupled_xx, circuit)

    def test_no_insertion_without_idle_windows(self):
        packed = Circuit(2).h(0).barrier().cx(0, 1).measure_all().packed()
        decoupled = DynamicalDecoupling("xy4").run(packed, PropertySet())
        assert decoupled is packed  # untouched, barriers and all

    def test_leading_and_trailing_idle_skipped(self):
        # Qubit 1 only acts at the very end: its leading idle stays empty.
        circuit = Circuit(2)
        circuit.h(0)
        for _ in range(8):
            circuit.t(0)
        circuit.h(1)
        packed = circuit.packed()
        assert DynamicalDecoupling("xy4").run(packed, PropertySet()) is packed

    def test_depth_preserved(self):
        """Pulses fill existing idle moments; the schedule grows no deeper."""
        circuit = idle_window_circuit()
        decoupled = decouple("xy4", circuit)
        assert decoupled.depth() == circuit.depth()

    def test_rows_in_moment_order_pulses_after_each_moment(self):
        # Barriers are consumed; rows come out moment by moment.
        circuit = Circuit(2).h(0).barrier(0, 1).h(1)
        for _ in range(5):
            circuit.t(0)
        circuit.cx(0, 1)
        decoupled = decouple("xx", circuit)
        # Qubit 1 idles in moments 2-5: pulses at moments 2 and 4.
        assert [(i.name, i.qubits) for i in decoupled] == [
            ("h", (0,)),  # moment 0
            ("h", (1,)),  # moment 1
            ("t", (0,)),
            ("t", (0,)),  # moment 2
            ("x", (1,)),
            ("t", (0,)),  # moment 3
            ("t", (0,)),  # moment 4
            ("x", (1,)),
            ("t", (0,)),  # moment 5
            ("cx", (0, 1)),  # moment 6
        ]

    def test_validation(self):
        with pytest.raises(MitigationError):
            DynamicalDecoupling("cpmg")
        with pytest.raises(MitigationError):
            DynamicalDecoupling("xy4", min_idle_moments=2)

    def test_signature_distinguishes_configurations(self):
        assert DynamicalDecoupling("xx").signature() != DynamicalDecoupling("xy4").signature()


class TestPresetRegistration:
    def test_preset_pipeline_appends_dd_pass(self, ibm_device):
        plain = preset_pipeline(ibm_device, optimization_level=1)
        with_dd = preset_pipeline(ibm_device, optimization_level=1, dd="xy4")
        assert len(with_dd) == len(plain) + 2
        names = [p.name for p in with_dd]
        # DD slots after the cleanup passes, then a re-translation keeps the
        # inserted pulses native, before the final DepthAnalysis.
        assert names[-3] == "dynamical_decoupling"
        assert names[-2] == "basis_translation"
        assert names[-1] == "depth_analysis"

    def test_dd_changes_the_pipeline_fingerprint(self, ibm_device):
        plain = preset_pipeline(ibm_device)
        xy4 = preset_pipeline(ibm_device, dd="xy4")
        xx = preset_pipeline(ibm_device, dd="xx")
        assert len({plain.fingerprint, xy4.fingerprint, xx.fingerprint}) == 3

    def test_dd_pipeline_compiles_with_pulses_surviving_cleanup(self, aqt_device):
        # Qubit 1 idles through a chain of alternating two-qubit gates that
        # no cleanup pass can collapse (single-qubit runs would be fused).
        circuit = Circuit(4)
        circuit.cx(0, 1)
        for _ in range(3):
            circuit.cx(0, 2)
            circuit.cx(2, 3)
        circuit.cx(0, 1)
        circuit.measure_all()
        pipeline = preset_pipeline(aqt_device, optimization_level=2, dd="xx")
        properties = PropertySet()
        compiled = pipeline.run(circuit, properties)
        # The inserted pulses survive (cancellation ran before insertion)
        # and the re-translation leaves the output in the native basis.
        assert properties["metrics"]["dd_pulses"] > 0
        native = set(aqt_device.basis_gates) | {"measure", "reset", "barrier"}
        assert set(compiled.count_ops()) <= native


class TestDDMitigator:
    def test_transform_applies_the_pass(self):
        mitigator = DynamicalDecouplingMitigator("xy4")
        variants = mitigator.transform(idle_window_circuit())
        assert len(variants) == 1
        assert variants[0].count_ops().get("y", 0) == 2

    def test_mitigate_is_passthrough(self):
        mitigator = DynamicalDecouplingMitigator()
        counts = Counts({"00": 750, "11": 250})
        quasi = mitigator.mitigate([counts])
        assert quasi["00"] == pytest.approx(0.75)
        assert quasi["11"] == pytest.approx(0.25)
