"""Tests for gate decomposition and native basis translation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.transpiler.decomposition as decomposition
from repro.circuits import (
    GATE_DEFINITIONS,
    Circuit,
    PackedBuilder,
    gate_matrix,
    random_clifford_circuit,
)
from repro.devices import get_device
from repro.exceptions import TranspilerError
from repro.simulation import circuit_unitary
from repro.transpiler import (
    SUPPORTED_BASES,
    basis_for_gates,
    transpile,
    zyz_angles,
)
from repro.utils import equivalent_up_to_global_phase

UNITARY_GATES = [name for name, definition in GATE_DEFINITIONS.items() if definition.is_unitary]


def translate_to_basis(circuit: Circuit, basis: str) -> Circuit:
    return decomposition.translate_to_basis(circuit.packed(), basis).unpack()


def _one_gate_circuit(name: str) -> Circuit:
    definition = GATE_DEFINITIONS[name]
    params = [0.37 * (i + 1) for i in range(definition.num_params)]
    circuit = Circuit(definition.num_qubits)
    return circuit.add_gate(name, list(range(definition.num_qubits)), params)


def _random_unitary(rng):
    matrix = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(matrix)
    return q


class TestZYZ:
    def test_identity(self):
        theta, phi, lam = zyz_angles(np.eye(2))
        assert abs(theta) < 1e-9

    def test_hadamard(self):
        theta, phi, lam = zyz_angles(gate_matrix("h"))
        reconstructed = gate_matrix("rz", phi) @ gate_matrix("ry", theta) @ gate_matrix("rz", lam)
        assert equivalent_up_to_global_phase(reconstructed, gate_matrix("h"))

    def test_wrong_shape_rejected(self):
        with pytest.raises(TranspilerError):
            zyz_angles(np.eye(4))

    @given(seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_random_unitaries_round_trip(self, seed):
        unitary = _random_unitary(np.random.default_rng(seed))
        theta, phi, lam = zyz_angles(unitary)
        reconstructed = gate_matrix("rz", phi) @ gate_matrix("ry", theta) @ gate_matrix("rz", lam)
        assert equivalent_up_to_global_phase(reconstructed, unitary, atol=1e-7)


class TestCanonicalDecomposition:
    @pytest.mark.parametrize("name", UNITARY_GATES)
    def test_every_gate_decomposes_equivalently(self, name):
        circuit = _one_gate_circuit(name)
        canonical = translate_to_basis(circuit, "canonical")
        assert set(op for op in canonical.count_ops()) <= {"u", "cx"}
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(canonical), atol=1e-8
        )

    def test_measure_and_reset_pass_through(self):
        circuit = Circuit(1, 1).h(0).measure(0, 0)
        canonical = translate_to_basis(circuit, "canonical")
        assert canonical.num_measurements() == 1

    def test_gate_without_a_rule_rejected(self):
        # Every gate has a rule, so drive the emitter with a name it lacks.
        with pytest.raises(TranspilerError, match="no canonical decomposition"):
            decomposition._emit_canonical(
                PackedBuilder(2, 0), decomposition._u, decomposition._cx, "unknown", (0, 1), ()
            )

    def test_barriers_pass_through_unchanged(self):
        circuit = Circuit(3).h(0).barrier(0, 2).barrier().cx(0, 1)
        canonical = translate_to_basis(circuit, "canonical")
        barriers = [i.qubits for i in canonical if i.is_barrier()]
        assert barriers == [(0, 2), (0, 1, 2)]


class TestBasisTranslation:
    def test_basis_for_gates(self):
        assert basis_for_gates(("rz", "sx", "x", "cx")) == "ibm"
        assert basis_for_gates(("rx", "ry", "rz", "rxx")) == "ionq"
        assert basis_for_gates(("rz", "sx", "x", "cz")) == "aqt"
        with pytest.raises(TranspilerError):
            basis_for_gates(("h",))

    def test_unknown_basis_rejected(self):
        with pytest.raises(TranspilerError):
            translate_to_basis(Circuit(1).h(0), "rigetti")

    @pytest.mark.parametrize("basis", ["ibm", "ionq", "aqt"])
    def test_only_native_gates_emitted(self, basis):
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.3, 1, 2).t(2).swap(0, 2)
        translated = translate_to_basis(circuit, basis)
        allowed = set(SUPPORTED_BASES[basis]) | {"measure", "reset", "barrier"}
        assert set(translated.count_ops()) <= allowed

    @pytest.mark.parametrize("basis", ["ibm", "ionq", "aqt", "canonical"])
    def test_translation_preserves_unitary(self, basis):
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.7, 1, 2).ry(0.3, 2).swap(0, 2).sdg(1)
        translated = translate_to_basis(circuit, basis)
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(translated), atol=1e-7
        )

    @pytest.mark.parametrize("basis", ["ibm", "ionq", "aqt"])
    @pytest.mark.parametrize(
        "angles",
        [(0.0, 0.0, 0.0), (math.pi / 2, 0.3, -1.1), (math.pi, 0.0, 0.0), (2.2, -0.4, 0.9)],
    )
    def test_u_gate_special_cases(self, basis, angles):
        circuit = Circuit(1).u(*angles, 0)
        translated = translate_to_basis(circuit, basis)
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(translated), atol=1e-8
        )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_random_circuits_preserved_in_ibm_basis(self, seed):
        circuit = random_clifford_circuit(3, 15, rng=seed)
        translated = translate_to_basis(circuit, "ibm")
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(translated), atol=1e-7
        )


class TestEveryGateTranspiles:
    """A one-gate circuit of each unitary gate compiles on every basis."""

    @pytest.mark.parametrize("device_name", ["IBM-Casablanca-7Q", "AQT-4Q", "IonQ-11Q"])
    @pytest.mark.parametrize("name", UNITARY_GATES)
    def test_gate_transpiles_at_level_zero(self, name, device_name):
        device = get_device(device_name)
        circuit = _one_gate_circuit(name)
        result = transpile(circuit, device, optimization_level=0, placement="trivial")
        native = set(device.basis_gates) | {"measure", "reset", "barrier"}
        assert set(result.circuit.count_ops()) <= native
        if device_name != "IonQ-11Q" or name == "id":
            return  # id compiles to no rows: compact() has no qubits to keep
        compact, physical = result.compact()
        assert physical == tuple(range(circuit.num_qubits))
        assert equivalent_up_to_global_phase(
            circuit_unitary(circuit), circuit_unitary(compact), atol=1e-7
        )
