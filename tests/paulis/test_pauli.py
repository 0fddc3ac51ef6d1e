"""Tests for Pauli strings and sums."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit
from repro.exceptions import AnalysisError
from repro.paulis import PauliString, PauliSum, PauliTerm
from repro.simulation import Counts, final_statevector


class TestPauliString:
    def test_identity_letters_dropped(self):
        pauli = PauliString(((0, "I"), (1, "X")))
        assert pauli.support == (1,)

    def test_invalid_letter_rejected(self):
        with pytest.raises(AnalysisError):
            PauliString(((0, "Q"),))

    def test_duplicate_qubit_rejected(self):
        with pytest.raises(AnalysisError):
            PauliString(((0, "X"), (0, "Z")))

    def test_from_label(self):
        pauli = PauliString.from_label("XIZ")
        assert pauli.letter(0) == "X"
        assert pauli.letter(1) == "I"
        assert pauli.letter(2) == "Z"

    def test_to_label_round_trip(self):
        pauli = PauliString.from_label("XYZI")
        assert pauli.to_label(4) == "XYZI"

    def test_weight(self):
        assert PauliString.from_label("XIYI").weight() == 2
        assert PauliString.identity().weight() == 0

    def test_commutes_qubit_wise(self):
        a = PauliString.from_label("XZ")
        assert a.commutes_qubit_wise(PauliString.from_label("XI"))
        assert not a.commutes_qubit_wise(PauliString.from_label("ZZ"))

    def test_operator_commutation(self):
        x0 = PauliString.from_label("X")
        z0 = PauliString.from_label("Z")
        assert not x0.commutes(z0)
        xx = PauliString.from_label("XX")
        zz = PauliString.from_label("ZZ")
        assert xx.commutes(zz)

    def test_product_xy_gives_iz(self):
        phase, result = PauliString.from_label("X") * PauliString.from_label("Y")
        assert phase == 1j
        assert result == PauliString.from_label("Z")

    def test_product_is_consistent_with_matrices(self):
        a = PauliString.from_label("XY")
        b = PauliString.from_label("ZX")
        phase, product = a * b
        expected = a.matrix(2) @ b.matrix(2)
        assert np.allclose(phase * product.matrix(2), expected)

    def test_matrix_of_z0_on_two_qubits(self):
        matrix = PauliString.from_label("Z").matrix(2)
        # Little-endian: qubit 0 is the least significant index bit.
        assert np.allclose(np.diag(matrix), [1, -1, 1, -1])

    def test_matrix_rejects_support_beyond_num_qubits(self):
        with pytest.raises(AnalysisError):
            PauliString.from_dict({5: "X"}).matrix(2)

    def test_expectation_from_counts(self):
        pauli = PauliString.from_label("ZZ")
        counts = Counts({"00": 50, "11": 50})
        assert pauli.expectation_from_counts(counts) == pytest.approx(1.0)
        counts = Counts({"01": 100})
        assert pauli.expectation_from_counts(counts) == pytest.approx(-1.0)

    def test_expectation_from_empty_counts_rejected(self):
        with pytest.raises(AnalysisError):
            PauliString.from_label("Z").expectation_from_counts({})

    def test_measurement_basis_circuit(self):
        circuit = PauliString.from_label("XYZ").measurement_basis_circuit(3)
        names = [instruction.name for instruction in circuit]
        assert names == ["h", "sdg", "h"]


class TestPauliSum:
    def test_simplify_combines_terms(self):
        zz = PauliString.from_label("ZZ")
        total = PauliSum().add_term(1.0, zz).add_term(2.0, zz).simplify()
        assert len(total) == 1
        assert total.terms[0].coefficient == pytest.approx(3.0)

    def test_simplify_drops_zero(self):
        zz = PauliString.from_label("ZZ")
        total = PauliSum().add_term(1.0, zz).add_term(-1.0, zz).simplify()
        assert len(total) == 0

    def test_matrix_matches_manual_construction(self):
        total = PauliSum().add_term(0.5, PauliString.from_label("X")).add_term(
            -1.5, PauliString.from_label("Z")
        )
        x = np.array([[0, 1], [1, 0]])
        z = np.diag([1, -1])
        assert np.allclose(total.matrix(1), 0.5 * x - 1.5 * z)

    def test_expectation_from_statevector(self):
        # |+> has <X> = 1 and <Z> = 0.
        circuit = Circuit(1).h(0)
        state = final_statevector(circuit)
        x_sum = PauliSum().add_term(1.0, PauliString.from_label("X"))
        z_sum = PauliSum().add_term(1.0, PauliString.from_label("Z"))
        assert x_sum.expectation_from_statevector(state) == pytest.approx(1.0)
        assert z_sum.expectation_from_statevector(state) == pytest.approx(0.0, abs=1e-9)

    def test_expectation_rejects_non_power_of_two_length(self):
        total = PauliSum().add_term(1.0, PauliString.from_label("Z"))
        with pytest.raises(AnalysisError):
            total.expectation_from_statevector(np.ones(3, dtype=complex) / np.sqrt(3))

    def test_expectation_rejects_support_beyond_state(self):
        total = PauliSum().add_term(1.0, PauliString.from_dict({5: "X"}))
        state = final_statevector(Circuit(2).h(0))
        with pytest.raises(AnalysisError):
            total.expectation_from_statevector(state)

    def test_scalar_multiplication(self):
        total = PauliSum().add_term(2.0, PauliString.from_label("Z"))
        scaled = 0.5 * total
        assert scaled.terms[0].coefficient == pytest.approx(1.0)

    def test_group_commuting_groups_share_basis(self):
        terms = PauliSum()
        terms.add_term(1.0, PauliString.from_label("ZZ"))
        terms.add_term(1.0, PauliString.from_label("ZI"))
        terms.add_term(1.0, PauliString.from_label("XX"))
        groups = terms.group_commuting()
        assert len(groups) == 2

    def test_measurement_circuits_cover_all_terms(self):
        terms = PauliSum()
        terms.add_term(1.0, PauliString.from_label("ZZ"))
        terms.add_term(1.0, PauliString.from_label("XX"))
        circuits = terms.measurement_circuits(2)
        assert len(circuits) == 2
        total_terms = sum(len(group) for _circuit, group in circuits)
        assert total_terms == 2

    def test_num_qubits(self):
        total = PauliSum().add_term(1.0, PauliString.from_dict({3: "X"}))
        assert total.num_qubits() == 4
        assert PauliSum().num_qubits() == 0

    def test_expectation_from_group_counts(self):
        zz = PauliString.from_label("ZZ")
        group = [PauliTerm(2.0, zz)]
        counts = Counts({"00": 10})
        total = PauliSum([PauliTerm(2.0, zz)])
        assert total.expectation_from_group_counts([(group, counts)]) == pytest.approx(2.0)


class TestPauliPropertyBased:
    letters = st.sampled_from(["I", "X", "Y", "Z"])

    @given(label_a=st.lists(letters, min_size=1, max_size=4), label_b=st.lists(letters, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_product_matches_matrix_product(self, label_a, label_b):
        size = max(len(label_a), len(label_b))
        a = PauliString.from_label("".join(label_a))
        b = PauliString.from_label("".join(label_b))
        phase, product = a * b
        assert np.allclose(
            phase * product.matrix(size), a.matrix(size) @ b.matrix(size), atol=1e-9
        )

    @given(label=st.lists(letters, min_size=1, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_every_pauli_string_squares_to_identity(self, label):
        pauli = PauliString.from_label("".join(label))
        phase, product = pauli * pauli
        assert phase == 1
        assert product == PauliString.identity()
