"""Unit tests for the Circuit IR."""

import math

import networkx as nx
import numpy as np
import oracle
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, Gate, Instruction
from repro.exceptions import CircuitError


class TestInstruction:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(CircuitError):
            Instruction(Gate("cx"), (1, 1))

    def test_wrong_arity_rejected(self):
        with pytest.raises(CircuitError):
            Instruction(Gate("cx"), (0,))

    def test_measure_requires_clbit(self):
        with pytest.raises(CircuitError):
            Instruction(Gate("measure"), (0,))

    def test_gate_cannot_take_clbits(self):
        with pytest.raises(CircuitError):
            Instruction(Gate("x"), (0,), (0,))

    def test_remap(self):
        instruction = Instruction(Gate("cx"), (0, 1))
        remapped = instruction.remap({0: 5, 1: 2})
        assert remapped.qubits == (5, 2)

    def test_predicates(self):
        assert Instruction(Gate("cx"), (0, 1)).is_two_qubit()
        assert not Instruction(Gate("x"), (0,)).is_two_qubit()
        assert Instruction(Gate("measure"), (0,), (0,)).is_measurement()
        assert Instruction(Gate("reset"), (0,)).is_reset()
        assert Instruction(Gate("barrier"), (0, 1)).is_barrier()


class TestCircuitBuilder:
    def test_chainable_builder(self):
        circuit = Circuit(2).h(0).cx(0, 1).measure(1, 0)
        assert len(circuit) == 3
        assert [instruction.name for instruction in circuit] == ["h", "cx", "measure"]

    def test_qubit_bounds_checked(self):
        with pytest.raises(CircuitError):
            Circuit(2).x(2)

    def test_clbit_bounds_checked(self):
        with pytest.raises(CircuitError):
            Circuit(2, 1).measure(0, 1)

    def test_negative_qubit_count_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(-1)

    def test_measure_all_extends_clbits(self):
        circuit = Circuit(3, 0)
        circuit.measure_all()
        assert circuit.num_clbits == 3
        assert circuit.num_measurements() == 3

    def test_barrier_defaults_to_all_qubits(self):
        circuit = Circuit(3).barrier()
        assert circuit[0].qubits == (0, 1, 2)

    def test_copy_is_independent(self):
        circuit = Circuit(2).h(0)
        clone = circuit.copy()
        clone.x(1)
        assert len(circuit) == 1
        assert len(clone) == 2

    def test_equality(self):
        a = Circuit(2).h(0).cx(0, 1)
        b = Circuit(2).h(0).cx(0, 1)
        c = Circuit(2).h(1)
        assert a == b
        assert a != c

    def test_all_builder_methods_produce_valid_instructions(self):
        circuit = Circuit(3)
        circuit.i(0).x(0).y(0).z(0).h(0).s(0).sdg(0).t(0).tdg(0).sx(0).sxdg(0)
        circuit.rx(0.1, 0).ry(0.2, 0).rz(0.3, 0).p(0.4, 0).u(0.1, 0.2, 0.3, 0).r(0.1, 0.2, 0)
        circuit.cx(0, 1).cy(0, 1).cz(0, 1).swap(0, 1).iswap(0, 1)
        circuit.cp(0.1, 0, 1).crx(0.2, 0, 1).cry(0.3, 0, 1).crz(0.4, 0, 1)
        circuit.rzz(0.5, 0, 1).rxx(0.6, 0, 1).ryy(0.7, 0, 1).zzswap(0.8, 0, 1)
        circuit.ccx(0, 1, 2).cswap(0, 1, 2)
        circuit.reset(0).barrier(0, 1).measure(0, 0)
        assert len(circuit) == 35


class TestCircuitComposition:
    def test_compose_identity_mapping(self):
        a = Circuit(3).h(0)
        b = Circuit(2).cx(0, 1)
        a.compose(b)
        assert a[1].qubits == (0, 1)

    def test_compose_with_mapping(self):
        a = Circuit(3)
        b = Circuit(2).cx(0, 1)
        a.compose(b, qubits=[2, 0])
        assert a[0].qubits == (2, 0)

    def test_compose_too_large_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(1).compose(Circuit(2).cx(0, 1))

    def test_inverse_reverses_and_inverts(self):
        circuit = Circuit(2).h(0).s(1).cx(0, 1)
        inverse = circuit.inverse()
        assert [instruction.name for instruction in inverse] == ["cx", "sdg", "h"]

    def test_inverse_of_measurement_rejected(self):
        with pytest.raises(CircuitError):
            Circuit(1, 1).measure(0, 0).inverse()

    def test_inverse_round_trip_is_identity(self):
        circuit = Circuit(2).h(0).cx(0, 1).rz(0.3, 1)
        combined = circuit.copy().compose(circuit.inverse())
        assert np.allclose(combined.unitary(), np.eye(4), atol=1e-9)


class TestCircuitQueries:
    def test_count_ops(self):
        circuit = Circuit(2).h(0).h(1).cx(0, 1).measure_all()
        counts = circuit.count_ops()
        assert counts == {"h": 2, "cx": 1, "measure": 2}

    def test_num_gates_excluding_measurements(self):
        circuit = Circuit(2).h(0).cx(0, 1).measure_all()
        assert circuit.num_gates() == 4
        assert circuit.num_gates(include_measurements=False) == 2

    def test_two_qubit_gate_count(self):
        circuit = Circuit(3).h(0).cx(0, 1).rzz(0.1, 1, 2).ccx(0, 1, 2)
        assert circuit.num_two_qubit_gates() == 3

    def test_measured_and_active_qubits(self):
        circuit = Circuit(4).h(1).cx(1, 3).measure(3, 0)
        assert circuit.active_qubits() == (1, 3)
        assert circuit.measured_qubits() == (3,)

    def test_interaction_graph_edges(self):
        circuit = Circuit(4).cx(0, 1).cx(1, 2).cx(0, 1)
        graph = circuit.interaction_graph()
        assert set(graph.edges()) == {(0, 1), (1, 2)}
        assert graph.number_of_nodes() == 4

    def test_interaction_graph_of_three_qubit_gate(self):
        graph = Circuit(3).ccx(0, 1, 2).interaction_graph()
        assert graph.number_of_edges() == 3

    def test_depth_of_ladder(self):
        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        assert circuit.depth() == 3

    def test_depth_of_parallel_layer(self):
        circuit = Circuit(4).h(0).h(1).h(2).h(3)
        assert circuit.depth() == 1

    def test_two_qubit_critical_path_serial(self):
        circuit = Circuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        on_path, length = circuit.two_qubit_critical_path()
        assert length == 3
        assert on_path == 3

    def test_num_resets(self):
        circuit = Circuit(2).reset(0).reset(1)
        assert circuit.num_resets() == 2


class TestCircuitPropertyBased:
    @given(num_qubits=st.integers(2, 6), seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_depth_never_exceeds_gate_count(self, num_qubits, seed):
        from repro.circuits import random_clifford_circuit

        circuit = random_clifford_circuit(num_qubits, 20, rng=seed)
        assert 0 < circuit.depth() <= len(circuit)

    @given(num_qubits=st.integers(2, 5), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_interaction_graph_degree_bounded(self, num_qubits, seed):
        from repro.circuits import random_clifford_circuit

        circuit = random_clifford_circuit(num_qubits, 30, rng=seed)
        graph = circuit.interaction_graph()
        assert max(dict(graph.degree()).values()) <= num_qubits - 1

    @given(num_qubits=st.integers(3, 6), seed=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_interaction_graph_matches_oracle_neighbour_order(self, num_qubits, seed):
        """Noise-aware placement breaks ties by neighbour order: pin it."""
        rng = np.random.default_rng(seed)
        circuit = Circuit(num_qubits)
        for _ in range(30):
            a, b, c = (int(q) for q in rng.choice(num_qubits, size=3, replace=False))
            roll = rng.random()
            if roll < 0.4:
                circuit.cx(a, b)
            elif roll < 0.55:
                circuit.ccx(a, b, c)
            elif roll < 0.7:
                circuit.rzz(0.3, a, b)
            elif roll < 0.8:
                circuit.barrier(a, b, c)
            else:
                circuit.h(a)
        expected = oracle.interaction_graph(circuit)
        observed = circuit.interaction_graph()
        assert list(observed.nodes) == list(expected.nodes)
        for node in expected:
            assert list(observed.neighbors(node)) == list(expected.neighbors(node))
